//! Integration tests of holistic column alignment + outer union on
//! generator-produced tables (where the true alignment is known from the
//! domain schema), plus property tests on the alignment invariants.

use dust_align::{
    alignment_items, bipartite_alignment, ground_truth_from_map, outer_union, precision_recall_f1,
    ColumnRef, HolisticAligner,
};
use dust_datagen::{generate_base_table, BenchmarkConfig, DeriveOptions, Domain};
use dust_embed::{ColumnEncoder, ColumnSerialization, PretrainedModel};
use dust_search::StarmieSearch;
use dust_table::Table;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonicalize a header of a domain (alt name → canonical name).
fn canonical(domain: &Domain, header: &str) -> String {
    domain
        .columns
        .iter()
        .find(|c| c.name == header || c.alt_name == header)
        .map(|c| c.name.to_string())
        .unwrap_or_else(|| header.to_string())
}

fn alignment_ground_truth(
    domain: &Domain,
    query: &Table,
    tables: &[&Table],
) -> std::collections::BTreeSet<dust_align::AlignmentItem> {
    let mut mapping = Vec::new();
    for q_header in query.headers() {
        let q_canonical = canonical(domain, q_header);
        let mut members = Vec::new();
        for table in tables {
            for header in table.headers() {
                if canonical(domain, header) == q_canonical {
                    members.push(ColumnRef::new(table.name(), header.clone()));
                }
            }
        }
        mapping.push((q_header.clone(), members));
    }
    ground_truth_from_map(query, &mapping)
}

fn derived_parks() -> (Domain, Table, Vec<Table>) {
    let domain = Domain::by_name("parks").unwrap();
    let base = generate_base_table(&domain, 80, 21);
    let mut rng = StdRng::seed_from_u64(33);
    let options = DeriveOptions {
        min_columns: 3,
        keep_subject: true,
        alt_name_probability: 0.5,
        ..DeriveOptions::default()
    };
    let query = dust_datagen::derive_table(&base, "parks_query_0", &options, &mut rng);
    let tables: Vec<Table> = (0..4)
        .map(|i| dust_datagen::derive_table(&base, &format!("parks_dl_{i}"), &options, &mut rng))
        .collect();
    (domain, query, tables)
}

#[test]
fn holistic_alignment_recovers_most_true_alignments() {
    let (domain, query, tables) = derived_parks();
    let refs: Vec<&Table> = tables.iter().collect();
    let aligner = HolisticAligner::new();
    let alignment = aligner.align(&query, &refs);
    let method = alignment_items(&alignment, &query);
    let truth = alignment_ground_truth(&domain, &query, &refs);
    let scores = precision_recall_f1(&method, &truth);
    assert!(
        scores.f1 > 0.5,
        "holistic alignment F1 too low: {scores:?}\nalignment: {alignment:?}"
    );
}

#[test]
fn holistic_beats_or_matches_starmie_bipartite_embeddings() {
    // Table 1's qualitative finding: Starmie's table-contextualized
    // embeddings are a poor basis for column alignment compared with the
    // holistic column-level encoder.
    let (domain, query, tables) = derived_parks();
    let refs: Vec<&Table> = tables.iter().collect();
    let truth = alignment_ground_truth(&domain, &query, &refs);

    let holistic = HolisticAligner::with_encoder(ColumnEncoder::new(
        PretrainedModel::Roberta,
        ColumnSerialization::ColumnLevel,
    ));
    let holistic_f1 = {
        let a = holistic.align(&query, &refs);
        precision_recall_f1(&alignment_items(&a, &query), &truth).f1
    };
    let starmie = StarmieSearch::new();
    let starmie_f1 = {
        let a = bipartite_alignment(&query, &refs, |t| starmie.contextual_column_embeddings(t));
        precision_recall_f1(&alignment_items(&a, &query), &truth).f1
    };
    assert!(
        holistic_f1 >= starmie_f1,
        "holistic column-level RoBERTa ({holistic_f1:.3}) should not lose to Starmie bipartite ({starmie_f1:.3})"
    );
}

#[test]
fn outer_union_covers_every_row_of_aligned_tables() {
    let (_, query, tables) = derived_parks();
    let refs: Vec<&Table> = tables.iter().collect();
    let alignment = HolisticAligner::new().align(&query, &refs);
    let tuples = outer_union(&query, &refs, &alignment);
    // every table that received an alignment contributes all of its rows
    let aligned_tables: std::collections::HashSet<&str> = alignment
        .clusters
        .iter()
        .flat_map(|c| c.members.iter().map(|m| m.table.as_str()))
        .collect();
    let expected_rows: usize = refs
        .iter()
        .filter(|t| aligned_tables.contains(t.name()))
        .map(|t| t.num_rows())
        .sum();
    assert_eq!(tuples.len(), expected_rows);
    for tuple in &tuples {
        assert_eq!(tuple.headers(), query.headers());
        assert!(
            tuple.non_null_count() > 0,
            "outer union produced an empty tuple"
        );
    }
}

#[test]
fn alignment_works_across_generated_benchmark_queries() {
    let lake = BenchmarkConfig::tiny().generate().lake;
    let aligner = HolisticAligner::new();
    for query_name in lake.query_names() {
        let query = lake.query(&query_name).unwrap();
        let unionable = lake.ground_truth().unionable_with(&query_name);
        let tables: Vec<&Table> = unionable
            .iter()
            .filter_map(|t| lake.table(t).ok())
            .collect();
        let alignment = aligner.align(query, &tables);
        // each query column appears at most once among clusters
        let mut seen = std::collections::HashSet::new();
        for cluster in &alignment.clusters {
            assert!(seen.insert(cluster.query_column.clone()));
            // no two members of a cluster come from the same table
            let mut member_tables: Vec<&str> =
                cluster.members.iter().map(|m| m.table.as_str()).collect();
            member_tables.sort_unstable();
            let len_before = member_tables.len();
            member_tables.dedup();
            assert_eq!(len_before, member_tables.len());
        }
        // at least one data-lake column aligns somewhere
        assert!(alignment.aligned_column_count() > 0, "query {query_name}");
    }
}

/// FNV-1a-64 over a canonical byte encoding of every query's alignment and
/// selection: a string is its bytes plus `0x00`, a `u64` its 8
/// little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of `LakeSession::query(q, 10)` over every query of one
/// benchmark-shaped lake (`benchmark/src/spec.rs`'s `NARROW` / `WIDE`, four
/// queries per domain): per query, each cluster's query column, members and
/// a `0xFF` terminator, the discarded columns, the silhouette and cluster
/// count, then every selected tuple's provenance and the average
/// diversity. Returns the digest and the number of queries.
fn alignment_selection_digest(wide: bool, seed: u64) -> (u64, usize) {
    use dust_core::{LakeSession, PipelineConfig};
    let (name, num_domains, lake_tables_per_domain, base_rows, min_row_fraction, max_row_fraction) =
        if wide {
            ("wide", 4, 5, 480, 0.34, 0.36)
        } else {
            ("narrow", 12, 16, 50, 0.32, 0.38)
        };
    let lake = BenchmarkConfig {
        name: name.into(),
        num_domains,
        lake_tables_per_domain,
        base_rows,
        queries_per_domain: 4,
        min_row_fraction,
        max_row_fraction,
        min_columns: usize::MAX,
        seed,
        ..BenchmarkConfig::santos()
    }
    .generate()
    .lake;
    let queries: Vec<Table> = lake.queries().cloned().collect();
    let session = LakeSession::new(lake, PipelineConfig::fast());
    let mut h = Fnv(0xcbf29ce484222325);
    for query in &queries {
        let result = session.query(query, 10).expect("benchmark query");
        let alignment = &result.alignment;
        for cluster in &alignment.clusters {
            h.str(&cluster.query_column);
            for member in &cluster.members {
                h.str(&member.table);
                h.str(&member.column);
            }
            h.bytes(&[0xFF]);
        }
        for discarded in &alignment.discarded {
            h.str(&discarded.table);
            h.str(&discarded.column);
        }
        h.u64(alignment.silhouette.map_or(u64::MAX, f64::to_bits));
        h.u64(alignment.num_clusters as u64);
        for tuple in &result.tuples {
            h.str(tuple.source_table());
            h.u64(tuple.source_row() as u64);
        }
        h.u64(result.diversity.average.to_bits());
    }
    (h.0, queries.len())
}

/// Alignment + selection goldens computed before the constrained
/// clustering's conflict matrix and the column side's one-pass tokeniser
/// replaced the member-list scan and the `String`-keyed TF-IDF path: both
/// must leave every alignment and every selected tuple where it was.
#[test]
fn alignment_and_selection_goldens_narrow() {
    assert_eq!(
        alignment_selection_digest(false, 1447),
        (0xa1a28d7e3ffb5082, 48)
    );
    assert_eq!(
        alignment_selection_digest(false, 7),
        (0xb5ee03ecc3a23e3b, 48)
    );
}

/// The wide lake's goldens (about a minute and a half unoptimised; run with
/// `cargo test --release --test alignment_integration -- --ignored`).
#[test]
#[ignore]
fn alignment_and_selection_goldens_wide() {
    assert_eq!(
        alignment_selection_digest(true, 1447),
        (0x46823f33ac6cc938, 16)
    );
    assert_eq!(
        alignment_selection_digest(true, 7),
        (0x0135de6b3b6e3b9b, 16)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The alignment-evaluation scores are proper fractions and a method's
    /// items always score 1.0 against themselves.
    #[test]
    fn precision_recall_are_fractions(seed in 0u64..500) {
        let domain = Domain::by_name("schools").unwrap();
        let base = generate_base_table(&domain, 30, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let options = DeriveOptions { keep_subject: true, ..DeriveOptions::default() };
        let query = dust_datagen::derive_table(&base, "q", &options, &mut rng);
        let table = dust_datagen::derive_table(&base, "t", &options, &mut rng);
        let aligner = HolisticAligner::new();
        let alignment = aligner.align(&query, &[&table]);
        let items = alignment_items(&alignment, &query);
        let truth = alignment_ground_truth(&domain, &query, &[&table]);
        let scores = precision_recall_f1(&items, &truth);
        prop_assert!((0.0..=1.0).contains(&scores.precision));
        prop_assert!((0.0..=1.0).contains(&scores.recall));
        prop_assert!((0.0..=1.0).contains(&scores.f1));
        let self_scores = precision_recall_f1(&items, &items);
        prop_assert!((self_scores.f1 - 1.0).abs() < 1e-9 || items.is_empty());
    }
}
