//! Mutation ≡ rebuild equivalence suite: incremental lake mutation on a
//! resident [`LakeSession`] must be a pure performance optimisation, never
//! a behaviour change.
//!
//! The pinned guarantee (the headline contract of `LakeSession::add_table`
//! / `remove_table`): after **any** sequence of add/remove mutations, the
//! session's `query` and `similar_tuples` results are **bit-identical** to a fresh `LakeSession::new` built over the mutated
//! lake — across all three search techniques and both embedder kinds.
//!
//! Randomized coverage comes from a proptest over mutation sequences drawn
//! from a table pool (an op *toggles* its table: present → remove, absent
//! → add, so remove-then-re-add under the same name arises naturally).
//! Curated cases pin the edges: re-adding a *different* table under a
//! removed name, emptying the lake and growing it again, and growing a
//! session that started over an empty lake.

mod common;

use common::assert_same_result;
use dust_core::{LakeSession, PipelineConfig, SearchTechnique};
use dust_datagen::BenchmarkConfig;
use dust_embed::{
    desc_nan_last, Distance, EmbeddingStore, FineTuneConfig, PretrainedModel, TupleEncoder, Vector,
};
use dust_table::{DataLake, Table};
use proptest::prelude::*;

const TECHNIQUES: [SearchTechnique; 3] = [
    SearchTechnique::Overlap,
    SearchTechnique::D3l,
    SearchTechnique::Starmie,
];

fn tiny_lake() -> DataLake {
    BenchmarkConfig::tiny().generate().lake
}

/// The mutation pool: every tiny-lake table (initially present) plus a few
/// synthesized tables (initially absent). An op index toggles one pool
/// entry in and out of the lake.
fn table_pool(lake: &DataLake) -> Vec<Table> {
    let mut pool: Vec<Table> = lake.tables().cloned().collect();
    pool.push(
        Table::builder("extra_parks")
            .column("Park Name", ["Delta Park", "Echo Park", "Foxtrot Park"])
            .column("Country", ["USA", "USA", "Canada"])
            .build()
            .unwrap(),
    );
    pool.push(
        Table::builder("extra_molecules")
            .column("Formula", ["C8H10N4O2", "C9H8O4"])
            .column("Mass", ["194.19", "180.16"])
            .build()
            .unwrap(),
    );
    pool.push(
        Table::builder("extra_empty_ish")
            .column("only", ["one"])
            .build()
            .unwrap(),
    );
    pool
}

/// Apply the toggle-encoded mutation sequence to the session, asserting
/// each step succeeds. Returns how many mutations were applied.
fn apply_ops(session: &LakeSession, pool: &[Table], ops: &[usize]) -> u64 {
    let mut applied = 0;
    for &op in ops {
        let table = &pool[op % pool.len()];
        if session.lake().table(table.name()).is_ok() {
            let removed = session.remove_table(table.name()).unwrap();
            assert_eq!(removed.name(), table.name());
        } else {
            session.add_table(table.clone()).unwrap();
        }
        applied += 1;
    }
    // never finish on an empty lake: the comparison queries need candidates
    if session.lake().num_tables() == 0 {
        session.add_table(pool[0].clone()).unwrap();
        applied += 1;
    }
    applied
}

/// The full equivalence check: mutated session vs a fresh session built
/// over the mutated lake, compared bit-for-bit on every serving surface.
fn assert_session_matches_rebuild(mutated: &LakeSession, probes: &[Table], context: &str) {
    let fresh = LakeSession::new(mutated.lake().clone(), mutated.config().clone());

    // resident-state shape (excluding wall-clock build time)
    let (ms, fs) = (mutated.stats(), fresh.stats());
    assert_eq!(ms.tables, fs.tables, "{context}: table counts differ");
    assert_eq!(ms.tuples, fs.tuples, "{context}: tuple counts differ");
    assert_eq!(ms.columns, fs.columns, "{context}: column counts differ");
    assert_eq!(ms.tuple_dim, fs.tuple_dim, "{context}: tuple dim differs");

    for (qi, probe) in probes.iter().enumerate() {
        // Algorithm 1, end to end
        let a = mutated.query(probe, 4).unwrap();
        let b = fresh.query(probe, 4).unwrap();
        assert_same_result(&a, &b, &format!("{context}: query {qi}"));

        // tuple-level serving
        let at = mutated.similar_tuples(probe, 8);
        let bt = fresh.similar_tuples(probe, 8);
        assert_eq!(at.len(), bt.len(), "{context}: similar_tuples length");
        for (x, y) in at.iter().zip(&bt) {
            assert_eq!(x.table, y.table, "{context}: similar_tuples table");
            assert_eq!(x.row, y.row, "{context}: similar_tuples row");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{context}: similar_tuples score for {}:{}",
                x.table,
                x.row
            );
        }
    }
}

fn probes(lake: &DataLake, n: usize) -> Vec<Table> {
    lake.query_names()
        .iter()
        .take(n)
        .map(|name| lake.query(name).unwrap().clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mutation sequences, all three search techniques, pre-trained
    /// embedder: mutated session ≡ fresh rebuild, bit for bit, on every
    /// serving surface.
    #[test]
    fn random_mutation_sequences_match_rebuild_across_techniques(
        ops in prop::collection::vec(0usize..12, 1..8),
    ) {
        let lake = tiny_lake();
        let pool = table_pool(&lake);
        let query_probes = probes(&lake, 2);
        for technique in TECHNIQUES {
            let config = PipelineConfig {
                search: technique,
                ..PipelineConfig::fast()
            };
            let session = LakeSession::new(lake.clone(), config);
            let applied = apply_ops(&session, &pool, &ops);
            prop_assert_eq!(session.generation(), applied);
            assert_session_matches_rebuild(
                &session,
                &query_probes,
                &format!("{technique:?}, ops {ops:?}"),
            );
        }
    }

    /// The fine-tuned embedder's model is lake-derived, so mutations take
    /// the documented recompute fallback (retrain + re-embed). Training is
    /// deterministic, so the rebuilt-model session must still match a
    /// fresh rebuild bit for bit.
    #[test]
    fn fine_tuned_mutations_match_rebuild_via_retraining(
        ops in prop::collection::vec(0usize..12, 1..4),
    ) {
        let lake = tiny_lake();
        let pool = table_pool(&lake);
        let query_probes = probes(&lake, 1);
        let config = PipelineConfig {
            embedder: dust_core::TupleEmbedderKind::FineTuned {
                backbone: PretrainedModel::Bert,
                config: FineTuneConfig {
                    hidden_dim: 16,
                    output_dim: 8,
                    max_epochs: 2,
                    patience: 1,
                    ..FineTuneConfig::default()
                },
                training_pairs: 40,
            },
            tables_per_query: 5,
            ..PipelineConfig::default()
        };
        let session = LakeSession::new(lake, config);
        apply_ops(&session, &pool, &ops);
        assert_session_matches_rebuild(
            &session,
            &query_probes,
            &format!("fine-tuned, ops {ops:?}"),
        );
    }
}

/// Re-adding a *different* table under a previously removed name: the
/// remove-then-add path is the sanctioned replace, and the session must
/// serve the replacement exactly as a fresh build would.
#[test]
fn remove_then_readd_same_name_with_different_content() {
    let lake = tiny_lake();
    let victim = lake.table_names()[0].clone();
    let query_probes = probes(&lake, 2);
    let session = LakeSession::new(lake, PipelineConfig::fast());

    // replace is two explicit steps — a bare duplicate add must fail
    let replacement = Table::builder(victim.as_str())
        .column("Completely", ["different", "content"])
        .column("Shape", ["entirely", "changed"])
        .build()
        .unwrap();
    assert!(session.add_table(replacement.clone()).is_err());
    session.remove_table(&victim).unwrap();
    session.add_table(replacement).unwrap();
    assert_eq!(session.generation(), 2);
    assert_eq!(
        session.lake().table(&victim).unwrap().headers(),
        ["Completely".to_string(), "Shape".to_string()]
    );
    assert_session_matches_rebuild(&session, &query_probes, "replace via remove+add");
}

/// Removing every table leaves a session with no blocks at all, which must
/// keep serving; re-adding two tables (in the opposite of name order) must
/// then be indistinguishable from a fresh build over those two.
#[test]
fn remove_every_table_then_readd_two() {
    let lake = tiny_lake();
    let query_probes = probes(&lake, 2);
    let names = lake.table_names();
    let session = LakeSession::new(lake.clone(), PipelineConfig::fast());
    for name in &names {
        session.remove_table(name).unwrap();
    }
    let stats = session.stats();
    assert_eq!((stats.tables, stats.tuples, stats.tuple_dim), (0, 0, 0));
    assert!(session.similar_tuples(&query_probes[0], 5).is_empty());
    for name in names.iter().rev().take(2) {
        session
            .add_table(lake.table(name).unwrap().clone())
            .unwrap();
    }
    assert_eq!(session.generation(), names.len() as u64 + 2);
    assert_session_matches_rebuild(&session, &query_probes, "emptied and regrown");
}

/// A session constructed over a completely empty lake grows table by table
/// and must be indistinguishable from a session built after the fact.
#[test]
fn add_to_empty_lake() {
    let empty = DataLake::new("starts_empty");
    let donor = tiny_lake();
    let session = LakeSession::new(empty, PipelineConfig::fast());
    assert_eq!(session.stats().tables, 0);
    assert_eq!(session.stats().tuples, 0);
    let names = donor.table_names();
    for name in names.iter().take(3) {
        session
            .add_table(donor.table(name).unwrap().clone())
            .unwrap();
    }
    assert_eq!(session.generation(), 3);
    let query_probes = probes(&donor, 2);
    assert_session_matches_rebuild(&session, &query_probes, "grown from empty");
}

/// `similar_tuples` against an oracle kept here, for every `k`: the oracle
/// scores one (lake tuple, probe tuple) pair at a time — both norms
/// recomputed for every pair, similarity as `1 − cosine distance` — and
/// ranks by a full sort over owned table names, where the session packs the
/// probes once, scores lake rows in tiles and ranks borrowed keys. Table,
/// row and `score.to_bits()` must agree. The lake holds the same tuples
/// under two table names (exactly tied scores, so the table → row
/// tie-break decides) and has been through adds and a remove (so the
/// ranking reads blocks of three generations).
#[test]
fn similar_tuples_matches_a_per_pair_oracle_for_every_k() {
    let twin = |name: &str| {
        Table::builder(name)
            .column("Park Name", ["Delta Park", "Echo Park", "Foxtrot Park"])
            .column("Country", ["USA", "USA", "Canada"])
            .build()
            .unwrap()
    };
    let lake = tiny_lake();
    let victim = lake.table_names()[1].clone();
    let session = LakeSession::new(lake, PipelineConfig::fast());
    session.add_table(twin("twin_b")).unwrap();
    session.add_table(twin("twin_a")).unwrap();
    session.remove_table(&victim).unwrap();
    let rows = session.stats().tuples;

    // two probe tuples, one of them an exact copy of a twin row
    let probe = Table::builder("probe")
        .column("Park Name", ["Echo Park", "Golf Park"])
        .column("Country", ["USA", "Mexico"])
        .build()
        .unwrap();

    let encoder = TupleEncoder::new(PretrainedModel::Roberta);
    let probe_embeddings: Vec<Vector> = (probe.tuples().iter())
        .map(|t| encoder.embed_tuple(t))
        .collect();
    let mut expected: Vec<(String, usize, f64)> = Vec::new();
    for table in session.lake().tables() {
        for (row, tuple) in table.tuples().iter().enumerate() {
            let lake_side = EmbeddingStore::from_vectors(&[encoder.embed_tuple(tuple)]);
            let score = (probe_embeddings.iter())
                .map(|q| {
                    let probe_side = EmbeddingStore::from_vectors(std::slice::from_ref(q));
                    1.0 - lake_side.cross_distance(Distance::Cosine, 0, &probe_side, 0)
                })
                .fold(f64::NEG_INFINITY, f64::max);
            expected.push((table.name().to_string(), row, score));
        }
    }
    assert_eq!(expected.len(), rows);
    expected.sort_by(|a, b| {
        desc_nan_last(a.2, b.2)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    // the copied row ties across the twins, and the tie-break orders them
    assert_eq!(
        (expected[0].0.as_str(), expected[0].1),
        ("twin_a", 1),
        "the exact copy should rank first, under the smaller table name"
    );
    assert_eq!((expected[1].0.as_str(), expected[1].1), ("twin_b", 1));
    assert_eq!(expected[0].2.to_bits(), expected[1].2.to_bits());

    // a probe with columns but no rows matches nothing
    let rowless = Table::builder("rowless")
        .column("Park Name", [""; 0])
        .column("Country", [""; 0])
        .build()
        .unwrap();

    for k in 0..=expected.len() + 1 {
        assert!(session.similar_tuples(&rowless, k).is_empty(), "k = {k}");
        let ranked = session.similar_tuples(&probe, k);
        assert_eq!(ranked.len(), k.min(expected.len()), "k = {k}");
        for (position, (got, want)) in ranked.iter().zip(&expected).enumerate() {
            assert_eq!(
                (got.table.as_str(), got.row, got.score.to_bits()),
                (want.0.as_str(), want.1, want.2.to_bits()),
                "k = {k}, position {position}"
            );
        }
    }
}
