//! Criterion microbenchmarks for the search and matching substrate:
//! maximum-weight bipartite matching, the inverted value index, end-to-end
//! table scoring for the overlap, D3L, and Starmie searchers, the overlap
//! search's shortlist and scores, and holistic column alignment on the
//! benchmark's two lake shapes.
//!
//! `holistic_align/{narrow,wide}` aligns every query of the benchmark's
//! `NARROW` / `WIDE` lake (`benchmark/src/spec.rs`, seed 1447, two queries
//! per domain: 24 and 8 queries) with the five tables the overlap search
//! retrieves for it — the shape a served query aligns, ~36 columns — one
//! iteration per whole query set. Before timing, every alignment is checked
//! against the per-column path (`build_corpus` over the same columns, then
//! `embed_column` per column) — a failed guard aborts the bench.
//!
//! ## Where an alignment's time went
//!
//! In-process split of `HolisticAligner::align` on those inputs (median
//! n = 36 columns, at most 42), ms per query, 20 repetitions, one core of a
//! shared 2-vCPU Sapphire Rapids box; before = the member-list constraint
//! scan and the `String`-keyed TF-IDF path, after = the conflict matrix
//! and `ColumnEncoder::embed_columns`, every alignment bit-identical:
//!
//! | | narrow before | narrow after | wide before | wide after |
//! |---|---|---|---|---|
//! | **`align`, total** | **2.94–3.00** | **0.62** | **7.68–7.74** | **1.67–1.75** |
//! | `build_corpus` (tokenise, `String` per token) | 0.25 | — | 1.82–1.84 | — |
//! | embed columns (tokenise again, select, weight, hash) | 0.48–0.49 | 0.18 | 3.74–3.75 | 1.26–1.32 |
//! | pairwise matrix | 0.19 | 0.20 | 0.18–0.19 | 0.17 |
//! | constrained clustering | 1.83–1.87 | 0.044 | 1.72 | 0.047–0.048 |
//! | silhouette sweep | 0.16 | 0.15 | 0.15 | 0.15–0.16 |
//! | cannot-link list | 0.002 | 0.002 | 0.002 | 0.002 |
//!
//! The clustering was an admissibility test that rescanned the whole
//! cannot-link list (every same-table pair, ~100 of them) with `contains`
//! on two member lists for every candidate pair of every round; it is now
//! one lookup in an `n × n` conflict matrix. The column side tokenised each
//! column twice with one `String` per token; `embed_columns` tokenises it
//! once into term ids and computes each term's IDF once. The wide lake's
//! columns are ~10× longer (36 of its 216 columns exceed the 512-token
//! budget, up to 763 tokens), so its text side stays the larger part.
//!
//! ## Where an overlap search's time went
//!
//! `overlap_shortlist/{narrow,wide}_resident` and
//! `overlap_score/{narrow,wide}_resident` split `search.overlap` on the
//! same lakes (every query per iteration, value sets warm). Ms per query,
//! the range of the medians of three alternating runs, one core of the
//! same box; before = the index's postings as sets of table names and each
//! shortlisted table scored by `score_pair` (every query column merged with
//! every column of the table), after = column postings and one walk per
//! query column, every ranking and score bit-identical:
//!
//! | | narrow before | narrow after | wide before | wide after |
//! |---|---|---|---|---|
//! | shortlist: `candidates(query, 200)` | 0.13–0.16 | 0.044–0.057 | 0.29–0.46 | 0.065–0.088 |
//! | score: `score_pair` per shortlisted table, or the walk | 1.77–2.07 | 0.017–0.024 | 1.14–1.53 | 0.067–0.086 |
//! | `overlap_search_top5/narrow_resident` (seed 7, one cold query) | 2.11–2.55 | 0.057–0.072 | | |
//!
//! The narrow shortlist holds most of the lake's 192 tables, so scoring it
//! was thousands of sorted-set merges per query; the walk visits only the
//! (value, column) incidences the query shares. After the change the
//! shortlist and the scores come from the same walk: `overlap_shortlist`
//! is the walk plus ranking the tables by shared values and naming them,
//! `overlap_score` the walk alone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dust_align::HolisticAligner;
use dust_datagen::BenchmarkConfig;
use dust_embed::ColumnEncoder;
use dust_search::{
    max_weight_matching, D3lSearch, InvertedValueIndex, OverlapSearch, StarmieSearch,
    TableUnionSearch,
};
use dust_table::{DataLake, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_bipartite(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("bipartite_matching");
    for &n in &[8usize, 16, 32] {
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &weights, |b, w| {
            b.iter(|| max_weight_matching(black_box(w)));
        });
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let lake = BenchmarkConfig::tiny().generate().lake;
    let query_name = lake.query_names()[0].clone();
    let query = lake.query(&query_name).unwrap().clone();

    c.bench_function("inverted_index_build", |b| {
        b.iter(|| InvertedValueIndex::build(black_box(&lake)));
    });

    let overlap = OverlapSearch::new();
    c.bench_function("overlap_search_top5", |b| {
        b.iter(|| overlap.search(black_box(&lake), black_box(&query), 5));
    });
    // The kernel behind the benchmark's `search.overlap_ms`: its narrow lake
    // (192 tables of ~17 rows), a resident index, and a query whose value
    // sets are cold, as a request's are.
    let narrow = BenchmarkConfig {
        num_domains: 12,
        lake_tables_per_domain: 16,
        base_rows: 50,
        queries_per_domain: 1,
        min_row_fraction: 0.32,
        max_row_fraction: 0.38,
        min_columns: usize::MAX,
        seed: 7,
        ..BenchmarkConfig::santos()
    }
    .generate()
    .lake;
    let narrow_index = InvertedValueIndex::build(&narrow);
    let narrow_query = narrow.queries().next().unwrap().clone();
    let rows: Vec<usize> = (0..narrow_query.num_rows()).collect();
    c.bench_function("overlap_search_top5/narrow_resident", |b| {
        b.iter(|| {
            let request = narrow_query.select(&rows, "request").unwrap();
            overlap.search_with_index(black_box(&narrow), &request, 5, &narrow_index)
        });
    });
    let d3l = D3lSearch::new();
    c.bench_function("d3l_search_top5", |b| {
        b.iter(|| d3l.search(black_box(&lake), black_box(&query), 5));
    });
    let starmie = StarmieSearch::new();
    c.bench_function("starmie_search_top5", |b| {
        b.iter(|| starmie.search(black_box(&lake), black_box(&query), 5));
    });
}

/// The benchmark's `NARROW` or `WIDE` lake (`benchmark/src/spec.rs`) at
/// seed 1447, two queries per domain.
fn bench_lake(wide: bool) -> DataLake {
    let (name, num_domains, lake_tables_per_domain, base_rows, min_row_fraction, max_row_fraction) =
        if wide {
            ("wide", 4, 5, 480, 0.34, 0.36)
        } else {
            ("narrow", 12, 16, 50, 0.32, 0.38)
        };
    BenchmarkConfig {
        name: name.into(),
        num_domains,
        lake_tables_per_domain,
        base_rows,
        queries_per_domain: 2,
        min_row_fraction,
        max_row_fraction,
        min_columns: usize::MAX,
        seed: 1447,
        ..BenchmarkConfig::santos()
    }
    .generate()
    .lake
}

/// `search.overlap` split into its shortlist and its scores, over every
/// query of each lake shape per iteration. Before timing, each query's
/// whole ranking from the walk is checked against the `score_pair` path
/// (the index's shortlist, each table scored by merging value sets) table
/// for table and bit for bit — a failed guard aborts the bench.
fn bench_overlap_split(c: &mut Criterion) {
    let search = OverlapSearch::new();
    for (shape, wide) in [("narrow", false), ("wide", true)] {
        let lake = bench_lake(wide);
        let index = InvertedValueIndex::build(&lake);
        let queries: Vec<&Table> = lake.queries().collect();
        for query in &queries {
            let walk = search.search_with_index(&lake, query, usize::MAX, &index);
            let mut merged: Vec<(String, u64)> = (index.candidates(query, search.candidate_limit))
                .into_iter()
                .map(|(name, _)| {
                    let score = search.score_pair(query, lake.table(&name).unwrap());
                    (name, score.to_bits())
                })
                .collect();
            merged.sort_by(|a, b| {
                (f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1))).then_with(|| a.0.cmp(&b.0))
            });
            let walk: Vec<(String, u64)> = (walk.into_iter())
                .map(|hit| (hit.table, hit.score.to_bits()))
                .collect();
            assert_eq!(walk, merged, "the walk left score_pair on {}", query.name());
        }
        c.bench_function(format!("overlap_shortlist/{shape}_resident"), |b| {
            b.iter(|| {
                (queries.iter())
                    .map(|query| index.candidates(black_box(query), search.candidate_limit))
                    .collect::<Vec<_>>()
            });
        });
        c.bench_function(format!("overlap_score/{shape}_resident"), |b| {
            b.iter(|| {
                (queries.iter())
                    .map(|query| index.overlaps(black_box(query)))
                    .collect::<Vec<_>>()
            });
        });
    }
}

/// Every query of a benchmark-shaped lake with the tables the overlap
/// search retrieves for it (the five a served query aligns).
fn alignment_inputs(wide: bool) -> Vec<(Table, Vec<Table>)> {
    let lake = bench_lake(wide);
    let index = InvertedValueIndex::build(&lake);
    let search = OverlapSearch::new();
    lake.queries()
        .map(|query| {
            let tables = search
                .search_with_index(&lake, query, 5, &index)
                .into_iter()
                .map(|hit| lake.table(&hit.table).unwrap().clone())
                .collect();
            (query.clone(), tables)
        })
        .collect()
}

fn bench_holistic_align(c: &mut Criterion) {
    let aligner = HolisticAligner::new();
    let mut group = c.benchmark_group("holistic_align");
    for (shape, wide) in [("narrow", false), ("wide", true)] {
        let inputs = alignment_inputs(wide);
        let cases: Vec<(&Table, Vec<&Table>)> = inputs
            .iter()
            .map(|(query, tables)| (query, tables.iter().collect()))
            .collect();
        for (query, tables) in &cases {
            let corpus = ColumnEncoder::build_corpus(
                query
                    .columns()
                    .iter()
                    .chain(tables.iter().flat_map(|t| t.columns().iter())),
            );
            let per_column = aligner.align_with(query, tables, |table| {
                table
                    .columns()
                    .iter()
                    .map(|c| aligner.encoder.embed_column(c, &corpus))
                    .collect()
            });
            assert_eq!(
                aligner.align(query, tables),
                per_column,
                "the batch column side left the per-column path on {}",
                query.name()
            );
        }
        group.bench_function(shape, |b| {
            b.iter(|| {
                cases
                    .iter()
                    .map(|(query, tables)| aligner.align(black_box(query), tables))
                    .collect::<Vec<_>>()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_bipartite, bench_search, bench_overlap_split, bench_holistic_align
}
criterion_main!(benches);
