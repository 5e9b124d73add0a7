//! Criterion microbenchmarks for the search substrate: maximum-weight
//! bipartite matching, the inverted value index, and end-to-end table
//! scoring for the overlap, D3L, and Starmie searchers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dust_datagen::BenchmarkConfig;
use dust_search::{
    max_weight_matching, D3lSearch, InvertedValueIndex, OverlapSearch, StarmieSearch,
    TableUnionSearch,
};
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_bipartite, bench_search
}
criterion_main!(benches);
