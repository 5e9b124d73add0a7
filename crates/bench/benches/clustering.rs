//! Criterion microbenchmarks for the clustering substrate: agglomerative
//! clustering (the inner loop of both DUST's diversifier and the holistic
//! column aligner) with its two engines head to head, silhouette scoring,
//! and medoid extraction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dust_bench::setup::clustered_points;
use dust_cluster::{
    agglomerative, agglomerative_with, best_cut_by_silhouette, best_cut_by_silhouette_from_matrix,
    cluster_medoids, silhouette_score, AgglomerativeAlgorithm, Linkage,
};
use dust_embed::{Distance, PairwiseMatrix};

fn bench_agglomerative(c: &mut Criterion) {
    let mut group = c.benchmark_group("agglomerative");
    group.sample_size(10);
    for &n in &[100usize, 400, 800] {
        let points = clustered_points(n, 32, 7);
        group.bench_with_input(BenchmarkId::new("average_linkage", n), &points, |b, pts| {
            b.iter(|| agglomerative(black_box(pts), Distance::Cosine, Linkage::Average));
        });
    }
    group.finish();
}

/// NN-chain vs cached-NN generic engine over a prebuilt pairwise matrix
/// (the matrix build is shared by both in the pipeline, so it is excluded
/// here). This is the `BENCH_cluster.json` source.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    group.sample_size(10);
    for &n in &[100usize, 200, 1000, 2000] {
        let points = clustered_points(n, 32, 7);
        let matrix = PairwiseMatrix::compute(&points, Distance::Cosine);
        for (name, algorithm) in [
            ("nn_chain", AgglomerativeAlgorithm::NnChain),
            ("generic", AgglomerativeAlgorithm::Generic),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &matrix, |b, m| {
                b.iter(|| agglomerative_with(black_box(m), Linkage::Average, algorithm, 1));
            });
        }
    }
    group.finish();
}

/// Full build vs the k-capped (`k·p = 100`) build DUST actually consumes,
/// both through `agglomerative_with`, which compacts the workspace at
/// every size here. `BENCH_cluster.json`'s `clustering_capped` section
/// comes from this group; its `full` row was recorded without compaction,
/// which the entry point no longer offers.
fn bench_capped_compacting(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering_capped");
    group.sample_size(10);
    for &n in &[2000usize, 5000, 10000] {
        let points = clustered_points(n, 32, 7);
        let matrix = PairwiseMatrix::compute(&points, Distance::Cosine);
        for (name, min_clusters) in [("full", 1usize), ("capped_compacting", 100)] {
            group.bench_with_input(BenchmarkId::new(name, n), &matrix, |b, m| {
                b.iter(|| {
                    agglomerative_with(
                        black_box(m),
                        Linkage::Average,
                        AgglomerativeAlgorithm::Generic,
                        min_clusters,
                    )
                });
            });
        }
    }
    group.finish();
}

/// Silhouette model selection (the alignment path): one matrix per sweep
/// vs the historical one-matrix-per-candidate-k behaviour, approximated by
/// the points-taking entry (which at least builds only one). The
/// from-matrix entry is what `HolisticAligner::align_with` now calls.
fn bench_silhouette_model_selection(c: &mut Criterion) {
    let points = clustered_points(120, 32, 11);
    let matrix = PairwiseMatrix::compute(&points, Distance::Cosine);
    let dendrogram = agglomerative(&points, Distance::Cosine, Linkage::Average);
    c.bench_function("silhouette_sweep_120_k2_30_from_matrix", |b| {
        b.iter(|| {
            best_cut_by_silhouette_from_matrix(black_box(&dendrogram), black_box(&matrix), 2, 30)
        });
    });
    c.bench_function("silhouette_sweep_120_k2_30_build_matrix", |b| {
        b.iter(|| {
            best_cut_by_silhouette(
                black_box(&dendrogram),
                black_box(&points),
                Distance::Cosine,
                2,
                30,
            )
        });
    });
}

fn bench_cut_and_medoids(c: &mut Criterion) {
    let points = clustered_points(400, 32, 11);
    let dendrogram = agglomerative(&points, Distance::Cosine, Linkage::Average);
    c.bench_function("dendrogram_cut_50", |b| {
        b.iter(|| black_box(&dendrogram).cut(50));
    });
    let assignment = dendrogram.cut(50);
    c.bench_function("cluster_medoids_50", |b| {
        b.iter(|| cluster_medoids(black_box(&points), black_box(&assignment), Distance::Cosine));
    });
    c.bench_function("silhouette_400", |b| {
        b.iter(|| silhouette_score(black_box(&points), black_box(&assignment), Distance::Cosine));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_agglomerative, bench_engines, bench_capped_compacting, bench_silhouette_model_selection, bench_cut_and_medoids
}
criterion_main!(benches);
