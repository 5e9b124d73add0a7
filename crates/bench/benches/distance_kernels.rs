//! Microbenchmarks of the shared distance-kernel subsystem, cosine, full
//! condensed matrix: naive per-call `Distance::between` (recomputes two
//! norms per cosine call) vs the store kernel one pair at a time (the
//! `1 × 1` tile behind `EmbeddingStore::distance`) vs the tiled matrix
//! build, at n ∈ {500, 2000} × dim ∈ {32, 300} and at the shape the
//! benchmark's `wide_pre` workload serves (n = 840 candidates, dim = 768).
//!
//! `tiled_matrix` fans out over row blocks when the machine has more than
//! one core; pin the process to one (`taskset -c 0`) to compare it with
//! the serial `store_pairwise` row. Before timing, every shape checks the
//! tiled matrix against the per-pair kernel bit for bit — a failed guard
//! aborts the bench.
//!
//! ## Why the tile is 2 × 2 (`TILE_ROWS` × `TILE_COLS` in `dust-embed`)
//!
//! Measured at the served shape (n = 840, dim = 768, cosine, the whole
//! condensed matrix, serial, pinned to one core of a shared 2-vCPU
//! Sapphire Rapids box, no `target-cpu` flag so SSE2 only; three runs of
//! nine builds each, best run's minimum – worst run's median, ms), every
//! variant bit-identical to the per-pair loop it replaces:
//!
//! | rows × cols | ms | |
//! |---|---|---|
//! | per-pair loop of the parent commit | 98–102 | reloads both rows per pair, lanes shuffled on load |
//! | 1 × 1 | 44–58 | the same loop behind the call boundary (see `accumulate`) |
//! | 1 × 2 | 41–52 | |
//! | 1 × 4 | 33–51 | |
//! | 2 × 1 | 28–44 | |
//! | **2 × 2** | **25–28** | 8 accumulator + 6 operand registers: fits SSE2's 16 |
//! | 2 × 3 | 28–32 | |
//! | 2 × 4 | 29–57 | 16 accumulator registers: spills |
//! | 3 × 2 | 42–46 | |
//! | 4 × 2 | 25–36 | spills, but streams each column half as often |
//! | 4 × 4 | 40–57 | |
//! | 2 × 8 | 48–59 | |
//!
//! 2 × 2 is also the fastest on the two cache-resident shapes of a served
//! query (840 candidates × 168 query tuples: 7.7–10 ms against 9–15 for
//! 1 × 4, 2 × 4, 4 × 2 and 14.6–15.4 for 4 × 4; 3 400 lake tuples × 8
//! probes: 1.8–2.7 ms against 2.1–4.8). That is ~28 GFLOP/s while its
//! operands sit in L2 (the 168 query rows are 0.5 MB); the full matrix
//! streams up to 2.6 MB of rows per row block out of a shared L3 and runs
//! at ~21 GFLOP/s (the parent's per-pair loop: ~5.4). A panel loop over
//! the columns (16-row work items × 32-column panels, so a panel stays in
//! L2 while eight row pairs pass over it) bought the full build 20–25 %
//! here (20–23 ms) and nothing on the cache-resident shapes, for two more
//! constants and a second loop nest in the matrix build: not added.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dust_embed::{Distance, EmbeddingStore, PairwiseMatrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<Vec<f32>> = (0..20)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    (0..n)
        .map(|_| {
            let c = &centroids[rng.gen_range(0..centroids.len())];
            Vector::new(c.iter().map(|x| x + rng.gen_range(-0.3f32..0.3)).collect())
        })
        .collect()
}

fn per_pair_matrix(store: &EmbeddingStore) -> PairwiseMatrix {
    PairwiseMatrix::from_fn(store.len(), |i, j| store.distance(Distance::Cosine, i, j))
}

fn bench_distance_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_kernels");
    group.sample_size(10);
    let shapes = [(500, 32), (2000, 32), (500, 300), (2000, 300), (840, 768)];
    for (n, dim) in shapes {
        let points = embeddings(n, dim, 42);
        let store = EmbeddingStore::from_vectors(&points);
        let param = format!("n={n}/dim={dim}");

        let tiled = PairwiseMatrix::from_store(&store, Distance::Cosine);
        let per_pair = per_pair_matrix(&store);
        assert!(
            (tiled.condensed_data().iter())
                .zip(per_pair.condensed_data())
                .all(|(t, p)| t.to_bits() == p.to_bits()),
            "{param}: the tiled matrix differs from the per-pair kernel"
        );

        group.bench_with_input(BenchmarkId::new("naive", &param), &points, |b, pts| {
            b.iter(|| {
                PairwiseMatrix::from_fn(pts.len(), |i, j| {
                    Distance::Cosine.between(&pts[i], &pts[j])
                })
            });
        });

        group.bench_with_input(
            BenchmarkId::new("store_pairwise", &param),
            &store,
            |b, s| {
                b.iter(|| per_pair_matrix(black_box(s)));
            },
        );

        group.bench_with_input(BenchmarkId::new("tiled_matrix", &param), &store, |b, s| {
            b.iter(|| PairwiseMatrix::from_store(black_box(s), Distance::Cosine));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_distance_kernels
}
criterion_main!(benches);
