//! Property tests: every cached distance path (store kernel, batched cross
//! distances, condensed pairwise matrix) agrees with the naive
//! `Distance::between` path within 1e-6 for all three metrics, across
//! arbitrary dimensions (dimension 1, dimensions below, at and past the
//! kernel's 4- and 8-lane chunks, and 768) and degenerate inputs (including
//! zero vectors) — and the tiled paths agree with the one-pair kernel
//! **bit for bit**, whatever the matrix size, subset, or thread count.

use dust_embed::{Distance, EmbeddingStore, PairwiseMatrix, Vector};
use proptest::prelude::*;

const METRICS: [Distance; 3] = [Distance::Cosine, Distance::Euclidean, Distance::Manhattan];

/// Pad/truncate generated rows to a shared dimension and append a zero
/// vector so the cosine zero-norm convention is always exercised.
fn points_of_dim(dim: usize, rows: Vec<Vec<f32>>) -> Vec<Vector> {
    let mut pts: Vec<Vector> = rows
        .into_iter()
        .map(|mut row| {
            row.truncate(dim);
            while row.len() < dim {
                row.push(0.0);
            }
            Vector::new(row)
        })
        .collect();
    // Always include an all-zero vector: the cosine kernel's zero-norm
    // convention must match the naive path exactly.
    pts.push(Vector::zeros(dim));
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Store-kernel distances match the naive path within 1e-6 (the kernel
    /// differs only in floating-point summation order).
    #[test]
    fn store_distances_match_naive(
        dim in 1usize..41,
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 40), 1..24),
    ) {
        let pts = points_of_dim(dim, rows);
        let store = EmbeddingStore::from_vectors(&pts);
        for metric in METRICS {
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    let naive = metric.between(&pts[i], &pts[j]);
                    let cached = store.distance(metric, i, j);
                    prop_assert!(
                        (naive - cached).abs() <= 1e-6,
                        "{metric:?} ({i},{j}): naive {naive} vs cached {cached}"
                    );
                }
            }
        }
    }

    /// Pairwise-matrix entries (the single pairwise implementation, built
    /// in parallel for large inputs) match the naive path within 1e-6,
    /// scaled by magnitude for the `f32`-stored entries.
    #[test]
    fn pairwise_matrix_matches_naive(
        dim in 1usize..41,
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 40), 2..32),
    ) {
        let pts = points_of_dim(dim, rows);
        for metric in METRICS {
            let matrix = PairwiseMatrix::compute(&pts, metric);
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let naive = metric.between(&pts[i], &pts[j]);
                    let tolerance = 1e-6 * naive.abs().max(1.0);
                    prop_assert!(
                        (naive - matrix.get(i, j)).abs() <= tolerance,
                        "{metric:?} ({i},{j}): naive {naive} vs matrix {}",
                        matrix.get(i, j)
                    );
                    prop_assert!((matrix.get(i, j) - matrix.get(j, i)).abs() == 0.0);
                }
            }
        }
    }

    /// The tiled matrix is the `f32` rounding of the one-pair kernel, bit
    /// for bit, for every `n` in 2..=19 — every remainder of the row-block
    /// and column-tile loops — full and over an unsorted subset with a
    /// repeated index, zero vector included.
    #[test]
    fn tiled_matrix_is_the_one_pair_kernel_bit_for_bit(
        dim in 1usize..41,
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 40), 18),
        picks in prop::collection::vec(0usize..19, 2..20),
    ) {
        let pts = points_of_dim(dim, rows);
        prop_assert_eq!(pts.len(), 19);
        for n in 2..=pts.len() {
            // keep the zero vector (last) in every prefix
            let mut prefix = pts[..n - 1].to_vec();
            prefix.push(pts[pts.len() - 1].clone());
            let store = EmbeddingStore::from_vectors(&prefix);
            for metric in METRICS {
                let matrix = PairwiseMatrix::from_store(&store, metric);
                prop_assert_eq!(matrix.len(), n);
                for i in 0..n {
                    for j in (i + 1)..n {
                        let single = store.distance(metric, i, j) as f32 as f64;
                        prop_assert!(
                            matrix.get(i, j).to_bits() == single.to_bits(),
                            "{metric:?} n={n} ({i},{j}): matrix {} vs kernel {single}",
                            matrix.get(i, j)
                        );
                    }
                }
            }
        }
        let store = EmbeddingStore::from_vectors(&pts);
        let mut subset = picks;
        subset.push(subset[0]); // a repeated index
        for metric in METRICS {
            let matrix = PairwiseMatrix::from_store_subset(&store, &subset, metric);
            prop_assert_eq!(matrix.len(), subset.len());
            for r in 0..subset.len() {
                for c in (r + 1)..subset.len() {
                    let single = store.distance(metric, subset[r], subset[c]) as f32 as f64;
                    prop_assert!(
                        matrix.get(r, c).to_bits() == single.to_bits(),
                        "{metric:?} subset ({r},{c}) -> ({},{})", subset[r], subset[c]
                    );
                }
            }
        }
    }

    /// Batched cross distances (any row list: unsorted, repeated, every
    /// block remainder) are the one-pair kernel bit for bit.
    #[test]
    fn cross_distances_are_the_one_pair_kernel_bit_for_bit(
        dim in 1usize..41,
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 40), 1..14),
        others in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 40), 0..11),
        picks in prop::collection::vec(0usize..64, 0..20),
    ) {
        let left = EmbeddingStore::from_vectors(&points_of_dim(dim, rows));
        // 1..=11 columns: one short of a tile through two tiles and a rest
        let right = EmbeddingStore::from_vectors(&points_of_dim(dim, others));
        let picks: Vec<usize> = picks.into_iter().map(|p| p % left.len()).collect();
        for metric in METRICS {
            let mut visited = Vec::new();
            left.cross_distances(metric, picks.iter().copied(), &right, |i, d| {
                visited.push((i, d.to_vec()));
            });
            prop_assert_eq!(visited.len(), picks.len());
            for ((i, d), &pick) in visited.iter().zip(&picks) {
                prop_assert_eq!(*i, pick);
                prop_assert_eq!(d.len(), right.len());
                for (j, d) in d.iter().enumerate() {
                    let single = left.cross_distance(metric, pick, &right, j);
                    prop_assert!(
                        d.to_bits() == single.to_bits(),
                        "{metric:?} ({pick},{j}): batched {d} vs kernel {single}"
                    );
                }
            }
        }
    }

    /// Dimension-1 vectors, including zeros and negatives, agree on every
    /// path (regression guard for the degenerate shapes).
    #[test]
    fn dimension_one_agrees_everywhere(
        values in prop::collection::vec(-100.0f32..100.0, 2..16),
    ) {
        let mut pts: Vec<Vector> = values.into_iter().map(|v| Vector::new(vec![v])).collect();
        pts.push(Vector::zeros(1));
        let store = EmbeddingStore::from_vectors(&pts);
        for metric in METRICS {
            let matrix = PairwiseMatrix::from_store(&store, metric);
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let naive = metric.between(&pts[i], &pts[j]);
                    let tolerance = 1e-6 * naive.abs().max(1.0);
                    prop_assert!((store.distance(metric, i, j) - naive).abs() <= 1e-6);
                    prop_assert!((matrix.get(i, j) - naive).abs() <= tolerance);
                }
            }
        }
    }
}

/// The zero-vector cosine convention is identical across all paths: the
/// naive path, the store kernel, and the tiled matrix all report
/// similarity 0 (distance 1) against a zero vector.
#[test]
fn zero_vector_convention_is_shared() {
    let pts = vec![Vector::zeros(3), Vector::new(vec![1.0, 2.0, -1.0])];
    let store = EmbeddingStore::from_vectors(&pts);
    let naive = Distance::Cosine.between(&pts[0], &pts[1]);
    assert_eq!(naive, 1.0);
    assert_eq!(store.distance(Distance::Cosine, 0, 1), 1.0);
    assert_eq!(
        PairwiseMatrix::from_store(&store, Distance::Cosine).get(0, 1),
        1.0
    );
}

/// Deterministic pseudo-embeddings at the served dimension.
fn served_points(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            Vector::new(
                (0..dim)
                    .map(|c| ((i * dim + c) as f32 * 0.618).sin() + (i % 7) as f32 * 0.1)
                    .collect(),
            )
        })
        .collect()
}

/// At the served dimension (768: 96 eight-lane chunks, no tail) and one
/// past it (a tail on every metric), every tiled entry is the one-pair
/// kernel bit for bit and within 1e-6 of `Distance::between`.
#[test]
fn dimension_768_tiles_match_the_kernel_and_the_naive_path() {
    for dim in [768usize, 769] {
        let mut pts = served_points(11, dim);
        pts.push(Vector::zeros(dim));
        let store = EmbeddingStore::from_vectors(&pts);
        for metric in METRICS {
            let matrix = PairwiseMatrix::from_store(&store, metric);
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let single = store.distance(metric, i, j);
                    assert_eq!(
                        matrix.get(i, j).to_bits(),
                        (single as f32 as f64).to_bits(),
                        "{metric:?} dim={dim} ({i},{j})"
                    );
                    let naive = metric.between(&pts[i], &pts[j]);
                    let tolerance = 1e-6 * naive.abs().max(1.0);
                    assert!(
                        (single - naive).abs() <= tolerance,
                        "{metric:?} dim={dim} ({i},{j}): kernel {single} vs naive {naive}"
                    );
                }
            }
        }
    }
}

/// n = 300 crosses the parallel-build threshold (44 850 pairs): the
/// parallel tiled build, full and over a shuffled subset, is the one-pair
/// kernel bit for bit on all three metrics.
#[test]
fn parallel_tiled_builds_match_the_kernel_bit_for_bit() {
    let mut pts = served_points(299, 19);
    pts.push(Vector::zeros(19));
    let store = EmbeddingStore::from_vectors(&pts);
    // a permutation (7 is coprime to 300) with one index repeated
    let mut subset: Vec<usize> = (0..pts.len()).map(|i| (i * 7 + 3) % pts.len()).collect();
    subset.push(subset[5]);
    for metric in METRICS {
        let full = PairwiseMatrix::from_store(&store, metric);
        let sub = PairwiseMatrix::from_store_subset(&store, &subset, metric);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let single = store.distance(metric, i, j) as f32 as f64;
                assert_eq!(
                    full.get(i, j).to_bits(),
                    single.to_bits(),
                    "{metric:?} {i},{j}"
                );
            }
        }
        for r in 0..subset.len() {
            for c in (r + 1)..subset.len() {
                let single = store.distance(metric, subset[r], subset[c]) as f32 as f64;
                assert_eq!(
                    sub.get(r, c).to_bits(),
                    single.to_bits(),
                    "{metric:?} {r},{c}"
                );
            }
        }
    }
}
