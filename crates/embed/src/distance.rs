//! Tuple distance functions (δ in the paper) and the workspace's single
//! pairwise-distance implementation.
//!
//! The paper uses cosine distance throughout (matching the cosine-embedding
//! training loss) and notes that Manhattan and Euclidean distances give the
//! same relative ordering of the baselines; all three are provided.
//!
//! [`Distance::between`] is the *reference* path: per-call norms, strictly
//! sequential accumulation, kept deliberately simple so property tests can
//! compare the optimized kernels against an independent implementation.
//! Hot paths go through [`EmbeddingStore`] (cached norms, vectorizable
//! kernels) and [`PairwiseMatrix`], which materializes the condensed
//! upper-triangle matrix once — in parallel row blocks for large inputs —
//! so every downstream stage (pruning, clustering, medoids, GMC/CLT
//! scoring, re-ranking) shares the same cache instead of recomputing.
//! Cached results are within 1e-6 of the reference path.

use crate::store::{EmbeddingStore, TILE_ROWS};
use crate::vector::Vector;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The distance function used to compare tuple embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Distance {
    /// `1 - cos(a, b)`, in `[0, 2]`. The paper's default.
    #[default]
    Cosine,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Manhattan (L1) distance.
    Manhattan,
}

impl Distance {
    /// Distance between two vectors — the reference path (norms computed
    /// per call, sequential accumulation). Prefer an [`EmbeddingStore`] or
    /// [`PairwiseMatrix`] on hot paths.
    pub fn between(&self, a: &Vector, b: &Vector) -> f64 {
        assert_eq!(a.dim(), b.dim(), "dimension mismatch in distance");
        match self {
            Distance::Cosine => 1.0 - cosine_similarity(a, b),
            Distance::Euclidean => a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| ((x - y) as f64).powi(2))
                .sum::<f64>()
                .sqrt(),
            Distance::Manhattan => a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| ((x - y) as f64).abs())
                .sum::<f64>(),
        }
    }

    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Distance::Cosine => "cosine",
            Distance::Euclidean => "euclidean",
            Distance::Manhattan => "manhattan",
        }
    }
}

/// Cosine similarity in `[-1, 1]`; zero vectors yield 0 similarity.
/// Reference path (see [`Distance::between`]).
pub fn cosine_similarity(a: &Vector, b: &Vector) -> f64 {
    let na = a.norm() as f64;
    let nb = b.norm() as f64;
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    (a.dot(b) as f64 / (na * nb)).clamp(-1.0, 1.0)
}

/// Minimum number of pairs before the matrix build fans out to threads;
/// below this the thread setup costs more than it saves.
const PARALLEL_PAIR_THRESHOLD: usize = 32_768;

/// Symmetric pairwise distance matrix in condensed (upper-triangle) storage:
/// `n · (n − 1) / 2` entries, diagonal implicitly 0.
///
/// This is the only pairwise-distance implementation in the workspace;
/// agglomerative clustering, silhouette scoring, medoid selection, and the
/// diversification algorithms all read from (copies of) it.
///
/// Entries are stored as `f32`: it halves the memory traffic of the O(n²)
/// scans that dominate clustering and GMC, and tuple distances are derived
/// from `f32` embeddings, so the rounding (≤ 1e-7 relative) stays far
/// inside the workspace-wide 1e-6 agreement bound with the reference path.
#[derive(Debug, Clone, Default)]
pub struct PairwiseMatrix {
    n: usize,
    data: Vec<f32>,
}

impl PairwiseMatrix {
    /// Compute the matrix for `vectors` under `metric` (builds a temporary
    /// [`EmbeddingStore`] for cached norms).
    pub fn compute(vectors: &[Vector], metric: Distance) -> Self {
        Self::from_store(&EmbeddingStore::from_vectors(vectors), metric)
    }

    /// Compute the matrix over all rows of `store`, in parallel row blocks
    /// for large inputs.
    pub fn from_store(store: &EmbeddingStore, metric: Distance) -> Self {
        Self::build(store, None, metric)
    }

    /// Compute the matrix over `subset` (indices into `store`): entry
    /// `(r, c)` is the distance between `store[subset[r]]` and
    /// `store[subset[c]]`.
    pub fn from_store_subset(store: &EmbeddingStore, subset: &[usize], metric: Distance) -> Self {
        Self::build(store, Some(subset), metric)
    }

    /// Store-backed builder. A work item is a block of [`TILE_ROWS`]
    /// consecutive matrix rows — contiguous in the condensed buffer —
    /// filled through the store's tiled kernel, so every entry is the
    /// `f32` rounding of exactly what [`EmbeddingStore::distance`] returns
    /// for that pair. Parallel over blocks above
    /// [`PARALLEL_PAIR_THRESHOLD`].
    fn build(store: &EmbeddingStore, subset: Option<&[usize]>, metric: Distance) -> Self {
        let n = subset.map_or(store.len(), <[usize]>::len);
        // matrix point -> store row; the identity for a full build
        let at = |point: usize| subset.map_or(point, |s| s[point]);
        let fill_block = |first: usize, block: &mut [f32]| {
            let height = TILE_ROWS.min(n - first);
            // Matrix row `first + r` starts `starts[r]` entries into the
            // block and holds columns `first + r + 1 .. n`.
            let mut starts = [0usize; TILE_ROWS];
            for r in 1..height {
                starts[r] = starts[r - 1] + (n - (first + r));
            }
            let slot = |r: usize, j: usize| starts[r] + j - (first + r) - 1;
            for r in 0..height {
                let within = first + r + 1..first + height;
                store.block(metric, [at(first + r)], store, within, at, |_, j, d| {
                    block[slot(r, j)] = d as f32
                });
            }
            if height == TILE_ROWS {
                let rows: [usize; TILE_ROWS] = std::array::from_fn(|r| at(first + r));
                store.block(metric, rows, store, first + height..n, at, |r, j, d| {
                    block[slot(r, j)] = d as f32
                });
            }
        };
        let pairs = condensed_len(n);
        let mut data = vec![0.0f32; pairs];
        let mut blocks: Vec<(usize, &mut [f32])> = Vec::with_capacity(n.div_ceil(TILE_ROWS));
        let mut rest = data.as_mut_slice();
        for first in (0..n).step_by(TILE_ROWS) {
            let entries = (first..n.min(first + TILE_ROWS)).map(|i| n - 1 - i).sum();
            let (block, tail) = rest.split_at_mut(entries);
            blocks.push((first, block));
            rest = tail;
        }
        if pairs < PARALLEL_PAIR_THRESHOLD {
            for (first, block) in blocks {
                fill_block(first, block);
            }
        } else {
            blocks
                .into_par_iter()
                .for_each(|(first, block)| fill_block(first, block));
        }
        PairwiseMatrix { n, data }
    }

    /// Build an `n × n` matrix from an arbitrary symmetric pair function,
    /// serially (used by tests and naive-path baselines).
    pub fn from_fn(n: usize, pair: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = vec![0.0f32; condensed_len(n)];
        let mut idx = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                data[idx] = pair(i, j) as f32;
                idx += 1;
            }
        }
        PairwiseMatrix { n, data }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j` (0 on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.data[self.index(i, j)] as f64
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j, "condensed matrix has no diagonal entries");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        a * self.n - a * (a + 1) / 2 + (b - a - 1)
    }

    /// Visit every unordered pair `(i, j, d)` with `i < j` in one linear
    /// pass over the condensed buffer — no per-element index arithmetic.
    /// This is the fast path for full-matrix scans (e.g. GMC's max-distance
    /// pass).
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize, f64)) {
        let mut idx = 0usize;
        for i in 0..self.n.saturating_sub(1) {
            for j in (i + 1)..self.n {
                f(i, j, self.data[idx] as f64);
                idx += 1;
            }
        }
    }

    /// Average distance between all unordered pairs (0 for fewer than 2 points).
    pub fn average(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&d| d as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Minimum distance between distinct points (`f64::INFINITY` for < 2 points).
    pub fn minimum(&self) -> f64 {
        self.data
            .iter()
            .map(|&d| d as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// The raw condensed buffer (row-major over `i < j` pairs). Exposed so
    /// clustering can seed its working copy with one memcpy.
    pub fn condensed_data(&self) -> &[f32] {
        &self.data
    }
}

#[inline]
fn condensed_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: &[f32]) -> Vector {
        Vector::new(c.to_vec())
    }

    #[test]
    fn cosine_distance_properties() {
        let a = v(&[1.0, 0.0]);
        let b = v(&[0.0, 1.0]);
        let d = Distance::Cosine;
        assert!((d.between(&a, &a)).abs() < 1e-9);
        assert!((d.between(&a, &b) - 1.0).abs() < 1e-9);
        let opposite = v(&[-1.0, 0.0]);
        assert!((d.between(&a, &opposite) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn euclidean_and_manhattan() {
        let a = v(&[0.0, 0.0]);
        let b = v(&[3.0, 4.0]);
        assert!((Distance::Euclidean.between(&a, &b) - 5.0).abs() < 1e-9);
        assert!((Distance::Manhattan.between(&a, &b) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn zero_vector_cosine_is_maximally_distant_from_everything_unitary() {
        let z = Vector::zeros(3);
        let a = v(&[1.0, 0.0, 0.0]);
        assert_eq!(cosine_similarity(&z, &a), 0.0);
        assert!((Distance::Cosine.between(&z, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = v(&[0.3, 0.7, 0.1]);
        let b = v(&[0.9, 0.2, 0.4]);
        for d in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            assert!((d.between(&a, &b) - d.between(&b, &a)).abs() < 1e-9);
            assert!(d.between(&a, &b) >= 0.0);
        }
    }

    #[test]
    fn matrix_statistics() {
        let pts = vec![v(&[0.0, 0.0]), v(&[1.0, 0.0]), v(&[0.0, 2.0])];
        let m = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.minimum(), 1.0);
        let expected_avg = (1.0 + 2.0 + 5.0_f64.sqrt()) / 3.0;
        assert!((m.average() - expected_avg).abs() < 1e-6);
    }

    #[test]
    fn empty_and_singleton_matrices() {
        let m = PairwiseMatrix::compute(&[], Distance::Cosine);
        assert!(m.is_empty());
        assert_eq!(m.average(), 0.0);
        let m1 = PairwiseMatrix::compute(&[v(&[1.0])], Distance::Cosine);
        assert_eq!(m1.average(), 0.0);
        assert_eq!(m1.minimum(), f64::INFINITY);
    }

    #[test]
    fn parallel_build_matches_serial_build_bit_for_bit() {
        // Large enough to cross PARALLEL_PAIR_THRESHOLD (n = 300 -> 44 850
        // pairs); the parallel build must match the serial kernel path
        // exactly, and the reference `Distance::between` path within 1e-6.
        let pts: Vec<Vector> = (0..300)
            .map(|i| {
                let x = (i as f32 * 0.77).sin();
                let y = (i as f32 * 0.33).cos();
                v(&[x, y, x * y])
            })
            .collect();
        let store = EmbeddingStore::from_vectors(&pts);
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            let parallel = PairwiseMatrix::compute(&pts, metric);
            let serial = PairwiseMatrix::from_fn(pts.len(), |i, j| store.distance(metric, i, j));
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    assert_eq!(
                        parallel.get(i, j).to_bits(),
                        serial.get(i, j).to_bits(),
                        "{metric:?} {i},{j}"
                    );
                    let reference = metric.between(&pts[i], &pts[j]);
                    assert!(
                        (parallel.get(i, j) - reference).abs() <= 1e-6,
                        "{metric:?} {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn for_each_pair_visits_every_pair_in_order() {
        let pts: Vec<Vector> = (0..12)
            .map(|i| v(&[i as f32 * 0.7, (i as f32).cos()]))
            .collect();
        let m = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        let mut seen = 0usize;
        m.for_each_pair(|i, j, d| {
            assert!(i < j);
            assert_eq!(d.to_bits(), m.get(i, j).to_bits());
            seen += 1;
        });
        assert_eq!(seen, pts.len() * (pts.len() - 1) / 2);
    }

    #[test]
    fn subset_matrix_reads_the_right_rows() {
        let pts = vec![v(&[0.0]), v(&[1.0]), v(&[5.0]), v(&[9.0])];
        let store = EmbeddingStore::from_vectors(&pts);
        let sub = PairwiseMatrix::from_store_subset(&store, &[1, 3], Distance::Euclidean);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(0, 1), 8.0);
    }

    #[test]
    fn distance_names() {
        assert_eq!(Distance::Cosine.name(), "cosine");
        assert_eq!(Distance::Euclidean.name(), "euclidean");
        assert_eq!(Distance::Manhattan.name(), "manhattan");
    }
}
