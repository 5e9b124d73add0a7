//! The common interface of every tuple-diversification algorithm.
//!
//! [`DiversificationInput`] is more than a bundle of borrowed slices: at
//! construction it packs the candidate and query embeddings into
//! [`EmbeddingStore`]s (contiguous rows + cached norms), and it lazily
//! materializes two shared caches that every algorithm reads instead of
//! recomputing distances —
//!
//! * **query-distance columns**: per-candidate min/avg distance to the query
//!   tuples, computed in one tiled pass on first use (GMC/GNE relevance,
//!   MaxMin seeding, SWAP ordering); DUST, which re-ranks only its `k · p`
//!   medoids, asks for those rows alone
//!   ([`DiversificationInput::query_distances`]);
//! * **candidate pairwise matrix**: the condensed [`PairwiseMatrix`] over
//!   all candidates, built in parallel on first use (GMC's O(s²) max-dist
//!   scan, GNE/SWAP objectives, CLT clustering + medoids).
//!
//! All cached values agree with the reference [`Distance::between`] path
//! within 1e-6 (the store kernel differs only in summation order; the
//! matrix additionally rounds to `f32` storage), and both cache paths are
//! mutually consistent, so caching changes latency — not which tuples any
//! algorithm considers close.

use dust_embed::{Distance, EmbeddingStore, PairwiseMatrix, Vector};
use std::sync::OnceLock;

/// Per-candidate distance-to-query columns (see module docs).
#[derive(Debug, Clone)]
struct QueryColumns {
    /// `min_j δ(candidate_i, query_j)`; `f64::INFINITY` with no query tuples.
    min: Vec<f64>,
    /// `avg_j δ(candidate_i, query_j)`; `0.0` with no query tuples.
    avg: Vec<f64>,
}

/// Input to a diversification algorithm.
///
/// All algorithms operate purely on embeddings; provenance (which table each
/// candidate came from) is optional and only used by DUST's pruning step.
#[derive(Debug, Clone)]
pub struct DiversificationInput<'a> {
    /// Embeddings of the query table's tuples.
    pub query: &'a [Vector],
    /// Embeddings of the candidate unionable data-lake tuples.
    pub candidates: &'a [Vector],
    /// Optional source-table id per candidate (parallel to `candidates`).
    pub candidate_sources: Option<&'a [usize]>,
    /// Distance function (the paper uses cosine distance).
    pub distance: Distance,
    /// Candidate embeddings in contiguous storage with cached norms.
    store: EmbeddingStore,
    /// Query embeddings in contiguous storage with cached norms.
    query_store: EmbeddingStore,
    /// Lazily-built per-candidate min/avg distance to the query.
    query_columns: OnceLock<QueryColumns>,
    /// Lazily-built condensed candidate×candidate distance matrix.
    pairwise: OnceLock<PairwiseMatrix>,
}

impl<'a> DiversificationInput<'a> {
    /// Convenience constructor without provenance.
    pub fn new(query: &'a [Vector], candidates: &'a [Vector], distance: Distance) -> Self {
        DiversificationInput {
            query,
            candidates,
            candidate_sources: None,
            distance,
            store: EmbeddingStore::from_vectors(candidates),
            query_store: EmbeddingStore::from_vectors(query),
            query_columns: OnceLock::new(),
            pairwise: OnceLock::new(),
        }
    }

    /// Convenience constructor with per-candidate source tables.
    pub fn with_sources(
        query: &'a [Vector],
        candidates: &'a [Vector],
        candidate_sources: &'a [usize],
        distance: Distance,
    ) -> Self {
        assert_eq!(
            candidates.len(),
            candidate_sources.len(),
            "one source id per candidate"
        );
        let mut input = Self::new(query, candidates, distance);
        input.candidate_sources = Some(candidate_sources);
        input
    }

    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The candidate embeddings as a shared store (cached norms).
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// The condensed candidate×candidate distance matrix, built in parallel
    /// on first call and shared by every subsequent reader. Algorithms that
    /// touch all O(s²) pairs (GMC, GNE, SWAP, CLT) should force this once;
    /// algorithms that only sample pairs (MaxMin, DUST after pruning) should
    /// not, and instead go through [`Self::candidate_distance`].
    pub fn pairwise(&self) -> &PairwiseMatrix {
        self.pairwise
            .get_or_init(|| PairwiseMatrix::from_store(&self.store, self.distance))
    }

    fn query_columns(&self) -> &QueryColumns {
        self.query_columns.get_or_init(|| {
            let n = self.candidates.len();
            let mut columns = QueryColumns {
                min: vec![f64::INFINITY; n],
                avg: vec![0.0f64; n],
            };
            self.store
                .cross_distances(self.distance, 0..n, &self.query_store, |i, d| {
                    (columns.min[i], columns.avg[i]) = min_and_avg(d);
                });
            columns
        })
    }

    /// Minimum distance from candidate `idx` to any query tuple
    /// (`f64::INFINITY` when there are no query tuples).
    pub fn min_distance_to_query(&self, idx: usize) -> f64 {
        self.query_columns().min[idx]
    }

    /// Average distance from candidate `idx` to the query tuples (0 when
    /// there are no query tuples).
    pub fn avg_distance_to_query(&self, idx: usize) -> f64 {
        self.query_columns().avg[idx]
    }

    /// `(min, avg)` distance from candidate `idx` to the query tuples —
    /// the same bits as [`Self::min_distance_to_query`] and
    /// [`Self::avg_distance_to_query`] — without building the columns for
    /// every candidate: a lookup when they are already built, otherwise
    /// one row of kernel calls (the shape [`Self::candidate_distance`] has
    /// for the pairwise matrix). For algorithms that rank a handful of
    /// candidates against the query (DUST's medoids).
    pub fn query_distances(&self, idx: usize) -> (f64, f64) {
        if let Some(columns) = self.query_columns.get() {
            return (columns.min[idx], columns.avg[idx]);
        }
        let mut distances = (f64::INFINITY, 0.0);
        self.store
            .cross_distances(self.distance, [idx], &self.query_store, |_, d| {
                distances = min_and_avg(d);
            });
        distances
    }

    /// Distance between two candidates: a matrix lookup when the pairwise
    /// cache has been built, otherwise one cached-norm kernel evaluation.
    pub fn candidate_distance(&self, a: usize, b: usize) -> f64 {
        match self.pairwise.get() {
            Some(matrix) => matrix.get(a, b),
            None => self.store.distance(self.distance, a, b),
        }
    }
}

/// Minimum and mean of one candidate's distances to the query tuples, in
/// query order (`(f64::INFINITY, 0.0)` with no query tuples).
fn min_and_avg(distances: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut sum = 0.0f64;
    for &d in distances {
        lo = lo.min(d);
        sum += d;
    }
    let avg = if distances.is_empty() {
        0.0
    } else {
        sum / distances.len() as f64
    };
    (lo, avg)
}

/// A tuple-diversification algorithm.
pub trait Diversifier {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Select (up to) `k` diverse candidates; returns indices into
    /// `input.candidates`. Implementations must return at most `k` distinct,
    /// in-bounds indices, and exactly `min(k, candidates)` of them.
    fn select(&self, input: &DiversificationInput<'_>, k: usize) -> Vec<usize>;
}

/// Validate and normalize a selection: deduplicate, keep in-bounds indices,
/// truncate to `k`. Shared by implementations as a final safety net.
pub(crate) fn sanitize_selection(mut selection: Vec<usize>, n: usize, k: usize) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    selection.retain(|&idx| idx < n && seen.insert(idx));
    selection.truncate(k);
    selection
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(coords: &[(f32, f32)]) -> Vec<Vector> {
        coords
            .iter()
            .map(|&(x, y)| Vector::new(vec![x, y]))
            .collect()
    }

    #[test]
    fn distance_helpers() {
        let query = vectors(&[(0.0, 0.0), (1.0, 0.0)]);
        let candidates = vectors(&[(0.0, 3.0), (5.0, 0.0)]);
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        assert_eq!(input.num_candidates(), 2);
        assert!((input.min_distance_to_query(0) - 3.0).abs() < 1e-9);
        assert!((input.min_distance_to_query(1) - 4.0).abs() < 1e-9);
        assert!(input.avg_distance_to_query(0) > 3.0);
        assert!((input.candidate_distance(0, 1) - (25.0f64 + 9.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn cached_helpers_agree_with_the_reference_path() {
        let query = vectors(&[(0.3, -0.2), (1.4, 0.9), (-2.0, 0.4)]);
        let candidates = vectors(&[(0.1, 3.3), (5.0, -1.0), (0.0, 0.0), (2.2, 2.2)]);
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            let input = DiversificationInput::new(&query, &candidates, metric);
            for i in 0..candidates.len() {
                let naive_min = query
                    .iter()
                    .map(|q| metric.between(&candidates[i], q))
                    .fold(f64::INFINITY, f64::min);
                let naive_avg = query
                    .iter()
                    .map(|q| metric.between(&candidates[i], q))
                    .sum::<f64>()
                    / query.len() as f64;
                assert!((input.min_distance_to_query(i) - naive_min).abs() <= 1e-6);
                assert!((input.avg_distance_to_query(i) - naive_avg).abs() <= 1e-6);
                for j in 0..candidates.len() {
                    let naive = metric.between(&candidates[i], &candidates[j]);
                    assert!((input.candidate_distance(i, j) - naive).abs() <= 1e-6);
                }
            }
            // Forcing the pairwise matrix keeps every off-diagonal value
            // within the f32 rounding of the same kernel result (the matrix
            // stores an exact 0 diagonal, which no algorithm queries).
            let lazy: Vec<f64> = (0..candidates.len())
                .flat_map(|i| {
                    (0..candidates.len())
                        .filter(move |&j| j != i)
                        .map(move |j| (i, j))
                })
                .map(|(i, j)| input.candidate_distance(i, j))
                .collect();
            let _ = input.pairwise();
            let forced: Vec<f64> = (0..candidates.len())
                .flat_map(|i| {
                    (0..candidates.len())
                        .filter(move |&j| j != i)
                        .map(move |j| (i, j))
                })
                .map(|(i, j)| input.candidate_distance(i, j))
                .collect();
            for (l, f) in lazy.iter().zip(&forced) {
                assert_eq!(*f, (*l as f32) as f64);
            }
        }
    }

    #[test]
    fn empty_query_edge_cases() {
        let candidates = vectors(&[(0.0, 1.0)]);
        let input = DiversificationInput::new(&[], &candidates, Distance::Euclidean);
        assert_eq!(input.min_distance_to_query(0), f64::INFINITY);
        assert_eq!(input.avg_distance_to_query(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "one source id per candidate")]
    fn mismatched_sources_panic() {
        let candidates = vectors(&[(0.0, 1.0), (1.0, 1.0)]);
        let _ = DiversificationInput::with_sources(&[], &candidates, &[0], Distance::Cosine);
    }

    #[test]
    fn sanitize_removes_duplicates_and_out_of_bounds() {
        let cleaned = sanitize_selection(vec![3, 1, 3, 9, 0, 1], 5, 3);
        assert_eq!(cleaned, vec![3, 1, 0]);
        assert_eq!(sanitize_selection(vec![0, 1], 2, 5), vec![0, 1]);
    }
}
