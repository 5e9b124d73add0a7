//! The DUST tuple diversifier (Algorithm 2).
//!
//! 1. **Prune** the candidate data-lake tuples to at most `s` per query
//!    using per-table distance-from-mean ranking (Sec. 5.1).
//! 2. **Cluster** the survivors into `k · p` clusters with hierarchical
//!    clustering and take each cluster's **medoid** as a candidate diverse
//!    tuple (Sec. 5.2) — the medoids are diverse among themselves.
//! 3. **Re-rank** the medoids by their minimum distance to the query tuples
//!    (descending), breaking ties by the average distance (Sec. 5.3), and
//!    return the top-k — the selected tuples are also diverse from the query.

use crate::order::desc_nan_last;
use crate::prune::prune_tuples_with_store;
use crate::traits::{sanitize_selection, DiversificationInput, Diversifier};
use dust_cluster::{
    agglomerative_with, cluster_medoids_from_matrix, AgglomerativeAlgorithm, Linkage,
};
use dust_embed::PairwiseMatrix;

/// Configuration of the DUST diversifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DustConfig {
    /// Candidate multiplier `p`: the clustering step produces `k · p`
    /// clusters (the paper selects `p = 2`, Appendix A.2.2).
    pub p: usize,
    /// Pruning budget `s`: at most this many candidates enter clustering
    /// (`None` disables pruning, used by the Appendix A.2.3 ablation).
    pub prune_to: Option<usize>,
    /// Linkage criterion for the clustering step.
    pub linkage: Linkage,
    /// Agglomerative engine for the clustering step (`Auto` picks the
    /// expected-fastest valid engine for the linkage and input size).
    pub algorithm: AgglomerativeAlgorithm,
}

impl Default for DustConfig {
    fn default() -> Self {
        DustConfig {
            p: 2,
            prune_to: Some(2500),
            linkage: Linkage::Average,
            algorithm: AgglomerativeAlgorithm::Auto,
        }
    }
}

/// The DUST diversification algorithm.
#[derive(Debug, Clone, Default)]
pub struct DustDiversifier {
    /// Algorithm configuration.
    pub config: DustConfig,
}

impl DustDiversifier {
    /// Create a diversifier with the paper's default configuration
    /// (`p = 2`, pruning to 2500 candidates, average linkage).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a diversifier with a custom configuration.
    pub fn with_config(config: DustConfig) -> Self {
        DustDiversifier { config }
    }
}

impl Diversifier for DustDiversifier {
    fn name(&self) -> &'static str {
        "dust"
    }

    fn select(&self, input: &DiversificationInput<'_>, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        if n <= k {
            return (0..n).collect();
        }

        // Step 1: prune, reusing the input's shared embedding store (cached
        // norms — no per-call norm work).
        let kept: Vec<usize> = match self.config.prune_to {
            Some(s) if n > s => {
                prune_tuples_with_store(input.store(), input.candidate_sources, input.distance, s)
            }
            _ => (0..n).collect(),
        };
        if kept.len() <= k {
            return sanitize_selection(kept, n, k);
        }

        // Step 2: cluster the kept candidates into k·p clusters and take
        // each cluster's medoid. One condensed pairwise matrix over the kept
        // subset (built in parallel from the shared store) drives both the
        // clustering and the medoid selection.
        let num_clusters = (k.saturating_mul(self.config.p.max(1))).min(kept.len());
        let candidate_medoids: Vec<usize> = if num_clusters >= kept.len() {
            (0..kept.len()).collect()
        } else {
            // When pruning kept everything, cluster off the input's shared
            // full matrix (built once, reusable by other stages); otherwise
            // build the condensed matrix over just the kept subset.
            let subset_matrix;
            let matrix: &PairwiseMatrix = if kept.len() == n {
                input.pairwise()
            } else {
                subset_matrix =
                    PairwiseMatrix::from_store_subset(input.store(), &kept, input.distance);
                &subset_matrix
            };
            // The dendrogram is only ever cut at `num_clusters`, so cap the
            // build there — a cut identical to the full build's (pinned by
            // the clustering equivalence suite), fewer merges, and a
            // compacting workspace at large kept counts.
            let dendrogram = agglomerative_with(
                matrix,
                self.config.linkage,
                self.config.algorithm,
                num_clusters,
            );
            let assignment = dendrogram.cut(num_clusters);
            cluster_medoids_from_matrix(matrix, &assignment)
        };

        // Step 3: re-rank medoids by min distance to the query (descending),
        // ties broken by average distance to the query (descending), then by
        // original index for determinism. Only the medoids are measured
        // against the query, not every candidate.
        let mut ranked: Vec<(usize, f64, f64)> = candidate_medoids
            .into_iter()
            .map(|local| {
                let global = kept[local];
                let (min_d, avg_d) = input.query_distances(global);
                // With no query tuples, fall back to ranking by the tuple's
                // average distance to the other medoid candidates' mean —
                // here simply keep infinite min distances comparable.
                let min_d = if min_d.is_finite() { min_d } else { avg_d };
                (global, min_d, avg_d)
            })
            .collect();
        // NaN-scored medoids (poisoned embeddings) rank last instead of
        // "equal to everything" — see crate::order.
        ranked.sort_by(|a, b| {
            desc_nan_last(a.1, b.1)
                .then_with(|| desc_nan_last(a.2, b.2))
                .then_with(|| a.0.cmp(&b.0))
        });
        sanitize_selection(ranked.into_iter().map(|(i, _, _)| i).collect(), n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{average_diversity, min_diversity};
    use dust_embed::{Distance, Vector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(x: f32, y: f32) -> Vector {
        Vector::new(vec![x, y])
    }

    /// Query near the origin; candidates form three groups: near-duplicates
    /// of the query, a medium cluster, and a far cluster.
    fn scenario() -> (Vec<Vector>, Vec<Vector>, Vec<usize>) {
        let query = vec![v(0.0, 0.0), v(0.2, 0.1)];
        let mut candidates = Vec::new();
        let mut sources = Vec::new();
        // table 0: near-duplicates of the query tuples
        for i in 0..10 {
            candidates.push(v(0.05 * i as f32, 0.0));
            sources.push(0);
        }
        // table 1: a medium-distance cluster
        for i in 0..10 {
            candidates.push(v(5.0 + 0.05 * i as f32, 5.0));
            sources.push(1);
        }
        // table 2: a far cluster
        for i in 0..10 {
            candidates.push(v(-10.0, 10.0 + 0.05 * i as f32));
            sources.push(2);
        }
        (query, candidates, sources)
    }

    #[test]
    fn selects_exactly_k_distinct_candidates() {
        let (query, candidates, sources) = scenario();
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Euclidean);
        let selection = DustDiversifier::new().select(&input, 5);
        assert_eq!(selection.len(), 5);
        let unique: std::collections::HashSet<_> = selection.iter().collect();
        assert_eq!(unique.len(), 5);
        assert!(selection.iter().all(|&i| i < candidates.len()));
    }

    #[test]
    fn prefers_tuples_far_from_the_query() {
        let (query, candidates, sources) = scenario();
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Euclidean);
        let selection = DustDiversifier::new().select(&input, 4);
        // none of the near-duplicates (indices 0..10) should be selected
        assert!(
            selection.iter().all(|&i| i >= 10),
            "near-duplicate tuples selected: {selection:?}"
        );
    }

    #[test]
    fn beats_naive_top_similarity_on_diversity_metrics() {
        let (query, candidates, sources) = scenario();
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Euclidean);
        let k = 5;
        let dust = DustDiversifier::new().select(&input, k);
        // "most unionable" baseline: the k candidates closest to the query
        let mut by_similarity: Vec<usize> = (0..candidates.len()).collect();
        by_similarity.sort_by(|&a, &b| {
            dust_embed::order::asc_nan_last(
                input.min_distance_to_query(a),
                input.min_distance_to_query(b),
            )
        });
        let similar: Vec<usize> = by_similarity.into_iter().take(k).collect();
        let to_vecs =
            |sel: &[usize]| -> Vec<Vector> { sel.iter().map(|&i| candidates[i].clone()).collect() };
        assert!(
            average_diversity(&query, &to_vecs(&dust), Distance::Euclidean)
                > average_diversity(&query, &to_vecs(&similar), Distance::Euclidean)
        );
        assert!(
            min_diversity(&query, &to_vecs(&dust), Distance::Euclidean)
                > min_diversity(&query, &to_vecs(&similar), Distance::Euclidean)
        );
    }

    #[test]
    fn small_candidate_sets_are_returned_whole() {
        let query = vec![v(0.0, 0.0)];
        let candidates = vec![v(1.0, 0.0), v(2.0, 0.0)];
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let selection = DustDiversifier::new().select(&input, 5);
        assert_eq!(selection, vec![0, 1]);
        assert!(DustDiversifier::new().select(&input, 0).is_empty());
    }

    #[test]
    fn pruning_can_be_disabled() {
        let (query, candidates, sources) = scenario();
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Euclidean);
        let config = DustConfig {
            prune_to: None,
            ..DustConfig::default()
        };
        let selection = DustDiversifier::with_config(config).select(&input, 5);
        assert_eq!(selection.len(), 5);
    }

    #[test]
    fn aggressive_pruning_still_returns_k_when_possible() {
        let (query, candidates, sources) = scenario();
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Euclidean);
        let config = DustConfig {
            prune_to: Some(6),
            ..DustConfig::default()
        };
        let selection = DustDiversifier::with_config(config).select(&input, 5);
        assert_eq!(selection.len(), 5);
    }

    #[test]
    fn higher_p_never_reduces_candidate_pool_validity() {
        let (query, candidates, sources) = scenario();
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Euclidean);
        for p in 1..=4 {
            let config = DustConfig {
                p,
                ..DustConfig::default()
            };
            let selection = DustDiversifier::with_config(config).select(&input, 5);
            assert_eq!(selection.len(), 5, "p={p}");
        }
    }

    #[test]
    fn scales_to_thousands_of_candidates() {
        // A smoke test that the pipeline (prune → cluster → re-rank) handles
        // a few thousand candidates quickly in debug builds.
        let mut rng = StdRng::seed_from_u64(11);
        let query: Vec<Vector> = (0..20)
            .map(|_| v(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let candidates: Vec<Vector> = (0..3000)
            .map(|_| v(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
            .collect();
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let config = DustConfig {
            prune_to: Some(500),
            ..DustConfig::default()
        };
        let selection = DustDiversifier::with_config(config).select(&input, 50);
        assert_eq!(selection.len(), 50);
    }
}
