//! CLT — the clustering-only diversification baseline (van Leuken et al.,
//! WWW 2009), as adapted by the paper: cluster the candidates into exactly
//! `k` clusters and return each cluster's medoid.
//!
//! CLT shares DUST's clustering machinery (same hierarchical clustering,
//! same medoid selection) but produces exactly `k` clusters and — crucially —
//! never looks at the query tuples, so it cannot avoid returning tuples that
//! are redundant with the query table.

use crate::traits::{sanitize_selection, DiversificationInput, Diversifier};
use dust_cluster::{
    agglomerative_with, cluster_medoids_from_matrix, AgglomerativeAlgorithm, Linkage,
};

/// The CLT clustering baseline.
#[derive(Debug, Clone, Default)]
pub struct CltDiversifier {
    /// Linkage criterion (kept identical to DUST's for a fair comparison).
    pub linkage: Linkage,
    /// Agglomerative engine (kept identical to DUST's for a fair
    /// comparison; `Auto` picks the expected-fastest valid engine).
    pub algorithm: AgglomerativeAlgorithm,
}

impl CltDiversifier {
    /// Create CLT with average linkage and automatic engine selection.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Diversifier for CltDiversifier {
    fn name(&self) -> &'static str {
        "clt"
    }

    fn select(&self, input: &DiversificationInput<'_>, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        if n <= k {
            return (0..n).collect();
        }
        // One shared pairwise matrix drives both the clustering (which
        // mutates an internal working copy) and the medoid selection (which
        // reads the original). The dendrogram is only ever cut at `k`, so
        // the build is capped there.
        let matrix = input.pairwise();
        let dendrogram = agglomerative_with(matrix, self.linkage, self.algorithm, k);
        let assignment = dendrogram.cut(k);
        let medoids = cluster_medoids_from_matrix(matrix, &assignment);
        sanitize_selection(medoids, n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_embed::{Distance, Vector};

    fn v(x: f32, y: f32) -> Vector {
        Vector::new(vec![x, y])
    }

    #[test]
    fn picks_one_representative_per_cluster() {
        let query = vec![v(0.0, 0.0)];
        let candidates = vec![
            v(0.0, 0.0),
            v(0.1, 0.0),
            v(10.0, 10.0),
            v(10.1, 10.0),
            v(-10.0, 5.0),
            v(-10.1, 5.0),
        ];
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let selection = CltDiversifier::new().select(&input, 3);
        assert_eq!(selection.len(), 3);
        // one from each pair
        let groups = [[0usize, 1], [2, 3], [4, 5]];
        for group in groups {
            assert_eq!(
                selection.iter().filter(|&&s| group.contains(&s)).count(),
                1,
                "expected exactly one representative from {group:?}, got {selection:?}"
            );
        }
    }

    #[test]
    fn ignores_the_query_unlike_dust() {
        // candidates identical to the query tuple still get selected because
        // CLT never compares against the query
        let query = vec![v(0.0, 0.0)];
        let candidates = vec![v(0.0, 0.0), v(0.05, 0.0), v(20.0, 0.0), v(20.05, 0.0)];
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let selection = CltDiversifier::new().select(&input, 2);
        assert!(
            selection.iter().any(|&i| i <= 1),
            "a near-query tuple is kept"
        );
    }

    #[test]
    fn capped_and_full_dendrogram_builds_select_identically() {
        let query = vec![v(0.0, 0.0)];
        let candidates: Vec<Vector> = (0..90)
            .map(|i| {
                v(
                    (i % 9) as f32 * 4.0 + (i as f32) * 0.013,
                    (i / 9) as f32 * 3.0,
                )
            })
            .collect();
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let clt = CltDiversifier::new();
        let matrix = input.pairwise();
        let full = agglomerative_with(matrix, clt.linkage, clt.algorithm, 1);
        for k in [2usize, 5, 10] {
            let expected = sanitize_selection(
                cluster_medoids_from_matrix(matrix, &full.cut(k)),
                candidates.len(),
                k,
            );
            assert_eq!(clt.select(&input, k), expected, "k={k}");
        }
    }

    #[test]
    fn edge_cases() {
        let query = vec![v(0.0, 0.0)];
        let candidates = vec![v(1.0, 1.0)];
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        assert_eq!(CltDiversifier::new().select(&input, 4), vec![0]);
        assert!(CltDiversifier::new().select(&input, 0).is_empty());
        assert_eq!(CltDiversifier::new().name(), "clt");
    }
}
