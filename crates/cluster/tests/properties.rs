//! Property-based tests for the clustering substrate: every cut of a
//! dendrogram is a valid partition, constraints are always honoured, medoids
//! belong to their clusters, and silhouette scores stay in range.

use dust_cluster::{
    agglomerative, agglomerative_constrained, agglomerative_with, cluster_medoids,
    clusters_from_assignment, num_clusters, silhouette_score, AgglomerativeAlgorithm, Linkage,
};
use dust_embed::{Distance, PairwiseMatrix, Vector};
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Vec<Vector>> {
    prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 2), 2..30)
        .prop_map(|rows| rows.into_iter().map(Vector::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every cut of an unconstrained dendrogram is a partition with exactly
    /// the requested number of clusters (when feasible) and dense ids —
    /// for every linkage, on either engine.
    #[test]
    fn dendrogram_cuts_are_valid_partitions(points in points_strategy(), k in 1usize..10) {
        let matrix = PairwiseMatrix::compute(&points, Distance::Euclidean);
        for linkage in Linkage::ALL {
            for algorithm in [AgglomerativeAlgorithm::NnChain, AgglomerativeAlgorithm::Generic] {
                let dendrogram = agglomerative_with(&matrix, linkage, algorithm, 1);
                prop_assert_eq!(dendrogram.merges().len(), points.len() - 1);
                let assignment = dendrogram.cut(k);
                prop_assert_eq!(assignment.len(), points.len());
                let clusters = num_clusters(&assignment);
                prop_assert_eq!(clusters, k.min(points.len()));
                // dense ids: every id below `clusters` occurs
                let groups = clusters_from_assignment(&assignment);
                prop_assert_eq!(groups.len(), clusters);
                prop_assert!(groups.iter().all(|g| !g.is_empty()));
                prop_assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), points.len());
            }
        }
    }

    /// Cannot-link constraints are honoured at every cut level.
    #[test]
    fn constrained_clustering_never_violates_constraints(
        points in points_strategy(),
        k in 1usize..8,
    ) {
        // constrain consecutive pairs (0,1), (2,3), ...
        let constraints: Vec<(usize, usize)> = (0..points.len().saturating_sub(1))
            .step_by(2)
            .map(|i| (i, i + 1))
            .collect();
        let dendrogram = agglomerative_constrained(
            &points,
            Distance::Euclidean,
            Linkage::Average,
            &constraints,
        );
        let assignment = dendrogram.cut(k);
        for &(a, b) in &constraints {
            prop_assert_ne!(assignment[a], assignment[b], "constraint ({}, {}) violated", a, b);
        }
    }

    /// Medoids are members of their own clusters and there is one per cluster.
    #[test]
    fn medoids_belong_to_their_clusters(points in points_strategy(), k in 1usize..8) {
        let dendrogram = agglomerative(&points, Distance::Euclidean, Linkage::Average);
        let assignment = dendrogram.cut(k);
        let medoids = cluster_medoids(&points, &assignment, Distance::Euclidean);
        let groups = clusters_from_assignment(&assignment);
        prop_assert_eq!(medoids.len(), groups.len());
        for (cluster_id, &medoid) in medoids.iter().enumerate() {
            prop_assert_eq!(assignment[medoid], cluster_id);
        }
    }

    /// Silhouette scores, when defined, are within [-1, 1].
    #[test]
    fn silhouette_is_bounded(points in points_strategy(), k in 2usize..6) {
        let dendrogram = agglomerative(&points, Distance::Euclidean, Linkage::Average);
        let assignment = dendrogram.cut(k);
        if let Some(score) = silhouette_score(&points, &assignment, Distance::Euclidean) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&score));
        }
    }

}
