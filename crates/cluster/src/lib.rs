//! # dust-cluster
//!
//! Clustering substrate for the DUST reproduction:
//!
//! * [`agglomerative`] — hierarchical agglomerative clustering with two
//!   interchangeable engines over one shared workspace: the
//!   nearest-neighbour-chain algorithm (O(n²), reducible linkages) and a
//!   fastcluster-style cached-nearest-neighbour "generic" algorithm (lazy
//!   min-heap, all linkages, faster from ~100 points), selected by
//!   [`AgglomerativeAlgorithm`]. Both engines support k-capped partial
//!   builds ([`agglomerative_with`]) and compact their workspace from 256
//!   points up — consumers only ever cut coarsely (DUST at `k·p`,
//!   alignment at `≥ min_k`), so the engines stop once those cuts are
//!   determined and physically shrink the working matrix as clusters
//!   retire, without changing any answer.
//!   The tuple-diversification step of DUST relies on these for
//!   scalability; the constrained variant (cannot-link pairs, used by
//!   holistic column alignment so that two columns of the same table are
//!   never merged) is a small-n greedy scan that reads admissibility from
//!   an `n × n` cluster-conflict matrix, OR-folded on every merge.
//! * [`silhouette`] — Silhouette coefficient for model selection
//!   (choosing the number of clusters, Sec. 3.3); builds one pairwise
//!   matrix per sweep, not one per candidate cut.
//! * [`medoid`] — medoids of clusters (the representative-tuple choice in
//!   Sec. 5.2).

#![warn(missing_docs)]

pub mod agglomerative;
pub mod medoid;
pub mod silhouette;

pub use agglomerative::{
    agglomerative, agglomerative_constrained, agglomerative_constrained_from_matrix,
    agglomerative_from_matrix, agglomerative_with, AgglomerativeAlgorithm, Dendrogram, Linkage,
    Merge,
};
pub use medoid::{
    cluster_medoids, cluster_medoids_from_matrix, medoid, medoid_in_matrix, medoid_with_store,
};
pub use silhouette::{
    best_cut_by_silhouette, best_cut_by_silhouette_from_matrix, silhouette_score,
    silhouette_score_from_matrix,
};

/// A flat clustering: `assignment[i]` is the cluster id of point `i`.
/// Cluster ids are dense (0..num_clusters).
pub type Assignment = Vec<usize>;

/// Number of clusters in an assignment (0 for an empty assignment).
pub fn num_clusters(assignment: &[usize]) -> usize {
    assignment.iter().copied().max().map(|m| m + 1).unwrap_or(0)
}

/// Group point indices by cluster id.
pub fn clusters_from_assignment(assignment: &[usize]) -> Vec<Vec<usize>> {
    let k = num_clusters(assignment);
    let mut groups = vec![Vec::new(); k];
    for (idx, &c) in assignment.iter().enumerate() {
        groups[c].push(idx);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_helpers() {
        let assignment = vec![0, 1, 0, 2, 1];
        assert_eq!(num_clusters(&assignment), 3);
        let groups = clusters_from_assignment(&assignment);
        assert_eq!(groups[0], vec![0, 2]);
        assert_eq!(groups[1], vec![1, 4]);
        assert_eq!(groups[2], vec![3]);
        assert_eq!(num_clusters(&[]), 0);
        assert!(clusters_from_assignment(&[]).is_empty());
    }
}
