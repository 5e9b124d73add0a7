//! Tuple-diversification evaluation metrics (Sec. 5.4).
//!
//! * **Average Diversity** (Eq. 1): the average of all query-to-selected and
//!   selected-to-selected distances, normalized by `n + k`. Distances among
//!   query tuples are excluded (they are constant across algorithms).
//! * **Min Diversity** (Eq. 2): the minimum distance over the same pairs.

use dust_embed::{Distance, EmbeddingStore, Vector};
use serde::{Deserialize, Serialize};

/// Both diversity scores of one selected set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiversityScores {
    /// Average Diversity (Eq. 1).
    pub average: f64,
    /// Min Diversity (Eq. 2).
    pub minimum: f64,
}

impl DiversityScores {
    /// Compute both scores in a single pass over the pair distances (each
    /// distance is evaluated once, through the cached-norm kernel).
    pub fn compute(query: &[Vector], selected: &[Vector], distance: Distance) -> Self {
        let (sum, min) = pair_distance_stats(query, selected, distance);
        let n = query.len();
        let k = selected.len();
        DiversityScores {
            average: if k == 0 { 0.0 } else { sum / (n + k) as f64 },
            minimum: if min.is_finite() { min } else { 0.0 },
        }
    }
}

/// Sum and minimum over all query-to-selected and selected-to-selected pair
/// distances, computed through shared [`EmbeddingStore`]s (cached norms,
/// the tiled kernel) and accumulated in the fixed order query × selected,
/// then selected pairs `i < j`.
fn pair_distance_stats(query: &[Vector], selected: &[Vector], distance: Distance) -> (f64, f64) {
    let qs = EmbeddingStore::from_vectors(query);
    let ss = EmbeddingStore::from_vectors(selected);
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut add = |distances: &[f64]| {
        for &d in distances {
            sum += d;
            min = min.min(d);
        }
    };
    qs.cross_distances(distance, 0..qs.len(), &ss, |_, d| add(d));
    // whole rows come back; only the `j > i` half is read (k is small)
    ss.cross_distances(distance, 0..ss.len(), &ss, |i, d| add(&d[i + 1..]));
    (sum, min)
}

/// Average Diversity (Eq. 1):
/// `(Σ_{i,j} δ(q_i, t_j) + Σ_{i<j} δ(t_i, t_j)) / (n + k)`.
pub fn average_diversity(query: &[Vector], selected: &[Vector], distance: Distance) -> f64 {
    DiversityScores::compute(query, selected, distance).average
}

/// Min Diversity (Eq. 2): the minimum over all query-to-selected and
/// selected-to-selected distances. Returns 0 for an empty selection and the
/// minimum query distance when only one tuple is selected.
pub fn min_diversity(query: &[Vector], selected: &[Vector], distance: Distance) -> f64 {
    DiversityScores::compute(query, selected, distance).minimum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32) -> Vector {
        Vector::new(vec![x, y])
    }

    #[test]
    fn matches_hand_computed_values() {
        let query = vec![v(0.0, 0.0)];
        let selected = vec![v(3.0, 0.0), v(0.0, 4.0)];
        // pairs: q-t1 = 3, q-t2 = 4, t1-t2 = 5 ; n + k = 3
        let avg = average_diversity(&query, &selected, Distance::Euclidean);
        assert!((avg - 4.0).abs() < 1e-9);
        let min = min_diversity(&query, &selected, Distance::Euclidean);
        assert!((min - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_selection_scores_zero() {
        let query = vec![v(0.0, 0.0)];
        assert_eq!(average_diversity(&query, &[], Distance::Euclidean), 0.0);
        assert_eq!(min_diversity(&query, &[], Distance::Euclidean), 0.0);
    }

    #[test]
    fn single_selected_tuple_uses_query_distances_only() {
        let query = vec![v(0.0, 0.0), v(1.0, 0.0)];
        let selected = vec![v(4.0, 0.0)];
        let min = min_diversity(&query, &selected, Distance::Euclidean);
        assert!((min - 3.0).abs() < 1e-9);
        let avg = average_diversity(&query, &selected, Distance::Euclidean);
        assert!((avg - (4.0 + 3.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_query_tuples_still_scores_selected_spread() {
        let selected = vec![v(0.0, 0.0), v(2.0, 0.0)];
        let avg = average_diversity(&[], &selected, Distance::Euclidean);
        assert!((avg - 1.0).abs() < 1e-9);
        let min = min_diversity(&[], &selected, Distance::Euclidean);
        assert!((min - 2.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_selection_has_zero_min_diversity() {
        let query = vec![v(0.0, 0.0)];
        let selected = vec![v(1.0, 0.0), v(1.0, 0.0)];
        assert_eq!(min_diversity(&query, &selected, Distance::Euclidean), 0.0);
    }

    #[test]
    fn a_more_spread_selection_scores_higher() {
        let query = vec![v(0.0, 0.0)];
        let tight = vec![v(1.0, 0.0), v(1.1, 0.0)];
        let spread = vec![v(1.0, 0.0), v(-3.0, 4.0)];
        assert!(
            average_diversity(&query, &spread, Distance::Euclidean)
                > average_diversity(&query, &tight, Distance::Euclidean)
        );
        assert!(
            min_diversity(&query, &spread, Distance::Euclidean)
                > min_diversity(&query, &tight, Distance::Euclidean)
        );
        let scores = DiversityScores::compute(&query, &spread, Distance::Euclidean);
        assert!(scores.average >= scores.minimum);
    }
}
