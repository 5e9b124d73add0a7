//! GMC — Greedy Marginal Contribution (Vieira et al., DivDB, VLDB 2011).
//!
//! GMC greedily builds the result set by repeatedly adding the candidate
//! with the largest *maximal marginal contribution* to the bi-criteria
//! objective
//!
//! ```text
//! F(S) = (k − 1) · (1 − λ) · Σ_{s ∈ S} rel(s)  +  2 · λ · Σ_{s_i, s_j ∈ S} δ(s_i, s_j)
//! ```
//!
//! where `rel` is the relevance of a candidate to the query and `δ` is the
//! tuple distance. In the unionable-tuple setting relevance is the
//! similarity to the query table (1 − average distance to the query tuples),
//! matching how the paper adapts IR diversification to tuples. The
//! contribution of a candidate additionally includes an optimistic estimate
//! of its distances to the not-yet-selected slots, as in the original
//! algorithm.
//!
//! Complexity is O(k · s²) in the worst case (each step scans all remaining
//! candidates and their distances to the selected set), which is what makes
//! GMC the slow-but-strong baseline of Table 2 / Fig. 7.

use crate::traits::{sanitize_selection, DiversificationInput, Diversifier};

/// The GMC diversification baseline.
#[derive(Debug, Clone)]
pub struct GmcDiversifier {
    /// Relevance/diversity trade-off (λ = 1 is pure diversity). The DivDB
    /// default of 0.7 leans toward diversity.
    pub lambda: f64,
}

impl Default for GmcDiversifier {
    fn default() -> Self {
        GmcDiversifier { lambda: 0.7 }
    }
}

impl GmcDiversifier {
    /// Create GMC with the default trade-off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relevance of a candidate: similarity to the query table.
    fn relevance(&self, input: &DiversificationInput<'_>, idx: usize) -> f64 {
        if input.query.is_empty() {
            return 0.0;
        }
        // Cosine distance is bounded by 2; map to a [0, 1]-ish similarity.
        (1.0 - input.avg_distance_to_query(idx) / 2.0).max(0.0)
    }
}

impl Diversifier for GmcDiversifier {
    fn name(&self) -> &'static str {
        "gmc"
    }

    fn select(&self, input: &DiversificationInput<'_>, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        if n <= k {
            return (0..n).collect();
        }
        let lambda = self.lambda.clamp(0.0, 1.0);
        let relevance: Vec<f64> = (0..n).map(|i| self.relevance(input, i)).collect();
        // GMC touches every candidate pair, so force the shared pairwise
        // matrix once (built in parallel) and read it from then on. This is
        // the O(s²) part of GMC and the reason its runtime grows
        // quadratically with the number of input tuples (Fig. 7a).
        let matrix = input.pairwise();
        // Optimistic estimate of each candidate's future diversity
        // contribution: its maximum distance to any other candidate (one
        // linear pass over the condensed buffer).
        let mut max_dist = vec![0.0f64; n];
        matrix.for_each_pair(|i, j, d| {
            if d > max_dist[i] {
                max_dist[i] = d;
            }
            if d > max_dist[j] {
                max_dist[j] = d;
            }
        });

        let mut selected: Vec<usize> = Vec::with_capacity(k);
        let mut remaining: Vec<usize> = (0..n).collect();
        // running sum of distances from each remaining candidate to the
        // selected set (updated incrementally to keep the step cost O(s))
        let mut dist_to_selected = vec![0.0f64; n];

        while selected.len() < k && !remaining.is_empty() {
            let slots_left = (k - selected.len()).saturating_sub(1) as f64;
            let mut best_pos = 0usize;
            let mut best_cand = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            for (pos, &cand) in remaining.iter().enumerate() {
                // once per unfilled slot, assume the best case distance
                // (the GMC upper-bound heuristic)
                let future = slots_left * max_dist[cand];
                let score = (1.0 - lambda) * (k as f64 - 1.0) * relevance[cand]
                    + 2.0 * lambda * (dist_to_selected[cand] + future);
                // Strict win, or near-tie broken by the smaller candidate
                // index. `best_score` only ever increases (a tie win keeps
                // the larger of the two scores), so the winner is the
                // smallest-index candidate of the top near-tie band
                // regardless of scan order.
                if score > best_score + 1e-15 {
                    best_score = score;
                    best_pos = pos;
                    best_cand = cand;
                } else if score > best_score - 1e-15 && cand < best_cand {
                    best_score = best_score.max(score);
                    best_pos = pos;
                    best_cand = cand;
                }
            }
            let chosen = remaining.swap_remove(best_pos);
            for &other in &remaining {
                dist_to_selected[other] += matrix.get(chosen, other);
            }
            selected.push(chosen);
        }
        sanitize_selection(selected, n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::average_diversity;
    use dust_embed::{Distance, Vector};

    fn v(x: f32, y: f32) -> Vector {
        Vector::new(vec![x, y])
    }

    fn grid() -> (Vec<Vector>, Vec<Vector>) {
        let query = vec![v(0.0, 0.0)];
        let mut candidates = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                candidates.push(v(i as f32, j as f32));
            }
        }
        (query, candidates)
    }

    #[test]
    fn returns_k_distinct_indices() {
        let (query, candidates) = grid();
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let selection = GmcDiversifier::new().select(&input, 8);
        assert_eq!(selection.len(), 8);
        let unique: std::collections::HashSet<_> = selection.iter().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn pure_diversity_spreads_the_selection() {
        let (query, candidates) = grid();
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let diverse = GmcDiversifier { lambda: 1.0 }.select(&input, 4);
        let selected: Vec<Vector> = diverse.iter().map(|&i| candidates[i].clone()).collect();
        // the four grid corners maximize spread; average pairwise distance
        // of the selection must be large
        let avg = average_diversity(&[], &selected, Distance::Euclidean);
        assert!(
            avg > 4.0,
            "selection not spread out: {diverse:?} (avg {avg})"
        );
    }

    #[test]
    fn pure_relevance_picks_query_neighbours() {
        let (query, candidates) = grid();
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let relevant = GmcDiversifier { lambda: 0.0 }.select(&input, 3);
        // with λ = 0 the algorithm degenerates to nearest-to-query selection
        for &idx in &relevant {
            assert!(
                input.avg_distance_to_query(idx) <= 3.0,
                "λ=0 should favour near-query tuples, got index {idx}"
            );
        }
    }

    #[test]
    fn lambda_increases_measured_diversity() {
        let (query, candidates) = grid();
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        let to_vecs =
            |sel: &[usize]| -> Vec<Vector> { sel.iter().map(|&i| candidates[i].clone()).collect() };
        let low = GmcDiversifier { lambda: 0.1 }.select(&input, 5);
        let high = GmcDiversifier { lambda: 0.9 }.select(&input, 5);
        assert!(
            average_diversity(&query, &to_vecs(&high), Distance::Euclidean)
                >= average_diversity(&query, &to_vecs(&low), Distance::Euclidean)
        );
    }

    #[test]
    fn small_inputs_and_edge_cases() {
        let query = vec![v(0.0, 0.0)];
        let candidates = vec![v(1.0, 1.0)];
        let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
        assert_eq!(GmcDiversifier::new().select(&input, 3), vec![0]);
        assert!(GmcDiversifier::new().select(&input, 0).is_empty());
        let empty = DiversificationInput::new(&query, &[], Distance::Euclidean);
        assert!(GmcDiversifier::new().select(&empty, 3).is_empty());
        assert_eq!(GmcDiversifier::new().name(), "gmc");
    }
}
