//! Pre-diversification pruning (Sec. 5.1).
//!
//! For each source table, the mean embedding of its candidate tuples is
//! computed; every tuple is scored by its distance from that mean and the
//! top-`s` tuples overall (most distant from their table's mean, i.e. most
//! "unusual") are kept for clustering. Pruning keeps the most diverse
//! candidates while cutting the clustering cost (Appendix A.2.3 reports a
//! 990 s → 85 s per-query improvement on SANTOS).

use crate::order::desc_nan_last;
use dust_embed::{Distance, EmbeddingStore, Vector};
use std::collections::HashMap;

/// Select up to `s` candidate indices by per-table distance-from-mean
/// ranking. When `sources` is `None`, all candidates are treated as coming
/// from one table. Returns indices into `candidates`, most diverse first.
pub fn prune_tuples(
    candidates: &[Vector],
    sources: Option<&[usize]>,
    distance: Distance,
    s: usize,
) -> Vec<usize> {
    prune_tuples_with_store(
        &EmbeddingStore::from_vectors(candidates),
        sources,
        distance,
        s,
    )
}

/// [`prune_tuples`] over a prebuilt embedding store — the DUST path, which
/// reuses the store already held by its [`crate::DiversificationInput`] so
/// the candidate norms are computed exactly once per query.
pub fn prune_tuples_with_store(
    store: &EmbeddingStore,
    sources: Option<&[usize]>,
    distance: Distance,
    s: usize,
) -> Vec<usize> {
    let n = store.len();
    if n == 0 || s == 0 {
        return Vec::new();
    }
    if n <= s {
        return (0..n).collect();
    }
    // Group candidate indices by source table.
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        let table = sources.map(|s| s[i]).unwrap_or(0);
        groups.entry(table).or_default().push(i);
    }
    // Score every tuple by its distance from its table's mean embedding.
    let mut scored: Vec<(usize, f64)> = Vec::with_capacity(n);
    for members in groups.values() {
        let mean = EmbeddingStore::from_vectors(&[mean_of_rows(store, members)]);
        store.cross_distances(distance, members.iter().copied(), &mean, |i, d| {
            scored.push((i, d[0]))
        });
    }
    // NaN scores (a NaN embedding poisons its whole table's mean) rank
    // last instead of "equal to everything", which would otherwise leave
    // the cut-off at the mercy of HashMap iteration order — see
    // crate::order.
    scored.sort_by(|a, b| desc_nan_last(a.1, b.1).then_with(|| a.0.cmp(&b.0)));
    scored.into_iter().take(s).map(|(i, _)| i).collect()
}

/// Element-wise mean of the given store rows (same accumulation order as
/// [`Vector::mean`], so scores match the naive path bit for bit).
fn mean_of_rows(store: &EmbeddingStore, members: &[usize]) -> Vector {
    let mut acc: Vec<f32> = store.row(members[0]).to_vec();
    for &i in &members[1..] {
        for (a, b) in acc.iter_mut().zip(store.row(i)) {
            *a += b;
        }
    }
    let scale = 1.0 / members.len() as f32;
    for a in &mut acc {
        *a *= scale;
    }
    Vector::new(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32) -> Vector {
        Vector::new(vec![x, 0.0])
    }

    #[test]
    fn keeps_everything_when_under_budget() {
        let candidates = vec![v(0.0), v(1.0)];
        let kept = prune_tuples(&candidates, None, Distance::Euclidean, 10);
        assert_eq!(kept, vec![0, 1]);
    }

    #[test]
    fn keeps_outliers_first() {
        // a tight cluster around 0 plus one far-away point
        let candidates = vec![v(0.0), v(0.1), v(0.2), v(10.0)];
        let kept = prune_tuples(&candidates, None, Distance::Euclidean, 2);
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&3), "the outlier must survive pruning");
    }

    #[test]
    fn per_table_means_are_used() {
        // table 0: points around 0; table 1: points around 100.
        // Without per-table means, all of table 1 would look like outliers.
        let candidates = vec![v(0.0), v(0.2), v(5.0), v(100.0), v(100.2), v(95.0)];
        let sources = vec![0, 0, 0, 1, 1, 1];
        let kept = prune_tuples(&candidates, Some(&sources), Distance::Euclidean, 2);
        assert_eq!(kept.len(), 2);
        // index 2 (5.0, far from its table mean ~1.7) and index 5 (95.0, far
        // from its table mean ~98.4) are each table's biggest outlier
        assert!(kept.contains(&2));
        assert!(kept.contains(&5));
    }

    #[test]
    fn empty_and_zero_budget() {
        assert!(prune_tuples(&[], None, Distance::Cosine, 5).is_empty());
        assert!(prune_tuples(&[v(1.0)], None, Distance::Cosine, 0).is_empty());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let candidates = vec![v(1.0), v(-1.0), v(1.0), v(-1.0)];
        let a = prune_tuples(&candidates, None, Distance::Euclidean, 2);
        let b = prune_tuples(&candidates, None, Distance::Euclidean, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }
}
