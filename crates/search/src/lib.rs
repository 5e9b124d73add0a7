//! # dust-search
//!
//! Table union search substrate for the DUST reproduction. DUST itself is
//! agnostic to the union-search technique used in its first step
//! (Algorithm 1, `SearchTables`); this crate provides the techniques the
//! paper uses and compares against:
//!
//! * [`overlap`] — a value-overlap search in the spirit of the original
//!   Table Union Search work (Nargesian et al.);
//! * [`d3l`] — D3L-style multi-signal unionability scoring;
//! * [`starmie`] — Starmie-style contextualized column embeddings with
//!   maximum-weight bipartite matching, plus its tuple-as-table variant used
//!   as a baseline in Sec. 6.5;
//! * [`bipartite`] — maximum-weight bipartite matching (Hungarian algorithm);
//! * [`signals`] — individual column-pair unionability signals;
//! * [`index`] — an inverted value index whose postings name the lake
//!   columns holding each value: one walk per query column gives every
//!   exact column overlap and the candidate shortlist;
//! * [`metrics`] — average precision and MAP over search results.
//!
//! Every value-overlap computation here (the overlap score, D3L's
//! value-overlap signal, the index's keys and column sizes) reads
//! [`dust_table::Column::value_set`], the per-column cached set; nothing in
//! this crate normalises a cell. The overlap score is read off the index's
//! postings rather than merged pair by pair, and
//! [`OverlapSearch::score_pair`] pins it bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod d3l;
pub mod index;
pub mod metrics;
pub mod overlap;
pub mod signals;
pub mod starmie;

pub use bipartite::{max_weight_matching, Matching};
pub use d3l::D3lSearch;
pub use index::{ColumnRef, InvertedValueIndex, Overlaps};
pub use metrics::{average_precision, mean_average_precision};
pub use overlap::OverlapSearch;
pub use signals::{ColumnSignals, SignalWeights};
pub use starmie::{StarmieSearch, StarmieTupleSearch};

use dust_table::{DataLake, Table, TableId};
use index::InvertedValueIndex as Index;

/// A ranked search result: a data-lake table name and its unionability score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Name of the retrieved data-lake table.
    pub table: TableId,
    /// Unionability score (higher is more unionable).
    pub score: f64,
}

/// Common interface of every table union search technique in this crate.
pub trait TableUnionSearch {
    /// Human-readable technique name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Return the top-`k` data-lake tables ranked by unionability with the
    /// query table, best first.
    fn search(&self, lake: &DataLake, query: &Table, k: usize) -> Vec<SearchResult>;
}

/// Sort results by descending score (ties broken by table name for
/// determinism) and truncate to `k`.
///
/// Uses the shared NaN-safe total order ([`dust_embed::desc_nan_last`]): a
/// table whose unionability score degenerated to `NaN` (e.g. via a poisoned
/// embedding) ranks strictly last instead of comparing `Equal` to every
/// other score and corrupting the whole top-k order.
pub(crate) fn rank_and_truncate(mut results: Vec<SearchResult>, k: usize) -> Vec<SearchResult> {
    rank(&mut results, |r| (r.score, &r.table));
    results.truncate(k);
    results
}

/// Sort `items` by the order of [`rank_and_truncate`] on their `(score,
/// table name)` keys — names are unique, so the order is total.
pub(crate) fn rank<T>(items: &mut [T], key: impl Fn(&T) -> (f64, &str)) {
    items.sort_unstable_by(|a, b| {
        let ((a_score, a_name), (b_score, b_name)) = (key(a), key(b));
        dust_embed::desc_nan_last(a_score, b_score).then_with(|| a_name.cmp(b_name))
    });
}

/// Candidate tables to score for a query: every lake table for `limit` 0,
/// else the shortlist of the index's walk (building a throwaway index
/// unless the caller provides a resident one) — see
/// [`index::Overlaps::shortlist`] for its order and its fall-back to every
/// table when none shares a value.
pub(crate) fn shortlist_candidates(
    lake: &DataLake,
    query: &Table,
    limit: usize,
    resident_index: Option<&Index>,
) -> Vec<TableId> {
    if limit == 0 {
        return lake.table_names();
    }
    let built;
    let index = match resident_index {
        Some(index) => index,
        None => {
            built = Index::build(lake);
            &built
        }
    };
    let overlaps = index.overlaps(query);
    (overlaps.shortlist(limit).into_iter())
        .map(|slot| overlaps.name(slot).to_string())
        .collect()
}

/// Assert two rankings name the same tables in the same order with
/// bit-identical scores.
#[cfg(test)]
pub(crate) fn assert_same_ranking(want: &[SearchResult], got: &[SearchResult]) {
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w.table, g.table);
        assert_eq!(w.score.to_bits(), g.score.to_bits(), "table {}", w.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let results = vec![
            SearchResult {
                table: "b".into(),
                score: 0.5,
            },
            SearchResult {
                table: "a".into(),
                score: 0.5,
            },
            SearchResult {
                table: "c".into(),
                score: 0.9,
            },
        ];
        let ranked = rank_and_truncate(results, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].table, "c");
        assert_eq!(ranked[1].table, "a"); // ties broken alphabetically
    }

    #[test]
    fn nan_scores_rank_last_and_never_displace_real_results() {
        // Regression for the `partial_cmp(..).unwrap_or(Equal)` hole: one
        // NaN score used to compare Equal to everything and leave the order
        // dependent on the input order. Now NaN-scored tables always sort
        // after every real score, on every input permutation.
        let mk = |table: &str, score: f64| SearchResult {
            table: table.into(),
            score,
        };
        let base = vec![
            mk("poisoned", f64::NAN),
            mk("low", 0.1),
            mk("high", 0.9),
            mk("also_poisoned", f64::NAN),
            mk("mid", 0.5),
        ];
        // every rotation of the input produces the identical ranking
        let expected = ["high", "mid", "low", "also_poisoned", "poisoned"];
        for rot in 0..base.len() {
            let mut input = base.clone();
            input.rotate_left(rot);
            let ranked = rank_and_truncate(input, 10);
            let names: Vec<&str> = ranked.iter().map(|r| r.table.as_str()).collect();
            assert_eq!(names, expected, "rotation {rot}");
        }
        // ... and a NaN entry never makes the truncated top-k
        let top = rank_and_truncate(base, 3);
        assert!(top.iter().all(|r| !r.score.is_nan()));
    }
}
