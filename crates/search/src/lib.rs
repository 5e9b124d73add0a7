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
//! * [`metrics`] — MAP / precision@k / recall@k over search results.
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
pub use d3l::{D3lSearch, D3lSignalStats};
pub use index::{ColumnRef, InvertedValueIndex, Overlaps};
pub use metrics::{average_precision, mean_average_precision, precision_at_k, recall_at_k};
pub use overlap::OverlapSearch;
pub use signals::{ColumnSignals, SignalWeights};
pub use starmie::{StarmieColumnStore, StarmieSearch, StarmieTupleSearch};

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

/// Shared core of the resident per-table column-embedding stores
/// ([`StarmieColumnStore`] and [`D3lSignalStats`]): one embedding per
/// column per lake table, keyed by table name. The technique wrappers
/// differ only in the embed function they build with, so bookkeeping that
/// has to stay in sync across both (and future staleness / incremental
/// lake-update logic) lives here exactly once.
///
/// Each table's embedding block sits behind an `Arc`: cloning the store
/// copies the name→pointer map and shares every block, and a per-table
/// insert/remove replaces only that table's entry. Consecutive session
/// snapshots therefore keep `Arc::ptr_eq` blocks for every table a mutation
/// didn't touch (pinned by `tests/session_sharing.rs`).
#[derive(Debug, Clone, Default)]
pub(crate) struct PerTableColumnEmbeddings {
    embeddings: std::collections::HashMap<TableId, std::sync::Arc<Vec<dust_embed::Vector>>>,
}

impl PerTableColumnEmbeddings {
    /// Embed every lake table's columns with `embed_table`.
    pub(crate) fn build(
        lake: &DataLake,
        mut embed_table: impl FnMut(&Table) -> Vec<dust_embed::Vector>,
    ) -> Self {
        PerTableColumnEmbeddings {
            embeddings: lake
                .tables()
                .map(|t| (t.name().to_string(), std::sync::Arc::new(embed_table(t))))
                .collect(),
        }
    }

    /// Column embeddings of a table (column order), if indexed.
    pub(crate) fn get(&self, table: &str) -> Option<&[dust_embed::Vector]> {
        self.embeddings.get(table).map(|vs| vs.as_slice())
    }

    /// The shared handle to a table's embedding block, for sharing
    /// diagnostics (`Arc::ptr_eq` across snapshot generations).
    pub(crate) fn get_shared(
        &self,
        table: &str,
    ) -> Option<&std::sync::Arc<Vec<dust_embed::Vector>>> {
        self.embeddings.get(table)
    }

    /// Index (or re-index) one table with `embed_table`. The store keys by
    /// table name and each entry depends only on that table's contents, so
    /// an insert is exactly what a fresh full build would have produced for
    /// that table — per-table deltas cannot drift from a rebuild.
    pub(crate) fn insert(
        &mut self,
        table: &Table,
        embed_table: impl FnOnce(&Table) -> Vec<dust_embed::Vector>,
    ) {
        self.embeddings.insert(
            table.name().to_string(),
            std::sync::Arc::new(embed_table(table)),
        );
    }

    /// Drop one table's embeddings. Returns whether the table was indexed.
    pub(crate) fn remove(&mut self, table: &str) -> bool {
        self.embeddings.remove(table).is_some()
    }

    /// Number of indexed tables.
    pub(crate) fn num_tables(&self) -> usize {
        self.embeddings.len()
    }

    /// Total number of stored column embeddings.
    pub(crate) fn num_columns(&self) -> usize {
        self.embeddings.values().map(|vs| vs.len()).sum()
    }

    /// Export every entry in sorted table order (deterministic — suitable
    /// for checksummed snapshots).
    pub(crate) fn entries(&self) -> Vec<(TableId, Vec<dust_embed::Vector>)> {
        let mut entries: Vec<(TableId, Vec<dust_embed::Vector>)> = self
            .embeddings
            .iter()
            .map(|(t, vs)| (t.clone(), vs.as_ref().clone()))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Reassemble a store from exported entries — the exact inverse of
    /// [`Self::entries`]. Embeddings round-trip verbatim, bit for bit.
    pub(crate) fn from_entries(entries: Vec<(TableId, Vec<dust_embed::Vector>)>) -> Self {
        PerTableColumnEmbeddings {
            embeddings: entries
                .into_iter()
                .map(|(t, vs)| (t, std::sync::Arc::new(vs)))
                .collect(),
        }
    }
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
