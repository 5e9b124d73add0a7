//! D3L-style multi-signal table union search (Bogatu et al., ICDE 2020).
//!
//! D3L scores a column pair by aggregating several evidence types (name,
//! value overlap, format, word-embedding, numeric distribution) and scores a
//! table pair by the average, over query columns, of the best aggregated
//! column score. The original system uses LSH indexes per evidence type; we
//! use the inverted value index for candidate shortlisting, which preserves
//! the search behaviour at our benchmark scales.

use crate::index::InvertedValueIndex;
use crate::signals::{SignalComputer, SignalWeights};
use crate::{rank_and_truncate, shortlist_candidates, SearchResult, TableUnionSearch};
use dust_embed::Vector;
use dust_table::{DataLake, Table};
use std::borrow::Cow;

/// D3L multi-signal union search.
#[derive(Debug, Clone)]
pub struct D3lSearch {
    /// Aggregation weights over the five signals.
    pub weights: SignalWeights,
    /// Candidate shortlist size (0 = score every lake table).
    pub candidate_limit: usize,
    computer: SignalComputer,
}

impl Default for D3lSearch {
    fn default() -> Self {
        D3lSearch {
            weights: SignalWeights::default(),
            candidate_limit: 200,
            computer: SignalComputer::new(),
        }
    }
}

impl D3lSearch {
    /// Create a D3L search with default weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every column of `table` embedded under the signal computer's
    /// encoder, in column order. The embedding signal is the expensive part
    /// of [`crate::signals::SignalComputer::compute`] (the other four are
    /// cheap set/stat comparisons on the raw columns), and these embeddings
    /// are query-independent, with no lake-wide aggregate: a serving session
    /// computes them once per table and keeps them in the table's block.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vector> {
        (table.columns().iter())
            .map(|c| self.computer.embed_column(c))
            .collect()
    }

    /// The dimension of every column embedding this search produces.
    pub fn column_dim(&self) -> usize {
        self.computer.dim()
    }

    /// Aggregated score of a (query, candidate) table pair.
    pub fn score_pair(&self, query: &Table, candidate: &Table) -> f64 {
        let (qe, ce) = (
            self.column_embeddings(query),
            self.column_embeddings(candidate),
        );
        self.score_pair_with(query, &qe, candidate, &ce)
    }

    /// [`Self::score_pair`] over both tables' column embeddings — the
    /// single scoring code path, so the resident search is byte-identical
    /// to the fresh one.
    fn score_pair_with(
        &self,
        query: &Table,
        query_embeddings: &[Vector],
        candidate: &Table,
        candidate_embeddings: &[Vector],
    ) -> f64 {
        let mut total = 0.0;
        for (qcol, qe) in query.columns().iter().zip(query_embeddings) {
            let best = candidate
                .columns()
                .iter()
                .zip(candidate_embeddings)
                .map(|(ccol, cemb)| {
                    self.computer
                        .compute_with(qcol, qe, ccol, cemb)
                        .aggregate(&self.weights)
                })
                .fold(0.0f64, f64::max);
            total += best;
        }
        total / query.num_columns().max(1) as f64
    }

    /// Search with a resident [`InvertedValueIndex`] for shortlisting (a
    /// throwaway one is built without it) and each candidate's column
    /// embeddings read by table name through `columns` — a serving session
    /// keeps them in the table's block; a table `columns` does not know is
    /// embedded fresh. Byte-identical ranking to
    /// [`TableUnionSearch::search`] on the same lake.
    pub fn search_resident<'a>(
        &self,
        lake: &DataLake,
        query: &Table,
        k: usize,
        index: Option<&InvertedValueIndex>,
        columns: impl Fn(&str) -> Option<&'a [Vector]>,
    ) -> Vec<SearchResult> {
        let candidates = shortlist_candidates(lake, query, self.candidate_limit, index);
        let qe = self.column_embeddings(query);
        let results = candidates
            .into_iter()
            .filter_map(|name| {
                let table = lake.table(&name).ok()?;
                let fresh = || Cow::Owned(self.column_embeddings(table));
                let ce = columns(&name).map_or_else(fresh, Cow::Borrowed);
                Some(SearchResult {
                    score: self.score_pair_with(query, &qe, table, &ce),
                    table: name,
                })
            })
            .collect();
        rank_and_truncate(results, k)
    }
}

impl TableUnionSearch for D3lSearch {
    fn name(&self) -> &'static str {
        "d3l"
    }

    fn search(&self, lake: &DataLake, query: &Table, k: usize) -> Vec<SearchResult> {
        self.search_resident(lake, query, k, None, |_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn toy_lake() -> (DataLake, Table) {
        let mut lake = DataLake::new("toy");
        lake.add_table(
            Table::builder("parks_b")
                .column("Park Name", ["River Park", "Hyde Park"])
                .column("Country", ["USA", "UK"])
                .build()
                .unwrap(),
        )
        .unwrap();
        lake.add_table(
            Table::builder("parks_d")
                .column("Park Name", ["Chippewa Park", "Lawler Park"])
                .column("Park Country", ["USA", "USA"])
                .column("Park Phone", ["773 731-0380", "773 284-7328"])
                .build()
                .unwrap(),
        )
        .unwrap();
        lake.add_table(
            Table::builder("molecules")
                .column("Formula", ["C8H10N4O2", "C9H8O4"])
                .column("Mass", ["194.19", "180.16"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let query = Table::builder("query")
            .column("Park Name", ["River Park", "West Lawn Park"])
            .column("Country", ["USA", "USA"])
            .build()
            .unwrap();
        (lake, query)
    }

    #[test]
    fn unionable_tables_outrank_non_unionable_tables() {
        let (lake, query) = toy_lake();
        let search = D3lSearch {
            candidate_limit: 0,
            ..D3lSearch::new()
        };
        let results = search.search(&lake, &query, 3);
        assert_eq!(results.len(), 3);
        let molecule_rank = results.iter().position(|r| r.table == "molecules").unwrap();
        assert_eq!(
            molecule_rank, 2,
            "molecule table must rank last: {results:?}"
        );
        assert_eq!(search.name(), "d3l");
    }

    #[test]
    fn name_and_format_signals_help_without_value_overlap() {
        // parks_d shares no park names with the query, but shares header
        // semantics and format with it; its score must exceed the molecule
        // table's.
        let (lake, query) = toy_lake();
        let search = D3lSearch::new();
        let d = search.score_pair(&query, lake.table("parks_d").unwrap());
        let m = search.score_pair(&query, lake.table("molecules").unwrap());
        assert!(d > m);
    }

    #[test]
    fn custom_weights_change_ranking_emphasis() {
        let (lake, query) = toy_lake();
        let only_overlap = D3lSearch {
            weights: SignalWeights {
                value_overlap: 1.0,
                name_similarity: 0.0,
                format_similarity: 0.0,
                embedding_similarity: 0.0,
                numeric_similarity: 0.0,
            },
            ..D3lSearch::default()
        };
        let b = only_overlap.score_pair(&query, lake.table("parks_b").unwrap());
        let d = only_overlap.score_pair(&query, lake.table("parks_d").unwrap());
        let m = only_overlap.score_pair(&query, lake.table("molecules").unwrap());
        // With pure value-overlap weighting, the value-sharing park tables
        // must both beat the molecule table, which shares nothing.
        assert!(b > m);
        assert!(d > m);
        assert_eq!(m, 0.0);
        // ... and the default multi-signal score ranks the near-copy higher
        // than pure overlap does, thanks to the name/format signals.
        let full = D3lSearch::new();
        assert!(full.score_pair(&query, lake.table("parks_b").unwrap()) > b);
    }

    /// Every lake table's column embeddings, keyed by name, as a serving
    /// session's blocks hold them.
    fn resident_columns(lake: &DataLake, search: &D3lSearch) -> BTreeMap<String, Vec<Vector>> {
        (lake.tables())
            .map(|t| (t.name().to_string(), search.column_embeddings(t)))
            .collect()
    }

    #[test]
    fn resident_stats_reproduce_the_fresh_ranking_exactly() {
        let (lake, query) = toy_lake();
        let search = D3lSearch::new();
        let index = InvertedValueIndex::build(&lake);
        let resident = resident_columns(&lake, &search);
        assert_eq!(resident.values().map(Vec::len).sum::<usize>(), 7);
        assert!(resident
            .values()
            .flatten()
            .all(|v| v.dim() == search.column_dim()));
        let columns = |name: &str| resident.get(name).map(Vec::as_slice);
        let fresh = search.search(&lake, &query, 10);
        let served = search.search_resident(&lake, &query, 10, Some(&index), columns);
        crate::assert_same_ranking(&fresh, &served);
    }

    #[test]
    fn incremental_stats_deltas_match_a_fresh_rebuild() {
        let (mut lake, query) = toy_lake();
        let search = D3lSearch::new();
        let resident = resident_columns(&lake, &search);
        let columns = |name: &str| resident.get(name).map(Vec::as_slice);
        let mut index = InvertedValueIndex::build(&lake);
        // remove a table from the lake and the index: the resident columns
        // of the remaining tables are what a rebuild computes
        let removed = lake.remove_table("molecules").unwrap();
        index.remove_table(&removed);
        for (name, embeddings) in resident_columns(&lake, &search) {
            assert_eq!(resident[&name], embeddings, "{name}");
        }
        // add it back incrementally: search over the mutated index is
        // bit-identical to the fresh path on the re-grown lake
        lake.add_table(removed.clone()).unwrap();
        index.add_table(&removed);
        let fresh = search.search(&lake, &query, 10);
        let served = search.search_resident(&lake, &query, 10, Some(&index), columns);
        crate::assert_same_ranking(&fresh, &served);
    }

    #[test]
    fn search_without_candidate_limit_scores_all_tables() {
        let (lake, query) = toy_lake();
        let search = D3lSearch {
            candidate_limit: 0,
            ..D3lSearch::new()
        };
        assert_eq!(search.search(&lake, &query, 10).len(), 3);
    }
}
