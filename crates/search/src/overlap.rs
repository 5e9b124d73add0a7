//! Value-overlap table union search (TUS-style).
//!
//! A data-lake table's unionability with the query is the average, over
//! query columns, of the best Jaccard value overlap achieved by any of the
//! candidate table's columns. This is the syntactic core of the original
//! Table Union Search approach and serves as the default `SearchTables`
//! implementation of Algorithm 1.
//!
//! Scores come from the [`InvertedValueIndex`]'s column postings: one walk
//! per query column counts the exact intersection with every lake column
//! sharing a value ([`InvertedValueIndex::overlaps`]), the way TUS and
//! JOSIE read exact overlap off posting lists, instead of merging the query
//! column with every column of every candidate. The same walk yields the
//! shortlist. [`OverlapSearch::score_pair`], the direct merge of two
//! tables' value sets, is kept as the oracle the walk is checked against
//! bit for bit.

use crate::index::InvertedValueIndex;
use crate::{rank, SearchResult, TableUnionSearch};
use dust_table::{DataLake, Table};

/// Value-overlap union search.
#[derive(Debug, Clone)]
pub struct OverlapSearch {
    /// Number of candidate tables shortlisted by the inverted index before
    /// exact scoring (0 means "score every table").
    pub candidate_limit: usize,
}

impl Default for OverlapSearch {
    fn default() -> Self {
        OverlapSearch {
            candidate_limit: 200,
        }
    }
}

impl OverlapSearch {
    /// Create a search with the default candidate limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Score a single (query, candidate) table pair by merging every query
    /// column's value set with every candidate column's — the oracle the
    /// index walk of [`Self::search_with_index`] is pinned to.
    pub fn score_pair(&self, query: &Table, candidate: &Table) -> f64 {
        let mut total = 0.0;
        for qcol in query.columns() {
            let best = candidate
                .columns()
                .iter()
                .map(|ccol| qcol.jaccard(ccol))
                .fold(0.0f64, f64::max);
            total += best;
        }
        total / query.num_columns().max(1) as f64
    }

    /// Search using a resident [`InvertedValueIndex`] built once per lake
    /// (`lake` is the lake it was built over) instead of rebuilding it on
    /// every query. Byte-identical ranking to [`TableUnionSearch::search`]
    /// on the same lake (the index answers depend only on the lake), and
    /// every score is bit for bit [`Self::score_pair`].
    pub fn search_with_index(
        &self,
        lake: &DataLake,
        query: &Table,
        k: usize,
        index: &InvertedValueIndex,
    ) -> Vec<SearchResult> {
        debug_assert_eq!(
            index.num_tables(),
            lake.num_tables(),
            "index of another lake"
        );
        let overlaps = index.overlaps(query);
        let mut ranked: Vec<(f64, &str)> = (overlaps.shortlist(self.candidate_limit).into_iter())
            .map(|slot| (overlaps.score(slot), overlaps.name(slot)))
            .collect();
        // ranked on borrowed names, so only the `k` results copy theirs
        rank(&mut ranked, |&(score, table)| (score, table));
        ranked.truncate(k);
        (ranked.into_iter())
            .map(|(score, table)| SearchResult {
                table: table.to_string(),
                score,
            })
            .collect()
    }
}

impl TableUnionSearch for OverlapSearch {
    fn name(&self) -> &'static str {
        "overlap"
    }

    fn search(&self, lake: &DataLake, query: &Table, k: usize) -> Vec<SearchResult> {
        self.search_with_index(lake, query, k, &InvertedValueIndex::build(lake))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_lake() -> (DataLake, Table) {
        let mut lake = DataLake::new("toy");
        // near-copy of the query
        lake.add_table(
            Table::builder("parks_b")
                .column("Park Name", ["River Park", "West Lawn Park", "Hyde Park"])
                .column("Supervisor", ["Vera Onate", "Paul Veliotis", "Jenny Rishi"])
                .column("Country", ["USA", "USA", "UK"])
                .build()
                .unwrap(),
        )
        .unwrap();
        // unionable but different content
        lake.add_table(
            Table::builder("parks_d")
                .column("Park Name", ["Chippewa Park", "Lawler Park"])
                .column("Park Country", ["USA", "USA"])
                .column("Supervised by", ["Tim Erickson", "Enrique Garcia"])
                .build()
                .unwrap(),
        )
        .unwrap();
        // non-unionable
        lake.add_table(
            Table::builder("paintings_c")
                .column("Painting", ["Northern Lake", "Memory Landscape 2"])
                .column("Country", ["Canada", "USA"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let query = Table::builder("query")
            .column("Park Name", ["River Park", "West Lawn Park"])
            .column("Supervisor", ["Vera Onate", "Paul Veliotis"])
            .column("Country", ["USA", "USA"])
            .build()
            .unwrap();
        (lake, query)
    }

    #[test]
    fn near_copy_ranks_first() {
        let (lake, query) = toy_lake();
        let search = OverlapSearch::new();
        let results = search.search(&lake, &query, 3);
        assert_eq!(results[0].table, "parks_b");
        assert!(results[0].score > results.last().unwrap().score);
    }

    #[test]
    fn k_truncates_results() {
        let (lake, query) = toy_lake();
        let results = OverlapSearch::new().search(&lake, &query, 1);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn score_pair_is_higher_for_overlapping_tables() {
        let (lake, query) = toy_lake();
        let search = OverlapSearch::new();
        let copy = search.score_pair(&query, lake.table("parks_b").unwrap());
        let unrelated = search.score_pair(&query, lake.table("paintings_c").unwrap());
        assert!(copy > 0.5);
        assert!(copy > unrelated);
    }

    #[test]
    fn works_without_candidate_index() {
        let (lake, query) = toy_lake();
        let search = OverlapSearch { candidate_limit: 0 };
        let results = search.search(&lake, &query, 10);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].table, "parks_b");
        assert_eq!(search.name(), "overlap");
    }

    #[test]
    fn resident_index_reproduces_the_fresh_ranking_exactly() {
        let (lake, query) = toy_lake();
        let search = OverlapSearch::new();
        let index = InvertedValueIndex::build(&lake);
        let fresh = search.search(&lake, &query, 10);
        let resident = search.search_with_index(&lake, &query, 10, &index);
        assert_eq!(fresh.len(), resident.len());
        for (f, r) in fresh.iter().zip(&resident) {
            assert_eq!(f.table, r.table);
            assert_eq!(f.score.to_bits(), r.score.to_bits());
        }
    }

    #[test]
    fn query_sharing_nothing_scores_everything_zero_or_low() {
        let (lake, _) = toy_lake();
        let query = Table::builder("q")
            .column("Molecule", ["caffeine", "aspirin"])
            .build()
            .unwrap();
        let results = OverlapSearch { candidate_limit: 0 }.search(&lake, &query, 3);
        assert!(results.iter().all(|r| r.score <= 1e-9));
    }
}
