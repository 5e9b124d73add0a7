//! Inverted value index for candidate pruning.
//!
//! Scoring every (query column, lake column) pair is quadratic in the lake
//! size; real systems first shortlist candidate tables that share values
//! with the query. This index maps normalized cell values to the tables
//! containing them and returns candidate tables ordered by the number of
//! overlapping distinct values.

use dust_table::{DataLake, Table, TableId, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Inverted index: normalized value → set of data-lake table names.
///
/// Posting sets sit behind per-value `Arc`s: cloning the index copies the
/// value→pointer map but shares every set, and mutations copy-on-write only
/// the postings they touch ([`Arc::make_mut`]). Two clones therefore keep
/// `Arc::ptr_eq` postings for every value the mutation didn't mention —
/// structurally equal to a fresh build, shared by pointer with its
/// predecessor (pinned by `tests/session_sharing.rs`). Keys are `Arc<str>`
/// for the same reason: cloning the map bumps refcounts instead of
/// reallocating every value string, keeping the per-mutation publish cost
/// proportional to the touched postings.
#[derive(Debug, Clone, Default)]
pub struct InvertedValueIndex {
    postings: HashMap<Arc<str>, Arc<HashSet<TableId>>>,
    indexed_tables: usize,
}

impl InvertedValueIndex {
    /// Build the index over every table of a data lake.
    pub fn build(lake: &DataLake) -> Self {
        let mut index = InvertedValueIndex::default();
        for table in lake.tables() {
            index.add_table(table);
        }
        index
    }

    /// Add one table's values to the index.
    pub fn add_table(&mut self, table: &Table) {
        self.indexed_tables += 1;
        for column in table.columns() {
            for value in column.value_set().iter() {
                match self.postings.get_mut(value) {
                    Some(tables) => {
                        Arc::make_mut(tables).insert(table.name().to_string());
                    }
                    None => {
                        let mut tables = HashSet::new();
                        tables.insert(table.name().to_string());
                        self.postings.insert(Arc::from(value), Arc::new(tables));
                    }
                }
            }
        }
    }

    /// Remove one table's values from the index — the exact inverse of
    /// [`Self::add_table`] for the same table contents. Postings are sets
    /// of table names (no approximate aggregates), so the delta is exact:
    /// after removal the index is structurally equal to one built fresh
    /// over the remaining tables (postings left empty are dropped).
    ///
    /// The caller supplies the removed [`Table`] because the index does not
    /// retain per-table value lists; passing a table whose contents differ
    /// from what was added leaves stale postings behind.
    pub fn remove_table(&mut self, table: &Table) {
        assert!(
            self.indexed_tables > 0,
            "remove_table on an empty index (table was never added)"
        );
        self.indexed_tables -= 1;
        for column in table.columns() {
            for value in column.value_set().iter() {
                if let Some(tables) = self.postings.get_mut(value) {
                    if !tables.contains(table.name()) {
                        continue;
                    }
                    let tables = Arc::make_mut(tables);
                    tables.remove(table.name());
                    if tables.is_empty() {
                        self.postings.remove(value);
                    }
                }
            }
        }
    }

    /// Number of indexed tables.
    pub fn num_tables(&self) -> usize {
        self.indexed_tables
    }

    /// Export the postings as `(value, tables)` entries, both levels in
    /// sorted order (deterministic — suitable for checksummed snapshots).
    pub fn entries(&self) -> Vec<(String, Vec<TableId>)> {
        let mut entries: Vec<(String, Vec<TableId>)> = self
            .postings
            .iter()
            .map(|(value, tables)| {
                let mut tables: Vec<TableId> = tables.iter().cloned().collect();
                tables.sort_unstable();
                (value.to_string(), tables)
            })
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Reassemble an index from exported entries — the exact inverse of
    /// [`Self::entries`]. Postings are sets of names (no floats), so the
    /// restored index is structurally equal to the original.
    pub fn from_entries(indexed_tables: usize, entries: Vec<(String, Vec<TableId>)>) -> Self {
        InvertedValueIndex {
            postings: entries
                .into_iter()
                .map(|(value, tables)| (Arc::from(value), Arc::new(tables.into_iter().collect())))
                .collect(),
            indexed_tables,
        }
    }

    /// Iterate `(value, posting set)` pairs as shared handles, for sharing
    /// diagnostics: postings untouched by a mutation stay `Arc::ptr_eq`
    /// across clones. Iteration order is unspecified (hash order).
    pub fn postings_shared(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<HashSet<TableId>>)> {
        self.postings.iter()
    }

    /// Number of distinct indexed values.
    pub fn num_values(&self) -> usize {
        self.postings.len()
    }

    /// Tables containing a (normalized) value.
    pub fn tables_with_value(&self, value: &str) -> Vec<TableId> {
        let mut out: Vec<TableId> = Value::text(value)
            .normalized()
            .and_then(|key| self.postings.get(key.as_str()))
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        out.sort();
        out
    }

    /// Candidate tables for a query table, ordered by descending count of
    /// shared distinct values (ties broken by name). Tables sharing no value
    /// with the query are omitted.
    pub fn candidates(&self, query: &Table, limit: usize) -> Vec<(TableId, usize)> {
        // Counted against borrowed keys (the query's cached sets, the
        // postings' table names); only the `limit` survivors are cloned.
        let query_values: HashSet<&str> = query
            .columns()
            .iter()
            .flat_map(|column| column.value_set().iter())
            .collect();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for value in query_values {
            if let Some(tables) = self.postings.get(value) {
                for table in tables.iter() {
                    *counts.entry(table.as_str()).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked.truncate(limit);
        ranked
            .into_iter()
            .map(|(table, shared)| (table.to_string(), shared))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_table::Table;

    fn lake() -> DataLake {
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
            Table::builder("paintings_c")
                .column("Painting", ["Northern Lake", "Memory Landscape 2"])
                .column("Country", ["Canada", "USA"])
                .build()
                .unwrap(),
        )
        .unwrap();
        lake.add_table(
            Table::builder("parks_d")
                .column("Park Name", ["Chippewa Park", "Lawler Park"])
                .column("Park Country", ["USA", "USA"])
                .build()
                .unwrap(),
        )
        .unwrap();
        lake
    }

    fn query() -> Table {
        Table::builder("query")
            .column("Park Name", ["River Park", "Chippewa Park"])
            .column("Country", ["USA", "USA"])
            .build()
            .unwrap()
    }

    #[test]
    fn build_counts_tables_and_values() {
        let index = InvertedValueIndex::build(&lake());
        assert_eq!(index.num_tables(), 3);
        assert!(index.num_values() >= 8);
    }

    #[test]
    fn value_lookup_is_case_insensitive() {
        let index = InvertedValueIndex::build(&lake());
        let tables = index.tables_with_value("usa");
        assert_eq!(tables, vec!["paintings_c", "parks_b", "parks_d"]);
        assert_eq!(index.tables_with_value("USA"), tables);
        assert!(index.tables_with_value("atlantis").is_empty());
    }

    #[test]
    fn candidates_ranked_by_shared_value_count() {
        let index = InvertedValueIndex::build(&lake());
        let candidates = index.candidates(&query(), 10);
        assert_eq!(candidates[0].0, "parks_b");
        assert!(candidates.iter().any(|(t, _)| t == "parks_d"));
        // paintings table shares only "usa"
        let paint = candidates.iter().find(|(t, _)| t == "paintings_c").unwrap();
        assert_eq!(paint.1, 1);
    }

    #[test]
    fn limit_truncates_candidates() {
        let index = InvertedValueIndex::build(&lake());
        assert_eq!(index.candidates(&query(), 1).len(), 1);
    }

    #[test]
    fn empty_index_returns_no_candidates() {
        let index = InvertedValueIndex::default();
        assert!(index.candidates(&query(), 5).is_empty());
    }

    #[test]
    fn remove_table_is_the_exact_inverse_of_add() {
        let lake = lake();
        let mut mutated = InvertedValueIndex::build(&lake);
        mutated.remove_table(lake.table("paintings_c").unwrap());
        // structurally equal to an index that never saw the removed table
        let mut fresh = InvertedValueIndex::default();
        fresh.add_table(lake.table("parks_b").unwrap());
        fresh.add_table(lake.table("parks_d").unwrap());
        assert_eq!(mutated.num_tables(), fresh.num_tables());
        assert_eq!(mutated.num_values(), fresh.num_values());
        assert_eq!(
            mutated.tables_with_value("usa"),
            vec!["parks_b", "parks_d"],
            "shared value keeps its other tables"
        );
        assert!(
            mutated.tables_with_value("northern lake").is_empty(),
            "values unique to the removed table drop their postings entirely"
        );
        assert_eq!(
            mutated.candidates(&query(), 10),
            fresh.candidates(&query(), 10)
        );
        // remove-then-re-add round-trips back to the full index
        mutated.add_table(lake.table("paintings_c").unwrap());
        let rebuilt = InvertedValueIndex::build(&lake);
        assert_eq!(mutated.num_tables(), rebuilt.num_tables());
        assert_eq!(mutated.num_values(), rebuilt.num_values());
        assert_eq!(
            mutated.candidates(&query(), 10),
            rebuilt.candidates(&query(), 10)
        );
    }
}
