//! The data lake: a corpus of tables, query tables, and unionability ground
//! truth.
//!
//! Benchmarks in the paper (TUS, SANTOS, UGEN-V1) consist of
//! (query tables, data lake tables, ground truth mapping each query to its
//! unionable lake tables). The [`DataLake`] type holds all three.

use crate::error::TableError;
use crate::stats::CorpusStats;
use crate::table::Table;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Identifier of a table inside a lake (its unique name).
pub type TableId = String;

/// Unionability ground truth: for each query table, the set of data-lake
/// tables labelled unionable with it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    unionable: BTreeMap<TableId, BTreeSet<TableId>>,
}

impl GroundTruth {
    /// Create an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `lake_table` is unionable with `query`.
    pub fn add(&mut self, query: impl Into<TableId>, lake_table: impl Into<TableId>) {
        self.unionable
            .entry(query.into())
            .or_default()
            .insert(lake_table.into());
    }

    /// The set of lake tables unionable with `query` (empty if unknown).
    pub fn unionable_with(&self, query: &str) -> BTreeSet<TableId> {
        self.unionable.get(query).cloned().unwrap_or_default()
    }

    /// Whether `lake_table` is labelled unionable with `query`.
    pub fn is_unionable(&self, query: &str, lake_table: &str) -> bool {
        self.unionable
            .get(query)
            .map(|s| s.contains(lake_table))
            .unwrap_or(false)
    }

    /// Queries that have at least one labelled unionable table.
    pub fn queries(&self) -> impl Iterator<Item = &TableId> {
        self.unionable.keys()
    }

    /// Remove every pair mentioning `lake_table` (used when the table
    /// leaves the lake, so the ground truth never references a missing
    /// table). Queries left with no unionable tables drop out entirely,
    /// keeping the structure equal to one that never saw the table.
    pub fn remove_lake_table(&mut self, lake_table: &str) {
        for labels in self.unionable.values_mut() {
            labels.remove(lake_table);
        }
        self.unionable.retain(|_, labels| !labels.is_empty());
    }

    /// Whether any pair mentions `lake_table` (i.e. whether
    /// [`Self::remove_lake_table`] would change anything).
    pub fn mentions_lake_table(&self, lake_table: &str) -> bool {
        self.unionable.values().any(|s| s.contains(lake_table))
    }

    /// Total number of (query, lake table) unionable pairs.
    pub fn pair_count(&self) -> usize {
        self.unionable.values().map(|s| s.len()).sum()
    }

    /// Average number of unionable tables per query (Fig. 5's last column).
    pub fn avg_unionable_per_query(&self) -> f64 {
        if self.unionable.is_empty() {
            0.0
        } else {
            self.pair_count() as f64 / self.unionable.len() as f64
        }
    }
}

/// A data lake: query tables, data-lake tables, and ground truth.
///
/// Cloning a lake is cheap by design: data-lake tables are held as
/// `Arc<Table>` entries and the query side and ground truth each sit behind
/// one `Arc`, so a clone copies name strings and bumps reference counts
/// instead of duplicating cell data. Mutators use copy-on-write
/// ([`Arc::make_mut`]) so two clones never observe each other's changes —
/// a mutation touches only the entry it changes while every untouched table
/// stays pointer-shared with the original (see `DataLake::table_shared`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataLake {
    name: String,
    queries: Arc<BTreeMap<TableId, Table>>,
    tables: BTreeMap<TableId, Arc<Table>>,
    ground_truth: Arc<GroundTruth>,
}

impl DataLake {
    /// Create an empty, named lake.
    pub fn new(name: impl Into<String>) -> Self {
        DataLake {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Lake name (benchmark name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a data-lake table.
    ///
    /// Duplicate semantics (pinned by tests): a name collision is an
    /// **error**, never a silent replace — the lake is left completely
    /// unchanged (the resident table keeps its contents) and the caller
    /// decides whether to [`Self::remove_table`] first. Incremental
    /// consumers (`LakeSession::add_table`) rely on this: a failed add must
    /// not leave indexes and lake half-updated.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        self.add_table_shared(Arc::new(table))
    }

    /// [`Self::add_table`] for a table the caller already holds behind an
    /// `Arc` — the lake shares the allocation instead of cloning it. Same
    /// duplicate semantics.
    pub fn add_table_shared(&mut self, table: Arc<Table>) -> Result<()> {
        let id = table.name().to_string();
        if self.tables.contains_key(&id) {
            return Err(TableError::DuplicateTable { name: id });
        }
        self.tables.insert(id, table);
        Ok(())
    }

    /// Remove a data-lake table by name, returning it. Errors if the lake
    /// has no such table. Ground-truth pairs mentioning the table are
    /// scrubbed so the ground truth never labels a missing table; query
    /// tables are untouched (they are a separate namespace).
    pub fn remove_table(&mut self, id: &str) -> Result<Table> {
        let table = self
            .tables
            .remove(id)
            .ok_or_else(|| TableError::TableNotFound {
                name: id.to_string(),
            })?;
        if self.ground_truth.mentions_lake_table(id) {
            Arc::make_mut(&mut self.ground_truth).remove_lake_table(id);
        }
        Ok(Arc::try_unwrap(table).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Add a query table. Errors on duplicate names.
    pub fn add_query(&mut self, table: Table) -> Result<()> {
        let id = table.name().to_string();
        if self.queries.contains_key(&id) {
            return Err(TableError::DuplicateTable { name: id });
        }
        Arc::make_mut(&mut self.queries).insert(id, table);
        Ok(())
    }

    /// Record that `lake_table` is unionable with `query`.
    pub fn add_ground_truth(&mut self, query: impl Into<TableId>, lake_table: impl Into<TableId>) {
        Arc::make_mut(&mut self.ground_truth).add(query, lake_table);
    }

    /// The unionability ground truth.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// Look up a data-lake table by name.
    pub fn table(&self, id: &str) -> Result<&Table> {
        self.table_shared(id).map(|t| t.as_ref())
    }

    /// Look up a data-lake table by name, exposing the shared handle. Two
    /// lake clones return `Arc::ptr_eq` handles for every table neither has
    /// touched — the structural-sharing guarantee the snapshot stack builds
    /// on (pinned by `tests/session_sharing.rs`).
    pub fn table_shared(&self, id: &str) -> Result<&Arc<Table>> {
        self.tables
            .get(id)
            .ok_or_else(|| TableError::TableNotFound {
                name: id.to_string(),
            })
    }

    /// Look up a query table by name.
    pub fn query(&self, id: &str) -> Result<&Table> {
        self.queries
            .get(id)
            .ok_or_else(|| TableError::TableNotFound {
                name: id.to_string(),
            })
    }

    /// Iterate all data-lake tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(|t| t.as_ref())
    }

    /// Iterate all data-lake tables in name order as shared handles.
    pub fn tables_shared(&self) -> impl Iterator<Item = (&TableId, &Arc<Table>)> {
        self.tables.iter()
    }

    /// Iterate all query tables in name order.
    pub fn queries(&self) -> impl Iterator<Item = &Table> {
        self.queries.values()
    }

    /// Names of all data-lake tables.
    pub fn table_names(&self) -> Vec<TableId> {
        self.tables.keys().cloned().collect()
    }

    /// Names of all query tables.
    pub fn query_names(&self) -> Vec<TableId> {
        self.queries.keys().cloned().collect()
    }

    /// Number of data-lake tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of query tables.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Aggregate statistics of the data-lake side (Fig. 5 right half).
    pub fn lake_stats(&self) -> CorpusStats {
        CorpusStats::compute(self.tables.values().map(|t| t.as_ref()))
    }

    /// Aggregate statistics of the query side (Fig. 5 left half).
    pub fn query_stats(&self) -> CorpusStats {
        CorpusStats::compute(self.queries.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, col: &str, vals: &[&str]) -> Table {
        Table::builder(name)
            .column(col, vals.iter().copied())
            .build()
            .unwrap()
    }

    fn sample_lake() -> DataLake {
        let mut lake = DataLake::new("toy");
        lake.add_query(table("q1", "a", &["1", "2", "3"])).unwrap();
        lake.add_query(table("q2", "a", &["1"])).unwrap();
        lake.add_table(table("t1", "a", &["4", "5"])).unwrap();
        lake.add_table(table("t2", "b", &["x", "y", "z"])).unwrap();
        lake.add_ground_truth("q1", "t1");
        lake
    }

    #[test]
    fn add_and_lookup() {
        let lake = sample_lake();
        assert_eq!(lake.num_tables(), 2);
        assert_eq!(lake.num_queries(), 2);
        assert!(lake.table("t1").is_ok());
        assert!(lake.table("missing").is_err());
        assert!(lake.query("q1").is_ok());
    }

    #[test]
    fn duplicate_tables_rejected() {
        let mut lake = sample_lake();
        assert!(lake.add_table(table("t1", "a", &["9"])).is_err());
        assert!(lake.add_query(table("q1", "a", &["9"])).is_err());
    }

    #[test]
    fn duplicate_add_is_an_error_and_leaves_the_lake_unchanged() {
        // The pinned duplicate semantics: error, not replace. The resident
        // table keeps its original contents and nothing else moves.
        let mut lake = sample_lake();
        let err = lake.add_table(table("t1", "a", &["9", "9", "9"]));
        assert_eq!(
            err,
            Err(TableError::DuplicateTable {
                name: "t1".to_string()
            })
        );
        assert_eq!(lake.num_tables(), 2);
        assert_eq!(
            lake.table("t1").unwrap().num_rows(),
            2,
            "resident table must keep its original contents"
        );
        assert!(lake.ground_truth().is_unionable("q1", "t1"));
        // remove-then-add is the sanctioned replace path
        lake.remove_table("t1").unwrap();
        lake.add_table(table("t1", "a", &["9", "9", "9"])).unwrap();
        assert_eq!(lake.table("t1").unwrap().num_rows(), 3);
    }

    #[test]
    fn remove_table_returns_the_table_and_scrubs_ground_truth() {
        let mut lake = sample_lake();
        lake.add_ground_truth("q2", "t1");
        lake.add_ground_truth("q2", "t2");
        let removed = lake.remove_table("t1").unwrap();
        assert_eq!(removed.name(), "t1");
        assert_eq!(removed.num_rows(), 2);
        assert_eq!(lake.num_tables(), 1);
        assert!(lake.table("t1").is_err());
        // pairs mentioning t1 are gone; q1 (whose only label was t1) drops
        // out entirely, q2 keeps its surviving label
        assert!(!lake.ground_truth().is_unionable("q1", "t1"));
        assert!(!lake.ground_truth().is_unionable("q2", "t1"));
        assert!(lake.ground_truth().is_unionable("q2", "t2"));
        assert_eq!(lake.ground_truth().queries().count(), 1);
        assert_eq!(lake.ground_truth().pair_count(), 1);
        // queries are a separate namespace and survive
        assert_eq!(lake.num_queries(), 2);
        // removing a missing table is an error, lake untouched
        assert_eq!(
            lake.remove_table("t1"),
            Err(TableError::TableNotFound {
                name: "t1".to_string()
            })
        );
        assert_eq!(lake.num_tables(), 1);
    }

    #[test]
    fn ground_truth_queries_and_pairs() {
        let mut gt = GroundTruth::new();
        gt.add("q1", "t1");
        gt.add("q1", "t2");
        gt.add("q2", "t3");
        assert!(gt.is_unionable("q1", "t2"));
        assert!(!gt.is_unionable("q2", "t1"));
        assert_eq!(gt.pair_count(), 3);
        assert!((gt.avg_unionable_per_query() - 1.5).abs() < 1e-9);
        assert_eq!(gt.queries().count(), 2);
    }

    #[test]
    fn stats_reflect_corpus() {
        let lake = sample_lake();
        let s = lake.lake_stats();
        assert_eq!(s.tables, 2);
        assert_eq!(s.columns, 2);
        assert_eq!(s.tuples, 5);
        assert_eq!(lake.query_stats().tables, 2);
    }

    #[test]
    fn clones_share_untouched_tables_by_pointer() {
        let lake = sample_lake();
        let mut clone = lake.clone();
        // Before any mutation, every entry is shared.
        for (id, t) in lake.tables_shared() {
            assert!(Arc::ptr_eq(t, clone.table_shared(id).unwrap()));
        }
        clone.add_table(table("t3", "c", &["7"])).unwrap();
        // t1/t2 still shared with the original; t3 is the clone's own.
        for id in ["t1", "t2"] {
            assert!(Arc::ptr_eq(
                lake.table_shared(id).unwrap(),
                clone.table_shared(id).unwrap()
            ));
        }
        assert!(lake.table("t3").is_err());
        // Removing from the clone never disturbs the original.
        let removed = clone.remove_table("t1").unwrap();
        assert_eq!(removed.num_rows(), 2);
        assert_eq!(lake.table("t1").unwrap().num_rows(), 2);
        assert!(lake.ground_truth().is_unionable("q1", "t1"));
        assert!(!clone.ground_truth().is_unionable("q1", "t1"));
    }

    #[test]
    fn names_are_sorted_and_stable() {
        let lake = sample_lake();
        assert_eq!(lake.table_names(), vec!["t1".to_string(), "t2".to_string()]);
        assert_eq!(lake.query_names(), vec!["q1".to_string(), "q2".to_string()]);
    }
}
