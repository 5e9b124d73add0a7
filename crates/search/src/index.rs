//! Inverted value index: column postings for overlap search and candidate
//! pruning.
//!
//! The index maps each normalized cell value to the sorted list of lake
//! **columns** holding it, as [`ColumnRef`]s `(table slot, column
//! ordinal)`; each slot keeps its table's name and every column's
//! value-set size. One walk of the postings per query column
//! ([`InvertedValueIndex::overlaps`]) then gives the exact intersection
//! size of that query column with every lake column sharing a value, so
//! each Jaccard comes from the same `(|q ∩ c|, |q|, |c|)` integers
//! [`dust_table::Column::jaccard`] merges two sorted sets for, and a column
//! sharing nothing is never visited. The same walk counts the distinct
//! query values each table shares, which orders the candidate shortlist.

use dust_table::{DataLake, Table, TableId, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A lake column as a posting names it: its table's slot in the index and
/// its ordinal among the table's columns. A posting lists its columns by
/// slot, then ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnRef {
    /// The table's slot.
    pub table: u32,
    /// The column's ordinal in its table.
    pub column: u32,
}

impl ColumnRef {
    fn new(table: usize, column: usize) -> Self {
        ColumnRef {
            table: u32::try_from(table).expect("more than u32::MAX indexed tables"),
            column: u32::try_from(column).expect("more than u32::MAX columns in a table"),
        }
    }
}

/// One indexed table: its name and the value-set size of each column.
#[derive(Debug, PartialEq, Eq)]
struct Slot {
    name: TableId,
    column_sizes: Box<[u32]>,
}

impl Slot {
    fn of(table: &Table) -> Self {
        let sizes = table.columns().iter().map(|c| c.value_set().len());
        Slot {
            name: table.name().to_string(),
            column_sizes: sizes
                .map(|n| u32::try_from(n).expect("more than u32::MAX values in a column"))
                .collect(),
        }
    }
}

/// Inverted index: normalized value → the lake columns holding it.
///
/// Postings sit behind per-value `Arc`s and slots behind per-table `Arc`s:
/// cloning the index copies the value→pointer map and the slot list but
/// shares every posting, and a mutation replaces only the postings of the
/// values its table holds. Two clones therefore keep `Arc::ptr_eq`
/// postings for every value the mutation didn't mention (pinned by
/// `tests/session_sharing.rs`). Keys are `Arc<str>` for the same reason:
/// cloning the map bumps refcounts instead of reallocating every value
/// string.
///
/// A removed table frees its slot and the next add takes the lowest free
/// one, so slots stay bounded by the live lake under churn. Which slot a
/// table holds never shows in a result: scores are per table, and ties
/// break by name.
#[derive(Debug, Clone, Default)]
pub struct InvertedValueIndex {
    postings: HashMap<Arc<str>, Arc<[ColumnRef]>>,
    slots: Vec<Option<Arc<Slot>>>,
}

impl InvertedValueIndex {
    /// Build the index over every table of a data lake, slots in the
    /// lake's (name) order.
    pub fn build(lake: &DataLake) -> Self {
        let mut postings: HashMap<&str, Vec<ColumnRef>> = HashMap::new();
        let mut slots = Vec::with_capacity(lake.num_tables());
        for (slot, table) in lake.tables().enumerate() {
            slots.push(Some(Arc::new(Slot::of(table))));
            for (ordinal, column) in table.columns().iter().enumerate() {
                for value in column.value_set().iter() {
                    let refs = postings.entry(value).or_default();
                    refs.push(ColumnRef::new(slot, ordinal));
                }
            }
        }
        InvertedValueIndex {
            postings: (postings.into_iter())
                .map(|(value, refs)| (Arc::from(value), Arc::from(refs)))
                .collect(),
            slots,
        }
    }

    /// Add one table's columns to the index, in the lowest free slot. The
    /// caller adds each table name once.
    pub fn add_table(&mut self, table: &Table) {
        let slot = (self.slots.iter().position(Option::is_none)).unwrap_or(self.slots.len());
        let entry = Some(Arc::new(Slot::of(table)));
        match self.slots.get_mut(slot) {
            Some(free) => *free = entry,
            None => self.slots.push(entry),
        }
        // One new posting per value, however many of the table's columns
        // hold it.
        let mut refs: Vec<(&str, ColumnRef)> = (table.columns().iter().enumerate())
            .flat_map(|(ordinal, column)| {
                let column_ref = ColumnRef::new(slot, ordinal);
                column
                    .value_set()
                    .iter()
                    .map(move |value| (value, column_ref))
            })
            .collect();
        refs.sort_unstable_by(|a, b| a.0.cmp(b.0).then(a.1.column.cmp(&b.1.column)));
        for group in refs.chunk_by(|a, b| a.0 == b.0) {
            let added = group.iter().map(|&(_, column_ref)| column_ref);
            match self.postings.get_mut(group[0].0) {
                Some(posting) => {
                    let at = posting.partition_point(|r| (r.table as usize) < slot);
                    *posting = (posting[..at].iter().copied())
                        .chain(added)
                        .chain(posting[at..].iter().copied())
                        .collect();
                }
                None => {
                    self.postings.insert(Arc::from(group[0].0), added.collect());
                }
            }
        }
    }

    /// Remove one table's columns from the index — the exact inverse of
    /// [`Self::add_table`] for the same table contents: after removal the
    /// index answers exactly as one built fresh over the remaining tables
    /// (postings left empty are dropped). Returns `false`, changing
    /// nothing, when no table of that name is indexed.
    ///
    /// The caller supplies the removed [`Table`] because the index does not
    /// retain per-table value lists; passing a table whose contents differ
    /// from what was added leaves stale postings behind.
    pub fn remove_table(&mut self, table: &Table) -> bool {
        let named =
            |slot: &Option<Arc<Slot>>| slot.as_ref().is_some_and(|s| s.name == table.name());
        let Some(slot) = self.slots.iter().position(named) else {
            return false;
        };
        self.slots[slot] = None;
        while self.slots.last().is_some_and(Option::is_none) {
            self.slots.pop();
        }
        let mut values: Vec<&str> = (table.columns().iter())
            .flat_map(|column| column.value_set().iter())
            .collect();
        values.sort_unstable();
        values.dedup();
        for value in values {
            let Some(posting) = self.postings.get_mut(value) else {
                continue;
            };
            let start = posting.partition_point(|r| (r.table as usize) < slot);
            let end = posting.partition_point(|r| (r.table as usize) <= slot);
            if start == end {
                continue;
            }
            if end - start == posting.len() {
                self.postings.remove(value);
            } else {
                *posting = (posting[..start].iter().chain(&posting[end..]))
                    .copied()
                    .collect();
            }
        }
        true
    }

    /// Number of indexed tables.
    pub fn num_tables(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Number of slots, free ones included: every [`ColumnRef::table`] is
    /// below it.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The indexed tables as `(slot, name, value-set size per column)`, in
    /// slot order.
    pub fn tables(&self) -> impl Iterator<Item = (u32, &str, &[u32])> {
        (self.slots.iter().enumerate()).filter_map(|(slot, entry)| {
            let entry = entry.as_ref()?;
            Some((slot as u32, entry.name.as_str(), &entry.column_sizes[..]))
        })
    }

    /// Assemble an index from its parts: slot *i* holds `tables[i]`, as
    /// `(name, value-set size per column)`, and every posting is a
    /// non-empty list of ascending [`ColumnRef`]s into those tables, each
    /// column named by exactly as many postings as its size says. The
    /// snapshot decoder checks all of that before calling this.
    pub fn from_parts(
        tables: Vec<(TableId, Box<[u32]>)>,
        postings: Vec<(Arc<str>, Arc<[ColumnRef]>)>,
    ) -> Self {
        InvertedValueIndex {
            postings: postings.into_iter().collect(),
            slots: (tables.into_iter())
                .map(|(name, column_sizes)| Some(Arc::new(Slot { name, column_sizes })))
                .collect(),
        }
    }

    /// Iterate `(value, posting)` pairs as shared handles, for sharing
    /// diagnostics and the snapshot encoder: postings untouched by a
    /// mutation stay `Arc::ptr_eq` across clones. Iteration order is
    /// unspecified (hash order).
    pub fn postings_shared(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<[ColumnRef]>)> {
        self.postings.iter()
    }

    /// Number of distinct indexed values.
    pub fn num_values(&self) -> usize {
        self.postings.len()
    }

    fn slot(&self, slot: u32) -> &Slot {
        let entry = self.slots[slot as usize].as_deref();
        entry.expect("a posting names a free slot")
    }

    fn name(&self, slot: u32) -> &str {
        &self.slot(slot).name
    }

    /// Tables containing a (normalized) value, sorted by name.
    pub fn tables_with_value(&self, value: &str) -> Vec<TableId> {
        let posting = Value::text(value)
            .normalized()
            .and_then(|key| self.postings.get(key.as_str()));
        let mut out: Vec<TableId> = (posting.iter().flat_map(|refs| refs.iter()))
            .map(|r| self.name(r.table).to_string())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Candidate tables for a query table, ordered by descending count of
    /// shared distinct values (ties broken by name). Tables sharing no value
    /// with the query are omitted.
    pub fn candidates(&self, query: &Table, limit: usize) -> Vec<(TableId, usize)> {
        let overlaps = self.overlaps(query);
        (overlaps.ranked(limit).into_iter())
            .map(|slot| {
                let shared = overlaps.tallies[slot as usize].shared as usize;
                (self.name(slot).to_string(), shared)
            })
            .collect()
    }

    /// Walk the postings once per query column, in column order. For each
    /// lake column sharing a value with the query column the walk sums the
    /// exact intersection size, and each table keeps its best Jaccard over
    /// its columns; a table's total adds those bests in query-column order.
    /// In the same walk each (query value, table) pair is counted once,
    /// however many columns on either side hold the value.
    pub fn overlaps(&self, query: &Table) -> Overlaps<'_> {
        // Each slot's columns get a run of `intersections`.
        let mut starts = Vec::with_capacity(self.slots.len());
        let mut num_columns = 0;
        for entry in &self.slots {
            starts.push(num_columns);
            num_columns += entry.as_ref().map_or(0, |t| t.column_sizes.len());
        }
        let mut intersections = vec![0u32; num_columns];
        let mut touched: Vec<ColumnRef> = Vec::with_capacity(num_columns);
        let mut tallies = vec![Tally::default(); self.slots.len()];
        let mut best_slots: Vec<u32> = Vec::with_capacity(self.slots.len());
        let query_values = query.columns().iter().map(|c| c.value_set().len()).sum();
        let mut seen: HashSet<*const ColumnRef> = HashSet::with_capacity(query_values);
        for column in query.columns() {
            let values = column.value_set();
            for value in values.iter() {
                let Some(posting) = self.postings.get(value) else {
                    continue;
                };
                let first = seen.insert(posting.as_ptr());
                let mut last_table = None;
                for &r in posting.iter() {
                    if first && last_table != Some(r.table) {
                        tallies[r.table as usize].shared += 1;
                        last_table = Some(r.table);
                    }
                    let i = starts[r.table as usize] + r.column as usize;
                    if intersections[i] == 0 {
                        touched.push(r);
                    }
                    intersections[i] += 1;
                }
            }
            for r in touched.drain(..) {
                let i = starts[r.table as usize] + r.column as usize;
                let inter = std::mem::take(&mut intersections[i]) as usize;
                let size = self.slot(r.table).column_sizes[r.column as usize] as usize;
                // `inter ≥ 1`, so the union is never 0
                let jaccard = inter as f64 / (values.len() + size - inter) as f64;
                let tally = &mut tallies[r.table as usize];
                if tally.best == 0.0 {
                    best_slots.push(r.table);
                }
                tally.best = tally.best.max(jaccard);
            }
            // an untouched table's best is 0.0, and adding 0.0 changes no sum
            for slot in best_slots.drain(..) {
                let tally = &mut tallies[slot as usize];
                tally.total += std::mem::take(&mut tally.best);
            }
        }
        Overlaps {
            index: self,
            tallies,
            num_query_columns: query.num_columns(),
        }
    }
}

/// What one walk learns about one table slot.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Distinct query values the table holds.
    shared: u32,
    /// The best Jaccard of the current query column, 0.0 until touched.
    best: f64,
    /// The bests of the query columns walked so far, summed in order.
    total: f64,
}

/// One query's walk over the postings ([`InvertedValueIndex::overlaps`]):
/// per table slot, the distinct query values the table shares and its
/// overlap score.
#[derive(Debug)]
pub struct Overlaps<'a> {
    index: &'a InvertedValueIndex,
    tallies: Vec<Tally>,
    num_query_columns: usize,
}

impl<'a> Overlaps<'a> {
    /// Slots of the tables sharing a value, by descending shared count then
    /// name, truncated at `limit`.
    fn ranked(&self, limit: usize) -> Vec<u32> {
        let shared = |slot: u32| self.tallies[slot as usize].shared;
        let mut ranked: Vec<u32> = (0..self.tallies.len() as u32)
            .filter(|&slot| shared(slot) > 0)
            .collect();
        ranked.sort_unstable_by(|&a, &b| {
            (shared(b).cmp(&shared(a))).then_with(|| self.index.name(a).cmp(self.index.name(b)))
        });
        ranked.truncate(limit);
        ranked
    }

    /// The slots of the tables to score: the `limit` best of
    /// [`InvertedValueIndex::candidates`], or every table for `limit` 0 or
    /// when no table shares a value (a query sharing nothing must still be
    /// scored against something).
    pub(crate) fn shortlist(&self, limit: usize) -> Vec<u32> {
        let ranked = if limit == 0 {
            Vec::new()
        } else {
            self.ranked(limit)
        };
        if !ranked.is_empty() {
            return ranked;
        }
        (self.index.tables()).map(|(slot, _, _)| slot).collect()
    }

    /// The name of the table in `slot`.
    pub(crate) fn name(&self, slot: u32) -> &'a str {
        self.index.name(slot)
    }

    /// The overlap score of the table in `slot`: the mean over query
    /// columns of the best Jaccard any of its columns reaches — bit for
    /// bit [`crate::OverlapSearch::score_pair`].
    pub(crate) fn score(&self, slot: u32) -> f64 {
        self.tallies[slot as usize].total / self.num_query_columns.max(1) as f64
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
    fn a_value_in_several_columns_counts_once_per_table() {
        let mut lake = DataLake::new("dup");
        lake.add_table(
            Table::builder("twice")
                .column("From", ["Oslo", "Rome"])
                .column("To", ["Oslo", "Lima"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let index = InvertedValueIndex::build(&lake);
        let query = Table::builder("q")
            .column("A", ["oslo", "lima"])
            .column("B", ["Oslo", "OSLO"])
            .build()
            .unwrap();
        // "oslo" and "lima" — "oslo" counts once for both columns and both
        // query columns
        assert_eq!(index.candidates(&query, 5), vec![("twice".to_string(), 2)]);
        assert_eq!(index.postings_shared().count(), 3);
    }

    #[test]
    fn remove_table_is_the_exact_inverse_of_add() {
        let lake = lake();
        let mut mutated = InvertedValueIndex::build(&lake);
        assert!(mutated.remove_table(lake.table("paintings_c").unwrap()));
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
        // remove-then-re-add round-trips back to the full index, the
        // re-added table taking the freed slot
        mutated.add_table(lake.table("paintings_c").unwrap());
        let rebuilt = InvertedValueIndex::build(&lake);
        assert_eq!(mutated.num_tables(), rebuilt.num_tables());
        assert_eq!(mutated.num_slots(), 3);
        assert_eq!(mutated.num_values(), rebuilt.num_values());
        assert_eq!(
            mutated.candidates(&query(), 10),
            rebuilt.candidates(&query(), 10)
        );
    }

    #[test]
    fn removing_a_table_that_is_not_indexed_changes_nothing() {
        let lake = lake();
        let mut index = InvertedValueIndex::default();
        assert!(!index.remove_table(lake.table("parks_b").unwrap()));
        index.add_table(lake.table("parks_d").unwrap());
        assert!(!index.remove_table(lake.table("parks_b").unwrap()));
        assert_eq!(index.num_tables(), 1);
        assert_eq!(index.tables_with_value("usa"), vec!["parks_d"]);
        assert!(index.remove_table(lake.table("parks_d").unwrap()));
        assert!(!index.remove_table(lake.table("parks_d").unwrap()));
        assert_eq!((index.num_tables(), index.num_slots()), (0, 0));
        assert_eq!(index.num_values(), 0);
    }

    #[test]
    fn freed_slots_are_reused_lowest_first() {
        let lake = lake();
        let mut index = InvertedValueIndex::build(&lake);
        let slot_of = |index: &InvertedValueIndex, name: &str| {
            index.tables().find(|t| t.1 == name).map(|t| t.0)
        };
        // build numbers slots in name order
        assert_eq!(slot_of(&index, "paintings_c"), Some(0));
        assert!(index.remove_table(lake.table("parks_b").unwrap()));
        assert!(index.remove_table(lake.table("paintings_c").unwrap()));
        index.add_table(lake.table("parks_b").unwrap());
        assert_eq!(slot_of(&index, "parks_b"), Some(0));
        index.add_table(lake.table("paintings_c").unwrap());
        assert_eq!(slot_of(&index, "paintings_c"), Some(1));
        assert_eq!(index.num_slots(), 3);
    }
}
