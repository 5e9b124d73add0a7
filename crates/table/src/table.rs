//! Tables: named, ordered collections of equal-length columns.

use crate::column::Column;
use crate::error::TableError;
use crate::tuple::{Tuple, TupleRef};
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A relational table with a name, headers, and row-aligned columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    /// Cached header list, parallel to `columns`.
    headers: Vec<String>,
}

impl Table {
    /// Start building a table with the given name.
    pub fn builder(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Construct a table from pre-built columns.
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Result<Self> {
        let name = name.into();
        if columns.is_empty() {
            return Err(TableError::EmptyTable { table: name });
        }
        let expected = columns[0].len();
        let mut seen = HashSet::new();
        for col in &columns {
            if col.len() != expected {
                return Err(TableError::RaggedColumns {
                    table: name,
                    expected,
                    column: col.name().to_string(),
                    found: col.len(),
                });
            }
            if !seen.insert(col.name().to_string()) {
                return Err(TableError::DuplicateColumn {
                    table: name,
                    column: col.name().to_string(),
                });
            }
        }
        let headers = columns.iter().map(|c| c.name().to_string()).collect();
        Ok(Table {
            name,
            columns,
            headers,
        })
    }

    /// Construct a table from a header row and row-major string data.
    pub fn from_rows<S: AsRef<str>>(
        name: impl Into<String>,
        headers: &[S],
        rows: &[Vec<S>],
    ) -> Result<Self> {
        let mut columns: Vec<Column> = headers
            .iter()
            .map(|h| Column::new(h.as_ref(), Vec::with_capacity(rows.len())))
            .collect();
        for row in rows {
            for (i, col) in columns.iter_mut().enumerate() {
                let raw = row.get(i).map(|s| s.as_ref()).unwrap_or("");
                col.push(Value::parse(raw));
            }
        }
        Table::from_columns(name, columns)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// All column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.columns.get(col).and_then(|c| c.value(row))
    }

    /// Borrowed view of one row.
    pub fn row(&self, row: usize) -> Result<TupleRef<'_>> {
        if row >= self.num_rows() {
            return Err(TableError::RowOutOfBounds {
                table: self.name.clone(),
                row,
                rows: self.num_rows(),
            });
        }
        let values = self
            .columns
            .iter()
            .map(|c| c.value(row).expect("row bounds checked"))
            .collect();
        Ok(TupleRef {
            table_name: &self.name,
            headers: &self.headers,
            row,
            values,
        })
    }

    /// Iterate borrowed rows.
    pub fn rows(&self) -> impl Iterator<Item = TupleRef<'_>> {
        (0..self.num_rows()).map(move |r| self.row(r).expect("in-bounds row"))
    }

    /// Materialize every row as an owned [`Tuple`].
    pub fn tuples(&self) -> Vec<Tuple> {
        self.rows().map(|r| r.to_owned_tuple()).collect()
    }

    /// Project onto a subset of columns (by index, in the given order).
    pub fn project(&self, cols: &[usize], new_name: impl Into<String>) -> Result<Table> {
        let mut columns = Vec::with_capacity(cols.len());
        for &c in cols {
            let col = self
                .columns
                .get(c)
                .ok_or_else(|| TableError::ColumnNotFound {
                    table: self.name.clone(),
                    column: c.to_string(),
                })?;
            columns.push(col.clone());
        }
        Table::from_columns(new_name, columns)
    }

    /// Select a subset of rows (by index, in the given order). Out-of-range
    /// indices pad with nulls, mirroring permissive benchmark generation.
    pub fn select(&self, rows: &[usize], new_name: impl Into<String>) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.select_rows(rows))
            .collect::<Vec<_>>();
        Table::from_columns(new_name, columns)
    }

    /// Drop columns in which every value is null. The paper removes such
    /// columns before running experiments (Sec. 6.1).
    pub fn drop_all_null_columns(&self) -> Result<Table> {
        let kept: Vec<Column> = self
            .columns
            .iter()
            .filter(|c| !c.is_all_null())
            .cloned()
            .collect();
        if kept.is_empty() {
            return Err(TableError::EmptyTable {
                table: self.name.clone(),
            });
        }
        Table::from_columns(self.name.clone(), kept)
    }

    /// Append the rows of `other` for columns whose headers match this
    /// table's headers; missing columns are padded with nulls (outer union
    /// on already-aligned headers).
    pub fn append_outer(&mut self, other: &Table) {
        let rows = other.num_rows();
        for (idx, header) in self.headers.clone().iter().enumerate() {
            match other.column_by_name(header) {
                Some(col) => {
                    self.columns[idx]
                        .values_mut()
                        .extend(col.values().iter().cloned());
                }
                None => {
                    self.columns[idx]
                        .values_mut()
                        .extend(std::iter::repeat_n(Value::Null, rows));
                }
            }
        }
    }
}

/// Incremental builder for [`Table`].
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Add a column from string-like values (parsed into typed values).
    pub fn column<I, S>(mut self, name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.columns.push(Column::from_strings(name, values));
        self
    }

    /// Finish building; validates rectangularity and header uniqueness.
    pub fn build(self) -> Result<Table> {
        Table::from_columns(self.name, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parks() -> Table {
        Table::builder("parks_a")
            .column("Park Name", ["River Park", "West Lawn Park", "Hyde Park"])
            .column("Supervisor", ["Vera Onate", "Paul Veliotis", "Jenny Rishi"])
            .column("City", ["Fresno", "Chicago", ""])
            .column("Country", ["USA", "USA", "UK"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds_rectangular_tables() {
        let t = parks();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 4);
        assert_eq!(t.headers()[3], "Country");
    }

    #[test]
    fn ragged_columns_are_rejected() {
        let err = Table::from_columns(
            "bad",
            vec![
                Column::from_strings("a", ["1", "2"]),
                Column::from_strings("b", ["1"]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TableError::RaggedColumns { .. }));
    }

    #[test]
    fn duplicate_headers_are_rejected() {
        let err = Table::from_columns(
            "bad",
            vec![
                Column::from_strings("a", ["1"]),
                Column::from_strings("a", ["2"]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn { .. }));
    }

    #[test]
    fn empty_tables_are_rejected() {
        assert!(matches!(
            Table::from_columns("bad", vec![]).unwrap_err(),
            TableError::EmptyTable { .. }
        ));
    }

    #[test]
    fn row_access_and_bounds() {
        let t = parks();
        let r = t.row(2).unwrap();
        assert_eq!(r.values()[0], &Value::text("Hyde Park"));
        assert!(t.row(3).is_err());
    }

    #[test]
    fn tuples_carry_provenance() {
        let t = parks();
        let tuples = t.tuples();
        assert_eq!(tuples.len(), 3);
        assert_eq!(tuples[1].source_table(), "parks_a");
        assert_eq!(tuples[1].source_row(), 1);
        assert_eq!(tuples[1].value_for("City"), Some(&Value::text("Chicago")));
    }

    #[test]
    fn project_and_select() {
        let t = parks();
        let p = t.project(&[0, 3], "proj").unwrap();
        assert_eq!(
            p.headers(),
            &["Park Name".to_string(), "Country".to_string()]
        );
        let s = t.select(&[2, 0], "sel").unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.cell(0, 0), Some(&Value::text("Hyde Park")));
    }

    #[test]
    fn from_rows_parses_row_major_data() {
        let t = Table::from_rows(
            "t",
            &["a", "b"],
            &[vec!["1", "x"], vec!["2", "y"], vec!["3", ""]],
        )
        .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.cell(0, 0), Some(&Value::Int(1)));
        assert!(t.cell(2, 1).unwrap().is_null());
    }

    #[test]
    fn drop_all_null_columns_removes_empty_columns() {
        let t = Table::builder("t")
            .column("keep", ["a", "b"])
            .column("drop", ["", ""])
            .build()
            .unwrap();
        let cleaned = t.drop_all_null_columns().unwrap();
        assert_eq!(cleaned.num_columns(), 1);
        assert_eq!(cleaned.headers()[0], "keep");
    }

    #[test]
    fn append_outer_pads_missing_columns() {
        let mut base = Table::builder("base")
            .column("Park Name", ["River Park"])
            .column("Country", ["USA"])
            .build()
            .unwrap();
        let other = Table::builder("other")
            .column("Park Name", ["Chippewa Park"])
            .column("Phone", ["773 731-0380"])
            .build()
            .unwrap();
        base.append_outer(&other);
        assert_eq!(base.num_rows(), 2);
        assert_eq!(base.cell(1, 0), Some(&Value::text("Chippewa Park")));
        assert!(base.cell(1, 1).unwrap().is_null());
    }
}
