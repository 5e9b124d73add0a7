//! Columns: a named, typed vector of cell values.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Inferred type of a column, used by the alignment and search substrates to
/// treat numeric and textual columns differently (the paper notes that
/// numeric columns are embedded poorly by text encoders, which affects
/// recall of holistic alignment on SANTOS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// All non-null values are numeric.
    Numeric,
    /// All non-null values are textual (or boolean).
    Textual,
    /// A mix of numeric and textual values.
    Mixed,
    /// Every value is null (the paper drops such columns before evaluation).
    AllNull,
}

/// The distinct [normalised](Value::normalized) values of one column,
/// sorted, packed into one arena plus end offsets (no allocation per value).
/// Value-overlap signals are merges over two of these; index keys are read
/// from them.
#[derive(Debug, Clone, Default)]
pub struct ValueSet {
    arena: Box<str>,
    ends: Box<[usize]>,
}

impl ValueSet {
    fn of(values: &[Value]) -> Self {
        let mut distinct: Vec<String> = values.iter().filter_map(Value::normalized).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut arena = String::with_capacity(distinct.iter().map(String::len).sum());
        let ends = distinct
            .iter()
            .map(|value| {
                arena.push_str(value);
                arena.len()
            })
            .collect();
        ValueSet {
            arena: arena.into_boxed_str(),
            ends,
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column has no non-null, non-blank value.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The values in ascending byte order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let value = &self.arena[start..end];
            start = end;
            value
        })
    }

    /// Whether an already-normalised value is in the set.
    pub fn contains(&self, normalized: &str) -> bool {
        let start = |i: usize| if i == 0 { 0 } else { self.ends[i - 1] };
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.arena[start(mid)..self.ends[mid]].cmp(normalized) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// |self ∩ other| by one merge pass over the two sorted sets.
    pub fn intersection_len(&self, other: &ValueSet) -> usize {
        let (mut left, mut right) = (self.iter(), other.iter());
        let (mut l, mut r) = (left.next(), right.next());
        let mut shared = 0;
        while let (Some(a), Some(b)) = (l, r) {
            match a.cmp(b) {
                Ordering::Less => l = left.next(),
                Ordering::Greater => r = right.next(),
                Ordering::Equal => {
                    shared += 1;
                    l = left.next();
                    r = right.next();
                }
            }
        }
        shared
    }

    /// Address of the packed values: equal across two reads exactly when the
    /// set was not rebuilt in between (sharing diagnostics).
    pub fn as_ptr(&self) -> *const u8 {
        self.arena.as_ptr()
    }
}

/// A named column of values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    name: String,
    values: Vec<Value>,
    /// Derived from `values` on first read and dropped by every mutator;
    /// never compared, never persisted.
    #[serde(skip)]
    value_set: OnceLock<ValueSet>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.values == other.values
    }
}

impl Column {
    /// Create a column from a name and values.
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Self {
        Column {
            name: name.into(),
            values,
            value_set: OnceLock::new(),
        }
    }

    /// Create a column by parsing raw strings into typed values.
    pub fn from_strings<I, S>(name: impl Into<String>, raw: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let values = raw.into_iter().map(|s| Value::parse(s.as_ref())).collect();
        Column::new(name, values)
    }

    /// Column name (header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the column (used when outer union re-labels data-lake columns
    /// with the aligned query header).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// All values, in row order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to values.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        self.value_set.take();
        &mut self.values
    }

    /// Value at a given row, if in bounds.
    pub fn value(&self, row: usize) -> Option<&Value> {
        self.values.get(row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a value.
    pub fn push(&mut self, value: Value) {
        self.value_set.take();
        self.values.push(value);
    }

    /// Number of null values.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }

    /// True when every value is null.
    pub fn is_all_null(&self) -> bool {
        !self.values.is_empty() && self.null_count() == self.values.len()
    }

    /// Infer the column type from its values.
    pub fn column_type(&self) -> ColumnType {
        let mut saw_numeric = false;
        let mut saw_text = false;
        let mut saw_non_null = false;
        for v in &self.values {
            match v {
                Value::Null => {}
                Value::Int(_) | Value::Float(_) => {
                    saw_numeric = true;
                    saw_non_null = true;
                }
                Value::Bool(_) | Value::Text(_) => {
                    saw_text = true;
                    saw_non_null = true;
                }
            }
        }
        if !saw_non_null {
            ColumnType::AllNull
        } else if saw_numeric && saw_text {
            ColumnType::Mixed
        } else if saw_numeric {
            ColumnType::Numeric
        } else {
            ColumnType::Textual
        }
    }

    /// Set of distinct non-null values.
    pub fn distinct_values(&self) -> HashSet<&Value> {
        self.values.iter().filter(|v| !v.is_null()).collect()
    }

    /// Number of distinct non-null values.
    pub fn distinct_count(&self) -> usize {
        self.distinct_values().len()
    }

    /// The column's distinct normalised values — the representation every
    /// value-overlap unionability signal compares (Jaccard over normalised
    /// value sets, matching the TUS / D3L setup). Built on first read and
    /// kept until the values change, so a lake column is normalised once
    /// for as long as its table lives.
    pub fn value_set(&self) -> &ValueSet {
        self.value_set.get_or_init(|| ValueSet::of(&self.values))
    }

    /// Jaccard similarity between the normalised value sets of two columns.
    pub fn jaccard(&self, other: &Column) -> f64 {
        let (a, b) = (self.value_set(), other.value_set());
        let inter = a.intersection_len(b);
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Keep only the rows at the given indices (in the given order).
    pub fn select_rows(&self, rows: &[usize]) -> Column {
        let values = rows
            .iter()
            .map(|&r| self.values.get(r).cloned().unwrap_or(Value::Null))
            .collect();
        Column::new(self.name.clone(), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_col(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(name, vals.iter().copied())
    }

    #[test]
    fn from_strings_parses_types() {
        let col = Column::from_strings("mixed", ["1", "2.5", "hello", ""]);
        assert_eq!(col.values()[0], Value::Int(1));
        assert_eq!(col.values()[1], Value::Float(2.5));
        assert_eq!(col.values()[2], Value::text("hello"));
        assert!(col.values()[3].is_null());
        assert_eq!(col.column_type(), ColumnType::Mixed);
    }

    #[test]
    fn column_type_inference() {
        assert_eq!(
            Column::from_strings("n", ["1", "2", "3"]).column_type(),
            ColumnType::Numeric
        );
        assert_eq!(
            text_col("t", &["a", "b"]).column_type(),
            ColumnType::Textual
        );
        assert_eq!(
            Column::from_strings("x", ["", "null"]).column_type(),
            ColumnType::AllNull
        );
    }

    #[test]
    fn null_count_and_all_null() {
        let col = Column::from_strings("c", ["a", "", "b", "null"]);
        assert_eq!(col.null_count(), 2);
        assert!(!col.is_all_null());
        assert!(Column::from_strings("c", ["", ""]).is_all_null());
    }

    #[test]
    fn distinct_and_normalized_values() {
        let col = text_col("c", &["USA", "usa", "UK", "USA"]);
        assert_eq!(col.distinct_count(), 3); // case-sensitive distinct values
        let norm = col.value_set();
        assert_eq!(norm.len(), 2); // normalised to lowercase
        assert_eq!(norm.iter().collect::<Vec<_>>(), ["uk", "usa"]);
        assert!(norm.contains("usa") && norm.contains("uk") && !norm.contains("USA"));
    }

    #[test]
    fn jaccard_similarity() {
        let a = text_col("a", &["x", "y", "z"]);
        let b = text_col("b", &["y", "z", "w"]);
        let j = a.jaccard(&b);
        assert!((j - 0.5).abs() < 1e-9, "expected 2/4, got {j}");
        assert_eq!(a.jaccard(&a), 1.0);
        let empty = Column::from_strings("e", Vec::<&str>::new());
        assert_eq!(a.jaccard(&empty), 0.0);
    }

    #[test]
    fn select_rows_reorders_and_pads() {
        let col = text_col("c", &["a", "b", "c"]);
        let sel = col.select_rows(&[2, 0, 9]);
        assert_eq!(sel.values()[0], Value::text("c"));
        assert_eq!(sel.values()[1], Value::text("a"));
        assert!(sel.values()[2].is_null());
    }

    #[test]
    fn rename_and_push() {
        let mut col = text_col("old", &["a"]);
        col.set_name("new");
        col.push(Value::text("b"));
        assert_eq!(col.name(), "new");
        assert_eq!(col.len(), 2);
    }
}
