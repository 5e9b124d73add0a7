//! Tuples: one row of a table, either owned or borrowed.
//!
//! The DUST pipeline serializes tuples as
//! `[CLS] header1 value1 [SEP] header2 value2 [SEP] ...` before embedding.
//! The serialization itself lives in `dust-embed`; here we provide the row
//! abstraction plus the helpers the serializer needs (header/value pairs in
//! a chosen column order, null skipping).

use crate::value::Value;
use serde::{Deserialize, Serialize};

/// An owned tuple: parallel vectors of column headers and values.
///
/// Owned tuples are produced by the outer-union step (where a tuple may be
/// padded with nulls for query columns its source table does not have) and
/// are the unit that gets embedded and diversified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Column headers, in serialization order.
    headers: Vec<String>,
    /// Values, parallel to `headers`.
    values: Vec<Value>,
    /// Name of the table this tuple came from (for provenance / pruning,
    /// which operates per source table).
    source_table: String,
    /// Row index in the source table.
    source_row: usize,
}

impl Tuple {
    /// Create a tuple from headers and values.
    ///
    /// # Panics
    /// Panics if `headers` and `values` have different lengths; this is a
    /// programming error rather than a data error.
    pub fn new(
        headers: Vec<String>,
        values: Vec<Value>,
        source_table: impl Into<String>,
        source_row: usize,
    ) -> Self {
        assert_eq!(
            headers.len(),
            values.len(),
            "tuple headers and values must be parallel"
        );
        Tuple {
            headers,
            values,
            source_table: source_table.into(),
            source_row,
        }
    }

    /// Column headers in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The table this tuple originated from.
    pub fn source_table(&self) -> &str {
        &self.source_table
    }

    /// The row index in the source table.
    pub fn source_row(&self) -> usize {
        self.source_row
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value under a given header, if present.
    pub fn value_for(&self, header: &str) -> Option<&Value> {
        self.headers
            .iter()
            .position(|h| h == header)
            .map(|i| &self.values[i])
    }

    /// Iterate `(header, value)` pairs, skipping null values.
    ///
    /// The paper serializes only the aligned, non-missing columns of a tuple
    /// (Example 4: the `Park Phone` column of Table (d) is dropped, and the
    /// missing `Supervisor` value is not emitted).
    pub fn non_null_pairs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.headers
            .iter()
            .zip(self.values.iter())
            .filter(|(_, v)| !v.is_null())
            .map(|(h, v)| (h.as_str(), v))
    }

    /// Iterate all `(header, value)` pairs including nulls.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.headers
            .iter()
            .zip(self.values.iter())
            .map(|(h, v)| (h.as_str(), v))
    }

    /// Number of non-null values.
    pub fn non_null_count(&self) -> usize {
        self.values.iter().filter(|v| !v.is_null()).count()
    }

    /// Returns a copy of this tuple with columns permuted to the given order
    /// of indices. Used by the column-shuffle robustness experiment
    /// (Appendix A.2.1 / Fig. 10).
    pub fn permuted(&self, order: &[usize]) -> Tuple {
        assert_eq!(
            order.len(),
            self.arity(),
            "permutation must cover all columns"
        );
        let headers = order.iter().map(|&i| self.headers[i].clone()).collect();
        let values = order.iter().map(|&i| self.values[i].clone()).collect();
        Tuple {
            headers,
            values,
            source_table: self.source_table.clone(),
            source_row: self.source_row,
        }
    }

    /// A canonical textual key for deduplication: header=value pairs sorted
    /// by header, nulls skipped, values lower-cased.
    pub fn dedup_key(&self) -> String {
        let mut pairs: Vec<String> = self
            .non_null_pairs()
            .map(|(h, v)| {
                format!(
                    "{}={}",
                    h.to_ascii_lowercase(),
                    v.render().to_ascii_lowercase()
                )
            })
            .collect();
        pairs.sort();
        pairs.join("|")
    }
}

/// A borrowed view of one row of a [`crate::Table`].
#[derive(Debug, Clone)]
pub struct TupleRef<'a> {
    pub(crate) table_name: &'a str,
    pub(crate) headers: &'a [String],
    pub(crate) row: usize,
    pub(crate) values: Vec<&'a Value>,
}

impl<'a> TupleRef<'a> {
    /// The table this row belongs to.
    pub fn table_name(&self) -> &'a str {
        self.table_name
    }

    /// Row index within the table.
    pub fn row(&self) -> usize {
        self.row
    }

    /// Borrowed values in column order.
    pub fn values(&self) -> &[&'a Value] {
        &self.values
    }

    /// Column headers.
    pub fn headers(&self) -> &'a [String] {
        self.headers
    }

    /// Convert to an owned [`Tuple`].
    pub fn to_owned_tuple(&self) -> Tuple {
        Tuple::new(
            self.headers.to_vec(),
            self.values.iter().map(|v| (*v).clone()).collect(),
            self.table_name,
            self.row,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn park_tuple() -> Tuple {
        Tuple::new(
            vec![
                "Park Name".into(),
                "Supervisor".into(),
                "City".into(),
                "Country".into(),
            ],
            vec![
                Value::text("Chippewa Park"),
                Value::Null,
                Value::text("Brandon, MN"),
                Value::text("USA"),
            ],
            "parks_d",
            0,
        )
    }

    #[test]
    fn non_null_pairs_skip_missing_values() {
        let t = park_tuple();
        let pairs: Vec<(&str, String)> = t
            .non_null_pairs()
            .map(|(h, v)| (h, v.render().to_string()))
            .collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], ("Park Name", "Chippewa Park".to_string()));
        assert!(!pairs.iter().any(|(h, _)| *h == "Supervisor"));
    }

    #[test]
    fn value_for_and_arity() {
        let t = park_tuple();
        assert_eq!(t.arity(), 4);
        assert_eq!(t.non_null_count(), 3);
        assert_eq!(t.value_for("Country"), Some(&Value::text("USA")));
        assert_eq!(t.value_for("Missing"), None);
    }

    #[test]
    fn permutation_preserves_pairing() {
        let t = park_tuple();
        let p = t.permuted(&[3, 2, 1, 0]);
        assert_eq!(p.headers()[0], "Country");
        assert_eq!(p.values()[0], Value::text("USA"));
        assert_eq!(
            p.value_for("Park Name"),
            Some(&Value::text("Chippewa Park"))
        );
    }

    #[test]
    fn dedup_key_is_order_insensitive_and_case_insensitive() {
        let t = park_tuple();
        let p = t.permuted(&[2, 0, 3, 1]);
        assert_eq!(t.dedup_key(), p.dedup_key());
        let mut other = park_tuple();
        other.values[0] = Value::text("CHIPPEWA PARK");
        assert_eq!(t.dedup_key(), other.dedup_key());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_lengths_panic() {
        let _ = Tuple::new(vec!["a".into()], vec![], "t", 0);
    }
}
