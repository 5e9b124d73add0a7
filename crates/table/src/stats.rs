//! Summary statistics over columns and lakes.
//!
//! The paper's Fig. 5 reports per-benchmark table / column / tuple counts;
//! these helpers compute them plus the per-column profiles used by the D3L
//! numeric-distribution signal.

use crate::column::{Column, ColumnType};
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Inferred type.
    pub column_type: ColumnType,
    /// Row count.
    pub rows: usize,
    /// Null count.
    pub nulls: usize,
    /// Distinct non-null value count.
    pub distinct: usize,
    /// Mean of numeric values (None if no numeric values).
    pub mean: Option<f64>,
    /// Standard deviation of numeric values.
    pub std_dev: Option<f64>,
    /// Minimum numeric value.
    pub min: Option<f64>,
    /// Maximum numeric value.
    pub max: Option<f64>,
    /// Average rendered length of non-null values.
    pub avg_text_len: f64,
}

impl ColumnStats {
    /// Compute statistics for a column.
    pub fn compute(column: &Column) -> Self {
        let numeric: Vec<f64> = column.values().iter().filter_map(|v| v.as_f64()).collect();
        let (mean, std_dev, min, max) = if numeric.is_empty() {
            (None, None, None, None)
        } else {
            let n = numeric.len() as f64;
            let mean = numeric.iter().sum::<f64>() / n;
            let var = numeric.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            let min = numeric.iter().copied().fold(f64::INFINITY, f64::min);
            let max = numeric.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (Some(mean), Some(var.sqrt()), Some(min), Some(max))
        };
        let non_null: Vec<&crate::Value> =
            column.values().iter().filter(|v| !v.is_null()).collect();
        let avg_text_len = if non_null.is_empty() {
            0.0
        } else {
            non_null
                .iter()
                .map(|v| v.render().chars().count())
                .sum::<usize>() as f64
                / non_null.len() as f64
        };
        ColumnStats {
            name: column.name().to_string(),
            column_type: column.column_type(),
            rows: column.len(),
            nulls: column.null_count(),
            distinct: column.distinct_count(),
            mean,
            std_dev,
            min,
            max,
            avg_text_len,
        }
    }
}

/// Aggregate statistics over a collection of tables (one side of Fig. 5).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Number of tables.
    pub tables: usize,
    /// Total number of columns across tables.
    pub columns: usize,
    /// Total number of tuples across tables.
    pub tuples: usize,
}

impl CorpusStats {
    /// Compute aggregate statistics for a set of tables.
    pub fn compute<'a>(tables: impl IntoIterator<Item = &'a Table>) -> Self {
        let mut stats = CorpusStats::default();
        for t in tables {
            stats.tables += 1;
            stats.columns += t.num_columns();
            stats.tuples += t.num_rows();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::builder("t")
            .column("name", ["a", "b", "c", ""])
            .column("score", ["1", "2", "3", "4"])
            .build()
            .unwrap()
    }

    #[test]
    fn column_stats_numeric() {
        let t = sample();
        let s = ColumnStats::compute(t.column_by_name("score").unwrap());
        assert_eq!(s.column_type, ColumnType::Numeric);
        assert_eq!(s.mean, Some(2.5));
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(4.0));
        assert!(s.std_dev.unwrap() > 1.0 && s.std_dev.unwrap() < 1.2);
        assert_eq!(s.distinct, 4);
    }

    #[test]
    fn column_stats_textual() {
        let t = sample();
        let s = ColumnStats::compute(t.column_by_name("name").unwrap());
        assert_eq!(s.column_type, ColumnType::Textual);
        assert_eq!(s.nulls, 1);
        assert!(s.mean.is_none());
        assert!((s.avg_text_len - 1.0).abs() < 1e-9);
    }

    #[test]
    fn corpus_stats_aggregates() {
        let a = sample();
        let b = sample();
        let s = CorpusStats::compute([&a, &b]);
        assert_eq!(s.tables, 2);
        assert_eq!(s.columns, 4);
        assert_eq!(s.tuples, 8);
    }
}
