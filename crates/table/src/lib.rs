//! # dust-table
//!
//! Relational substrate for the DUST (Diverse Unionable Tuple Search)
//! reproduction: cell values, columns, tuples, tables, CSV I/O, and the
//! data-lake abstraction that the rest of the workspace builds on.
//!
//! The model is intentionally simple and close to what the paper assumes:
//! a *table* is a named, ordered collection of *columns*, each column holds
//! a vector of [`Value`]s, and a *tuple* is one row across all columns.
//! A [`DataLake`] is a set of tables plus (optionally) unionability ground
//! truth used by benchmarks and by the fine-tuning dataset builder.
//!
//! ```
//! use dust_table::{Table, Value};
//!
//! let table = Table::builder("parks")
//!     .column("Park Name", ["River Park", "West Lawn Park"])
//!     .column("Country", ["USA", "USA"])
//!     .build()
//!     .unwrap();
//! assert_eq!(table.num_rows(), 2);
//! assert_eq!(table.column(0).unwrap().name(), "Park Name");
//! assert_eq!(table.cell(1, 1), Some(&Value::text("USA")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod error;
pub mod lake;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use column::{Column, ColumnType, ValueSet};
pub use csv::{parse_csv, write_csv, CsvOptions};
pub use error::TableError;
pub use lake::{DataLake, GroundTruth, TableId};
pub use stats::{ColumnStats, CorpusStats};
pub use table::{Table, TableBuilder};
pub use tuple::{Tuple, TupleRef};
pub use value::Value;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TableError>;
