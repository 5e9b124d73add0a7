//! # dust-datagen
//!
//! Synthetic benchmark generators for the DUST reproduction. The original
//! evaluation uses Open Data benchmarks (TUS, TUS-Sampled, SANTOS, UGEN-V1)
//! and an IMDB sample; this crate regenerates corpora with the same
//! construction procedure and redundancy structure from built-in topic
//! domains (see DESIGN.md §2 for the substitution rationale).
//!
//! * [`vocab`] — topic domains (schemas + value vocabularies);
//! * [`generate`] — base-table generation and select/project derivation;
//! * [`benchmarks`] — TUS / TUS-Sampled / SANTOS / UGEN-V1 style lakes;
//! * [`imdb`] — the IMDB-like case-study corpus (Sec. 6.6);
//! * [`finetune_data`] — balanced, leak-free tuple-pair datasets for
//!   fine-tuning (Sec. 4).

#![warn(missing_docs)]

pub mod benchmarks;
pub mod finetune_data;
pub mod generate;
pub mod imdb;
pub mod vocab;

pub use benchmarks::{BenchmarkConfig, GeneratedBenchmark};
pub use finetune_data::{
    build_finetune_dataset, FineTuneDataset, FineTuneDatasetConfig, TuplePair,
};
pub use generate::{derive_table, generate_base_table, DeriveOptions};
pub use imdb::{generate_imdb, imdb_domain, ImdbCaseStudy, ImdbConfig};
pub use vocab::{Domain, DomainColumn, ValueKind};
