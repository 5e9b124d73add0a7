//! # dust-bench
//!
//! The experiment harness: shared setup, result formatting, and the
//! per-table / per-figure experiment drivers used by the `exp_*` binaries
//! (one binary per table and figure of the paper — see DESIGN.md §4 for the
//! index) and by the Criterion microbenches; plus the JSONL server over a
//! resident session ([`serve`], with its worker [`pool`] and [`json`]
//! codec) that the `serve` binary runs.

#![warn(missing_docs)]

pub mod diversity_eval;
pub mod json;
pub mod pool;
pub mod report;
pub mod serve;
pub mod setup;

pub use diversity_eval::{evaluate_diversifiers, DiversifierOutcome, QueryCandidates};
pub use json::JsonValue;
pub use report::Report;
pub use setup::{build_candidates_for_query, scale, train_dust_model, Scale};
