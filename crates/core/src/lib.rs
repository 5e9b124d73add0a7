//! # dust-core
//!
//! The end-to-end DUST pipeline (Algorithm 1 of the paper):
//!
//! ```text
//! D' ← SearchTables(Q, D)          // table union search
//! T  ← AlignColumns(Q, D')         // holistic column alignment + outer union
//! E  ← EmbedTuples(Q, T)           // fine-tuned tuple embeddings
//! F  ← DiversifyTuples(E_Q, E_T, k) // prune → cluster → medoids → re-rank
//! ```
//!
//! ```no_run
//! use dust_core::{DustPipeline, PipelineConfig};
//! use dust_datagen::BenchmarkConfig;
//!
//! let lake = BenchmarkConfig::tiny().generate().lake;
//! let query_name = lake.query_names()[0].clone();
//! let query = lake.query(&query_name).unwrap().clone();
//! let pipeline = DustPipeline::new(PipelineConfig::default());
//! let result = pipeline.run(&lake, &query, 10).unwrap();
//! println!("{} diverse tuples", result.tuples.len());
//! ```
//!
//! For serving many queries against one lake, build a resident
//! [`LakeSession`] instead — it pre-embeds the lake (each table's tuples
//! and, under D3L and Starmie, its columns), keeps the inverted index warm,
//! and trains the tuple model once:
//!
//! ```no_run
//! use dust_core::{LakeSession, PipelineConfig};
//! use dust_datagen::BenchmarkConfig;
//!
//! let lake = BenchmarkConfig::tiny().generate().lake;
//! let queries: Vec<_> = lake
//!     .query_names()
//!     .iter()
//!     .map(|n| lake.query(n).unwrap().clone())
//!     .collect();
//! let session = LakeSession::new(lake, PipelineConfig::default());
//! for result in session.query_batch(&queries, 10) {
//!     println!("{} diverse tuples", result.unwrap().tuples.len());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod clock;
pub mod config;
pub mod persist;
pub mod pipeline;
pub mod result;
pub mod session;

pub use baselines::{LlmBaseline, RetrievalSystem, StarmieBaseline, TupleRetrievalBaseline};
pub use config::{PipelineConfig, SearchTechnique, TupleEmbedderKind};
pub use persist::{PersistError, RecoveryReport, SessionError, SnapshotStore, StoreOptions};
pub use pipeline::DustPipeline;
pub use result::{DustResult, StageTimings};
pub use session::{LakeRef, LakeSession, RankedTuple, SessionOptions, SessionStats, SessionView};
