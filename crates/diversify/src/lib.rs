//! # dust-diversify
//!
//! Tuple diversification: the DUST diversifier (Sec. 5) and the baselines it
//! is evaluated against (Sec. 6.4), plus the two evaluation metrics of
//! Sec. 5.4.
//!
//! Every algorithm implements the [`Diversifier`] trait: given embeddings of
//! the query tuples and of the candidate unionable data-lake tuples, select
//! the indices of `k` diverse candidates.
//!
//! * [`dust`] — the paper's algorithm: prune → cluster → medoids → re-rank;
//! * [`gmc`] / [`gne`] — the Greedy Marginal Contribution and Greedy
//!   Randomized with Neighborhood Expansion algorithms of Vieira et al.;
//! * [`clt`] — the clustering-only baseline (k clusters, one medoid each);
//! * [`baselines`] — random sampling, farthest-first (Max-Min greedy), SWAP;
//! * [`llm`] — a simulated generative (LLM-style) tuple producer used by the
//!   Table 3 comparison;
//! * [`metrics`] — Average Diversity (Eq. 1) and Min Diversity (Eq. 2);
//! * [`prune`] — the pre-diversification pruning step (Sec. 5.1).

#![warn(missing_docs)]

pub mod baselines;
pub mod clt;
pub mod dust;
pub mod gmc;
pub mod gne;
pub mod llm;
pub mod metrics;
pub mod order;
pub mod prune;
pub mod traits;

pub use baselines::{MaxMinDiversifier, RandomDiversifier, SwapDiversifier};
pub use clt::CltDiversifier;
pub use dust::{DustConfig, DustDiversifier};
pub use gmc::GmcDiversifier;
pub use gne::GneDiversifier;
pub use llm::{LlmConfig, SimulatedLlm};
pub use metrics::{average_diversity, min_diversity, DiversityScores};
pub use order::{asc_nan_last, desc_nan_last};
pub use prune::{prune_tuples, prune_tuples_with_store};
pub use traits::{DiversificationInput, Diversifier};
