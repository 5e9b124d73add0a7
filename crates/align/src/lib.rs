//! # dust-align
//!
//! Holistic column alignment and outer union (Sec. 3.3 of the paper and
//! Appendix A.1.1).
//!
//! Given a query table and a set of unionable data-lake tables, the aligner
//! embeds every column, runs *constrained* hierarchical clustering (columns
//! of the same table may never be clustered together), chooses the number of
//! clusters that maximizes the Silhouette coefficient, and discards clusters
//! that contain no query column. The surviving clusters give, for each query
//! column, the data-lake columns aligned to it; the outer-union step then
//! materializes all data-lake tuples under the query table's header, padding
//! missing columns with nulls.

#![warn(missing_docs)]

pub mod bipartite_align;
pub mod eval;
pub mod holistic;
pub mod union;

pub use bipartite_align::bipartite_alignment;
pub use eval::{
    alignment_items, ground_truth_from_map, precision_recall_f1, AlignmentItem, PrecisionRecallF1,
};
pub use holistic::{AlignedCluster, Alignment, ColumnRef, HolisticAligner};
pub use union::outer_union;
