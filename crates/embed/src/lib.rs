//! # dust-embed
//!
//! Embedding substrate for the DUST reproduction:
//!
//! * [`vector`] — dense vectors and elementary linear algebra;
//! * [`distance`] — tuple distance functions (cosine / Euclidean / Manhattan)
//!   and the workspace's single pairwise-distance implementation;
//! * [`store`] — contiguous embedding storage with cached norms (the shared
//!   distance-kernel substrate of the diversification pipeline);
//! * [`tokenize`] — word tokenization, character n-grams, TF-IDF;
//! * [`hashing`] — the deterministic feature-hashing text encoder standing in
//!   for pre-trained language models (see DESIGN.md §2);
//! * [`serialize`] — tuple serialization `[CLS] c1 v1 [SEP] ...` (Sec. 4);
//! * [`models`] — the simulated model zoo (FastText, GloVe, BERT, RoBERTa,
//!   sBERT, Ditto) plus column and tuple encoders;
//! * [`order`] — NaN-safe total-order comparators shared by every ranking
//!   in the workspace (search, diversification, token selection);
//! * [`finetune`] — the DUST fine-tuned tuple model (dropout + two linear
//!   layers trained with the cosine-embedding loss);
//! * [`pca`] — principal component analysis used for Fig. 2.

#![warn(missing_docs)]

pub mod distance;
pub mod finetune;
pub mod hashing;
pub mod models;
pub mod order;
pub mod pca;
pub mod serialize;
pub mod store;
pub mod tokenize;
pub mod vector;

pub use distance::{cosine_similarity, Distance, PairwiseMatrix};
pub use finetune::{
    classification_accuracy, cosine_embedding_loss, DustModel, FineTuneConfig, PairExample,
    ProjectionHead, TrainReport,
};
pub use hashing::{HashingEncoder, HashingEncoderConfig};
pub use models::{ColumnEncoder, ColumnSerialization, PretrainedModel, TupleEncoder};
pub use order::{asc_nan_last, desc_nan_last};
pub use pca::Pca;
pub use serialize::{serialize_tuple, CLS, SEP};
pub use store::EmbeddingStore;
pub use tokenize::{char_ngrams, word_tokens, TfIdfCorpus};
pub use vector::Vector;
