//! The simulated embedding-model zoo and the column / tuple encoders built
//! on top of it.
//!
//! The paper evaluates column alignment with FastText, GloVe, BERT, RoBERTa
//! and sBERT under two serializations (cell-level and column-level), and
//! evaluates tuple representation with pre-trained BERT / RoBERTa / sBERT,
//! the entity-matching model Ditto, and the fine-tuned DUST models. Here
//! each named model is a configuration of the deterministic
//! [`HashingEncoder`] (see DESIGN.md §2 for the substitution rationale):
//!
//! * word-embedding models (FastText, GloVe) — no anisotropy, subword
//!   n-grams for FastText;
//! * transformer models (BERT, RoBERTa, sBERT) — anisotropic, with capacity
//!   (dimension / hash collisions) increasing from BERT to RoBERTa;
//! * Ditto — an entity-matching-tuned space: moderate anisotropy, strong
//!   IDF weighting so that entity-identifying tokens dominate.

use crate::hashing::{HashingEncoder, HashingEncoderConfig};
use crate::serialize::serialize_tuple;
use crate::tokenize::{Documents, TfIdfCorpus};
use crate::vector::Vector;
use dust_table::{Column, Tuple};
use serde::{Deserialize, Serialize};

/// The named embedding models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PretrainedModel {
    /// FastText word embeddings (subword n-grams).
    FastText,
    /// GloVe word embeddings.
    Glove,
    /// BERT-base.
    Bert,
    /// RoBERTa-base.
    Roberta,
    /// Sentence-BERT.
    SBert,
    /// Ditto (entity matching fine-tuned transformer).
    Ditto,
}

impl PretrainedModel {
    /// All models used in the column-alignment experiment (Table 1).
    pub fn alignment_models() -> Vec<PretrainedModel> {
        vec![
            PretrainedModel::FastText,
            PretrainedModel::Glove,
            PretrainedModel::Bert,
            PretrainedModel::Roberta,
            PretrainedModel::SBert,
        ]
    }

    /// All baseline models used in the tuple-representation experiment (Fig. 6).
    pub fn tuple_models() -> Vec<PretrainedModel> {
        vec![
            PretrainedModel::Bert,
            PretrainedModel::Roberta,
            PretrainedModel::SBert,
            PretrainedModel::Ditto,
        ]
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PretrainedModel::FastText => "FastText",
            PretrainedModel::Glove => "Glove",
            PretrainedModel::Bert => "BERT",
            PretrainedModel::Roberta => "RoBERTa",
            PretrainedModel::SBert => "sBERT",
            PretrainedModel::Ditto => "Ditto",
        }
    }

    /// The encoder configuration simulating this model.
    pub fn encoder_config(&self) -> HashingEncoderConfig {
        match self {
            PretrainedModel::FastText => HashingEncoderConfig {
                dim: 300,
                seed: 0xFA57,
                hashes_per_token: 4,
                use_char_ngrams: true,
                char_ngram_size: 3,
                anisotropy: 0.0,
                idf_weighting: false,
                token_limit: 512,
            },
            PretrainedModel::Glove => HashingEncoderConfig {
                dim: 300,
                seed: 0x6107E,
                hashes_per_token: 3,
                use_char_ngrams: false,
                char_ngram_size: 3,
                anisotropy: 0.0,
                idf_weighting: false,
                token_limit: 512,
            },
            PretrainedModel::Bert => HashingEncoderConfig {
                dim: 192,
                seed: 0xBE27,
                hashes_per_token: 2,
                use_char_ngrams: false,
                char_ngram_size: 3,
                anisotropy: 1.6,
                idf_weighting: false,
                token_limit: 512,
            },
            PretrainedModel::Roberta => HashingEncoderConfig {
                dim: 768,
                seed: 0x20BE27A,
                hashes_per_token: 4,
                use_char_ngrams: false,
                char_ngram_size: 3,
                anisotropy: 1.4,
                idf_weighting: true,
                token_limit: 512,
            },
            PretrainedModel::SBert => HashingEncoderConfig {
                dim: 384,
                seed: 0x5BE27,
                hashes_per_token: 4,
                use_char_ngrams: false,
                char_ngram_size: 3,
                anisotropy: 1.2,
                idf_weighting: true,
                token_limit: 512,
            },
            PretrainedModel::Ditto => HashingEncoderConfig {
                dim: 384,
                seed: 0xD1770,
                hashes_per_token: 4,
                use_char_ngrams: false,
                char_ngram_size: 3,
                anisotropy: 0.8,
                idf_weighting: true,
                token_limit: 512,
            },
        }
    }

    /// Instantiate the encoder for this model.
    pub fn encoder(&self) -> HashingEncoder {
        HashingEncoder::new(self.encoder_config())
    }
}

/// How a column is serialized before embedding (Table 1's two variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnSerialization {
    /// Embed each cell value independently and average the cell embeddings.
    CellLevel,
    /// Concatenate all cell values into one "sentence" (with a TF-IDF token
    /// budget) and embed it once.
    ColumnLevel,
}

impl ColumnSerialization {
    /// Name as used in the paper's Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnSerialization::CellLevel => "Cell-level",
            ColumnSerialization::ColumnLevel => "Column-level",
        }
    }
}

/// Embeds table columns with a chosen model and serialization.
#[derive(Debug, Clone)]
pub struct ColumnEncoder {
    model: PretrainedModel,
    serialization: ColumnSerialization,
    encoder: HashingEncoder,
}

impl ColumnEncoder {
    /// Create a column encoder.
    pub fn new(model: PretrainedModel, serialization: ColumnSerialization) -> Self {
        ColumnEncoder {
            model,
            serialization,
            encoder: model.encoder(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> PretrainedModel {
        self.model
    }

    /// The serialization strategy.
    pub fn serialization(&self) -> ColumnSerialization {
        self.serialization
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Embed a column. `corpus` supplies IDF statistics for the
    /// column-level serialization; pass an empty corpus when unavailable.
    pub fn embed_column(&self, column: &Column, corpus: &TfIdfCorpus) -> Vector {
        match self.serialization {
            ColumnSerialization::CellLevel => {
                let mut cell_embeddings = Vec::new();
                for value in column.values() {
                    if value.is_null() {
                        continue;
                    }
                    let text = value.render();
                    if text.trim().is_empty() {
                        continue;
                    }
                    cell_embeddings.push(self.encoder.embed_text(&text));
                }
                match Vector::mean(cell_embeddings.iter()) {
                    Some(mut mean) => {
                        mean.normalize();
                        mean
                    }
                    None => Vector::zeros(self.encoder.dim()),
                }
            }
            ColumnSerialization::ColumnLevel => {
                let documents = column_documents([column]);
                let terms = documents.terms();
                let idf = terms.idf_in(corpus);
                self.encoder.embed_documents(&terms, &idf).remove(0)
            }
        }
    }

    /// Embed columns that are their own TF-IDF corpus: bit-identical to
    /// [`Self::build_corpus`] over `columns` and then [`Self::embed_column`]
    /// per column, with each column tokenised once and each IDF computed
    /// once.
    pub fn embed_columns(&self, columns: &[&Column]) -> Vec<Vector> {
        if self.serialization == ColumnSerialization::CellLevel {
            // the cell-level serialization reads no corpus
            let empty = TfIdfCorpus::new();
            return columns
                .iter()
                .map(|c| self.embed_column(c, &empty))
                .collect();
        }
        let documents = column_documents(columns.iter().copied());
        let terms = documents.terms();
        self.encoder.embed_documents(&terms, &terms.idf())
    }

    /// Build a TF-IDF corpus where each document is one column's values.
    pub fn build_corpus<'a>(columns: impl IntoIterator<Item = &'a Column>) -> TfIdfCorpus {
        TfIdfCorpus::of(&column_documents(columns))
    }
}

/// One document per column: its non-null values, each rendered and
/// tokenised — what the column-level serialization embeds and the TF-IDF
/// corpus counts.
fn column_documents<'a>(columns: impl IntoIterator<Item = &'a Column>) -> Documents {
    let mut documents = Documents::default();
    for column in columns {
        for value in column.values() {
            if !value.is_null() {
                documents.extend(&value.render());
            }
        }
        documents.finish_document();
    }
    documents
}

/// Embeds serialized tuples with a pre-trained (non-fine-tuned) model.
///
/// This is the baseline side of Fig. 6; the fine-tuned DUST model lives in
/// [`crate::finetune`].
#[derive(Debug, Clone)]
pub struct TupleEncoder {
    model: PretrainedModel,
    encoder: HashingEncoder,
}

impl TupleEncoder {
    /// Create a tuple encoder for a model.
    pub fn new(model: PretrainedModel) -> Self {
        TupleEncoder {
            model,
            encoder: model.encoder(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> PretrainedModel {
        self.model
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Embed one tuple.
    pub fn embed_tuple(&self, tuple: &Tuple) -> Vector {
        let serialized = serialize_tuple(tuple);
        self.encoder.embed_text(&serialized)
    }

    /// Embed many tuples.
    pub fn embed_tuples(&self, tuples: &[Tuple]) -> Vec<Vector> {
        tuples.iter().map(|t| self.embed_tuple(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::cosine_similarity;
    use dust_table::Table;

    fn parks_table() -> Table {
        Table::builder("parks")
            .column("Park Name", ["River Park", "West Lawn Park", "Hyde Park"])
            .column("Country", ["USA", "USA", "UK"])
            .build()
            .unwrap()
    }

    fn paintings_table() -> Table {
        Table::builder("paintings")
            .column(
                "Painting",
                ["Northern Lake", "Memory Landscape 2", "Starry Night"],
            )
            .column("Medium", ["Oil on canvas", "Mixed media", "Oil on canvas"])
            .build()
            .unwrap()
    }

    #[test]
    fn model_zoo_configs_are_distinct() {
        let models = PretrainedModel::alignment_models();
        assert_eq!(models.len(), 5);
        let mut seeds: Vec<u64> = models.iter().map(|m| m.encoder_config().seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5, "every model must have its own hash family");
        assert_eq!(PretrainedModel::Roberta.name(), "RoBERTa");
    }

    #[test]
    fn column_encoder_separates_topics() {
        for serialization in [
            ColumnSerialization::CellLevel,
            ColumnSerialization::ColumnLevel,
        ] {
            let enc = ColumnEncoder::new(PretrainedModel::Roberta, serialization);
            let parks = parks_table();
            let paints = paintings_table();
            let corpus =
                ColumnEncoder::build_corpus(parks.columns().iter().chain(paints.columns()));
            let park_names = enc.embed_column(parks.column_by_name("Park Name").unwrap(), &corpus);
            let park_names_again =
                enc.embed_column(parks.column_by_name("Park Name").unwrap(), &corpus);
            let painting_names =
                enc.embed_column(paints.column_by_name("Painting").unwrap(), &corpus);
            assert_eq!(park_names, park_names_again, "deterministic");
            assert!(
                cosine_similarity(&park_names, &park_names_again)
                    > cosine_similarity(&park_names, &painting_names)
            );
        }
    }

    #[test]
    fn cell_level_and_column_level_differ() {
        let cell = ColumnEncoder::new(PretrainedModel::Bert, ColumnSerialization::CellLevel);
        let col = ColumnEncoder::new(PretrainedModel::Bert, ColumnSerialization::ColumnLevel);
        let parks = parks_table();
        let corpus = ColumnEncoder::build_corpus(parks.columns());
        let a = cell.embed_column(parks.column(0).unwrap(), &corpus);
        let b = col.embed_column(parks.column(0).unwrap(), &corpus);
        assert_ne!(a, b);
        assert_eq!(cell.serialization().name(), "Cell-level");
        assert_eq!(col.serialization().name(), "Column-level");
    }

    #[test]
    fn empty_column_embeds_to_zero_vector() {
        let enc = ColumnEncoder::new(PretrainedModel::Glove, ColumnSerialization::CellLevel);
        let col = Column::from_strings("empty", ["", ""]);
        let corpus = TfIdfCorpus::new();
        let v = enc.embed_column(&col, &corpus);
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn tuple_encoder_places_similar_tuples_closer() {
        let enc = TupleEncoder::new(PretrainedModel::Roberta);
        let parks = parks_table();
        let paints = paintings_table();
        let park_tuples = parks.tuples();
        let paint_tuples = paints.tuples();
        let a = enc.embed_tuple(&park_tuples[0]);
        let b = enc.embed_tuple(&park_tuples[1]);
        let c = enc.embed_tuple(&paint_tuples[0]);
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c));
        assert_eq!(enc.embed_tuples(&park_tuples).len(), 3);
    }

    #[test]
    fn pretrained_transformers_are_anisotropic() {
        // This is the behaviour that makes un-fine-tuned models unable to
        // separate unionable from non-unionable pairs at a fixed threshold.
        let enc = TupleEncoder::new(PretrainedModel::Bert);
        let parks = parks_table().tuples();
        let paints = paintings_table().tuples();
        let sim = cosine_similarity(&enc.embed_tuple(&parks[0]), &enc.embed_tuple(&paints[0]));
        assert!(
            sim > 0.5,
            "unrelated tuples should still look similar, got {sim}"
        );
    }
}
