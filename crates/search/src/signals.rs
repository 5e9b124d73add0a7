//! Column-pair unionability signals.
//!
//! D3L aggregates several evidence types per column pair (name similarity,
//! value overlap, format patterns, word-embedding similarity, numeric
//! distribution similarity); the overlap searcher uses the value-overlap
//! signal alone. Each signal is normalized to `[0, 1]`.

use dust_embed::{
    cosine_similarity, ColumnEncoder, ColumnSerialization, PretrainedModel, TfIdfCorpus,
};
use dust_table::{Column, ColumnStats, ColumnType};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The individual signals computed for a column pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColumnSignals {
    /// Jaccard similarity of normalized value sets.
    pub value_overlap: f64,
    /// Similarity of column names (token Jaccard with a containment boost).
    pub name_similarity: f64,
    /// Similarity of value format signatures (digit/alpha/punctuation shape).
    pub format_similarity: f64,
    /// Cosine similarity of column embeddings.
    pub embedding_similarity: f64,
    /// Similarity of numeric distributions (mean/std overlap), 0 for
    /// non-numeric columns.
    pub numeric_similarity: f64,
}

/// Weights used to aggregate [`ColumnSignals`] into one score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalWeights {
    /// Weight of the value-overlap signal.
    pub value_overlap: f64,
    /// Weight of the name-similarity signal.
    pub name_similarity: f64,
    /// Weight of the format signal.
    pub format_similarity: f64,
    /// Weight of the embedding signal.
    pub embedding_similarity: f64,
    /// Weight of the numeric-distribution signal.
    pub numeric_similarity: f64,
}

impl Default for SignalWeights {
    fn default() -> Self {
        // D3L's default: every signal contributes equally.
        SignalWeights {
            value_overlap: 1.0,
            name_similarity: 1.0,
            format_similarity: 1.0,
            embedding_similarity: 1.0,
            numeric_similarity: 1.0,
        }
    }
}

impl ColumnSignals {
    /// Weighted aggregate score in `[0, 1]`.
    pub fn aggregate(&self, weights: &SignalWeights) -> f64 {
        let total_weight = weights.value_overlap
            + weights.name_similarity
            + weights.format_similarity
            + weights.embedding_similarity
            + weights.numeric_similarity;
        if total_weight <= 0.0 {
            return 0.0;
        }
        (self.value_overlap * weights.value_overlap
            + self.name_similarity * weights.name_similarity
            + self.format_similarity * weights.format_similarity
            + self.embedding_similarity * weights.embedding_similarity
            + self.numeric_similarity * weights.numeric_similarity)
            / total_weight
    }
}

/// Computes signals for column pairs, caching the embedding encoder.
#[derive(Debug, Clone)]
pub struct SignalComputer {
    encoder: ColumnEncoder,
    corpus: TfIdfCorpus,
}

impl Default for SignalComputer {
    fn default() -> Self {
        Self::new()
    }
}

impl SignalComputer {
    /// Create a signal computer with the default (GloVe-like) column encoder.
    pub fn new() -> Self {
        SignalComputer {
            encoder: ColumnEncoder::new(PretrainedModel::Glove, ColumnSerialization::CellLevel),
            corpus: TfIdfCorpus::new(),
        }
    }

    /// The dimension of [`Self::embed_column`]'s embeddings.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Compute all signals for a pair of columns.
    pub fn compute(&self, a: &Column, b: &Column) -> ColumnSignals {
        self.compute_with(a, &self.embed_column(a), b, &self.embed_column(b))
    }

    /// Embed a column with this computer's encoder (the expensive part of
    /// [`Self::compute`]; deterministic, so embeddings can be computed once
    /// per lake column and reused across queries).
    pub fn embed_column(&self, column: &Column) -> dust_embed::Vector {
        self.encoder.embed_column(column, &self.corpus)
    }

    /// [`Self::compute`] with already-computed column embeddings — the
    /// single signal code path, so resident per-column embedding caches
    /// produce signals byte-identical to the embed-per-pair path.
    pub fn compute_with(
        &self,
        a: &Column,
        a_embedding: &dust_embed::Vector,
        b: &Column,
        b_embedding: &dust_embed::Vector,
    ) -> ColumnSignals {
        ColumnSignals {
            value_overlap: a.jaccard(b),
            name_similarity: name_similarity(a.name(), b.name()),
            format_similarity: format_similarity(a, b),
            embedding_similarity: cosine_similarity(a_embedding, b_embedding).max(0.0),
            numeric_similarity: numeric_similarity(a, b),
        }
    }
}

/// Token-level similarity of two column names (Jaccard over lower-cased
/// word tokens, with exact equality short-circuiting to 1).
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let na = a.trim().to_ascii_lowercase();
    let nb = b.trim().to_ascii_lowercase();
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na == nb {
        return 1.0;
    }
    let ta: HashSet<String> = dust_embed::word_tokens(&na).into_iter().collect();
    let tb: HashSet<String> = dust_embed::word_tokens(&nb).into_iter().collect();
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = (ta.len() + tb.len()) as f64 - inter;
    inter / union
}

/// Format signature of a value: runs of character classes
/// (`9` digit, `a` letter, `s` space, `p` other), collapsed.
fn format_signature(value: &str) -> String {
    let mut sig = String::new();
    let mut last = '\0';
    for ch in value.chars() {
        let class = if ch.is_ascii_digit() {
            '9'
        } else if ch.is_alphabetic() {
            'a'
        } else if ch.is_whitespace() {
            's'
        } else {
            'p'
        };
        if class != last {
            sig.push(class);
            last = class;
        }
    }
    sig
}

/// Jaccard similarity of the sets of format signatures of two columns.
pub fn format_similarity(a: &Column, b: &Column) -> f64 {
    let sigs = |c: &Column| -> HashSet<String> {
        c.values()
            .iter()
            .filter(|v| !v.is_null())
            .map(|v| format_signature(&v.render()))
            .collect()
    };
    let sa = sigs(a);
    let sb = sigs(b);
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = (sa.len() + sb.len()) as f64 - inter;
    inter / union
}

/// Similarity of numeric distributions: 0 unless both columns are numeric,
/// otherwise overlap of their mean±std intervals.
pub fn numeric_similarity(a: &Column, b: &Column) -> f64 {
    if a.column_type() != ColumnType::Numeric || b.column_type() != ColumnType::Numeric {
        return 0.0;
    }
    let sa = ColumnStats::compute(a);
    let sb = ColumnStats::compute(b);
    let (ma, da) = (sa.mean.unwrap_or(0.0), sa.std_dev.unwrap_or(0.0).max(1e-9));
    let (mb, db) = (sb.mean.unwrap_or(0.0), sb.std_dev.unwrap_or(0.0).max(1e-9));
    let lo_a = ma - da;
    let hi_a = ma + da;
    let lo_b = mb - db;
    let hi_b = mb + db;
    let inter = (hi_a.min(hi_b) - lo_a.max(lo_b)).max(0.0);
    let union = (hi_a.max(hi_b) - lo_a.min(lo_b)).max(1e-9);
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(name, vals.iter().copied())
    }

    #[test]
    fn name_similarity_cases() {
        assert_eq!(name_similarity("Country", "country"), 1.0);
        assert!(name_similarity("Park Name", "Name") > 0.0);
        assert!(
            name_similarity("Park Country", "Country") > name_similarity("Park Country", "Phone")
        );
        assert_eq!(name_similarity("", "x"), 0.0);
    }

    #[test]
    fn format_signature_collapses_runs() {
        assert_eq!(format_signature("773 731-0380"), "9s9p9");
        assert_eq!(format_signature("USA"), "a");
        assert_eq!(format_signature("91.4 x 121.9 cm"), "9p9sas9p9sa");
    }

    #[test]
    fn format_similarity_matches_phone_like_columns() {
        let phones_a = col("phone", &["773 731-0380", "773 284-7328"]);
        let phones_b = col("tel", &["555 123-4567"]);
        let names = col("name", &["River Park", "Hyde Park"]);
        assert!(format_similarity(&phones_a, &phones_b) > format_similarity(&phones_a, &names));
        let empty = col("e", &[""]);
        assert_eq!(format_similarity(&phones_a, &empty), 0.0);
    }

    #[test]
    fn numeric_similarity_requires_numeric_columns() {
        let a = col("x", &["1", "2", "3", "4"]);
        let b = col("y", &["2", "3", "4", "5"]);
        let c = col("z", &["100", "200", "300"]);
        let t = col("t", &["a", "b"]);
        assert!(numeric_similarity(&a, &b) > numeric_similarity(&a, &c));
        assert_eq!(numeric_similarity(&a, &t), 0.0);
    }

    #[test]
    fn signal_computer_produces_bounded_signals() {
        let computer = SignalComputer::new();
        let a = col("Country", &["USA", "UK", "Canada"]);
        let b = col("Park Country", &["USA", "USA", "Mexico"]);
        let s = computer.compute(&a, &b);
        for v in [
            s.value_overlap,
            s.name_similarity,
            s.format_similarity,
            s.embedding_similarity,
            s.numeric_similarity,
        ] {
            assert!((0.0..=1.0).contains(&v), "signal {v} out of range");
        }
        assert!(s.value_overlap > 0.0);
        assert!(s.name_similarity > 0.0);
    }

    #[test]
    fn aggregate_respects_weights() {
        let s = ColumnSignals {
            value_overlap: 1.0,
            name_similarity: 0.0,
            format_similarity: 0.0,
            embedding_similarity: 0.0,
            numeric_similarity: 0.0,
        };
        let only_overlap = SignalWeights {
            value_overlap: 1.0,
            name_similarity: 0.0,
            format_similarity: 0.0,
            embedding_similarity: 0.0,
            numeric_similarity: 0.0,
        };
        assert_eq!(s.aggregate(&only_overlap), 1.0);
        assert!((s.aggregate(&SignalWeights::default()) - 0.2).abs() < 1e-9);
        let zero = SignalWeights {
            value_overlap: 0.0,
            name_similarity: 0.0,
            format_similarity: 0.0,
            embedding_similarity: 0.0,
            numeric_similarity: 0.0,
        };
        assert_eq!(s.aggregate(&zero), 0.0);
    }
}
