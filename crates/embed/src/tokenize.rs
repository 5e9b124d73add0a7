//! Tokenization and TF-IDF utilities.
//!
//! The paper's column-level serializations concatenate cell values into one
//! "sentence" and select at most 512 representative tokens by TF-IDF
//! (following Starmie / DeepJoin). The tokenizer here is intentionally
//! simple: lower-cased word tokens plus optional character n-grams (used by
//! the FastText-like encoder).

use std::collections::HashMap;

/// Split text into lower-cased alphanumeric word tokens.
pub fn word_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Character n-grams of a token, padded with `<` and `>` boundary markers
/// (the FastText convention).
pub fn char_ngrams(token: &str, n: usize) -> Vec<String> {
    if n == 0 {
        return Vec::new();
    }
    let padded: Vec<char> = std::iter::once('<')
        .chain(token.chars())
        .chain(std::iter::once('>'))
        .collect();
    if padded.len() < n {
        return vec![padded.iter().collect()];
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

/// Term-frequency map of a token sequence.
pub fn term_frequencies(tokens: &[String]) -> HashMap<String, usize> {
    let mut tf = HashMap::new();
    for t in tokens {
        *tf.entry(t.clone()).or_insert(0) += 1;
    }
    tf
}

/// Corpus-level document frequencies, used to compute TF-IDF weights.
///
/// A "document" is whatever unit the caller chooses (a column, a tuple, a
/// table); the paper uses columns when selecting representative tokens.
/// Documents are only ever added: every user builds a corpus over a fixed
/// document set, then reads it.
#[derive(Debug, Clone, Default)]
pub struct TfIdfCorpus {
    documents: usize,
    df: HashMap<String, usize>,
}

impl TfIdfCorpus {
    /// Create an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document's tokens to the corpus statistics.
    pub fn add_document(&mut self, tokens: &[String]) {
        self.documents += 1;
        let mut seen = std::collections::HashSet::new();
        for t in tokens {
            if seen.insert(t) {
                *self.df.entry(t.clone()).or_insert(0) += 1;
            }
        }
    }

    /// Number of documents added.
    pub fn num_documents(&self) -> usize {
        self.documents
    }

    /// Smoothed inverse document frequency of a token.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.df.get(token).copied().unwrap_or(0);
        (((self.documents + 1) as f64) / ((df + 1) as f64)).ln() + 1.0
    }

    /// TF-IDF weights for a document's tokens.
    pub fn tf_idf(&self, tokens: &[String]) -> HashMap<String, f64> {
        let tf = term_frequencies(tokens);
        let len = tokens.len().max(1) as f64;
        tf.into_iter()
            .map(|(t, c)| {
                let idf = self.idf(&t);
                (t, (c as f64 / len) * idf)
            })
            .collect()
    }

    /// Select up to `limit` tokens with the highest TF-IDF weights,
    /// preserving the original token order (mirrors the 512-token budget of
    /// the column-level serializations).
    pub fn select_representative(&self, tokens: &[String], limit: usize) -> Vec<String> {
        if tokens.len() <= limit {
            return tokens.to_vec();
        }
        let weights = self.tf_idf(tokens);
        let mut scored: Vec<(usize, &String, f64)> = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t, *weights.get(t).unwrap_or(&0.0)))
            .collect();
        // NaN-safe total order: an undefined weight must never displace a
        // real one (and `sort_by` is stable, so equal weights keep their
        // original token order).
        scored.sort_by(|a, b| crate::order::desc_nan_last(a.2, b.2));
        let mut keep: Vec<(usize, &String)> = scored
            .into_iter()
            .take(limit)
            .map(|(i, t, _)| (i, t))
            .collect();
        keep.sort_by_key(|(i, _)| *i);
        keep.into_iter().map(|(_, t)| t.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_lowercase_and_split_on_punctuation() {
        let toks = word_tokens("River Park, Brandon-MN (USA) 773");
        assert_eq!(toks, vec!["river", "park", "brandon", "mn", "usa", "773"]);
    }

    #[test]
    fn word_tokens_empty_input() {
        assert!(word_tokens("  ,,, ").is_empty());
    }

    #[test]
    fn char_ngrams_use_boundary_markers() {
        let grams = char_ngrams("park", 3);
        assert_eq!(grams.first().unwrap(), "<pa");
        assert_eq!(grams.last().unwrap(), "rk>");
        assert_eq!(grams.len(), 4);
    }

    #[test]
    fn char_ngrams_short_tokens() {
        let grams = char_ngrams("a", 5);
        assert_eq!(grams, vec!["<a>".to_string()]);
        assert!(char_ngrams("abc", 0).is_empty());
    }

    #[test]
    fn term_frequencies_count_repeats() {
        let toks: Vec<String> = ["a", "b", "a"].iter().map(|s| s.to_string()).collect();
        let tf = term_frequencies(&toks);
        assert_eq!(tf["a"], 2);
        assert_eq!(tf["b"], 1);
    }

    #[test]
    fn idf_rewards_rare_tokens() {
        let mut corpus = TfIdfCorpus::new();
        let common: Vec<String> = vec!["usa".into()];
        let rare: Vec<String> = vec!["chippewa".into()];
        for _ in 0..10 {
            corpus.add_document(&common);
        }
        corpus.add_document(&rare);
        assert!(corpus.idf("chippewa") > corpus.idf("usa"));
        assert_eq!(corpus.num_documents(), 11);
    }

    #[test]
    fn tf_idf_weights_are_positive() {
        let mut corpus = TfIdfCorpus::new();
        let doc: Vec<String> = word_tokens("river park usa river");
        corpus.add_document(&doc);
        let weights = corpus.tf_idf(&doc);
        assert!(weights.values().all(|w| *w > 0.0));
        assert!(weights["river"] > weights["usa"]);
    }

    #[test]
    fn representative_selection_is_deterministic_under_weight_ties() {
        // Every token distinct but all weights equal (one document, each
        // token once): the stable sort must preserve original order, so the
        // selection is exactly the prefix — on every run.
        let mut corpus = TfIdfCorpus::new();
        let tokens = word_tokens("alpha beta gamma delta epsilon");
        corpus.add_document(&tokens);
        let selected = corpus.select_representative(&tokens, 3);
        assert_eq!(selected, word_tokens("alpha beta gamma"));
        for _ in 0..10 {
            assert_eq!(corpus.select_representative(&tokens, 3), selected);
        }
    }

    #[test]
    fn representative_selection_ranks_nan_weights_last() {
        // A poisoned (NaN) weight must never displace a real-weighted token.
        // `tf_idf` itself cannot produce NaN, so exercise the sort through
        // the same comparator contract: rank a mixed weight list directly.
        let mut weights = [(0usize, f64::NAN), (1, 0.2), (2, f64::NAN), (3, 0.9)];
        weights.sort_by(|a, b| crate::order::desc_nan_last(a.1, b.1));
        assert_eq!(weights[0].0, 3);
        assert_eq!(weights[1].0, 1);
        assert!(weights[2].1.is_nan() && weights[3].1.is_nan());
    }

    #[test]
    fn representative_selection_respects_limit_and_order() {
        let mut corpus = TfIdfCorpus::new();
        for doc in ["usa usa usa", "uk usa", "canada usa"] {
            corpus.add_document(&word_tokens(doc));
        }
        let tokens = word_tokens("chippewa park usa brandon");
        let selected = corpus.select_representative(&tokens, 3);
        assert_eq!(selected.len(), 3);
        // rare informative tokens survive (the ubiquitous "usa" is dropped),
        // and original order is preserved
        assert!(selected.contains(&"chippewa".to_string()));
        assert!(!selected.contains(&"usa".to_string()));
        let idx_c = selected.iter().position(|t| t == "chippewa").unwrap();
        let idx_b = selected.iter().position(|t| t == "brandon").unwrap();
        assert!(idx_c < idx_b);
        // short documents pass through untouched
        let short = word_tokens("one two");
        assert_eq!(corpus.select_representative(&short, 10), short);
    }
}
