//! Tokenization and TF-IDF utilities.
//!
//! The paper's column-level serializations concatenate cell values into one
//! "sentence" and select at most 512 representative tokens by TF-IDF
//! (following Starmie / DeepJoin). The tokenizer here is intentionally
//! simple: lower-cased word tokens plus optional character n-grams (used by
//! the FastText-like encoder). Column text is tokenised once into
//! [`Documents`] and weighted as term ids ([`Terms`]), so a token is never a
//! `String` of its own and a term's IDF is computed once per corpus.

use crate::order::desc_nan_last;
use std::borrow::Cow;
use std::collections::HashMap;

/// Split text into lower-cased alphanumeric word tokens.
pub fn word_tokens(text: &str) -> Vec<String> {
    // lower-casing seldom changes a text's length: one arena allocation
    let mut documents = Documents {
        arena: String::with_capacity(text.len()),
        ..Documents::default()
    };
    documents.extend(text);
    documents.tokens().map(str::to_string).collect()
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

/// Smoothed inverse document frequency of a term found in `df` of
/// `documents` documents.
fn smoothed_idf(documents: usize, df: usize) -> f64 {
    (((documents + 1) as f64) / ((df + 1) as f64)).ln() + 1.0
}

/// Texts tokenised once: every token's lower-cased bytes back to back in one
/// arena, each document a run of tokens. A document's texts are tokenised
/// one by one, which yields the tokens of [`word_tokens`] over the texts
/// joined by spaces.
#[derive(Debug, Default)]
pub(crate) struct Documents {
    arena: String,
    /// End offset in `arena` of each token.
    token_ends: Vec<usize>,
    /// End index in `token_ends` of each finished document.
    doc_ends: Vec<usize>,
}

impl Documents {
    /// Append the word tokens of `text` to the open document.
    pub(crate) fn extend(&mut self, text: &str) {
        let mut open = false;
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                if ch.is_ascii() {
                    self.arena.push(ch.to_ascii_lowercase());
                } else {
                    self.arena.extend(ch.to_lowercase());
                }
                open = true;
            } else if open {
                self.token_ends.push(self.arena.len());
                open = false;
            }
        }
        if open {
            self.token_ends.push(self.arena.len());
        }
    }

    /// Finish the open document (which may be empty).
    pub(crate) fn finish_document(&mut self) {
        self.doc_ends.push(self.token_ends.len());
    }

    fn tokens(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.token_ends.iter().map(move |&end| {
            let token = &self.arena[start..end];
            start = end;
            token
        })
    }

    /// Intern every token to a term id, terms numbered in order of first
    /// occurrence.
    pub(crate) fn terms(&self) -> Terms<'_> {
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut text = Vec::new();
        let ids = self
            .tokens()
            .map(|token| {
                *index.entry(token).or_insert_with(|| {
                    text.push(token);
                    text.len() - 1
                })
            })
            .collect();
        Terms {
            text,
            ids,
            doc_ends: &self.doc_ends,
        }
    }
}

/// [`Documents`] as term ids; each term's text is borrowed from the arena.
#[derive(Debug)]
pub(crate) struct Terms<'a> {
    /// The text of each term id.
    pub(crate) text: Vec<&'a str>,
    /// Every token's term id, documents back to back.
    ids: Vec<usize>,
    doc_ends: &'a [usize],
}

impl Terms<'_> {
    /// Each document's term ids.
    pub(crate) fn documents(&self) -> impl Iterator<Item = &[usize]> {
        let mut start = 0;
        self.doc_ends.iter().map(move |&end| {
            let document = &self.ids[start..end];
            start = end;
            document
        })
    }

    /// Each term's IDF with these documents as the corpus.
    pub(crate) fn idf(&self) -> Vec<f64> {
        // document frequencies: count each term once per document
        let mut df = vec![0; self.text.len()];
        let mut last_seen = vec![usize::MAX; self.text.len()];
        for (d, document) in self.documents().enumerate() {
            for &t in document {
                if last_seen[t] != d {
                    last_seen[t] = d;
                    df[t] += 1;
                }
            }
        }
        let documents = self.doc_ends.len();
        df.into_iter()
            .map(|df| smoothed_idf(documents, df))
            .collect()
    }

    /// Each term's IDF in `corpus`.
    pub(crate) fn idf_in(&self, corpus: &TfIdfCorpus) -> Vec<f64> {
        self.text.iter().map(|t| corpus.idf(t)).collect()
    }
}

/// TF-IDF weight of every token of one document of term ids. `counts` is
/// scratch indexed by term id, all zero on entry and on return.
pub(crate) fn tf_idf(tokens: &[usize], idf: &[f64], counts: &mut [usize]) -> Vec<f64> {
    for &t in tokens {
        counts[t] += 1;
    }
    let len = tokens.len().max(1) as f64;
    let weights = tokens
        .iter()
        .map(|&t| (counts[t] as f64 / len) * idf[t])
        .collect();
    for &t in tokens {
        counts[t] = 0;
    }
    weights
}

/// Select up to `limit` tokens with the highest TF-IDF weights,
/// preserving the original token order (mirrors the 512-token budget of
/// the column-level serializations).
pub(crate) fn select_representative<'t>(
    tokens: &'t [usize],
    idf: &[f64],
    limit: usize,
    counts: &mut [usize],
) -> Cow<'t, [usize]> {
    if tokens.len() <= limit {
        return Cow::Borrowed(tokens);
    }
    let weights = tf_idf(tokens, idf, counts);
    let mut keep: Vec<usize> = (0..tokens.len()).collect();
    // NaN-safe total order: an undefined weight must never displace a real
    // one (and `sort_by` is stable, so equal weights keep their original
    // token order).
    keep.sort_by(|&a, &b| desc_nan_last(weights[a], weights[b]));
    keep.truncate(limit);
    keep.sort_unstable();
    Cow::Owned(keep.into_iter().map(|i| tokens[i]).collect())
}

/// Corpus-level inverse document frequencies, used to compute TF-IDF
/// weights.
///
/// A "document" is whatever unit the caller chooses (a column, a tuple, a
/// table); the paper uses columns when selecting representative tokens.
/// A corpus is built once over a fixed document set, then read.
#[derive(Debug, Clone, Default)]
pub struct TfIdfCorpus {
    documents: usize,
    idf: HashMap<String, f64>,
}

impl TfIdfCorpus {
    /// Create an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// The corpus of `documents`.
    pub(crate) fn of(documents: &Documents) -> Self {
        let terms = documents.terms();
        let idf = terms.idf();
        TfIdfCorpus {
            documents: documents.doc_ends.len(),
            idf: terms.text.iter().map(|t| t.to_string()).zip(idf).collect(),
        }
    }

    /// Smoothed inverse document frequency of a token.
    pub fn idf(&self, token: &str) -> f64 {
        match self.idf.get(token) {
            Some(&idf) => idf,
            None => smoothed_idf(self.documents, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One document per text.
    fn documents(texts: &[&str]) -> Documents {
        let mut documents = Documents::default();
        for text in texts {
            documents.extend(text);
            documents.finish_document();
        }
        documents
    }

    /// The term ids of `text` under `terms`' vocabulary.
    fn ids(terms: &Terms, text: &str) -> Vec<usize> {
        word_tokens(text)
            .iter()
            .map(|t| terms.text.iter().position(|x| x == t).unwrap())
            .collect()
    }

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
    fn documents_tokenise_each_text_like_word_tokens_over_the_joined_text() {
        // Case folding that changes length (İ → i̇, Σ → σ) and a token at the
        // end of one text next to one at the start of the next.
        let mut documents = Documents::default();
        for text in ["İstanbul ΣΟΦΙΑ", "straße", "", "7 x"] {
            documents.extend(text);
        }
        documents.finish_document();
        documents.finish_document();
        let terms = documents.terms();
        let mut parts = terms.documents();
        let joined: Vec<&str> = parts
            .next()
            .unwrap()
            .iter()
            .map(|&t| terms.text[t])
            .collect();
        assert_eq!(joined, word_tokens("İstanbul ΣΟΦΙΑ straße  7 x "));
        assert!(parts.next().unwrap().is_empty());
        assert!(parts.next().is_none());
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
        let documents = documents(&["a b a", "b"]);
        let terms = documents.terms();
        assert_eq!(terms.text, ["a", "b"]);
        let docs: Vec<&[usize]> = terms.documents().collect();
        assert_eq!(docs, [&[0, 1, 0][..], &[1][..]]);
        // term frequency 2/3 vs 1/3 under equal IDF
        let weights = tf_idf(docs[0], &[1.0, 1.0], &mut [0, 0]);
        assert_eq!(weights, [2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0]);
    }

    #[test]
    fn idf_rewards_rare_tokens() {
        let mut texts = vec!["usa"; 10];
        texts.push("chippewa");
        let corpus = TfIdfCorpus::of(&documents(&texts));
        assert!(corpus.idf("chippewa") > corpus.idf("usa"));
        assert_eq!(corpus.idf("usa"), (12.0f64 / 11.0).ln() + 1.0);
    }

    #[test]
    fn corpus_counts_each_term_once_per_document() {
        let documents = documents(&["usa usa park", "usa", ""]);
        let corpus = TfIdfCorpus::of(&documents);
        for (term, df) in [("usa", 2.0f64), ("park", 1.0), ("absent", 0.0)] {
            assert_eq!(corpus.idf(term), (4.0 / (df + 1.0)).ln() + 1.0, "{term}");
        }
        let terms = documents.terms();
        assert_eq!(terms.idf(), terms.idf_in(&corpus));
    }

    #[test]
    fn tf_idf_weights_are_positive() {
        let documents = documents(&["river park usa river"]);
        let terms = documents.terms();
        let doc = terms.documents().next().unwrap();
        let weights = tf_idf(doc, &terms.idf(), &mut vec![0; terms.text.len()]);
        assert!(weights.iter().all(|w| *w > 0.0));
        // "river" (twice) outweighs "usa" (once)
        assert!(weights[0] > weights[2]);
    }

    #[test]
    fn representative_selection_is_deterministic_under_weight_ties() {
        // Every token distinct but all weights equal (one document, each
        // token once): the stable sort must preserve original order, so the
        // selection is exactly the prefix — on every run.
        let documents = documents(&["alpha beta gamma delta epsilon"]);
        let terms = documents.terms();
        let (doc, idf) = (terms.documents().next().unwrap(), terms.idf());
        let mut counts = vec![0; terms.text.len()];
        let selected = select_representative(doc, &idf, 3, &mut counts).into_owned();
        assert_eq!(selected, ids(&terms, "alpha beta gamma"));
        for _ in 0..10 {
            assert_eq!(select_representative(doc, &idf, 3, &mut counts), selected);
        }
        assert!(counts.iter().all(|&c| c == 0));
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
        let corpus = TfIdfCorpus::of(&documents(&["usa usa usa", "uk usa", "canada usa"]));
        let documents = documents(&["chippewa park usa brandon", "one two"]);
        let terms = documents.terms();
        let idf = terms.idf_in(&corpus);
        let mut counts = vec![0; terms.text.len()];
        let mut docs = terms.documents();
        let selected = select_representative(docs.next().unwrap(), &idf, 3, &mut counts);
        // rare informative tokens survive (the ubiquitous "usa" is dropped),
        // and original order is preserved
        assert_eq!(selected.into_owned(), ids(&terms, "chippewa park brandon"));
        // short documents pass through untouched
        let short = docs.next().unwrap();
        assert_eq!(select_representative(short, &idf, 10, &mut counts), short);
    }
}
