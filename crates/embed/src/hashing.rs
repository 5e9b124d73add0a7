//! Deterministic feature-hashing text encoder.
//!
//! This is the stand-in for the paper's pre-trained language models (see
//! DESIGN.md §2). A token is mapped to a sparse signed pattern of vector
//! positions via a seeded hash; a text is the (optionally weighted) sum of
//! its token vectors. Texts that share vocabulary therefore land close in
//! cosine space, which is the property every downstream algorithm relies on.
//!
//! Two additional knobs emulate well-documented behaviours of the real
//! models:
//!
//! * `anisotropy` adds a shared bias direction to every embedding. Real
//!   pre-trained transformers are strongly anisotropic — cosine similarity
//!   between unrelated sentences is high — which is exactly why the paper
//!   finds that un-fine-tuned BERT/RoBERTa classify tuple unionability at
//!   chance level (Fig. 6). The fine-tuning head has to learn to remove this
//!   component.
//! * `dim` and `hashes_per_token` control representational capacity
//!   (collisions make a model "blurrier").

use crate::tokenize::{char_ngrams, select_representative, tf_idf, word_tokens, Terms};
use crate::vector::Vector;
use serde::{Deserialize, Serialize};

/// Configuration of a [`HashingEncoder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HashingEncoderConfig {
    /// Output dimensionality.
    pub dim: usize,
    /// Seed that makes the encoder's hash family unique (per simulated model).
    pub seed: u64,
    /// Number of hash positions each token activates.
    pub hashes_per_token: usize,
    /// Also hash character n-grams of each token (FastText-style subwords).
    pub use_char_ngrams: bool,
    /// Size of character n-grams when enabled.
    pub char_ngram_size: usize,
    /// Strength of the shared anisotropy bias component (0 disables it).
    pub anisotropy: f32,
    /// Weight rare tokens higher using a TF-IDF corpus when available.
    pub idf_weighting: bool,
    /// Maximum number of tokens taken from a text (the 512-token budget).
    pub token_limit: usize,
}

impl Default for HashingEncoderConfig {
    fn default() -> Self {
        HashingEncoderConfig {
            dim: 256,
            seed: 0x5u64,
            hashes_per_token: 4,
            use_char_ngrams: false,
            char_ngram_size: 3,
            anisotropy: 0.0,
            idf_weighting: false,
            token_limit: 512,
        }
    }
}

/// A deterministic text encoder based on signed feature hashing.
#[derive(Debug, Clone)]
pub struct HashingEncoder {
    config: HashingEncoderConfig,
    bias: Vector,
}

impl HashingEncoder {
    /// Build an encoder from a configuration.
    pub fn new(config: HashingEncoderConfig) -> Self {
        assert!(config.dim > 0, "encoder dimension must be positive");
        assert!(
            config.hashes_per_token > 0,
            "need at least one hash per token"
        );
        let bias = shared_bias(config.dim, config.seed);
        HashingEncoder { config, bias }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &HashingEncoderConfig {
        &self.config
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Embed free text using uniform token weights.
    pub fn embed_text(&self, text: &str) -> Vector {
        let tokens = word_tokens(text);
        let limited = tokens.iter().take(self.config.token_limit);
        self.hash_tokens(limited.map(|t| (t.as_str(), 1.0)))
    }

    /// Embed each document of `terms` with TF-IDF token weights (`idf[t]` is
    /// term `t`'s IDF) — the one weighting-and-hashing core of the
    /// column-level serialization: select the token budget, weight each
    /// kept token by its TF-IDF among them (or uniformly), floor at `1e-3`.
    pub(crate) fn embed_documents(&self, terms: &Terms, idf: &[f64]) -> Vec<Vector> {
        let mut counts = vec![0; terms.text.len()];
        terms
            .documents()
            .map(|document| {
                let selected =
                    select_representative(document, idf, self.config.token_limit, &mut counts);
                let weights = tf_idf(&selected, idf, &mut counts);
                self.hash_tokens(selected.iter().zip(weights).map(|(&t, weight)| {
                    let w = if self.config.idf_weighting {
                        weight as f32
                    } else {
                        1.0
                    };
                    (terms.text[t], w.max(1e-3))
                }))
            })
            .collect()
    }

    /// The hashing core: add each `(token, weight)` in order — and, for
    /// subword models, each of the token's character n-grams at half weight
    /// — into one vector, then normalize it and apply the anisotropy bias.
    fn hash_tokens<'t>(&self, tokens: impl Iterator<Item = (&'t str, f32)>) -> Vector {
        let mut out = Vector::zeros(self.config.dim);
        for (token, weight) in tokens {
            self.add_token(&mut out, token, weight);
            if self.config.use_char_ngrams {
                for gram in char_ngrams(token, self.config.char_ngram_size) {
                    self.add_token(&mut out, &gram, weight * 0.5);
                }
            }
        }
        out.normalize();
        if self.config.anisotropy > 0.0 {
            let mut biased = self.bias.scaled(self.config.anisotropy);
            biased.add_assign(&out);
            biased.normalize();
            biased
        } else {
            out
        }
    }

    fn add_token(&self, out: &mut Vector, token: &str, weight: f32) {
        let slice = out.as_mut_slice();
        let mut h = hash64(token.as_bytes(), self.config.seed);
        for _ in 0..self.config.hashes_per_token {
            h = splitmix64(h);
            let pos = (h % self.config.dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 1 { 1.0 } else { -1.0 };
            slice[pos] += sign * weight;
        }
    }
}

/// The shared anisotropy direction for a given seed.
fn shared_bias(dim: usize, seed: u64) -> Vector {
    let mut v = Vec::with_capacity(dim);
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    for _ in 0..dim {
        state = splitmix64(state);
        // map to roughly uniform in [-1, 1]
        let x = ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0;
        v.push(x);
    }
    let mut vec = Vector::new(v);
    vec.normalize();
    vec
}

/// FNV-1a style 64-bit hash with a seed.
pub(crate) fn hash64(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x100000001b3);
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// SplitMix64 mixing step, used to derive successive hash positions.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::cosine_similarity;
    use crate::tokenize::{Documents, TfIdfCorpus};

    fn encoder(anisotropy: f32) -> HashingEncoder {
        HashingEncoder::new(HashingEncoderConfig {
            dim: 128,
            anisotropy,
            ..HashingEncoderConfig::default()
        })
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = encoder(0.0);
        let a = e.embed_text("River Park USA");
        let b = e.embed_text("River Park USA");
        assert_eq!(a, b);
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar_texts() {
        let e = encoder(0.0);
        let a = e.embed_text("river park supervisor vera onate usa");
        let b = e.embed_text("west lawn park supervisor paul veliotis usa");
        let c = e.embed_text("oil on canvas painting northern lake 2006");
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c));
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = encoder(0.0);
        let v = e.embed_text("hello world");
        assert!((v.norm() - 1.0).abs() < 1e-5);
        let empty = e.embed_text("");
        assert_eq!(empty.norm(), 0.0);
    }

    #[test]
    fn anisotropy_inflates_similarity_between_unrelated_texts() {
        let plain = encoder(0.0);
        let aniso = encoder(3.0);
        let a_plain = plain.embed_text("river park usa fresno");
        let b_plain = plain.embed_text("oil painting canvas canada");
        let a_aniso = aniso.embed_text("river park usa fresno");
        let b_aniso = aniso.embed_text("oil painting canvas canada");
        assert!(
            cosine_similarity(&a_aniso, &b_aniso) > cosine_similarity(&a_plain, &b_plain) + 0.2,
            "anisotropy should push unrelated texts together"
        );
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let a = HashingEncoder::new(HashingEncoderConfig {
            seed: 1,
            ..HashingEncoderConfig::default()
        });
        let b = HashingEncoder::new(HashingEncoderConfig {
            seed: 2,
            ..HashingEncoderConfig::default()
        });
        assert_ne!(a.embed_text("park"), b.embed_text("park"));
    }

    #[test]
    fn char_ngrams_help_morphological_overlap() {
        let with = HashingEncoder::new(HashingEncoderConfig {
            use_char_ngrams: true,
            ..HashingEncoderConfig::default()
        });
        let without = encoder(0.0);
        let sim_with = cosine_similarity(&with.embed_text("parks"), &with.embed_text("park"));
        let sim_without =
            cosine_similarity(&without.embed_text("parks"), &without.embed_text("park"));
        assert!(sim_with > sim_without);
    }

    #[test]
    fn idf_weighting_uses_corpus() {
        let mut lake = Documents::default();
        for doc in ["usa park", "usa museum", "usa library", "usa chippewa"] {
            lake.extend(doc);
            lake.finish_document();
        }
        let corpus = TfIdfCorpus::of(&lake);
        let enc = HashingEncoder::new(HashingEncoderConfig {
            idf_weighting: true,
            ..HashingEncoderConfig::default()
        });
        // the rare token should dominate the weighted embedding
        let mut probe = Documents::default();
        probe.extend("usa chippewa");
        probe.finish_document();
        let terms = probe.terms();
        let v = enc
            .embed_documents(&terms, &terms.idf_in(&corpus))
            .remove(0);
        let chippewa_only = enc.embed_text("chippewa");
        let usa_only = enc.embed_text("usa");
        assert!(cosine_similarity(&v, &chippewa_only) > cosine_similarity(&v, &usa_only));
    }

    #[test]
    fn token_limit_truncates() {
        let enc = HashingEncoder::new(HashingEncoderConfig {
            token_limit: 2,
            ..HashingEncoderConfig::default()
        });
        let a = enc.embed_text("alpha beta gamma delta");
        let b = enc.embed_text("alpha beta");
        assert_eq!(a, b);
    }

    #[test]
    fn hash_helpers_are_stable() {
        assert_eq!(hash64(b"park", 7), hash64(b"park", 7));
        assert_ne!(hash64(b"park", 7), hash64(b"park", 8));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
