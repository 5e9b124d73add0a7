//! `ColumnEncoder::{embed_columns, embed_column}` against the `String`-keyed
//! column path they replaced, bit for bit.
//!
//! The oracle below is that path, restated from its definition and sharing
//! no code with the library's column side: the column's non-null renders
//! joined by spaces into one sentence, tokenised into one `String` per
//! token, document frequencies in a `String`-keyed map, the 512-token
//! budget as a stable descending sort of `(position, token, weight)`
//! triples, TF-IDF weights recomputed over the kept tokens, and each token
//! (plus, for FastText, its character n-grams at half weight) hashed into
//! the vector with the seeded FNV-1a + SplitMix64 family. Only the model
//! configurations (`PretrainedModel::encoder_config`) and `char_ngrams`
//! come from the library.

use dust_datagen::BenchmarkConfig;
use dust_embed::{
    char_ngrams, desc_nan_last, ColumnEncoder, ColumnSerialization, HashingEncoderConfig,
    PretrainedModel, TfIdfCorpus, Vector,
};
use dust_table::{Column, Value};
use std::collections::{HashMap, HashSet};

const MODELS: [PretrainedModel; 6] = [
    PretrainedModel::FastText,
    PretrainedModel::Glove,
    PretrainedModel::Bert,
    PretrainedModel::Roberta,
    PretrainedModel::SBert,
    PretrainedModel::Ditto,
];

const SERIALIZATIONS: [ColumnSerialization; 2] = [
    ColumnSerialization::CellLevel,
    ColumnSerialization::ColumnLevel,
];

fn oracle_word_tokens(text: &str) -> Vec<String> {
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

/// The column-level "sentence": every non-null render followed by a space.
fn column_sentence(column: &Column) -> String {
    let mut text = String::new();
    for value in column.values() {
        if !value.is_null() {
            text.push_str(&value.render());
            text.push(' ');
        }
    }
    text
}

/// A `String`-keyed document-frequency corpus.
struct OracleCorpus {
    documents: usize,
    df: HashMap<String, usize>,
}

impl OracleCorpus {
    fn of(columns: &[&Column]) -> Self {
        let mut corpus = OracleCorpus {
            documents: 0,
            df: HashMap::new(),
        };
        for column in columns {
            corpus.documents += 1;
            let tokens = oracle_word_tokens(&column_sentence(column));
            let mut seen = HashSet::new();
            for t in &tokens {
                if seen.insert(t) {
                    *corpus.df.entry(t.clone()).or_insert(0) += 1;
                }
            }
        }
        corpus
    }

    fn idf(&self, token: &str) -> f64 {
        let df = self.df.get(token).copied().unwrap_or(0);
        (((self.documents + 1) as f64) / ((df + 1) as f64)).ln() + 1.0
    }

    fn tf_idf(&self, tokens: &[String]) -> HashMap<String, f64> {
        let mut tf: HashMap<String, usize> = HashMap::new();
        for t in tokens {
            *tf.entry(t.clone()).or_insert(0) += 1;
        }
        let len = tokens.len().max(1) as f64;
        tf.into_iter()
            .map(|(t, c)| {
                let idf = self.idf(&t);
                (t, (c as f64 / len) * idf)
            })
            .collect()
    }

    fn select_representative(&self, tokens: &[String], limit: usize) -> Vec<String> {
        if tokens.len() <= limit {
            return tokens.to_vec();
        }
        let weights = self.tf_idf(tokens);
        let mut scored: Vec<(usize, &String, f64)> = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t, weights[t]))
            .collect();
        scored.sort_by(|a, b| desc_nan_last(a.2, b.2));
        let mut keep: Vec<(usize, &String)> = scored
            .into_iter()
            .take(limit)
            .map(|(i, t, _)| (i, t))
            .collect();
        keep.sort_by_key(|(i, _)| *i);
        keep.into_iter().map(|(_, t)| t.clone()).collect()
    }
}

fn hash64(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x100000001b3);
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The feature-hashing encoder of one model configuration.
struct OracleEncoder {
    config: HashingEncoderConfig,
}

impl OracleEncoder {
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

    fn bias(&self) -> Vector {
        let mut v = Vec::with_capacity(self.config.dim);
        let mut state = self.config.seed ^ 0x9e3779b97f4a7c15;
        for _ in 0..self.config.dim {
            state = splitmix64(state);
            let x = ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0;
            v.push(x);
        }
        let mut bias = Vector::new(v);
        bias.normalize();
        bias
    }

    fn embed_weighted_tokens(&self, tokens: &[(String, f32)]) -> Vector {
        let mut out = Vector::zeros(self.config.dim);
        let limited = &tokens[..tokens.len().min(self.config.token_limit)];
        for (token, weight) in limited {
            self.add_token(&mut out, token, *weight);
            if self.config.use_char_ngrams {
                for gram in char_ngrams(token, self.config.char_ngram_size) {
                    self.add_token(&mut out, &gram, *weight * 0.5);
                }
            }
        }
        out.normalize();
        if self.config.anisotropy > 0.0 {
            let mut biased = self.bias().scaled(self.config.anisotropy);
            biased.add_assign(&out);
            biased.normalize();
            biased
        } else {
            out
        }
    }

    fn embed_text(&self, text: &str) -> Vector {
        let tokens: Vec<(String, f32)> = oracle_word_tokens(text)
            .into_iter()
            .map(|t| (t, 1.0))
            .collect();
        self.embed_weighted_tokens(&tokens)
    }

    fn embed_text_with_corpus(&self, text: &str, corpus: &OracleCorpus) -> Vector {
        let tokens = oracle_word_tokens(text);
        let selected = corpus.select_representative(&tokens, self.config.token_limit);
        let weights = corpus.tf_idf(&selected);
        let weighted: Vec<(String, f32)> = selected
            .into_iter()
            .map(|t| {
                let w = if self.config.idf_weighting {
                    *weights.get(&t).unwrap_or(&1.0) as f32
                } else {
                    1.0
                };
                (t, w.max(1e-3))
            })
            .collect();
        self.embed_weighted_tokens(&weighted)
    }

    fn embed_column(
        &self,
        serialization: ColumnSerialization,
        column: &Column,
        corpus: &OracleCorpus,
    ) -> Vector {
        match serialization {
            ColumnSerialization::CellLevel => {
                let mut cells = Vec::new();
                for value in column.values() {
                    let text = value.render();
                    if value.is_null() || text.trim().is_empty() {
                        continue;
                    }
                    cells.push(self.embed_text(&text));
                }
                match Vector::mean(cells.iter()) {
                    Some(mut mean) => {
                        mean.normalize();
                        mean
                    }
                    None => Vector::zeros(self.config.dim),
                }
            }
            ColumnSerialization::ColumnLevel => {
                self.embed_text_with_corpus(&column_sentence(column), corpus)
            }
        }
    }
}

fn bits(v: &Vector) -> Vec<u32> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `embed_columns(columns)` ≡ the oracle with `columns` as the corpus, and
/// `embed_column(c, corpus of others)` ≡ the oracle with that corpus, for
/// every model and serialization.
fn assert_matches_oracle(columns: &[&Column], others: &[&Column], what: &str) {
    let library_corpus = ColumnEncoder::build_corpus(others.iter().copied());
    let own = OracleCorpus::of(columns);
    let external = OracleCorpus::of(others);
    for model in MODELS {
        let oracle = OracleEncoder {
            config: model.encoder_config(),
        };
        for serialization in SERIALIZATIONS {
            let encoder = ColumnEncoder::new(model, serialization);
            let batch = encoder.embed_columns(columns);
            assert_eq!(batch.len(), columns.len());
            for (c, (column, embedding)) in columns.iter().zip(&batch).enumerate() {
                let context = format!("{what}: {model:?} {serialization:?} column {c}");
                assert_eq!(
                    bits(embedding),
                    bits(&oracle.embed_column(serialization, column, &own)),
                    "embed_columns, {context}"
                );
                assert_eq!(
                    bits(&encoder.embed_column(column, &library_corpus)),
                    bits(&oracle.embed_column(serialization, column, &external)),
                    "embed_column with an external corpus, {context}"
                );
            }
        }
    }
}

/// `n` tokens over a Zipf-like vocabulary: a handful of frequent words, a
/// long tail of rare ones, numbers, and repeats — so the 512-token budget
/// has to rank, and ties at its boundary fall back to document order.
fn long_column(name: &str, n: usize, salt: usize) -> Column {
    let values: Vec<Value> = (0..n)
        .map(|i| {
            let r = (i * 7919 + salt * 104729) % 1009;
            match i % 5 {
                0 => Value::text(format!("common{}", r % 3)),
                1 => Value::text(format!("Mid{} rare{r}", r % 40)),
                2 => Value::Int(r as i64 - 300),
                3 => Value::Float(r as f64 / 8.0),
                _ => Value::text(format!("w{}", (i * salt) % 97)),
            }
        })
        .collect();
    Column::new(name, values)
}

#[test]
fn column_embeddings_match_the_string_keyed_path() {
    let typed = Column::new(
        "typed",
        vec![
            Value::Int(42),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(3.0),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::text(""),
            Value::text("   "),
            Value::text("River Park, Brandon-MN (USA) 773"),
        ],
    );
    let unicode = Column::new(
        "unicode",
        vec![
            Value::text("İstanbul İZMİR"),
            Value::text("Straße STRASSE ß"),
            Value::text("ΣΟΦΙΑ Σοφία ὈΔΥΣΣΕΎΣ"),
            Value::text("naïve café ǅ ﬁ"),
            Value::Null,
        ],
    );
    let empty = Column::new("empty", Vec::new());
    let all_null = Column::new("all_null", vec![Value::Null, Value::Null]);
    let blanks = Column::new("blanks", vec![Value::text(""), Value::text(" ,; ")]);
    // Every token distinct and once: all weights tie, so the budget keeps
    // exactly the first 512 tokens.
    let tied = Column::new(
        "tied",
        (0..700)
            .map(|i| Value::text(format!("t{i}")))
            .collect::<Vec<_>>(),
    );
    let long_a = long_column("long_a", 763, 1);
    let long_b = long_column("long_b", 520, 2);
    let at_budget = long_column("at_budget", 512, 3);
    let short = Column::from_strings("short", ["River Park", "Hyde Park", "1.5", "true"]);

    let columns = [
        &typed, &unicode, &empty, &all_null, &blanks, &tied, &long_a, &long_b, &at_budget, &short,
    ];
    // External corpora: some of the same columns, and none at all (D3L's
    // cell-level signal and an empty-lake probe).
    assert_matches_oracle(&columns, &[&short, &long_b, &unicode], "handmade");
    assert_matches_oracle(&columns, &[], "handmade, empty corpus");
    assert_matches_oracle(&[], &[], "no columns");
    assert_matches_oracle(&[&tied], &[&tied], "one column");
}

/// The wide benchmark lake at seed 1447 holds the only real columns over
/// the 512-token budget: every table and query column, embedded as one
/// batch with the aligner's encoder, and the longest embedded on its own
/// against a corpus of the same columns, which must give its batch
/// embedding bit for bit.
#[test]
fn wide_benchmark_lake_columns_match_the_string_keyed_path() {
    let lake = BenchmarkConfig {
        name: "wide".into(),
        num_domains: 4,
        lake_tables_per_domain: 5,
        base_rows: 480,
        queries_per_domain: 4,
        min_row_fraction: 0.34,
        max_row_fraction: 0.36,
        min_columns: usize::MAX,
        seed: 1447,
        ..BenchmarkConfig::santos()
    }
    .generate()
    .lake;
    let columns: Vec<&Column> = lake
        .tables()
        .chain(lake.queries())
        .flat_map(|t| t.columns().iter())
        .collect();
    let lengths: Vec<usize> = columns
        .iter()
        .map(|c| oracle_word_tokens(&column_sentence(c)).len())
        .collect();
    assert_eq!(columns.len(), 216);
    assert_eq!(lengths.iter().filter(|&&n| n > 512).count(), 36);
    assert_eq!(lengths.iter().max(), Some(&763));

    let encoder = ColumnEncoder::new(PretrainedModel::Roberta, ColumnSerialization::ColumnLevel);
    let oracle = OracleEncoder {
        config: PretrainedModel::Roberta.encoder_config(),
    };
    let corpus = OracleCorpus::of(&columns);
    let batch = encoder.embed_columns(&columns);
    for (c, (column, embedding)) in columns.iter().zip(&batch).enumerate() {
        assert_eq!(
            bits(embedding),
            bits(&oracle.embed_column(ColumnSerialization::ColumnLevel, column, &corpus)),
            "column {c} ({} tokens)",
            lengths[c]
        );
    }
    let longest = lengths.iter().position(|&n| n == 763).unwrap();
    let lake_corpus: TfIdfCorpus = ColumnEncoder::build_corpus(columns.iter().copied());
    assert_eq!(
        bits(&encoder.embed_column(columns[longest], &lake_corpus)),
        bits(&batch[longest])
    );
}
