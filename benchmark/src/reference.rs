//! The in-process reference the wire answers are held against, and the
//! fixed-encoder diversity score of every returned selection.
//!
//! Answers are a pure function of (lake content, request), so the
//! reference for generation `g` is a fresh `LakeSession` over the lake
//! that generation must hold — the full lake at even generations, the
//! lake minus the removed table at odd ones (see `Inputs::removed_at`).
//! Holding the wire answer against a *fresh build* rather than a replayed
//! mirror also checks that mutation ≡ rebuild through the server.

use crate::gen::{Inputs, NamedCsv, Op};
use crate::spec::{Workload, K};
use dust_bench::json::JsonValue;
use dust_core::{LakeSession, PipelineConfig, SessionOptions, TupleEmbedderKind};
use dust_diversify::DiversityScores;
use dust_embed::{Distance, FineTuneConfig, PretrainedModel, TupleEncoder, Vector};
use dust_table::{parse_csv, CsvOptions, DataLake, Table, Tuple, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Pairs `serve --finetune` samples from the lake to train the head.
pub const FINETUNE_PAIRS: usize = 150;

/// The fine-tuning settings `serve --finetune` uses.
pub fn finetune_config() -> FineTuneConfig {
    FineTuneConfig {
        max_epochs: 15,
        patience: 3,
        ..FineTuneConfig::default()
    }
}

/// The configuration `serve` runs the workload with: `PipelineConfig::fast()`
/// plus the `--finetune` embedder where the workload asks for it.
pub fn pipeline_config(workload: &Workload) -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    if workload.finetune {
        config.embedder = TupleEmbedderKind::FineTuned {
            backbone: PretrainedModel::Roberta,
            config: finetune_config(),
            training_pairs: FINETUNE_PAIRS,
        };
    }
    config
}

pub fn parse_table(name: &str, csv: &str) -> Table {
    parse_csv(name, csv, CsvOptions::default()).expect("generated CSV parses")
}

/// The lake `serve --lake-dir` builds from these files: no queries, no
/// ground truth.
pub fn load_lake<'a>(tables: impl IntoIterator<Item = &'a NamedCsv>) -> DataLake {
    let mut lake = DataLake::new("lake");
    for table in tables {
        lake.add_table(parse_table(&table.name, &table.csv))
            .expect("generated table names are unique");
    }
    lake
}

pub fn build_session(lake: DataLake, workload: &Workload) -> LakeSession {
    LakeSession::with_options(lake, pipeline_config(workload), SessionOptions::default())
}

/// What a response must say, in the shape the wire carries it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Diverse {
        tables: Vec<String>,
        candidates: usize,
        /// Cell strings of the selected tuples under the query's headers.
        tuples: Vec<Vec<String>>,
    },
    Similar(Vec<(String, usize, f64)>),
}

impl Answer {
    /// Read the `result` object of a query or similar response.
    pub fn from_result(result: &JsonValue) -> Option<Answer> {
        let strings = |v: &JsonValue| match v {
            JsonValue::Array(items) => items
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<String>>>(),
            _ => None,
        };
        if let Some(JsonValue::Array(items)) = result.get("similar") {
            let ranked = items.iter().map(|r| {
                Some((
                    r.get("table")?.as_str()?.to_string(),
                    r.get("row")?.as_usize()?,
                    r.get("score")?.as_f64()?,
                ))
            });
            return ranked.collect::<Option<Vec<_>>>().map(Answer::Similar);
        }
        let JsonValue::Array(tuples) = result.get("tuples")? else {
            return None;
        };
        Some(Answer::Diverse {
            tables: strings(result.get("tables")?)?,
            candidates: result.get("candidates")?.as_usize()?,
            tuples: tuples.iter().map(strings).collect::<Option<_>>()?,
        })
    }
}

/// A lake state (the index of the removed table, if any) and a read.
type Key = (Option<usize>, Op);

/// Reference sessions by lake state, built on first use.
pub struct Reference<'a> {
    inputs: &'a Inputs,
    workload: &'a Workload,
    queries: Vec<Table>,
    probes: Vec<Table>,
    sessions: BTreeMap<Option<usize>, LakeSession>,
    answers: HashMap<Key, Answer>,
}

impl<'a> Reference<'a> {
    pub fn new(inputs: &'a Inputs, workload: &'a Workload) -> Reference<'a> {
        // `serve` names an inline query table "inline_query".
        let inline = |csv: &String| parse_table("inline_query", csv);
        Reference {
            inputs,
            workload,
            queries: inputs.queries.iter().map(|q| inline(&q.csv)).collect(),
            probes: inputs.probes.iter().map(inline).collect(),
            sessions: BTreeMap::new(),
            answers: HashMap::new(),
        }
    }

    pub fn query_table(&self, q: usize) -> &Table {
        &self.queries[q]
    }

    fn session(&mut self, removed: Option<usize>) -> &LakeSession {
        let (inputs, workload) = (self.inputs, self.workload);
        self.sessions.entry(removed).or_insert_with(|| {
            let kept = inputs
                .lake
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != removed)
                .map(|(_, t)| t);
            build_session(load_lake(kept), workload)
        })
    }

    fn answer(&self, session: &LakeSession, op: Op) -> Answer {
        match op {
            Op::Query(q) => {
                let result = session.query(&self.queries[q], K).expect("reference query");
                Answer::Diverse {
                    tables: result.retrieved_tables,
                    candidates: result.candidate_tuples,
                    tuples: result.tuples.iter().map(rendered_cells).collect(),
                }
            }
            Op::Similar(q) => Answer::Similar(
                session
                    .similar_tuples(&self.probes[q], K)
                    .into_iter()
                    .map(|r| (r.table, r.row, r.score))
                    .collect(),
            ),
            Op::Mutation(_) => unreachable!("mutations are checked by their generation"),
        }
    }

    /// Work out the answers to these (generation, read) pairs ahead of
    /// [`Self::expected`], on every core: the server is gone by now and
    /// the distinct pairs of a run take seconds on one.
    pub fn prepare(&mut self, reads: impl Iterator<Item = (u64, Op)>) {
        let wanted: HashSet<Key> = reads
            .map(|(generation, op)| (self.inputs.removed_at(generation), op))
            .filter(|key| !self.answers.contains_key(key))
            .collect();
        let wanted: Vec<Key> = wanted.into_iter().collect();
        if wanted.is_empty() {
            return;
        }
        for (removed, _) in &wanted {
            self.session(*removed);
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let this = &*self;
        let answered: Vec<Vec<(Key, Answer)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let share = wanted.iter().skip(t).step_by(threads);
                    scope.spawn(move || {
                        share
                            .map(|key| (*key, this.answer(&this.sessions[&key.0], key.1)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        self.answers.extend(answered.into_iter().flatten());
    }

    /// The expected answer to a read `op` at `generation`.
    pub fn expected(&mut self, generation: u64, op: Op) -> &Answer {
        self.prepare(std::iter::once((generation, op)));
        &self.answers[&(self.inputs.removed_at(generation), op)]
    }
}

/// A tuple's cells as `serve` renders them: one string per header.
pub fn rendered_cells(tuple: &Tuple) -> Vec<String> {
    tuple
        .headers()
        .iter()
        .map(|h| {
            tuple
                .value_for(h)
                .map(|v| v.render().to_string())
                .unwrap_or_default()
        })
        .collect()
}

/// Average and minimum diversity (Sec. 5.4) of returned selections with
/// respect to their query table, under one fixed encoder (pre-trained
/// RoBERTa, cosine) whatever embedder the server ran — comparable across
/// workloads and across PRs.
pub struct DiversityJudge {
    encoder: TupleEncoder,
    query_embeddings: BTreeMap<usize, Vec<Vector>>,
}

impl DiversityJudge {
    pub fn new() -> DiversityJudge {
        DiversityJudge {
            encoder: TupleEncoder::new(PretrainedModel::Roberta),
            query_embeddings: BTreeMap::new(),
        }
    }

    /// Score the cells `serve` returned for query table `q`.
    pub fn score(&mut self, q: usize, query: &Table, returned: &[Vec<String>]) -> DiversityScores {
        let encoder = &self.encoder;
        let query_embeddings = self
            .query_embeddings
            .entry(q)
            .or_insert_with(|| encoder.embed_tuples(&query.tuples()));
        let selected: Vec<Tuple> = returned
            .iter()
            .enumerate()
            .map(|(row, cells)| {
                let values = cells.iter().map(|c| Value::parse(c)).collect();
                Tuple::new(query.headers().to_vec(), values, "answer", row)
            })
            .collect();
        DiversityScores::compute(
            query_embeddings,
            &encoder.embed_tuples(&selected),
            Distance::Cosine,
        )
    }
}
