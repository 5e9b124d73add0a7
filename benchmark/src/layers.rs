//! The traced pass: the server's state rebuilt in this process from the
//! same CSVs, each distinct request staged through the layers' public
//! calls with a span around every call, and the write, restart and wire
//! sides timed the same way. The staged selection must equal what
//! `LakeSession::query` returns, which must equal what `serve` sends.
//!
//! The calls made into the repository are the allow-list in README.md: a
//! signature change to one of them needs a change to the benchmark first.

use crate::alloc::counted;
use crate::gen::{Inputs, Op};
use crate::reference::{
    build_session, finetune_config, load_lake, parse_table, pipeline_config, rendered_cells,
    Answer, FINETUNE_PAIRS,
};
use crate::report::Outcome;
use crate::server::{dir_bytes, Client, ServeChild};
use crate::spec::{Workload, K, MUTATED_TABLES, STATS_PROBES, TRACE_ROUNDS, WAL_TAIL};
use crate::stats::median;
use crate::trace::Tracer;
use dust_align::{outer_union, HolisticAligner};
use dust_bench::json::{self, JsonValue};
use dust_cluster::{agglomerative_with, cluster_medoids_from_matrix, Linkage};
use dust_core::{LakeSession, PipelineConfig, SnapshotStore, StoreOptions};
use dust_datagen::{build_finetune_dataset, FineTuneDataset, FineTuneDatasetConfig};
use dust_diversify::{DiversificationInput, Diversifier, DustConfig, DustDiversifier};
use dust_embed::{ColumnEncoder, DustModel, PretrainedModel, TupleEncoder, Vector};
use dust_search::{InvertedValueIndex, OverlapSearch};
use dust_table::{DataLake, Table, Tuple};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The tuple embedder `serve` holds for the workload.
enum Embedder {
    Encoder(TupleEncoder),
    Model(DustModel),
}

impl Embedder {
    /// Pre-trained RoBERTa, or — under `--finetune` — the projection head
    /// trained by the recipe the session runs at construction and again on
    /// every mutation (`dust_core`'s `train_dust_model`, repeated here from
    /// its public parts): 150 seeded pairs sampled from `lake`.
    fn for_workload(workload: &Workload, lake: &DataLake) -> Embedder {
        if !workload.finetune {
            return Embedder::Encoder(TupleEncoder::new(PretrainedModel::Roberta));
        }
        let mut model = DustModel::new(PretrainedModel::Roberta, finetune_config());
        let dataset = build_finetune_dataset(
            lake,
            &FineTuneDatasetConfig {
                total_pairs: FINETUNE_PAIRS,
                ..FineTuneDatasetConfig::default()
            },
        );
        if !dataset.train.is_empty() {
            model.train(
                &FineTuneDataset::triples(&dataset.train),
                &FineTuneDataset::triples(&dataset.validation),
            );
        }
        Embedder::Model(model)
    }

    fn embed_tuples(&self, tuples: &[Tuple]) -> Vec<Vector> {
        match self {
            Embedder::Encoder(encoder) => encoder.embed_tuples(tuples),
            Embedder::Model(model) => model.embed_tuples(tuples),
        }
    }
}

/// What one staged query produced, beside its spans.
struct Staged {
    answer: Answer,
    /// Counts taken at the layer boundaries, by per-layer metric name.
    counts: [(&'static str, usize); 8],
}

/// Algorithm 1 through the layers' public functions, one span per call.
/// The request-path spans are children of `query.staged`; the two
/// `cluster.*` spans repeat work `diversify.select` already did on the
/// same matrix and sit outside it.
fn staged_query(
    tracer: &mut Tracer,
    request: usize,
    session: &LakeSession,
    index: &InvertedValueIndex,
    embedder: &Embedder,
    config: &PipelineConfig,
    csv: &str,
) -> Staged {
    let query = tracer.span("table.parse_csv", request, || {
        parse_table("inline_query", csv)
    });
    let root = tracer.enter("query.staged", request);
    let view = tracer.span("session.view_pin", request, || session.view());
    let lake = view.lake();
    let retrieved = tracer.span("search.overlap", request, || {
        OverlapSearch::new().search_with_index(lake, &query, config.tables_per_query, index)
    });
    let tables: Vec<&Table> = retrieved
        .iter()
        .filter_map(|r| lake.table(&r.table).ok())
        .collect();
    let aligner = HolisticAligner {
        encoder: ColumnEncoder::new(config.alignment_model, config.alignment_serialization),
        linkage: config.alignment_linkage,
        distance: config.distance,
    };
    let alignment = tracer.span("align.holistic", request, || aligner.align(&query, &tables));
    let candidates = tracer.span("align.outer_union", request, || {
        outer_union(&query, &tables, &alignment)
    });
    let query_tuples = query.tuples();
    let query_embeddings = tracer.span("embed.query_tuples", request, || {
        embedder.embed_tuples(&query_tuples)
    });
    let candidate_embeddings = tracer.span("embed.candidate_tuples", request, || {
        embedder.embed_tuples(&candidates)
    });
    let pack = tracer.enter("diversify.pack", request);
    let mut source_ids: BTreeMap<&str, usize> = BTreeMap::new();
    let sources: Vec<usize> = candidates
        .iter()
        .map(|t| {
            let next = source_ids.len();
            *source_ids.entry(t.source_table()).or_insert(next)
        })
        .collect();
    let input = DiversificationInput::with_sources(
        &query_embeddings,
        &candidate_embeddings,
        &sources,
        config.distance,
    );
    tracer.exit(pack);
    let points = tracer.span("diversify.matrix", request, || input.pairwise().len());
    let dust_config = DustConfig {
        linkage: Linkage::Average,
        ..config.diversifier.to_dust_config()
    };
    let diversifier = DustDiversifier::with_config(dust_config.clone());
    let selection = tracer.span("diversify.select", request, || {
        diversifier.select(&input, K)
    });
    tracer.exit(root);

    let clusters = (K * dust_config.p.max(1)).min(points);
    let dendrogram = tracer.span("cluster.agglomerative", request, || {
        agglomerative_with(
            input.pairwise(),
            dust_config.linkage,
            dust_config.algorithm,
            clusters,
        )
    });
    let assignment = dendrogram.cut(clusters);
    tracer.span("cluster.medoids", request, || {
        cluster_medoids_from_matrix(input.pairwise(), &assignment)
    });

    Staged {
        answer: Answer::Diverse {
            tables: retrieved.into_iter().map(|r| r.table).collect(),
            candidates: candidates.len(),
            tuples: selection
                .iter()
                .map(|&i| rendered_cells(&candidates[i]))
                .collect(),
        },
        counts: [
            ("table.query_rows", query.num_rows()),
            ("search.retrieved_tables", tables.len()),
            ("align.candidates", candidates.len()),
            ("align.aligned_columns", alignment.aligned_column_count()),
            ("embed.tuples", query_tuples.len() + candidates.len()),
            ("embed.dim", query_embeddings.first().map_or(0, Vector::dim)),
            ("diversify.pairs", points * points.saturating_sub(1) / 2),
            ("cluster.points", points),
        ],
    }
}

/// The spans of one staged query that `LakeSession::query` also runs.
const REQUEST_PATH: [&str; 9] = [
    "session.view_pin",
    "search.overlap",
    "align.holistic",
    "align.outer_union",
    "embed.query_tuples",
    "embed.candidate_tuples",
    "diversify.pack",
    "diversify.matrix",
    "diversify.select",
];
const DIVERSIFY: [&str; 3] = ["diversify.pack", "diversify.matrix", "diversify.select"];
const CLUSTER_SHADOW: [&str; 2] = ["cluster.agglomerative", "cluster.medoids"];

/// (per-layer metric, span it is the median of, ms → the metric's unit).
const SPAN_METRICS: [(&str, &str, f64); 24] = [
    ("table.load_lake_s", "table.load_lake", 1e-3),
    ("table.parse_csv_ms", "table.parse_csv", 1.0),
    ("search.index_build_s", "search.index_build", 1e-3),
    ("search.overlap_ms", "search.overlap", 1.0),
    ("align.holistic_ms", "align.holistic", 1.0),
    ("align.outer_union_ms", "align.outer_union", 1.0),
    ("embed.query_tuples_ms", "embed.query_tuples", 1.0),
    ("embed.candidate_tuples_ms", "embed.candidate_tuples", 1.0),
    ("embed.train_s", "embed.train", 1e-3),
    ("diversify.pack_ms", "diversify.pack", 1.0),
    ("diversify.matrix_ms", "diversify.matrix", 1.0),
    ("diversify.select_ms", "diversify.select", 1.0),
    ("cluster.agglomerative_ms", "cluster.agglomerative", 1.0),
    ("cluster.medoids_ms", "cluster.medoids", 1.0),
    ("session.build_s", "session.build", 1e-3),
    ("session.view_pin_us", "session.view_pin", 1e3),
    ("session.similar_tuples_ms", "session.similar_tuples", 1.0),
    ("session.add_table_ms", "session.add_table", 1.0),
    ("session.remove_table_ms", "session.remove_table", 1.0),
    ("persist.snapshot_create_s", "persist.snapshot_create", 1e-3),
    ("persist.wal_append_ms", "persist.wal_append", 1.0),
    ("persist.checkpoint_ms", "persist.checkpoint", 1.0),
    ("persist.load_s", "persist.load", 1e-3),
    ("persist.open_s", "persist.open", 1e-3),
];

/// Checkpoints and recoveries timed per kind.
const PERSIST_REPEATS: usize = 3;
/// Fresh connections opened for `pool.connect_ms`.
const CONNECT_PROBES: usize = 20;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The state the phases of one traced pass share.
struct Pass<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    tracer: Tracer,
    /// Per-request values that are not span durations, by metric name.
    series: BTreeMap<&'static str, Vec<f64>>,
    out: Outcome,
    requests: usize,
}

impl Pass<'_> {
    /// A fresh identifier for the spans of one request.
    fn request_id(&mut self) -> usize {
        self.requests += 1;
        self.requests
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    /// Stage every distinct query `TRACE_ROUNDS` times beside the whole
    /// in-process query, and time every `similar` probe. Returns what
    /// `LakeSession::query` answered, by query table.
    fn reads(
        &mut self,
        session: &LakeSession,
        index: &InvertedValueIndex,
        embedder: &Embedder,
    ) -> Result<Vec<Answer>, String> {
        let (config, inputs) = (pipeline_config(self.workload), self.inputs);
        let inline = |csv: &String| parse_table("inline_query", csv);
        let queries: Vec<Table> = inputs.queries.iter().map(|q| inline(&q.csv)).collect();
        let probes: Vec<Table> = inputs.probes.iter().map(inline).collect();
        let mut answers = Vec::new();
        for round in 0..TRACE_ROUNDS {
            for (q, query) in queries.iter().enumerate() {
                let request = self.request_id();
                let first_span = self.tracer.spans().len();
                let csv = &inputs.queries[q].csv;
                let staged = staged_query(
                    &mut self.tracer,
                    request,
                    session,
                    index,
                    embedder,
                    &config,
                    csv,
                );

                let started = Instant::now();
                let (result, allocs, alloc_bytes) = counted(|| session.query(query, K));
                let whole = ms(started);
                let result = result.map_err(|e| format!("reference query {q}: {e}"))?;
                let embedded = query.num_rows() + result.candidate_tuples;
                let served = Answer::Diverse {
                    tables: result.retrieved_tables,
                    candidates: result.candidate_tuples,
                    tuples: result.tuples.iter().map(rendered_cells).collect(),
                };
                self.out.attempted += 1;
                if staged.answer != served {
                    self.push("trace.staged_mismatches", 1.0);
                    self.out.fail(format!(
                        "query {q}: the staged selection differs from LakeSession::query"
                    ));
                }
                if round == 0 {
                    answers.push(served);
                }

                let spans = &self.tracer.spans()[first_span..];
                let span_ms = |names: &[&str]| -> f64 {
                    let named = spans.iter().filter(|s| names.contains(&s.name));
                    named.map(|s| s.duration_ms()).sum()
                };
                let embed = span_ms(&["embed.query_tuples", "embed.candidate_tuples"]);
                let select = span_ms(&["diversify.select"]);
                let values = [
                    ("trace.spans", spans.len() as f64),
                    ("session.query_ms", whole),
                    ("session.query_allocs", allocs as f64),
                    ("session.query_alloc_bytes", alloc_bytes as f64),
                    (
                        "session.unattributed_share",
                        1.0 - span_ms(&REQUEST_PATH) / whole,
                    ),
                    (
                        "trace.overhead_share",
                        span_ms(&["query.staged"]) / whole - 1.0,
                    ),
                    ("share.search", span_ms(&["search.overlap"]) / whole),
                    (
                        "share.align",
                        span_ms(&["align.holistic", "align.outer_union"]) / whole,
                    ),
                    ("share.embed", embed / whole),
                    ("share.diversify", span_ms(&DIVERSIFY) / whole),
                    ("embed.us_per_tuple", embed * 1e3 / embedded.max(1) as f64),
                    ("cluster.share_of_select", span_ms(&CLUSTER_SHADOW) / select),
                ];
                for (name, count) in staged.counts {
                    self.push(name, count as f64);
                }
                for (name, value) in values {
                    self.push(name, value);
                }
            }
            for probe in &probes {
                let request = self.request_id();
                self.tracer.span("session.similar_tuples", request, || {
                    session.similar_tuples(probe, K)
                });
            }
        }
        Ok(answers)
    }

    /// The writer's `j`-th mutation applied to `session` and logged to
    /// `store`, each under its own span.
    fn mutate(
        &mut self,
        session: &LakeSession,
        store: &mut SnapshotStore,
        j: u64,
    ) -> Result<(), String> {
        let request = self.request_id();
        let inputs = self.inputs;
        let table = &inputs.lake[inputs.removed_at(j | 1).expect("odd generation")];
        let name = &table.name;
        let logged = if j.is_multiple_of(2) {
            self.tracer
                .span("session.remove_table", request, || {
                    session.remove_table(name)
                })
                .map_err(|e| format!("remove {name}: {e}"))?;
            self.tracer.span("persist.wal_append", request, || {
                store.log_remove_table(name, session.generation())
            })
        } else {
            let parsed = parse_table(name, &table.csv);
            let copy = parsed.clone();
            let (added, allocs, bytes) = self.tracer.span("session.add_table", request, || {
                counted(|| session.add_table(parsed))
            });
            added.map_err(|e| format!("add {name}: {e}"))?;
            self.push("session.add_table_allocs", allocs as f64);
            self.push("session.add_table_alloc_bytes", bytes as f64);
            self.tracer.span("persist.wal_append", request, || {
                store.log_add_table(&copy, session.generation())
            })
        };
        logged.map_err(|e| format!("WAL append after mutation {j}: {e}"))
    }

    /// Session deltas, WAL appends, checkpoints and the two recoveries
    /// (empty WAL, `WAL_TAIL` records), in a snapshot directory under
    /// `scratch`.
    fn writes_and_restart(&mut self, session: &LakeSession, scratch: &Path) -> Result<(), String> {
        let dir = scratch.join("persist");
        let options = StoreOptions::default();
        let request = self.request_id();
        let mut store = self
            .tracer
            .span("persist.snapshot_create", request, || {
                SnapshotStore::create_with(&dir, session, options)
            })
            .map_err(|e| format!("snapshot create: {e}"))?;
        self.push("persist.snapshot_bytes", dir_bytes(&dir)? as f64);
        for j in 0..2 * MUTATED_TABLES as u64 {
            self.mutate(session, &mut store, j)?;
        }
        self.push(
            "persist.wal_bytes_per_record",
            store.wal_bytes() as f64 / store.wal_records().max(1) as f64,
        );
        for _ in 0..PERSIST_REPEATS {
            self.tracer
                .span("persist.checkpoint", request, || store.checkpoint(session))
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        drop(store);
        // Opening leaves the directory as it found it, so it can be timed
        // several times: first with an empty WAL, then with the tail.
        let open = |pass: &mut Self, span: &'static str| {
            let mut opened = None;
            for _ in 0..PERSIST_REPEATS {
                drop(opened.take());
                let recovery = pass
                    .tracer
                    .span(span, request, || SnapshotStore::open_with(&dir, options));
                opened = Some(recovery.map_err(|e| format!("{span}: {e}"))?);
            }
            Ok::<_, String>(opened.expect("at least one repeat"))
        };
        let (mut store, recovered, _) = open(self, "persist.load")?;
        let logged = recovered.generation() + WAL_TAIL as u64;
        for j in recovered.generation()..logged {
            self.mutate(&recovered, &mut store, j)?;
        }
        drop((store, recovered));
        let (_, replayed, report) = open(self, "persist.open")?;
        self.push("persist.replayed_records", report.replayed as f64);
        self.out.attempted += 1;
        if replayed.generation() != logged {
            self.out.fail(format!(
                "recovery reached generation {}, logged {logged}",
                replayed.generation()
            ));
        }
        Ok(())
    }

    /// The same queries through a `serve` child: what the wire adds to a
    /// query, the cost of a no-compute request, and the pool's counters.
    fn wire(&mut self, serve_bin: &Path, scratch: &Path, answers: &[Answer]) -> Result<(), String> {
        const STATS: &str = "{\"id\":\"s\",\"mode\":\"stats\"}";
        let lake_dir = scratch.join("lake");
        self.inputs
            .write_lake_dir(&lake_dir)
            .map_err(|e| format!("cannot write the lake: {e}"))?;
        let server = ServeChild::spawn(serve_bin, self.workload, &lake_dir, None)?;
        for _ in 0..CONNECT_PROBES {
            let started = Instant::now();
            Client::connect(server.addr())?.round_trip(STATS)?;
            self.push("pool.connect_ms", ms(started));
        }
        let mut client = Client::connect(server.addr())?;
        for (q, want) in answers.iter().enumerate() {
            let line = self.inputs.request_line(&format!("q{q}"), Op::Query(q));
            client.round_trip(&line)?;
            let started = Instant::now();
            let response = client.round_trip(&line)?;
            let round_trip = ms(started);
            let parsed = json::parse(&response)?;
            self.out.attempted += 1;
            if parsed.get("result").and_then(Answer::from_result).as_ref() != Some(want) {
                self.out.fail(format!(
                    "query {q}: the wire answer differs from LakeSession::query"
                ));
            }
            // `secs` is the server's own clock around the same execution's
            // `view.query`; what is left is socket, pool poll, JSON and CSV
            // parse, and render.
            let served_ms = parsed
                .get("secs")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                * 1e3;
            self.push("serve.wire_overhead_ms", round_trip - served_ms);
            self.push("serve.request_bytes", line.len() as f64);
            self.push("serve.response_bytes", response.len() as f64);
        }
        let mut stats = String::new();
        for _ in 0..STATS_PROBES {
            let started = Instant::now();
            stats = client.round_trip(STATS)?;
            self.push("serve.stats_rtt_us", ms(started) * 1e3);
        }
        let stats = json::parse(&stats)?;
        for (key, metric) in [
            ("accepted", "pool.accepted"),
            ("rejected_overloaded", "pool.rejected_overloaded"),
            ("lines_too_long", "pool.lines_too_long"),
        ] {
            let count = stats
                .get("result")
                .and_then(|r| r.get("server")?.get(key)?.as_f64())
                .ok_or_else(|| format!("stats lack server.{key}: {stats:?}"))?;
            self.out.attempted += 1;
            if key != "accepted" && count != 0.0 {
                self.out.fail(format!("the pool reports {count} {key}"));
            }
            self.push(metric, count);
        }
        Ok(())
    }

    /// Per-layer metrics: the median over the samples of each span and of
    /// each series. Writes the spans to `trace_path`.
    fn finish(mut self, trace_path: &Path) -> Result<Outcome, String> {
        self.push("trace.staged_mismatches", 0.0);
        self.push("lake.csv_bytes", self.inputs.lake_csv_bytes() as f64);
        for (metric, span, scale) in SPAN_METRICS {
            let samples = self.tracer.durations_ms(span);
            if samples.is_empty() {
                return Err(format!("no {span} span was recorded"));
            }
            self.out.metrics.insert(metric, median(&samples) * scale);
        }
        for (name, samples) in &self.series {
            let value = match *name {
                "trace.staged_mismatches" => samples.iter().sum(),
                _ => median(samples),
            };
            self.out.metrics.insert(name, value);
        }
        let m = &mut self.out.metrics;
        let replay_ms = (m["persist.open_s"] - m["persist.load_s"]) * 1e3;
        let per_record = replay_ms / m["persist.replayed_records"].max(1.0);
        m.insert("persist.replay_ms_per_record", per_record);
        self.tracer
            .write_jsonl(trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        Ok(self.out)
    }
}

/// Run the traced pass of `workload` and write its spans to `trace_path`.
pub fn run(
    workload: &Workload,
    seed: u64,
    serve_bin: &Path,
    scratch: &Path,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload.lake, seed);
    let mut pass = Pass {
        workload,
        inputs: &inputs,
        tracer: Tracer::new(),
        series: BTreeMap::new(),
        out: Outcome::default(),
        requests: 0,
    };
    // What `serve` does before `listening on`.
    let setup = pass.request_id();
    let lake = pass
        .tracer
        .span("table.load_lake", setup, || load_lake(&inputs.lake));
    let index = pass.tracer.span("search.index_build", setup, || {
        InvertedValueIndex::build(&lake)
    });
    let embedder = pass.tracer.span("embed.train", setup, || {
        Embedder::for_workload(workload, &lake)
    });
    let session = pass
        .tracer
        .span("session.build", setup, || build_session(lake, workload));

    let answers = pass.reads(&session, &index, &embedder)?;
    pass.writes_and_restart(&session, scratch)?;
    pass.wire(serve_bin, scratch, &answers)?;
    pass.finish(trace_path)
}
