//! The JSONL server over a resident [`LakeSession`]: one request line in,
//! one response line out, from stdin or from many TCP clients through the
//! worker pool ([`crate::pool`]). The `serve` binary is flag parsing and a
//! stdin loop around this module.
//!
//! ## Protocol
//!
//! A request line is parsed once into a typed request. Read requests name
//! a lake query or table (`query`) or carry one inline (`csv`, optional
//! `name`); `k` defaults to 10 and `mode` to `"diverse"` (Algorithm 1) or
//! `"similar"` (nearest lake tuples from the resident embeddings, the
//! Sec. 6.5 retrieval shape). `{"queries": [names…], "k": 5}` runs a
//! diverse batch through `query_batch`; a batch naming more than
//! [`MAX_BATCH`] (64) queries answers `too_large` before any query runs.
//! The other modes are
//!
//! ```text
//! {"id":"m1","mode":"add_table","name":"parks_new","csv":"Park Name,Country\nDelta Park,USA"}
//! {"id":"m2","mode":"remove_table","table":"parks_new"}
//! {"mode":"checkpoint"}   {"mode":"stats"}   {"mode":"shutdown"}
//! ```
//!
//! Every answer is one envelope: `{"id":…}` (the request's `id`, echoed),
//! then `k`, `generation`, `result` or `batch`, and `secs`, each only where
//! the mode has it. A failure is `{"id":…,"kind":…,"error":…}`: clients
//! branch on the stable `kind` (`bad_request`, `not_found`, `table`,
//! `generation_evicted`, `too_large`, `panic`, a persistence kind such as
//! `io` or `corrupt`, and the pool's `overloaded` and `line_too_long`), humans read
//! `error`. Checks run in a fixed order — `k`, then `queries`, then the
//! non-read modes, then the pinned generation, the query source and the
//! mode — so a line with several faults always names the same one.
//!
//! ## Generations
//!
//! Reads run against immutable generation snapshots and never block on a
//! mutation. The `generation` in a read answer names the lake version that
//! produced it (a batch runs entirely within one), and a read carrying
//! `{"generation": g}` is served from that generation while it is the
//! current one or among the last `history` published ones; past that
//! window it answers `generation_evicted`. A panicking batch worker
//! degrades to a `kind:"panic"` slot; everything else keeps serving.
//!
//! ## Mutations and durability
//!
//! `add_table` / `remove_table` are incremental per-table deltas, bit-
//! identical to a rebuild (`tests/session_mutation.rs`); a duplicate add
//! or a missing remove answers `kind:"table"`. With a snapshot directory
//! the session is durable: startup recovers it (snapshot + WAL replay; a
//! corrupt or version-skewed one is logged and rebuilt from the lake), and
//! every mutation is appended to the fsynced WAL before it is published
//! (a failed append answers its error and publishes nothing). One
//! durability lock covers prepare + append + publish + automatic
//! checkpoint, so WAL LSNs equal generations under concurrent mutators.
//! `checkpoint` answers the new `epoch`, the `pack_epoch` whose
//! table pack it indexes and the `checkpoint_bytes` it wrote; `stats`
//! reports the lake, the history window, the pool counters (`null` off
//! TCP) and the WAL (`null` without a directory). `shutdown` stops every
//! serve loop; the caller then runs [`shutdown_checkpoint`].

use crate::json::{self, JsonValue};
use crate::pool::{self, PoolCounters, PoolOptions};
use crate::setup::Scale;
use dust_core::persist::WalOp;
use dust_core::sync::{Before, LockToken, OrderedMutex, Unlocked};
use dust_core::{
    DustResult, LakeSession, PersistError, PipelineConfig, RankedTuple, SearchTechnique,
    SessionOptions, SessionView, SnapshotStore, StoreOptions, TupleEmbedderKind,
};
use dust_datagen::BenchmarkConfig;
use dust_embed::{FineTuneConfig, PretrainedModel};
use dust_table::{parse_csv, CsvOptions, DataLake, Table, TableError};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The most queries one `{"queries": […]}` batch may name; a longer one
/// answers `too_large` before any query runs.
pub const MAX_BATCH: usize = 64;

/// How to build and serve a session (the `serve` binary's flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Generated lake: `tiny`, `santos` or `ugen` (ignored with `lake_dir`).
    pub benchmark: String,
    /// Load every `*.csv` file of this directory as a lake table.
    pub lake_dir: Option<String>,
    /// Table-search technique.
    pub search: SearchTechnique,
    /// Train the DUST model at startup instead of serving pre-trained
    /// embeddings.
    pub finetune: bool,
    /// Pinnable generations retained.
    pub history: usize,
    /// Durable session: recover on start, WAL on mutation.
    pub snapshot_dir: Option<String>,
    /// Automatic checkpoint thresholds.
    pub store: StoreOptions,
    /// The worker pool, when serving TCP (`None` on stdio).
    pub pool: Option<PoolOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            benchmark: "tiny".to_string(),
            lake_dir: None,
            search: SearchTechnique::Overlap,
            finetune: false,
            history: SessionOptions::default().history,
            snapshot_dir: None,
            store: StoreOptions::default(),
            pool: None,
        }
    }
}

impl ServeOptions {
    fn pipeline_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig {
            search: self.search,
            ..PipelineConfig::fast()
        };
        if self.finetune {
            config.embedder = TupleEmbedderKind::FineTuned {
                backbone: PretrainedModel::Roberta,
                config: FineTuneConfig {
                    max_epochs: 15,
                    patience: 3,
                    ..FineTuneConfig::default()
                },
                training_pairs: 150,
            };
        }
        config
    }
}

/// The durability lock's level: outermost in [`dust_core::sync`]'s order.
/// The session's own locks nest inside it by the crate graph — every
/// `LakeSession` method locks from a root token of its own.
#[derive(Debug)]
enum Durability {}

impl Before<Durability> for Unlocked {}

/// The shared serving state: the resident session (queries take `&self`
/// and never block on mutations) plus the durable store when there is
/// one. One instance serves every connection.
pub struct ServerState {
    /// The resident session.
    pub session: LakeSession,
    /// The durability lock: held across prepare + WAL append + publish
    /// (+ automatic checkpoint) so record LSNs equal session generations.
    /// Reads never take it.
    durable: OrderedMutex<Durability, Option<SnapshotStore>>,
    /// Set by `{"mode":"shutdown"}`; every serve loop polls it.
    shutdown: AtomicBool,
    /// Worker-pool counters, reported by `stats` (all zero on stdio).
    pool: PoolCounters,
    /// The pool's shape when serving TCP; `stats` reports `"server":null`
    /// without it.
    serving: Option<PoolOptions>,
}

impl ServerState {
    /// Serve `session`, durably when `store` is given, through a worker
    /// pool of `serving`'s shape when serving TCP.
    pub fn new(
        session: LakeSession,
        store: Option<SnapshotStore>,
        serving: Option<PoolOptions>,
    ) -> ServerState {
        ServerState {
            session,
            durable: OrderedMutex::new(store),
            shutdown: AtomicBool::new(false),
            pool: PoolCounters::default(),
            serving,
        }
    }

    /// Whether a `shutdown` request has been answered.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Build the serving state: recover from the snapshot directory when it
/// holds a valid snapshot, otherwise build from the lake (and persist the
/// fresh build when a directory is configured). A corrupt snapshot is
/// reported and replaced — a slower start, never different answers.
pub fn build_state(options: &ServeOptions) -> Result<ServerState, String> {
    let Some(dir) = &options.snapshot_dir else {
        return Ok(ServerState::new(
            build_session(options)?,
            None,
            options.pool,
        ));
    };
    let dir = Path::new(dir);
    match SnapshotStore::open_with(dir, options.store) {
        Ok((store, session, report)) => {
            eprintln!(
                "serve: recovered snapshot {} (generation {}, {} WAL record(s) replayed{})",
                dir.display(),
                report.snapshot_generation,
                report.replayed,
                if report.dropped_torn_tail {
                    ", torn tail dropped"
                } else {
                    ""
                }
            );
            // The history depth is not persisted: the restored ring starts
            // empty and fills from here.
            session.set_history_depth(options.history);
            return Ok(ServerState::new(session, Some(store), options.pool));
        }
        Err(e @ PersistError::NoSnapshot { .. }) => eprintln!("serve: {e}; building from the lake"),
        Err(e) => eprintln!(
            "serve: snapshot unusable (kind: {}): {e}; rebuilding from the lake",
            e.kind()
        ),
    }
    let session = build_session(options)?;
    let store = SnapshotStore::create_with(dir, &session, options.store)
        .map_err(|e| format!("cannot persist fresh session to {}: {e}", dir.display()))?;
    eprintln!("serve: fresh snapshot written to {}", dir.display());
    Ok(ServerState::new(session, Some(store), options.pool))
}

fn build_session(options: &ServeOptions) -> Result<LakeSession, String> {
    let lake = match &options.lake_dir {
        Some(dir) => load_lake_dir(dir)?,
        None => generate_lake(&options.benchmark)?,
    };
    eprintln!(
        "serve: lake {:?}: {} tables, {} queries",
        lake.name(),
        lake.num_tables(),
        lake.num_queries()
    );
    Ok(LakeSession::with_options(
        lake,
        options.pipeline_config(),
        SessionOptions {
            history: options.history,
        },
    ))
}

fn generate_lake(benchmark: &str) -> Result<DataLake, String> {
    let config = match benchmark {
        "tiny" => BenchmarkConfig::tiny(),
        "santos" => Scale::Small.santos_config(),
        "ugen" => Scale::Small.ugen_config(),
        other => return Err(format!("unknown benchmark {other:?} (tiny|santos|ugen)")),
    };
    Ok(config.generate().lake)
}

/// Load every `*.csv` file in a directory as one lake table (file stem =
/// table name).
fn load_lake_dir(dir: &str) -> Result<DataLake, String> {
    // a fixed name: the lake's name is persisted, and snapshot bytes must
    // not depend on where the CSVs were loaded from
    let mut lake = DataLake::new("lake");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .csv files in {dir}"));
    }
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table")
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let table = parse_csv(name, &text, CsvOptions::default()).map_err(|e| format!("{e:?}"))?;
        lake.add_table(table).map_err(|e| format!("{e:?}"))?;
    }
    Ok(lake)
}

/// Serve TCP through the bounded worker pool, every connection sharing
/// `state`, until a `shutdown` request. Returns after every worker drained
/// its connections, so a [`shutdown_checkpoint`] after it sees every
/// acknowledged mutation.
pub fn serve_tcp(state: &ServerState, listener: TcpListener) -> Result<(), String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let options = state.serving.unwrap_or_default();
    eprintln!(
        "serve: listening on {addr} — one JSONL request per line, {} worker(s) multiplexing up \
         to {} connection(s); send {{\"mode\":\"shutdown\"}} to stop",
        options.workers, options.max_connections
    );
    let handler = |line: &str| handle_request(state, line);
    pool::run(&listener, &options, &state.pool, &state.shutdown, &handler)
        .map_err(|e| format!("worker pool failed: {e}"))?;
    eprintln!("serve: listener on {addr} shut down");
    Ok(())
}

/// Fold the WAL into a fresh checkpoint so the next recovery replays
/// nothing. A failure is logged, not fatal: the fsynced WAL stays
/// authoritative.
pub fn shutdown_checkpoint(state: &ServerState) {
    let mut root = LockToken::root();
    let (mut durable, _) = state.durable.lock(&mut root);
    let Some(store) = durable.as_mut().filter(|store| store.wal_records() > 0) else {
        return;
    };
    match store.checkpoint(&state.session) {
        Ok(()) => eprintln!(
            "serve: shutdown checkpoint → epoch {} at generation {}",
            store.epoch(),
            state.session.generation()
        ),
        Err(e) => eprintln!(
            "serve: shutdown checkpoint failed (kind: {}): {e} — WAL remains authoritative",
            e.kind()
        ),
    }
}

/// A failed request: a stable machine-readable `kind` and a message.
struct Failure {
    kind: &'static str,
    message: String,
}

fn fail(kind: &'static str, message: impl Into<String>) -> Failure {
    Failure {
        kind,
        message: message.into(),
    }
}

/// A mutation the lake rejects (duplicate add, missing remove).
impl From<TableError> for Failure {
    fn from(e: TableError) -> Failure {
        fail("table", e.to_string())
    }
}

fn bad(message: impl Into<String>) -> Failure {
    fail("bad_request", message)
}

/// Where a read request's query table comes from.
enum Source {
    /// A lake query or table, looked up in the pinned generation.
    Named(String),
    /// An inline CSV table.
    Inline(Table),
}

#[derive(Clone, Copy)]
enum ReadMode {
    Diverse,
    Similar,
}

/// One request line, parsed once. The checks the wire reports only after
/// the view is pinned (a query name's lookup comes first) are carried as
/// `Result`s and raised by the handler in that order.
enum Request {
    Batch {
        k: usize,
        generation: Option<u64>,
        /// Query names; `None` where the entry is not a string.
        names: Vec<Option<String>>,
    },
    Read {
        k: usize,
        generation: Option<u64>,
        source: Result<Source, Failure>,
        mode: Result<ReadMode, Failure>,
    },
    AddTable(Table),
    RemoveTable(String),
    Checkpoint,
    Stats,
    Shutdown,
}

impl Request {
    fn parse(request: &JsonValue) -> Result<Request, Failure> {
        let str_field = |key: &str| request.get(key).and_then(JsonValue::as_str);
        let k = match request.get("k") {
            None => 10,
            Some(v) => v
                .as_usize()
                .ok_or_else(|| bad("k must be a non-negative integer"))?,
        };
        let mode = str_field("mode").unwrap_or("diverse");
        let generation = || match request.get("generation") {
            None => Ok(None),
            Some(v) => v
                .as_usize()
                .map(|g| Some(g as u64))
                .ok_or_else(|| bad("generation must be a non-negative integer")),
        };
        let csv = |name: &str| {
            str_field("csv").map(|text| {
                parse_csv(name, text, CsvOptions::default())
                    .map_err(|e| bad(format!("bad csv: {e:?}")))
            })
        };
        if let Some(JsonValue::Array(names)) = request.get("queries") {
            // a non-diverse batch would silently answer diverse results
            if mode != "diverse" {
                return Err(bad(format!(
                    "batched requests only support mode \"diverse\" (got {mode:?})"
                )));
            }
            if names.len() > MAX_BATCH {
                return Err(fail(
                    "too_large",
                    format!(
                        "a batch names at most {MAX_BATCH} queries (got {})",
                        names.len()
                    ),
                ));
            }
            let names = names.iter().map(|n| n.as_str().map(String::from));
            return Ok(Request::Batch {
                k,
                generation: generation()?,
                names: names.collect(),
            });
        }
        match mode {
            "add_table" => {
                let name = str_field("name").ok_or_else(|| bad("add_table needs \"name\""))?;
                let table = csv(name).ok_or_else(|| bad("add_table needs \"csv\""))??;
                return Ok(Request::AddTable(table));
            }
            "remove_table" => {
                let table =
                    str_field("table").ok_or_else(|| bad("remove_table needs \"table\""))?;
                return Ok(Request::RemoveTable(table.to_string()));
            }
            "checkpoint" => return Ok(Request::Checkpoint),
            "stats" => return Ok(Request::Stats),
            "shutdown" => return Ok(Request::Shutdown),
            _ => {}
        }
        let generation = generation()?;
        let source = match str_field("query") {
            Some(name) => Ok(Source::Named(name.to_string())),
            None => match csv(str_field("name").unwrap_or("inline_query")) {
                Some(table) => table.map(Source::Inline),
                None => Err(bad("request needs \"query\", \"queries\", or \"csv\"")),
            },
        };
        let mode = match mode {
            "diverse" => Ok(ReadMode::Diverse),
            "similar" => Ok(ReadMode::Similar),
            other => Err(bad(format!("unknown mode {other:?}"))),
        };
        Ok(Request::Read {
            k,
            generation,
            source,
            mode,
        })
    }
}

/// A successful answer; [`render`] adds the `id` and writes the fields in
/// wire order, each only when present.
struct Reply {
    k: Option<usize>,
    generation: Option<u64>,
    /// `"result"` or `"batch"`.
    key: &'static str,
    body: String,
    secs: Option<f64>,
}

impl Reply {
    fn result(body: String) -> Reply {
        Reply {
            k: None,
            generation: None,
            key: "result",
            body,
            secs: None,
        }
    }

    fn read(k: usize, generation: u64, key: &'static str, body: String, start: Instant) -> Reply {
        Reply {
            k: Some(k),
            generation: Some(generation),
            key,
            body,
            secs: Some(start.elapsed().as_secs_f64()),
        }
    }

    fn timed(body: String, start: Instant) -> Reply {
        Reply {
            secs: Some(start.elapsed().as_secs_f64()),
            ..Reply::result(body)
        }
    }
}

/// The protocol's one encoder: the `{"id":…}` envelope around a reply or
/// a failure.
fn render(id: String, outcome: Result<Reply, Failure>) -> String {
    let id = json::escape(&id);
    let reply = match outcome {
        Ok(reply) => reply,
        Err(f) => {
            let message = json::escape(&f.message);
            return format!(
                "{{\"id\":\"{id}\",\"kind\":\"{}\",\"error\":\"{message}\"}}",
                f.kind
            );
        }
    };
    let k = reply.k.map(|k| format!(",\"k\":{k}"));
    let generation = reply.generation.map(|g| format!(",\"generation\":{g}"));
    let secs = reply.secs.map(|s| format!(",\"secs\":{}", json::number(s)));
    format!(
        "{{\"id\":\"{id}\"{}{},\"{}\":{}{}}}",
        k.unwrap_or_default(),
        generation.unwrap_or_default(),
        reply.key,
        reply.body,
        secs.unwrap_or_default()
    )
}

/// A failure line that answers no request (`id` empty): the pool's
/// `overloaded` and `line_too_long` rejections.
pub(crate) fn rejection(kind: &'static str, message: String) -> String {
    render(String::new(), Err(fail(kind, message)))
}

/// Answer one JSONL request line with one JSON response line. Takes the
/// state by `&`: any number of connections call it concurrently.
pub fn handle_request(state: &ServerState, line: &str) -> String {
    match json::parse(line) {
        Err(e) => render(String::new(), Err(bad(format!("bad request: {e}")))),
        Ok(request) => {
            let id = request.get("id").and_then(JsonValue::as_str);
            let id = id.unwrap_or_default().to_string();
            render(id, Request::parse(&request).and_then(|r| answer(state, r)))
        }
    }
}

/// Dispatch a parsed request to its mode's handler.
fn answer(state: &ServerState, request: Request) -> Result<Reply, Failure> {
    match request {
        Request::Batch {
            k,
            generation,
            names,
        } => batch(state, k, generation, &names),
        Request::Read {
            k,
            generation,
            source,
            mode,
        } => read(state, k, generation, source, mode),
        Request::AddTable(table) => mutate(state, WalOp::AddTable(Arc::new(table))),
        Request::RemoveTable(name) => mutate(state, WalOp::RemoveTable(name)),
        Request::Checkpoint => checkpoint(state),
        Request::Stats => Ok(stats(state)),
        Request::Shutdown => {
            // every serve loop polls the flag; the caller checkpoints after
            state.shutdown.store(true, Ordering::SeqCst);
            let generation = state.session.generation();
            Ok(Reply::result(format!(
                "{{\"shutdown\":true,\"generation\":{generation}}}"
            )))
        }
    }
}

/// A diverse batch, every slot answered from one pinned generation.
fn batch(
    state: &ServerState,
    k: usize,
    generation: Option<u64>,
    names: &[Option<String>],
) -> Result<Reply, Failure> {
    let view = pin(state, generation)?;
    let queries = names
        .iter()
        .map(|name| match name {
            Some(name) => resolve_query(&view, name),
            None => Err(bad("queries must be strings")),
        })
        .collect::<Result<Vec<Table>, Failure>>()?;
    let start = Instant::now();
    let slots: Vec<String> = view
        .query_batch(&queries, k)
        .iter()
        .map(|slot| match slot {
            Ok(result) => render_result(result),
            // a panicked worker fails its own slot only
            Err(e) => format!(
                "{{\"kind\":\"{}\",\"error\":\"{}\"}}",
                e.kind(),
                json::escape(&e.to_string())
            ),
        })
        .collect();
    let batch = format!("[{}]", slots.join(","));
    Ok(Reply::read(k, view.generation(), "batch", batch, start))
}

/// One diverse or similar read from the pinned generation.
fn read(
    state: &ServerState,
    k: usize,
    generation: Option<u64>,
    source: Result<Source, Failure>,
    mode: Result<ReadMode, Failure>,
) -> Result<Reply, Failure> {
    let view = pin(state, generation)?;
    let query = match source? {
        Source::Named(name) => resolve_query(&view, &name)?,
        Source::Inline(table) => table,
    };
    let start = Instant::now();
    let body = match mode? {
        ReadMode::Diverse => {
            let result = view.query(&query, k);
            render_result(&result.map_err(|e| fail("table", e.to_string()))?)
        }
        ReadMode::Similar => render_similar(&view.similar_tuples(&query, k)),
    };
    Ok(Reply::read(k, view.generation(), "result", body, start))
}

/// Snapshot the current generation (writing only the tables the pack does
/// not hold as they are) and truncate the WAL.
fn checkpoint(state: &ServerState) -> Result<Reply, Failure> {
    let mut root = LockToken::root();
    let (mut durable, _) = state.durable.lock(&mut root);
    let store = durable
        .as_mut()
        .ok_or_else(|| bad("checkpoint needs --snapshot-dir"))?;
    let start = Instant::now();
    store
        .checkpoint(&state.session)
        .map_err(|e| fail(e.kind(), e.to_string()))?;
    let body = format!(
        "{{\"checkpoint\":true,\"epoch\":{},\"pack_epoch\":{},\"checkpoint_bytes\":{},\
         \"generation\":{}}}",
        store.epoch(),
        store.pack_epoch(),
        store.last_checkpoint_bytes(),
        state.session.generation()
    );
    Ok(Reply::timed(body, start))
}

/// Apply one mutation under the durability lock, held across prepare + WAL
/// append + publish + automatic checkpoint so concurrent mutators serialize
/// and the fsynced record's LSN is the generation it publishes. A rejected
/// mutation is never logged, and one whose append fails is never published.
fn mutate(state: &ServerState, op: WalOp) -> Result<Reply, Failure> {
    let start = Instant::now();
    let (verb, name) = match &op {
        WalOp::AddTable(table) => ("added", table.name().to_string()),
        WalOp::RemoveTable(name) => ("removed", name.clone()),
    };
    let mut root = LockToken::root();
    let (mut durable, _) = state.durable.lock(&mut root);
    state
        .session
        .mutate(op, |op, generation| match durable.as_mut() {
            Some(store) => store
                .log_op(op, generation)
                .map_err(|e| fail(e.kind(), format!("not applied: {e}"))),
            None => Ok(()),
        })?;
    let body = format!(
        "{{\"{verb}\":\"{}\",\"tables\":{},\"generation\":{}}}",
        json::escape(&name),
        state.session.lake().num_tables(),
        state.session.generation()
    );
    if let Some(store) = durable.as_mut() {
        match store.maybe_checkpoint(&state.session) {
            Ok(true) => eprintln!(
                "serve: checkpoint → epoch {} at generation {}",
                store.epoch(),
                state.session.generation()
            ),
            Ok(false) => {}
            // the record is durable; a failed checkpoint only means
            // recovery replays more
            Err(e) => eprintln!("serve: checkpoint failed (kind: {}): {e}", e.kind()),
        }
    }
    Ok(Reply::timed(body, start))
}

/// One pinned view's resource picture: the lake, the history window, the
/// worker pool and the WAL since the last checkpoint.
fn stats(state: &ServerState) -> Reply {
    let view = state.session.view();
    let stats = view.stats();
    let wal = {
        let mut root = LockToken::root();
        let (durable, _) = state.durable.lock(&mut root);
        match durable.as_ref() {
            Some(store) => format!(
                "{{\"epoch\":{},\"pack_epoch\":{},\"records\":{},\"bytes_since_checkpoint\":{},\
                 \"checkpoint_bytes\":{}}}",
                store.epoch(),
                store.pack_epoch(),
                store.wal_records(),
                store.wal_bytes(),
                store.last_checkpoint_bytes()
            ),
            None => "null".to_string(),
        }
    };
    let (oldest, newest, retained) = state.session.history_window();
    let server = match state.serving {
        Some(PoolOptions {
            workers,
            max_connections,
        }) => {
            let counters = &state.pool;
            let read = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
            format!(
                "{{\"workers\":{workers},\"max_connections\":{max_connections},\
                 \"connections\":{},\"accepted\":{},\"rejected_overloaded\":{},\
                 \"lines_too_long\":{},\"served_lines\":{}}}",
                counters.active.load(Ordering::Relaxed),
                read(&counters.accepted),
                read(&counters.rejected_overloaded),
                read(&counters.lines_too_long),
                read(&counters.served_lines),
            )
        }
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"tables\":{},\"tuples\":{},\"columns\":{},\"history\":{{\"depth\":{},\
         \"retained\":{retained},\"oldest\":{oldest},\"newest\":{newest}}},\"server\":{server},\
         \"wal\":{wal}}}",
        stats.tables,
        stats.tuples,
        stats.columns,
        state.session.history_depth()
    );
    Reply {
        generation: Some(view.generation()),
        ..Reply::result(body)
    }
}

/// The view a read runs against: the current generation, or the requested
/// one from the history window (`generation_evicted` past it).
fn pin(state: &ServerState, generation: Option<u64>) -> Result<SessionView<'_>, Failure> {
    match generation {
        None => Ok(state.session.view()),
        Some(g) => state
            .session
            .view_at(g)
            .map_err(|e| fail(e.kind(), e.to_string())),
    }
}

fn resolve_query(view: &SessionView<'_>, name: &str) -> Result<Table, Failure> {
    let lake = view.lake();
    lake.query(name)
        .or_else(|_| lake.table(name))
        .cloned()
        .map_err(|_| {
            fail(
                "not_found",
                format!("no lake query or table named {name:?}"),
            )
        })
}

/// A `DustResult` as a JSON object (tuples as cell-string arrays).
fn render_result(result: &DustResult) -> String {
    let tuples: Vec<String> = result
        .tuples
        .iter()
        .map(|t| {
            let cells: Vec<String> = t
                .headers()
                .iter()
                .map(|header| {
                    let value = t.value_for(header);
                    value.map(|v| v.render().to_string()).unwrap_or_default()
                })
                .collect();
            json::string_array(cells.iter().map(String::as_str))
        })
        .collect();
    format!(
        "{{\"tables\":{},\"dropped\":{},\"candidates\":{},\"tuples\":[{}],\
         \"avg_diversity\":{},\"min_diversity\":{}}}",
        json::string_array(result.retrieved_tables.iter().map(String::as_str)),
        json::string_array(result.dropped_tables.iter().map(String::as_str)),
        result.candidate_tuples,
        tuples.join(","),
        json::number(result.diversity.average),
        json::number(result.diversity.minimum)
    )
}

fn render_similar(ranked: &[RankedTuple]) -> String {
    let items: Vec<String> = ranked
        .iter()
        .map(|r| {
            format!(
                "{{\"table\":\"{}\",\"row\":{},\"score\":{}}}",
                json::escape(&r.table),
                r.row,
                json::number(r.score)
            )
        })
        .collect();
    format!("{{\"similar\":[{}]}}", items.join(","))
}
