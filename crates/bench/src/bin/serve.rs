//! `serve` — the zero-to-server demo of the resident [`LakeSession`] layer.
//!
//! Builds a session over a data lake **once** (pre-embedded tables, warm
//! candidate indexes, one shared tuple model), then answers JSONL requests
//! with JSONL responses — from stdin (or a file) on stdout, or from many
//! concurrent TCP clients with `--listen`. Logs go to stderr so the
//! response stream stays machine-readable:
//!
//! ```sh
//! # diverse-tuple queries against a generated benchmark lake
//! printf '%s\n' \
//!   '{"id":"q1","query":"<lake query name>","k":5}' \
//!   '{"id":"q2","csv":"Park Name,Country\nRiver Park,USA","k":3}' \
//!   | cargo run --release -p dust-bench --bin serve -- --benchmark tiny
//!
//! # multi-client TCP server on port 7777
//! cargo run --release -p dust-bench --bin serve -- --benchmark tiny --listen 127.0.0.1:7777
//! ```
//!
//! Request fields: `query` (name of a lake query table) **or** `csv` (an
//! inline CSV table); optional `id` (echoed back), `k` (default 10),
//! `mode` (`"diverse"` — full Algorithm 1, the default — or `"similar"` —
//! nearest lake tuples from the resident embeddings, the Sec. 6.5 retrieval
//! shape). Batched requests: `{"queries": ["name1", "name2"], "k": 5}`
//! runs the whole array through `query_batch` in one go. Error responses
//! keep the request `id` and carry a stable machine-readable `kind`
//! (`bad_request`, `not_found`, `table`, `panic`, or a persistence kind
//! such as `io`/`corrupt`) next to the human-readable `error` message.
//!
//! ## Concurrency and the `generation` token
//!
//! The session serves reads and mutations concurrently: queries run
//! against immutable generation snapshots and **never block** on an
//! in-flight mutation (mutations serialize against each other only). The
//! `generation` echoed in every response is a real consistency token — it
//! names the exact lake version that produced the result, pinned for the
//! whole request (a batch runs entirely within one generation). A request
//! that panics inside a worker degrades to a per-slot `kind:"panic"`
//! error; the session, the batch's other slots, and every other
//! connection keep serving.
//!
//! The token also works in the other direction: a query/similar/batch
//! request carrying `{"generation": g}` is served from that **pinned**
//! generation, as long as it is the current one or among the last
//! `--history` published ones (default 8; near-free to retain thanks to
//! structural sharing). Reconnecting clients thus get repeatable reads
//! across requests and connections. A generation outside the window
//! answers with a typed `kind:"generation_evicted"` error naming the
//! retained window.
//!
//! With `--listen ADDR` the server speaks the same JSONL protocol over
//! TCP through a **bounded worker pool**: `--workers K` (default 4)
//! threads multiplex up to `--max-connections N` (default 256)
//! nonblocking sockets, each with its own read/write buffers — no
//! per-connection thread, no unbounded spawn. A connection over the cap
//! is told so with a typed `kind:"overloaded"` line and closed; a request
//! line over 1 MiB is dropped with `kind:"line_too_long"` (the connection
//! survives, input is skipped to the next newline). `{"mode":"shutdown"}`
//! (from any client, or stdin) stops the server gracefully: workers stop
//! accepting, every connection's pending responses drain, and a durable
//! session writes a final checkpoint so the next recovery replays
//! nothing.
//!
//! The lake can be mutated in place — incremental per-table deltas, no
//! session rebuild (results stay bit-identical to a rebuild; see
//! `tests/session_mutation.rs`):
//!
//! ```text
//! {"id":"m1","mode":"add_table","name":"parks_new","csv":"Park Name,Country\nDelta Park,USA"}
//! {"id":"m2","mode":"remove_table","table":"parks_new"}
//! ```
//!
//! Mutation responses echo the mutated table, the new lake size, and the
//! session generation (the count of successful mutations). A duplicate
//! `add_table` name is an error (remove first to replace), matching the
//! lake's pinned duplicate semantics.
//!
//! With `--snapshot-dir DIR` the session is **durable**: on startup an
//! existing snapshot is recovered (snapshot load + WAL replay — no
//! re-embedding, no retraining) and every acknowledged mutation is
//! appended to the fsynced WAL before the response is written (one
//! durability lock covers apply + append, so WAL LSNs always equal
//! generations even under concurrent mutating clients). A corrupt or
//! version-skewed snapshot degrades gracefully: the error is logged with
//! its kind and the session is rebuilt from the lake, then re-persisted.
//! `{"mode":"checkpoint"}` forces a checkpoint + WAL truncation on demand
//! and answers the new `epoch`, the `pack_epoch` whose table pack it
//! indexes, and the `checkpoint_bytes` it wrote (only the tables the pack
//! does not hold as they are, unless it wrote a new pack);
//! `--checkpoint-after N` sets the automatic record-count
//! threshold (default 64 records) and `--checkpoint-bytes N` the
//! byte-size threshold (default 64 MiB of WAL since the last checkpoint)
//! — whichever trips first wins, so a burst of huge `add_table` payloads
//! compacts long before the record counter would fire.
//!
//! `{"mode":"stats"}` is the operability probe: it reports the pinned
//! generation, lake-wide `tables`/`tuples`/`columns` counts, the
//! generation-history window (`depth`/`retained`/`oldest`/`newest`),
//! the worker-pool counters for a TCP server (`workers`, live
//! `connections`, `accepted`, `rejected_overloaded`, `lines_too_long`;
//! `"server":null` on the stdio path), and — for a durable session — the
//! WAL epoch, the pack epoch, record count, bytes accumulated since the
//! last checkpoint and bytes that checkpoint wrote (`"wal":null`
//! otherwise).
//!
//! Flags: `--benchmark tiny|santos|ugen` (generated lake, default tiny),
//! `--lake-dir <dir>` (load every `*.csv` file as a lake table),
//! `--search overlap|d3l|starmie`, `--finetune` (train the DUST model at
//! startup instead of serving pre-trained embeddings),
//! `--listen ADDR` (TCP worker-pool mode; takes precedence over
//! stdin/`--requests`), `--workers K`, `--max-connections N`,
//! `--history N` (pinnable generations retained), `--snapshot-dir <dir>`
//! (durable session: recover on start, WAL on mutation),
//! `--checkpoint-after N`, `--checkpoint-bytes N`, `--requests
//! <file>` (read JSONL from a file instead of stdin), `--selftest` (build
//! a tiny lake, run built-in requests including a save → drop → recover →
//! re-query cycle and a concurrent worker-pool TCP round-trip with more
//! clients than workers, verify, exit).
//!
//! [`LakeSession`]: dust_core::LakeSession

#![forbid(unsafe_code)]

use dust_bench::json::{self, JsonValue};
use dust_bench::pool::{self, PoolCounters, PoolOptions};
use dust_bench::setup::Scale;
use dust_core::{
    DustResult, LakeSession, PersistError, PipelineConfig, SearchTechnique, SessionView,
    SnapshotStore, StoreOptions, TupleEmbedderKind,
};
use dust_datagen::BenchmarkConfig;
use dust_embed::{FineTuneConfig, PretrainedModel};
use dust_table::{parse_csv, CsvOptions, DataLake, Table};
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Give up on a broken stdin after this many read failures in a row (a
/// single bad line must not kill the server; a permanently dead pipe
/// should not spin forever either).
const MAX_CONSECUTIVE_READ_ERRORS: usize = 16;

/// Per-connection cap on one request line (newline exclusive). A client
/// streaming bytes without a newline is answered `kind:"line_too_long"`
/// when its partial line passes this, and the line is dropped — the
/// server's memory stays bounded no matter how slowly the bytes trickle.
const MAX_LINE_BYTES: usize = 1 << 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&args) {
        eprintln!("serve: {message}");
        std::process::exit(1);
    }
}

/// The shared serving state: the resident session (internally concurrent —
/// queries take `&self` and never block on mutations) plus, when
/// `--snapshot-dir` is given, the durable store whose WAL trails every
/// acknowledged mutation. One instance serves every connection.
struct ServerState {
    session: LakeSession,
    /// The durable store, guarded by the *durability lock*: held across
    /// apply + WAL append (+ auto-checkpoint) so record LSNs always equal
    /// session generations, even with concurrent mutating clients. Read
    /// requests never touch it.
    durable: Mutex<Option<SnapshotStore>>,
    /// Set by `{"mode":"shutdown"}`; every serve loop polls it.
    shutdown: AtomicBool,
    /// Worker-pool observability counters, surfaced by `{"mode":"stats"}`.
    /// All-zero on the stdio path.
    pool: PoolCounters,
    /// `(workers, max_connections)` when serving TCP; `None` on the stdio
    /// path (stats then reports `"server":null`). Set once before serving
    /// starts.
    serving: Option<(usize, usize)>,
}

impl ServerState {
    fn new(session: LakeSession, store: Option<SnapshotStore>) -> ServerState {
        ServerState {
            session,
            durable: Mutex::new(store),
            shutdown: AtomicBool::new(false),
            pool: PoolCounters::default(),
            serving: None,
        }
    }
}

/// A request failure: the echoed request `id`, a stable machine-readable
/// `kind`, and a human-readable message. Rendered as
/// `{"id":..,"kind":..,"error":..}` — clients branch on `kind`, humans
/// read `error`.
struct ServeError {
    id: String,
    kind: &'static str,
    message: String,
}

fn run(args: &[String]) -> Result<(), String> {
    let options = CliOptions::parse(args)?;
    if options.selftest {
        return selftest(&options);
    }

    let mut state = build_state(&options)?;
    if options.listen.is_some() {
        state.serving = Some((options.workers, options.max_connections));
    }
    let state = Arc::new(state);
    let stats = state.session.stats();
    eprintln!(
        "serve: session ready in {:.2}s — {} tuples resident across {} tables \
         (tuple dim {}), {} columns, search = {}, generation {}",
        stats.build_secs,
        stats.tuples,
        stats.tables,
        stats.tuple_dim,
        stats.columns,
        state.session.config().search.name(),
        state.session.generation(),
    );

    if let Some(addr) = &options.listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        serve_tcp(&state, listener)?;
    } else {
        serve_stdio(&state, &options)?;
    }
    shutdown_checkpoint(&state);
    Ok(())
}

/// The stdin / `--requests`-file serve loop. A single unreadable line is
/// logged and skipped — the loop keeps serving (bounded by
/// [`MAX_CONSECUTIVE_READ_ERRORS`] so a permanently dead pipe still
/// terminates). `{"mode":"shutdown"}` ends the loop gracefully.
fn serve_stdio(state: &ServerState, options: &CliOptions) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut served = 0usize;
    let emit = |line: &str, out: &mut dyn Write| -> Result<bool, String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(false);
        }
        let response = handle_request(state, trimmed);
        writeln!(out, "{response}")
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
        Ok(true)
    };
    match &options.requests {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            for line in text.lines() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if emit(line, &mut out)? {
                    served += 1;
                }
            }
        }
        None => {
            let stdin = std::io::stdin();
            let mut lines = stdin.lock().lines();
            let mut consecutive_read_errors = 0usize;
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match lines.next() {
                    None => break,
                    Some(Ok(line)) => {
                        consecutive_read_errors = 0;
                        if emit(&line, &mut out)? {
                            served += 1;
                        }
                    }
                    Some(Err(e)) => {
                        consecutive_read_errors += 1;
                        eprintln!("serve: dropped unreadable stdin line ({e}); still serving");
                        if consecutive_read_errors >= MAX_CONSECUTIVE_READ_ERRORS {
                            eprintln!(
                                "serve: {consecutive_read_errors} consecutive stdin read \
                                 failures; stopping"
                            );
                            break;
                        }
                    }
                }
            }
        }
    }
    eprintln!("serve: {served} request(s) served");
    Ok(())
}

/// The TCP serve mode: a bounded worker pool multiplexing nonblocking
/// connections (see [`dust_bench::pool`]), all sharing one
/// [`ServerState`]. Worker 0 folds `accept` into its poll cycle — no
/// dedicated accept thread, no fixed accept-retry sleep — and the pool's
/// adaptive back-off keeps both idle CPU and connect latency low.
/// Returns only after every worker drained its connections (that is what
/// makes the post-loop checkpoint safe).
fn serve_tcp(state: &Arc<ServerState>, listener: TcpListener) -> Result<(), String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (workers, max_connections) = state.serving.unwrap_or((4, 256));
    eprintln!(
        "serve: listening on {addr} — one JSONL request per line, {workers} worker(s) \
         multiplexing up to {max_connections} connection(s); send {{\"mode\":\"shutdown\"}} to stop"
    );
    let pool_options = PoolOptions {
        workers,
        max_connections,
        max_line_bytes: MAX_LINE_BYTES,
        overloaded_line: format!(
            "{{\"id\":\"\",\"kind\":\"overloaded\",\"error\":\"server at capacity \
             ({max_connections} connections); retry later\"}}"
        ),
        line_too_long_line: format!(
            "{{\"id\":\"\",\"kind\":\"line_too_long\",\"error\":\"request line exceeded \
             {MAX_LINE_BYTES} bytes and was dropped\"}}"
        ),
        ..PoolOptions::default()
    };
    let handler = |line: &str| handle_request(state, line);
    pool::run(
        &listener,
        &pool_options,
        &state.pool,
        &state.shutdown,
        &handler,
    )
    .map_err(|e| format!("worker pool failed: {e}"))?;
    eprintln!("serve: listener on {addr} shut down");
    Ok(())
}

/// Graceful-shutdown hook: fold the WAL into a fresh checkpoint so the
/// next recovery replays nothing. A failure is logged, not fatal — the
/// fsynced WAL remains authoritative either way.
fn shutdown_checkpoint(state: &ServerState) {
    // dust-lint: lock(durability)
    let mut durable = state.durable.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(store) = durable.as_mut() {
        if store.wal_records() == 0 {
            return;
        }
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
}

/// Build the serving state: recover from the snapshot directory when one
/// is configured and holds a valid snapshot, otherwise build from the lake
/// (and persist the fresh build when a directory is configured). A corrupt
/// snapshot is reported and *replaced* — degraded startup cost, never
/// degraded answers.
fn build_state(options: &CliOptions) -> Result<ServerState, String> {
    if let Some(dir) = &options.snapshot_dir {
        let dir = Path::new(dir);
        match SnapshotStore::open_with(dir, options.store_options()) {
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
                // History depth is a serving-time knob, not persisted:
                // apply the flag to the restored session (its ring starts
                // empty — pinnable generations accumulate from here).
                session.set_history_depth(options.history);
                return Ok(ServerState::new(session, Some(store)));
            }
            Err(e @ PersistError::NoSnapshot { .. }) => {
                eprintln!("serve: {e}; building from the lake");
            }
            Err(e) => {
                eprintln!(
                    "serve: snapshot unusable (kind: {}): {e}; rebuilding from the lake",
                    e.kind()
                );
            }
        }
        let session = build_session(options)?;
        let store = SnapshotStore::create_with(dir, &session, options.store_options())
            .map_err(|e| format!("cannot persist fresh session to {}: {e}", dir.display()))?;
        eprintln!("serve: fresh snapshot written to {}", dir.display());
        Ok(ServerState::new(session, Some(store)))
    } else {
        Ok(ServerState::new(build_session(options)?, None))
    }
}

fn build_session(options: &CliOptions) -> Result<LakeSession, String> {
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
        dust_core::SessionOptions {
            history: options.history,
        },
    ))
}

struct CliOptions {
    benchmark: String,
    lake_dir: Option<String>,
    search: SearchTechnique,
    finetune: bool,
    listen: Option<String>,
    workers: usize,
    max_connections: usize,
    history: usize,
    snapshot_dir: Option<String>,
    checkpoint_after: usize,
    checkpoint_bytes: u64,
    requests: Option<String>,
    selftest: bool,
}

impl CliOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = CliOptions {
            benchmark: "tiny".to_string(),
            lake_dir: None,
            search: SearchTechnique::Overlap,
            finetune: false,
            listen: None,
            workers: 4,
            max_connections: 256,
            history: dust_core::SessionOptions::default().history,
            snapshot_dir: None,
            checkpoint_after: StoreOptions::default().checkpoint_after,
            checkpoint_bytes: StoreOptions::default().checkpoint_after_bytes,
            requests: None,
            selftest: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--benchmark" => options.benchmark = value("--benchmark")?,
                "--lake-dir" => options.lake_dir = Some(value("--lake-dir")?),
                "--search" => {
                    options.search = match value("--search")?.as_str() {
                        "overlap" => SearchTechnique::Overlap,
                        "d3l" => SearchTechnique::D3l,
                        "starmie" => SearchTechnique::Starmie,
                        other => return Err(format!("unknown search technique {other:?}")),
                    }
                }
                "--finetune" => options.finetune = true,
                "--listen" => options.listen = Some(value("--listen")?),
                "--workers" => {
                    options.workers = value("--workers")?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?
                        .max(1)
                }
                "--max-connections" => {
                    options.max_connections = value("--max-connections")?
                        .parse::<usize>()
                        .map_err(|e| format!("--max-connections: {e}"))?
                        .max(1)
                }
                "--history" => {
                    options.history = value("--history")?
                        .parse()
                        .map_err(|e| format!("--history: {e}"))?
                }
                "--snapshot-dir" => options.snapshot_dir = Some(value("--snapshot-dir")?),
                "--checkpoint-after" => {
                    options.checkpoint_after = value("--checkpoint-after")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-after: {e}"))?
                }
                "--checkpoint-bytes" => {
                    options.checkpoint_bytes = value("--checkpoint-bytes")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-bytes: {e}"))?
                }
                "--requests" => options.requests = Some(value("--requests")?),
                "--selftest" => options.selftest = true,
                "--help" | "-h" => {
                    return Err("see the module docs: serve [--benchmark tiny|santos|ugen] \
                                [--lake-dir DIR] [--search overlap|d3l|starmie] [--finetune] \
                                [--listen ADDR] [--workers K] \
                                [--max-connections N] [--history N] [--snapshot-dir DIR] \
                                [--checkpoint-after N] [--checkpoint-bytes N] \
                                [--requests FILE] [--selftest]"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(options)
    }

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

    fn store_options(&self) -> StoreOptions {
        StoreOptions {
            checkpoint_after: self.checkpoint_after,
            checkpoint_after_bytes: self.checkpoint_bytes,
        }
    }
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
    let mut lake = DataLake::new(dir.to_string());
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

/// Handle one JSONL request line; always returns one JSON response line.
/// Takes the state by `&` — any number of connections call this
/// concurrently.
fn handle_request(state: &ServerState, line: &str) -> String {
    match serve_line(state, line) {
        Ok(response) => response,
        Err(e) => format!(
            "{{\"id\":\"{}\",\"kind\":\"{}\",\"error\":\"{}\"}}",
            json::escape(&e.id),
            e.kind,
            json::escape(&e.message)
        ),
    }
}

fn serve_line(state: &ServerState, line: &str) -> Result<String, ServeError> {
    let request = json::parse(line).map_err(|e| ServeError {
        id: String::new(),
        kind: "bad_request",
        message: format!("bad request: {e}"),
    })?;
    let id = request
        .get("id")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    let fail = |kind: &'static str, message: String| ServeError {
        id: id.clone(),
        kind,
        message,
    };
    let bad = |message: String| fail("bad_request", message);
    let k = match request.get("k") {
        None => 10,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| bad("k must be a non-negative integer".to_string()))?,
    };

    let mode = request
        .get("mode")
        .and_then(JsonValue::as_str)
        .unwrap_or("diverse");

    // batched form: {"queries": [...], "k": ...} — the whole batch is
    // pinned to one generation snapshot, so every slot answers from the
    // same lake version and the echoed generation names it exactly
    if let Some(JsonValue::Array(names)) = request.get("queries") {
        // a non-default mode would be silently ignored here — reject it so
        // a client never misreads a diverse batch as similar-tuple results
        if mode != "diverse" {
            return Err(bad(format!(
                "batched requests only support mode \"diverse\" (got {mode:?})"
            )));
        }
        let view = pinned_view(state, &request, &id)?;
        let queries: Vec<Table> = names
            .iter()
            .map(|name| {
                let name = name
                    .as_str()
                    .ok_or_else(|| bad("queries must be strings".to_string()))?;
                resolve_query(view.lake(), name).map_err(|m| fail("not_found", m))
            })
            .collect::<Result<_, _>>()?;
        let start = Instant::now();
        let results = view.query_batch(&queries, k);
        let secs = start.elapsed().as_secs_f64();
        let rendered: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(result) => render_result(result),
                // a panicked worker shows up here as kind:"panic" in its
                // own slot; the rest of the batch served normally
                Err(e) => format!(
                    "{{\"kind\":\"{}\",\"error\":\"{}\"}}",
                    e.kind(),
                    json::escape(&e.to_string())
                ),
            })
            .collect();
        return Ok(format!(
            "{{\"id\":\"{}\",\"k\":{k},\"generation\":{},\"batch\":[{}],\"secs\":{}}}",
            json::escape(&id),
            view.generation(),
            rendered.join(","),
            json::number(secs)
        ));
    }

    // mutation modes: incremental per-table deltas on the resident session
    // (no rebuild; results afterwards are bit-identical to one). The
    // durability lock is held across apply + WAL append + auto-checkpoint:
    // concurrent mutating clients serialize here, so the fsynced record's
    // LSN always equals the generation the apply produced. Failed
    // mutations are never logged, acknowledged ones always are. Readers
    // are unaffected — they never take this lock.
    if mode == "add_table" || mode == "remove_table" {
        let start = Instant::now();
        // dust-lint: lock(durability)
        let mut durable = state.durable.lock().unwrap_or_else(|e| e.into_inner());
        let body = if mode == "add_table" {
            let name = request
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("add_table needs \"name\"".to_string()))?;
            let csv = request
                .get("csv")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("add_table needs \"csv\"".to_string()))?;
            let table = parse_csv(name, csv, CsvOptions::default())
                .map_err(|e| bad(format!("bad csv: {e:?}")))?;
            state
                .session
                .add_table(table.clone())
                .map_err(|e| fail("table", e.to_string()))?;
            if let Some(store) = durable.as_mut() {
                store
                    .log_add_table(&table, state.session.generation())
                    .map_err(|e| fail(e.kind(), format!("applied but not logged: {e}")))?;
            }
            format!(
                "{{\"added\":\"{}\",\"tables\":{},\"generation\":{}}}",
                json::escape(name),
                state.session.lake().num_tables(),
                state.session.generation()
            )
        } else {
            let name = request
                .get("table")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("remove_table needs \"table\"".to_string()))?
                .to_string();
            state
                .session
                .remove_table(&name)
                .map_err(|e| fail("table", e.to_string()))?;
            if let Some(store) = durable.as_mut() {
                store
                    .log_remove_table(&name, state.session.generation())
                    .map_err(|e| fail(e.kind(), format!("applied but not logged: {e}")))?;
            }
            format!(
                "{{\"removed\":\"{}\",\"tables\":{},\"generation\":{}}}",
                json::escape(&name),
                state.session.lake().num_tables(),
                state.session.generation()
            )
        };
        if let Some(store) = durable.as_mut() {
            match store.maybe_checkpoint(&state.session) {
                Ok(true) => eprintln!(
                    "serve: checkpoint → epoch {} at generation {}",
                    store.epoch(),
                    state.session.generation()
                ),
                Ok(false) => {}
                // the WAL record IS durable; a failed checkpoint only means
                // recovery replays more — log it, don't fail the request
                Err(e) => eprintln!("serve: checkpoint failed (kind: {}): {e}", e.kind()),
            }
        }
        let secs = start.elapsed().as_secs_f64();
        return Ok(format!(
            "{{\"id\":\"{}\",\"result\":{body},\"secs\":{}}}",
            json::escape(&id),
            json::number(secs)
        ));
    }

    // explicit checkpoint: snapshot the current generation (writing only
    // the tables the pack does not hold as they are) and truncate the WAL
    if mode == "checkpoint" {
        // dust-lint: lock(durability)
        let mut durable = state.durable.lock().unwrap_or_else(|e| e.into_inner());
        let store = durable
            .as_mut()
            .ok_or_else(|| bad("checkpoint needs --snapshot-dir".to_string()))?;
        let start = Instant::now();
        store
            .checkpoint(&state.session)
            .map_err(|e| fail(e.kind(), e.to_string()))?;
        let secs = start.elapsed().as_secs_f64();
        return Ok(format!(
            "{{\"id\":\"{}\",\"result\":{{\"checkpoint\":true,\"epoch\":{},\"pack_epoch\":{},\
             \"checkpoint_bytes\":{},\"generation\":{}}},\"secs\":{}}}",
            json::escape(&id),
            store.epoch(),
            store.pack_epoch(),
            store.last_checkpoint_bytes(),
            state.session.generation(),
            json::number(secs)
        ));
    }

    // graceful stop: every serve loop (stdin, accept, connections) polls
    // the flag; run() writes a final checkpoint after they drain
    if mode == "shutdown" {
        state.shutdown.store(true, Ordering::SeqCst);
        return Ok(format!(
            "{{\"id\":\"{}\",\"result\":{{\"shutdown\":true,\"generation\":{}}}}}",
            json::escape(&id),
            state.session.generation()
        ));
    }

    // operability probe: one pinned view's resource picture — resident
    // tables, tuples and columns, the generation it answers from, and how
    // much WAL has accumulated since the last checkpoint (null without
    // --snapshot-dir)
    if mode == "stats" {
        let view = state.session.view();
        let stats = view.stats();
        let wal = {
            // dust-lint: lock(durability)
            let durable = state.durable.lock().unwrap_or_else(|e| e.into_inner());
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
        let history = format!(
            "{{\"depth\":{},\"retained\":{retained},\"oldest\":{oldest},\"newest\":{newest}}}",
            state.session.history_depth()
        );
        let server = match state.serving {
            Some((workers, max_connections)) => {
                use std::sync::atomic::Ordering::Relaxed;
                format!(
                    "{{\"workers\":{workers},\"max_connections\":{max_connections},\
                     \"connections\":{},\"accepted\":{},\"rejected_overloaded\":{},\
                     \"lines_too_long\":{},\"served_lines\":{}}}",
                    state.pool.active.load(Relaxed),
                    state.pool.accepted.load(Relaxed),
                    state.pool.rejected_overloaded.load(Relaxed),
                    state.pool.lines_too_long.load(Relaxed),
                    state.pool.served_lines.load(Relaxed),
                )
            }
            None => "null".to_string(),
        };
        return Ok(format!(
            "{{\"id\":\"{}\",\"generation\":{},\"result\":{{\"tables\":{},\"tuples\":{},\"columns\":{},\"history\":{history},\"server\":{server},\"wal\":{wal}}}}}",
            json::escape(&id),
            view.generation(),
            stats.tables,
            stats.tuples,
            stats.columns,
        ));
    }

    // single query: by lake name or inline CSV, served from one pinned
    // generation (the one echoed in the response — either the current one
    // or the requested {"generation": g} from the history window)
    let view = pinned_view(state, &request, &id)?;
    let query = if let Some(name) = request.get("query").and_then(JsonValue::as_str) {
        resolve_query(view.lake(), name).map_err(|m| fail("not_found", m))?
    } else if let Some(csv) = request.get("csv").and_then(JsonValue::as_str) {
        let name = request
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("inline_query");
        parse_csv(name, csv, CsvOptions::default()).map_err(|e| bad(format!("bad csv: {e:?}")))?
    } else {
        return Err(bad(
            "request needs \"query\", \"queries\", or \"csv\"".to_string()
        ));
    };

    let start = Instant::now();
    let body = match mode {
        "diverse" => {
            let result = view
                .query(&query, k)
                .map_err(|e| fail("table", e.to_string()))?;
            render_result(&result)
        }
        "similar" => {
            let ranked = view.similar_tuples(&query, k);
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
        other => return Err(bad(format!("unknown mode {other:?}"))),
    };
    let secs = start.elapsed().as_secs_f64();
    Ok(format!(
        "{{\"id\":\"{}\",\"k\":{k},\"generation\":{},\"result\":{body},\"secs\":{}}}",
        json::escape(&id),
        view.generation(),
        json::number(secs)
    ))
}

/// The view a read request runs against: the current generation, or —
/// when the request carries `{"generation": g}` — that exact pinned
/// generation from the bounded history window. Past the window the typed
/// `generation_evicted` error names the retained range, so a reconnecting
/// client knows precisely why its token no longer serves.
fn pinned_view<'a>(
    state: &'a ServerState,
    request: &JsonValue,
    id: &str,
) -> Result<SessionView<'a>, ServeError> {
    let fail = |kind: &'static str, message: String| ServeError {
        id: id.to_string(),
        kind,
        message,
    };
    match request.get("generation") {
        None => Ok(state.session.view()),
        Some(value) => {
            let generation = value.as_usize().ok_or_else(|| {
                fail(
                    "bad_request",
                    "generation must be a non-negative integer".to_string(),
                )
            })?;
            state
                .session
                .view_at(generation as u64)
                .map_err(|e| fail(e.kind(), e.to_string()))
        }
    }
}

fn resolve_query(lake: &DataLake, name: &str) -> Result<Table, String> {
    lake.query(name)
        .or_else(|_| lake.table(name))
        .cloned()
        .map_err(|_| format!("no lake query or table named {name:?}"))
}

/// Render a `DustResult` as a JSON object (tuples as cell-string arrays).
fn render_result(result: &DustResult) -> String {
    let tuples: Vec<String> = result
        .tuples
        .iter()
        .map(|t| {
            let mut rendered: Vec<String> = Vec::with_capacity(t.headers().len());
            for header in t.headers() {
                let cell = t
                    .value_for(header)
                    .map(|v| v.render().to_string())
                    .unwrap_or_default();
                rendered.push(format!("\"{}\"", json::escape(&cell)));
            }
            format!("[{}]", rendered.join(","))
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

/// Build a tiny lake, serve built-in requests, verify the responses parse
/// and contain results, then run a full durability cycle (save → mutate
/// (WAL) → drop → recover → re-query) and a concurrent TCP round-trip
/// (parallel reading clients + a mutating client + graceful shutdown),
/// asserting recovered and TCP-served sessions answer identically. Used
/// by CI as the serving + recovery smoke test.
fn selftest(options: &CliOptions) -> Result<(), String> {
    let lake = BenchmarkConfig::tiny().generate().lake;
    let query_name = lake
        .query_names()
        .first()
        .cloned()
        .ok_or("tiny benchmark generated no queries")?;
    // an inline-CSV request built from a real query table, so alignment has
    // something to union (arbitrary CSV also works, it just may yield an
    // empty candidate pool on an unrelated lake)
    let inline_csv = dust_table::write_csv(
        lake.query(&query_name).map_err(|e| format!("{e:?}"))?,
        CsvOptions::default(),
    );
    let state = ServerState::new(LakeSession::new(lake, PipelineConfig::fast()), None);

    let requests = [
        format!("{{\"id\":\"one\",\"query\":\"{query_name}\",\"k\":5}}"),
        format!("{{\"id\":\"sim\",\"query\":\"{query_name}\",\"k\":3,\"mode\":\"similar\"}}"),
        format!("{{\"id\":\"batch\",\"queries\":[\"{query_name}\",\"{query_name}\"],\"k\":4}}"),
        format!(
            "{{\"id\":\"inline\",\"csv\":\"{}\",\"k\":2}}",
            json::escape(&inline_csv)
        ),
        "{\"id\":\"bad\",\"k\":1}".to_string(),
        format!(
            "{{\"id\":\"badmode\",\"queries\":[\"{query_name}\"],\"k\":2,\"mode\":\"similar\"}}"
        ),
        "{\"id\":\"nostore\",\"mode\":\"checkpoint\"}".to_string(),
        "{\"id\":\"stats\",\"mode\":\"stats\"}".to_string(),
    ];
    for request in &requests {
        let response = handle_request(&state, request);
        let parsed = json::parse(&response)
            .map_err(|e| format!("selftest: unparseable response {response:?}: {e}"))?;
        let id = parsed.get("id").and_then(JsonValue::as_str).unwrap_or("");
        match id {
            "one" | "inline" => {
                if parsed.get("generation").and_then(JsonValue::as_usize) != Some(0) {
                    return Err(format!("selftest: no generation in {response}"));
                }
                let tuples = parsed
                    .get("result")
                    .and_then(|r| r.get("tuples"))
                    .ok_or_else(|| format!("selftest: no tuples in {response}"))?;
                match tuples {
                    JsonValue::Array(items) if !items.is_empty() => {}
                    _ => return Err(format!("selftest: empty result for {id}: {response}")),
                }
            }
            "sim" => {
                if parsed
                    .get("result")
                    .and_then(|r| r.get("similar"))
                    .is_none()
                {
                    return Err(format!("selftest: no similar tuples: {response}"));
                }
            }
            "batch" => match parsed.get("batch") {
                Some(JsonValue::Array(items)) if items.len() == 2 => {}
                _ => return Err(format!("selftest: bad batch response: {response}")),
            },
            "stats" => {
                let result = parsed
                    .get("result")
                    .ok_or_else(|| format!("selftest: no result in {response}"))?;
                if result.get("wal") != Some(&JsonValue::Null) {
                    return Err(format!(
                        "selftest: wal must be null without --snapshot-dir: {response}"
                    ));
                }
                // history window counters: default depth, nothing retained
                // yet (no mutation has published a second generation)
                let history = result
                    .get("history")
                    .ok_or_else(|| format!("selftest: stats lack history: {response}"))?;
                let default_depth = dust_core::SessionOptions::default().history;
                if history.get("depth").and_then(JsonValue::as_usize) != Some(default_depth)
                    || history.get("retained").and_then(JsonValue::as_usize) != Some(0)
                {
                    return Err(format!(
                        "selftest: history stats must report depth {default_depth}, retained 0: \
                         {response}"
                    ));
                }
                // the stdio path serves no pool: server must be null
                if result.get("server") != Some(&JsonValue::Null) {
                    return Err(format!(
                        "selftest: server stats must be null off TCP: {response}"
                    ));
                }
            }
            "bad" | "badmode" | "nostore" => {
                if parsed.get("error").is_none() {
                    return Err(format!("selftest: bad request not rejected: {response}"));
                }
                if parsed.get("kind").and_then(JsonValue::as_str) != Some("bad_request") {
                    return Err(format!(
                        "selftest: error lacks kind=bad_request: {response}"
                    ));
                }
            }
            other => return Err(format!("selftest: unexpected id {other:?}")),
        }
    }

    // ---- mutation cycle: add → query → remove → query ---------------------
    // After the remove, the query result must be identical to the pre-add
    // one: the mutation deltas leave no residue (the same guarantee
    // tests/session_mutation.rs pins against a full rebuild).
    let query_request = format!("{{\"id\":\"cycle\",\"query\":\"{query_name}\",\"k\":5}}");
    let result_of = |response: &str| -> Result<JsonValue, String> {
        let parsed = json::parse(response)
            .map_err(|e| format!("selftest: unparseable response {response:?}: {e}"))?;
        if let Some(error) = parsed.get("error") {
            return Err(format!("selftest: unexpected error response: {error:?}"));
        }
        parsed
            .get("result")
            .cloned()
            .ok_or_else(|| format!("selftest: no result in {response}"))
    };
    let before = result_of(&handle_request(&state, &query_request))?;

    let mutations = [
        format!(
            "{{\"id\":\"grow\",\"mode\":\"add_table\",\"name\":\"selftest_added\",\"csv\":\"{}\"}}",
            json::escape(&inline_csv)
        ),
        "{\"id\":\"shrink\",\"mode\":\"remove_table\",\"table\":\"selftest_added\"}".to_string(),
    ];
    let generations = [1usize, 2];
    let mut at_generation_1 = None;
    for (request, expected_gen) in mutations.iter().zip(generations) {
        let response = handle_request(&state, request);
        let result = result_of(&response)?;
        let generation = result
            .get("generation")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| format!("selftest: no generation in {response}"))?;
        if generation != expected_gen {
            return Err(format!(
                "selftest: expected generation {expected_gen}, got {generation}: {response}"
            ));
        }
        if expected_gen == 1 {
            // the added table serves immediately
            let mid = result_of(&handle_request(&state, &query_request))?;
            if mid.get("tuples").is_none() {
                return Err(format!("selftest: no tuples after add: {mid:?}"));
            }
            at_generation_1 = Some(mid);
        }
    }
    let after = result_of(&handle_request(&state, &query_request))?;
    if before != after {
        return Err(format!(
            "selftest: post-remove result differs from pre-add result\n  before: {before:?}\n  after: {after:?}"
        ));
    }
    // ...and exactly the lake's rows stay resident
    let stats = result_of(&handle_request(
        &state,
        "{\"id\":\"rows\",\"mode\":\"stats\"}",
    ))?;
    let rows: usize = state.session.lake().tables().map(|t| t.num_rows()).sum();
    if stats.get("tuples").and_then(JsonValue::as_usize) != Some(rows) {
        return Err(format!(
            "selftest: stats must report the lake's {rows} tuples after the add/remove cycle: \
             {stats:?}"
        ));
    }

    // ---- pinned-generation reads ------------------------------------------
    // The history ring retains the displaced snapshots: a query carrying
    // {"generation": g} answers from exactly that lake version, so the
    // pre-add (generation 0) and mid-mutation (generation 1) results are
    // reproducible bit for bit even though the current generation is 2.
    for (generation, expected_pin) in [(0usize, &before), (1, at_generation_1.as_ref().unwrap())] {
        let pin_request = format!(
            "{{\"id\":\"pin{generation}\",\"query\":\"{query_name}\",\"k\":5,\
             \"generation\":{generation}}}"
        );
        let response = handle_request(&state, &pin_request);
        let parsed = json::parse(&response).map_err(|e| format!("selftest: {e}"))?;
        if parsed.get("generation").and_then(JsonValue::as_usize) != Some(generation) {
            return Err(format!(
                "selftest: pinned read did not echo generation {generation}: {response}"
            ));
        }
        let pinned = result_of(&response)?;
        if &pinned != expected_pin {
            return Err(format!(
                "selftest: pinned read at generation {generation} differs from the result \
                 served when that generation was current"
            ));
        }
    }
    // past the window (never published): the typed eviction error
    let evicted = handle_request(
        &state,
        &format!("{{\"id\":\"pinx\",\"query\":\"{query_name}\",\"k\":5,\"generation\":99}}"),
    );
    let parsed = json::parse(&evicted).map_err(|e| format!("selftest: {e}"))?;
    if parsed.get("kind").and_then(JsonValue::as_str) != Some("generation_evicted") {
        return Err(format!(
            "selftest: out-of-window pin must fail with kind=generation_evicted: {evicted}"
        ));
    }
    // duplicate add and missing remove are rejected without mutating
    let lake_table = state
        .session
        .lake()
        .table_names()
        .first()
        .cloned()
        .ok_or("selftest: lake has no tables")?;
    for bad in [
        format!(
            "{{\"id\":\"dup\",\"mode\":\"add_table\",\"name\":\"{lake_table}\",\"csv\":\"a\\n1\"}}"
        ),
        "{\"id\":\"ghost\",\"mode\":\"remove_table\",\"table\":\"selftest_added\"}".to_string(),
    ] {
        let response = handle_request(&state, &bad);
        let parsed = json::parse(&response).map_err(|e| format!("selftest: {e}"))?;
        if parsed.get("error").is_none() {
            return Err(format!("selftest: bad mutation not rejected: {response}"));
        }
        if parsed.get("kind").and_then(JsonValue::as_str) != Some("table") {
            return Err(format!(
                "selftest: mutation error lacks kind=table: {response}"
            ));
        }
    }

    // ---- durability cycle: save → mutate (WAL) → drop → recover -----------
    let snapshot_dir = options
        .snapshot_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("dust-serve-selftest-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let store = SnapshotStore::create(&snapshot_dir, &state.session)
        .map_err(|e| format!("selftest: save failed: {e}"))?;
    let created_bytes = store.last_checkpoint_bytes();
    // dust-lint: lock(durability)
    *state.durable.lock().unwrap_or_else(|e| e.into_inner()) = Some(store);
    // mutate through the server so the record lands in the WAL
    let regrow = format!(
        "{{\"id\":\"regrow\",\"mode\":\"add_table\",\"name\":\"selftest_saved\",\"csv\":\"{}\"}}",
        json::escape(&inline_csv)
    );
    result_of(&handle_request(&state, &regrow))?;
    let expected = result_of(&handle_request(&state, &query_request))?;
    let expected_generation = state.session.generation();

    // the stats probe on a durable session sees the un-checkpointed record
    let stats = result_of(&handle_request(
        &state,
        "{\"id\":\"ds\",\"mode\":\"stats\"}",
    ))?;
    let wal = stats
        .get("wal")
        .ok_or_else(|| format!("selftest: durable stats lack wal: {stats:?}"))?;
    if wal.get("records").and_then(JsonValue::as_usize) != Some(1)
        || wal
            .get("bytes_since_checkpoint")
            .and_then(JsonValue::as_usize)
            .unwrap_or(0)
            == 0
    {
        return Err(format!(
            "selftest: durable stats must report 1 WAL record and nonzero bytes: {stats:?}"
        ));
    }

    // drop the entire serving state; recover from disk alone (WAL replay)
    drop(state);
    let (store, session, report) = SnapshotStore::open(&snapshot_dir)
        .map_err(|e| format!("selftest: recovery failed: {e}"))?;
    if report.replayed != 1 || session.generation() != expected_generation {
        return Err(format!(
            "selftest: recovery replayed {} record(s) to generation {}, expected 1 → {expected_generation}",
            report.replayed,
            session.generation()
        ));
    }
    let state = ServerState::new(session, Some(store));
    let recovered = result_of(&handle_request(&state, &query_request))?;
    if recovered != expected {
        return Err(format!(
            "selftest: recovered session answers differently\n  expected: {expected:?}\n  recovered: {recovered:?}"
        ));
    }

    // checkpoint truncates the WAL; a second recovery replays nothing
    let checkpoint = result_of(&handle_request(
        &state,
        "{\"id\":\"ck\",\"mode\":\"checkpoint\"}",
    ))?;
    if checkpoint.get("epoch").and_then(JsonValue::as_usize) != Some(2) {
        return Err(format!(
            "selftest: checkpoint did not advance epoch: {checkpoint:?}"
        ));
    }
    // one added table: the pack of epoch 1 still holds every other table,
    // so the checkpoint writes that table inline and little else
    let written = checkpoint
        .get("checkpoint_bytes")
        .and_then(JsonValue::as_usize);
    if checkpoint.get("pack_epoch").and_then(JsonValue::as_usize) != Some(1)
        || written.is_none_or(|bytes| 2 * bytes as u64 >= created_bytes)
    {
        return Err(format!(
            "selftest: a checkpoint after one add must keep pack 1 and write under half \
             of create's {created_bytes} bytes: {checkpoint:?}"
        ));
    }
    let mut files: Vec<String> = std::fs::read_dir(&snapshot_dir)
        .and_then(|entries| {
            entries
                .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .map_err(|e| format!("selftest: cannot list {}: {e}", snapshot_dir.display()))?;
    files.sort();
    let named = [
        "MANIFEST",
        "seg-1-pack.bin",
        "seg-2-lake.bin",
        "seg-2-search.bin",
        "wal-2.log",
    ];
    if files != named {
        return Err(format!(
            "selftest: the snapshot directory must hold exactly the manifest's files {named:?}, \
             holds {files:?}"
        ));
    }
    drop(state);
    let (store, session, report) = SnapshotStore::open(&snapshot_dir)
        .map_err(|e| format!("selftest: post-checkpoint recovery failed: {e}"))?;
    if report.replayed != 0 || session.generation() != expected_generation {
        return Err(format!(
            "selftest: post-checkpoint recovery replayed {} record(s), expected 0",
            report.replayed
        ));
    }
    let state = ServerState::new(session, Some(store));
    let reread = result_of(&handle_request(&state, &query_request))?;
    if reread != expected {
        return Err("selftest: post-checkpoint recovery answers differently".to_string());
    }
    // the checkpoint truncated the WAL; the byte counter restarts at zero
    let stats = result_of(&handle_request(
        &state,
        "{\"id\":\"cs\",\"mode\":\"stats\"}",
    ))?;
    let wal = stats
        .get("wal")
        .ok_or_else(|| format!("selftest: post-checkpoint stats lack wal: {stats:?}"))?;
    if wal.get("records").and_then(JsonValue::as_usize) != Some(0)
        || wal
            .get("bytes_since_checkpoint")
            .and_then(JsonValue::as_usize)
            != Some(0)
    {
        return Err(format!(
            "selftest: post-checkpoint stats must report an empty WAL: {stats:?}"
        ));
    }

    // ---- concurrent TCP round-trip (worker pool) --------------------------
    // More parallel reading clients than pool workers + a mutating client
    // against one live TCP server, then a graceful shutdown whose final
    // checkpoint leaves the WAL empty. Readers assert the generation
    // token: any response at the starting generation must be bit-identical
    // to the stdin-served one.
    let (pool_workers, pool_cap) = (2usize, 64usize);
    let mut state = state;
    state.serving = Some((pool_workers, pool_cap));
    let state = Arc::new(state);
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("selftest: bind failed: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("selftest: {e}"))?;
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve_tcp(&state, listener))
    };
    let tcp_request = |request: &str| -> Result<JsonValue, String> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("selftest: connect failed: {e}"))?;
        writeln!(stream, "{request}").map_err(|e| format!("selftest: send failed: {e}"))?;
        let mut reader = std::io::BufReader::new(stream);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("selftest: recv failed: {e}"))?;
        json::parse(line.trim())
            .map_err(|e| format!("selftest: unparseable TCP response {line:?}: {e}"))
    };

    let base_generation = expected_generation as usize;
    let reading_clients = 6usize; // deliberately more clients than workers
    std::thread::scope(|scope| -> Result<(), String> {
        let mut clients = Vec::new();
        for client in 0..reading_clients {
            let tcp_request = &tcp_request;
            let query_request = &query_request;
            let expected = &expected;
            clients.push(scope.spawn(move || -> Result<(), String> {
                for round in 0..3usize {
                    let parsed = tcp_request(query_request)?;
                    if let Some(error) = parsed.get("error") {
                        return Err(format!(
                            "selftest: TCP client {client} round {round}: {error:?}"
                        ));
                    }
                    let generation = parsed
                        .get("generation")
                        .and_then(JsonValue::as_usize)
                        .ok_or("selftest: TCP response lacks generation")?;
                    let result = parsed
                        .get("result")
                        .ok_or("selftest: TCP response lacks result")?;
                    // the consistency token: at the starting generation the
                    // result must be bit-identical to the stdin-served one
                    if generation == base_generation && result != expected {
                        return Err(format!(
                            "selftest: TCP result at generation {generation} differs from the \
                             stdin-served one"
                        ));
                    }
                }
                Ok(())
            }));
        }
        // a mutating client interleaved with the readers
        let mutator = {
            let tcp_request = &tcp_request;
            let inline_csv = &inline_csv;
            scope.spawn(move || -> Result<(), String> {
                let add = format!(
                    "{{\"id\":\"tadd\",\"mode\":\"add_table\",\"name\":\"tcp_added\",\"csv\":\"{}\"}}",
                    json::escape(inline_csv)
                );
                for (request, label) in [
                    (add.as_str(), "add"),
                    (
                        "{\"id\":\"tdel\",\"mode\":\"remove_table\",\"table\":\"tcp_added\"}",
                        "remove",
                    ),
                ] {
                    let parsed = tcp_request(request)?;
                    if let Some(error) = parsed.get("error") {
                        return Err(format!("selftest: TCP {label} failed: {error:?}"));
                    }
                }
                Ok(())
            })
        };
        for client in clients {
            client
                .join()
                .map_err(|_| "selftest: TCP client panicked".to_string())??;
        }
        mutator
            .join()
            .map_err(|_| "selftest: TCP mutator panicked".to_string())??;
        Ok(())
    })?;

    // after add + remove the lake is back to the recovered content: the
    // query must answer identically, two generations later
    let settled = tcp_request(&query_request)?;
    if settled.get("generation").and_then(JsonValue::as_usize) != Some(base_generation + 2) {
        return Err(format!(
            "selftest: expected generation {} after the TCP mutation cycle, got {settled:?}",
            base_generation + 2
        ));
    }
    if settled.get("result") != Some(&expected) {
        return Err("selftest: post-TCP-mutation result differs".to_string());
    }

    // a pinned read over TCP: the pre-mutation generation still serves,
    // bit-identical, two generations later
    let pinned = tcp_request(&format!(
        "{{\"id\":\"tpin\",\"query\":\"{query_name}\",\"k\":5,\"generation\":{base_generation}}}"
    ))?;
    if pinned.get("generation").and_then(JsonValue::as_usize) != Some(base_generation)
        || pinned.get("result") != Some(&expected)
    {
        return Err(format!(
            "selftest: TCP pinned read at generation {base_generation} differs: {pinned:?}"
        ));
    }

    // the stats probe sees the pool: worker/connection/history counters
    let tcp_stats = tcp_request("{\"id\":\"ts\",\"mode\":\"stats\"}")?;
    let result = tcp_stats
        .get("result")
        .ok_or("selftest: TCP stats lack result")?;
    let pool_stats = result
        .get("server")
        .ok_or("selftest: TCP stats lack server")?;
    if pool_stats.get("workers").and_then(JsonValue::as_usize) != Some(pool_workers)
        || pool_stats
            .get("max_connections")
            .and_then(JsonValue::as_usize)
            != Some(pool_cap)
    {
        return Err(format!(
            "selftest: TCP stats must report {pool_workers} workers / cap {pool_cap}: \
             {tcp_stats:?}"
        ));
    }
    // every tcp_request above opened one connection; all reached the pool
    let accepted = pool_stats
        .get("accepted")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0);
    let served = pool_stats
        .get("served_lines")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0);
    let min_requests = reading_clients * 3 + 2 /* mutator */ + 2 /* settled + pinned */;
    if accepted < min_requests || served < min_requests {
        return Err(format!(
            "selftest: pool counters too low (accepted {accepted}, served {served}, \
             expected ≥ {min_requests}): {tcp_stats:?}"
        ));
    }
    let history = result
        .get("history")
        .ok_or("selftest: TCP stats lack history")?;
    if history.get("newest").and_then(JsonValue::as_usize) != Some(base_generation + 2)
        || history.get("retained").and_then(JsonValue::as_usize) != Some(2)
    {
        return Err(format!(
            "selftest: TCP history window must retain the 2 mutation generations: {tcp_stats:?}"
        ));
    }

    // graceful shutdown: the accept loop and every connection drain
    let bye = tcp_request("{\"id\":\"bye\",\"mode\":\"shutdown\"}")?;
    if bye.get("result").and_then(|r| r.get("shutdown")) != Some(&JsonValue::Bool(true)) {
        return Err(format!("selftest: shutdown not acknowledged: {bye:?}"));
    }
    server
        .join()
        .map_err(|_| "selftest: server thread panicked".to_string())??;
    shutdown_checkpoint(&state);
    drop(state);

    // the shutdown checkpoint folded the TCP mutations into the snapshot:
    // recovery replays nothing and lands on the post-mutation generation
    let (_store, session, report) = SnapshotStore::open(&snapshot_dir)
        .map_err(|e| format!("selftest: post-shutdown recovery failed: {e}"))?;
    if report.replayed != 0 || session.generation() != expected_generation + 2 {
        return Err(format!(
            "selftest: post-shutdown recovery replayed {} record(s) to generation {}, \
             expected 0 → {}",
            report.replayed,
            session.generation(),
            expected_generation + 2
        ));
    }
    if options.snapshot_dir.is_none() {
        let _ = std::fs::remove_dir_all(&snapshot_dir);
    }

    eprintln!(
        "serve: selftest ok ({} requests + mutation cycle + pinned-generation reads + recovery \
         cycle + worker-pool TCP round-trip ({reading_clients} clients on {pool_workers} \
         workers) verified)",
        requests.len()
    );
    Ok(())
}
