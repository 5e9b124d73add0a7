//! `serve` — answer JSONL requests over a resident [`LakeSession`], built
//! once (pre-embedded tables, warm candidate indexes, one shared tuple
//! model). Requests come from stdin (responses on stdout) or, with
//! `--listen`, from many TCP clients through a bounded worker pool. Logs
//! go to stderr so the response stream stays machine-readable. The
//! protocol and the server live in [`dust_bench::serve`]; this binary is
//! flag parsing and the stdin loop.
//!
//! ```sh
//! printf '%s\n' \
//!   '{"id":"q1","query":"parks_query_0","k":5}' \
//!   '{"id":"q2","csv":"Park Name,Country\nRiver Park,USA","k":3}' \
//!   | cargo run --release -p dust-bench --bin serve -- --benchmark tiny
//! cargo run --release -p dust-bench --bin serve -- --benchmark tiny < requests.jsonl
//! cargo run --release -p dust-bench --bin serve -- --benchmark tiny --listen 127.0.0.1:7777
//! ```
//!
//! Flags: `--benchmark tiny|santos|ugen` (generated lake, default tiny),
//! `--lake-dir DIR` (every `*.csv` file is a lake table), `--search
//! overlap|d3l|starmie`, `--finetune` (train the DUST model at startup),
//! `--listen ADDR` (TCP instead of stdin), `--workers K` (default 4) and
//! `--max-connections N` (default 256) for the pool, `--history N`
//! (pinnable generations retained, default 8), `--snapshot-dir DIR`
//! (durable session: recover on start, WAL on mutation), and the automatic
//! checkpoint thresholds `--checkpoint-after N` (WAL records, default 64)
//! and `--checkpoint-bytes N` (WAL bytes, default 64 MiB), whichever trips
//! first.
//!
//! [`LakeSession`]: dust_core::LakeSession

use dust_bench::pool::PoolOptions;
use dust_bench::serve::{self, ServeOptions, ServerState};
use dust_core::SearchTechnique;
use std::io::{BufRead, Write};
use std::net::TcpListener;

/// Give up on a broken stdin after this many read failures in a row (a
/// single bad line must not kill the server; a permanently dead pipe
/// should not spin forever either).
const MAX_CONSECUTIVE_READ_ERRORS: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&args) {
        eprintln!("serve: {message}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (options, listen) = parse_flags(args)?;
    let state = serve::build_state(&options)?;
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
    match listen {
        Some(addr) => {
            let listener =
                TcpListener::bind(&addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            serve::serve_tcp(&state, listener)?;
        }
        None => serve_stdio(&state)?,
    }
    serve::shutdown_checkpoint(&state);
    Ok(())
}

/// The stdin serve loop. A single unreadable line is logged and skipped
/// (bounded by [`MAX_CONSECUTIVE_READ_ERRORS`] so a dead pipe still
/// terminates); `{"mode":"shutdown"}` ends the loop.
fn serve_stdio(state: &ServerState) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut served = 0usize;
    let mut consecutive_read_errors = 0usize;
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(line) => {
                consecutive_read_errors = 0;
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = serve::handle_request(state, line);
                writeln!(out, "{response}")
                    .and_then(|_| out.flush())
                    .map_err(|e| e.to_string())?;
                served += 1;
                if state.shutting_down() {
                    break;
                }
            }
            Err(e) => {
                consecutive_read_errors += 1;
                eprintln!("serve: dropped unreadable stdin line ({e}); still serving");
                if consecutive_read_errors >= MAX_CONSECUTIVE_READ_ERRORS {
                    eprintln!(
                        "serve: {consecutive_read_errors} consecutive stdin read failures; \
                         stopping"
                    );
                    break;
                }
            }
        }
    }
    eprintln!("serve: {served} request(s) served");
    Ok(())
}

/// Parse the flags into the server's options plus the `--listen` address.
fn parse_flags(args: &[String]) -> Result<(ServeOptions, Option<String>), String> {
    let mut options = ServeOptions::default();
    let mut pool = PoolOptions::default();
    let mut listen = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            text.parse().map_err(|e| format!("{name}: {e}"))
        }
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
            "--listen" => listen = Some(value("--listen")?),
            "--workers" => pool.workers = number::<usize>(arg, value(arg)?)?.max(1),
            "--max-connections" => pool.max_connections = number::<usize>(arg, value(arg)?)?.max(1),
            "--history" => options.history = number(arg, value(arg)?)?,
            "--snapshot-dir" => options.snapshot_dir = Some(value("--snapshot-dir")?),
            "--checkpoint-after" => options.store.checkpoint_after = number(arg, value(arg)?)?,
            "--checkpoint-bytes" => {
                options.store.checkpoint_after_bytes = number(arg, value(arg)?)?
            }
            "--help" | "-h" => {
                return Err("see the module docs: serve [--benchmark tiny|santos|ugen] \
                            [--lake-dir DIR] [--search overlap|d3l|starmie] [--finetune] \
                            [--listen ADDR] [--workers K] [--max-connections N] [--history N] \
                            [--snapshot-dir DIR] [--checkpoint-after N] [--checkpoint-bytes N] \
                            < requests.jsonl"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    options.pool = listen.as_ref().map(|_| pool);
    Ok((options, listen))
}
