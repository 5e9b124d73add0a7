//! Serving experiment: B independent one-shot pipeline runs vs **one**
//! resident [`LakeSession`] answering the same B queries through
//! `query_batch` — the embed-once / query-many claim, measured.
//!
//! The one-shot side is Algorithm 1 exactly as the paper runs it: every
//! query pays lake indexing (or the full-lake Starmie column-embedding
//! pass) and — in the fine-tuned configuration — model training. The
//! session side pays all of that once, at construction, **and the
//! construction cost is included in its measured time**, so the comparison
//! is end-to-end honest: at B = 1 the session can lose (it also pre-embeds
//! the whole lake, one block per table); the break-even is where amortization
//! starts paying.
//!
//! Per-query results are asserted identical between the two paths (tuple
//! order included) before any number is reported — a speedup from a
//! behaviour change would be a bug, not a result.
//!
//! The **mutation** scenario measures the incremental-mutation claim the
//! same way: a single-table `add_table` on a resident session (per-table
//! delta) vs building a fresh session over the grown lake, and an
//! interleaved workload (queries between adds/drops) vs the
//! rebuild-per-mutation strategy. Results after every mutation are
//! asserted identical between the two strategies (that equivalence is the
//! contract `tests/session_mutation.rs` pins bit-for-bit).
//!
//! Run with `cargo run --release -p dust-bench --bin exp_serving`
//! (`-- --write` additionally writes `BENCH_serve.json`).
//!
//! [`LakeSession`]: dust_core::LakeSession

use dust_bench::pool::{self, PoolCounters, PoolOptions};
use dust_bench::report::{fmt3, Report};
use dust_bench::setup::scale;
use dust_core::{DustPipeline, LakeSession, PipelineConfig, SearchTechnique, TupleEmbedderKind};
use dust_embed::{FineTuneConfig, PretrainedModel};
use dust_table::Table;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

/// Counting wrapper around the system allocator. The mutation scenario
/// reads the counters around each publish, so the structural-sharing claim
/// ("a mutation clones O(1 table), not the snapshot") is
/// reported as measured bytes, not asserted prose. Frees are not tracked:
/// the interesting number is how much a publish *writes*, not its net
/// footprint.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to std::alloc::System with the
// caller's own layout/pointer arguments; the only addition is relaxed
// atomic counter bumps, which allocate nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout is passed straight through to System.alloc.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: ptr/layout come from the paired alloc and are forwarded
    // unchanged to System.dealloc.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: arguments are forwarded unchanged to System.realloc, which
    // upholds the GlobalAlloc contract for them.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes and allocation calls since process start.
fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_CALLS.load(Ordering::Relaxed),
    )
}

/// Counter deltas since `before` (bytes, calls).
fn alloc_since(before: (u64, u64)) -> (u64, u64) {
    let now = alloc_counters();
    (now.0 - before.0, now.1 - before.1)
}

fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    }
}

const BATCH_SIZES: [usize; 3] = [1, 8, 32];
const K: usize = 10;

fn configs() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        (
            "overlap+pretrained",
            PipelineConfig {
                search: SearchTechnique::Overlap,
                ..PipelineConfig::fast()
            },
        ),
        (
            "starmie+pretrained",
            PipelineConfig {
                search: SearchTechnique::Starmie,
                ..PipelineConfig::fast()
            },
        ),
        (
            "overlap+finetuned",
            PipelineConfig {
                search: SearchTechnique::Overlap,
                tables_per_query: 5,
                embedder: TupleEmbedderKind::FineTuned {
                    backbone: PretrainedModel::Roberta,
                    config: FineTuneConfig {
                        max_epochs: 10,
                        patience: 3,
                        ..FineTuneConfig::default()
                    },
                    training_pairs: 120,
                },
                ..PipelineConfig::default()
            },
        ),
    ]
}

fn main() {
    let write_json = std::env::args().any(|a| a == "--write");
    let lake = scale().santos_config().generate().lake;
    let query_names = lake.query_names();
    let queries: Vec<Table> = query_names
        .iter()
        .map(|n| lake.query(n).unwrap().clone())
        .collect();
    assert!(!queries.is_empty(), "benchmark lake has no queries");

    let mut json = String::from("{\n");
    let note = format!(
        "cargo run --release -p dust-bench --bin exp_serving: B one-shot DustPipeline::run \
         calls vs one LakeSession (construction INCLUDED in its time) + query_batch(B), SANTOS-small \
         benchmark lake ({} tables), k = {K}; per-query results asserted identical (incl. \
         tuple order) before timing is reported",
        lake.num_tables()
    );
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(
        json,
        "  \"environment\": {{\n    \"note\": \"{note}\",\n    \"cpus\": {cpus}\n  }},"
    );
    let _ = writeln!(json, "  \"serving\": {{");

    for (ci, (name, config)) in configs().iter().enumerate() {
        let mut report = Report::new(format!(
            "Serving: one-shot pipeline × B vs resident session ({name})"
        ))
        .headers(["B", "one-shot (s)", "session (s)", "speedup"]);
        let _ = writeln!(json, "    \"{name}\": {{");
        for (bi, &b) in BATCH_SIZES.iter().enumerate() {
            let batch: Vec<Table> = (0..b).map(|i| queries[i % queries.len()].clone()).collect();

            // ---- one-shot: a fresh pipeline per query ---------------------
            let start = Instant::now();
            let one_shot: Vec<_> = batch
                .iter()
                .map(|q| {
                    DustPipeline::new(config.clone())
                        .run(&lake, q, K)
                        .expect("pipeline run failed")
                })
                .collect();
            let one_shot_secs = start.elapsed().as_secs_f64();

            // ---- resident session (construction included) -----------------
            let lake_copy = lake.clone();
            let start = Instant::now();
            let session = LakeSession::new(lake_copy, config.clone());
            let results = session.query_batch(&batch, K);
            let session_secs = start.elapsed().as_secs_f64();

            for (i, (fresh, resident)) in one_shot.iter().zip(&results).enumerate() {
                let resident = resident.as_ref().expect("session query failed");
                assert_eq!(
                    fresh.tuples, resident.tuples,
                    "{name}, B = {b}, query {i}: one-shot and session selections diverged"
                );
                assert_eq!(fresh.retrieved_tables, resident.retrieved_tables);
            }

            let speedup = one_shot_secs / session_secs;
            report.row([
                b.to_string(),
                fmt3(one_shot_secs),
                fmt3(session_secs),
                format!("{speedup:.2}x"),
            ]);
            let _ = writeln!(
                json,
                "      \"B={b}\": {{ \"one_shot_secs\": {one_shot_secs:.3}, \
                 \"session_secs\": {session_secs:.3}, \"speedup\": {speedup:.2} }}{}",
                if bi + 1 < BATCH_SIZES.len() { "," } else { "" }
            );
        }
        report.note("session time includes session construction (embed-once cost)");
        report.note("per-query results verified identical to the one-shot pipeline");
        report.print();
        let _ = writeln!(
            json,
            "    }}{}",
            if ci + 1 < configs().len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");

    mutation_benchmark(&lake, &queries, &mut json);
    concurrency_benchmark(&lake, &queries, &mut json);
    connections_benchmark(&lake, &queries, &mut json);
    recovery_benchmark(&lake, &queries, &mut json);
    let _ = writeln!(json, "}}");

    if write_json {
        std::fs::write("BENCH_serve.json", &json).expect("cannot write BENCH_serve.json");
        println!("\nwrote BENCH_serve.json");
    } else {
        println!("\n{json}");
    }
}

/// The incremental-mutation scenario: per-table `add_table`/`remove_table`
/// deltas on one resident session vs rebuilding a fresh session per
/// mutation. Uses the fast overlap+pretrained configuration (the mutation
/// machinery is identical across techniques; the fine-tuned configuration
/// retrains by design — its mutation cost *is* a rebuild, documented in
/// the session docs).
fn mutation_benchmark(full_lake: &dust_table::DataLake, queries: &[Table], json: &mut String) {
    const POOL: usize = 4;
    let config = PipelineConfig {
        search: SearchTechnique::Overlap,
        ..PipelineConfig::fast()
    };

    // Carve a pool of mutation-fodder tables out of the lake: the session
    // starts without them and the scenario adds/drops them.
    let mut base_lake = full_lake.clone();
    let names = base_lake.table_names();
    let pool: Vec<Table> = names
        .iter()
        .rev()
        .take(POOL)
        .map(|name| base_lake.remove_table(name).expect("pool table exists"))
        .collect();

    // ---- single-table add: delta vs fresh rebuild -------------------------
    // Allocation counters bracket each publish: the structural-sharing
    // refactor's claim is that the incremental path allocates the delta
    // (one table + its embedding block + touched postings), not a snapshot copy.
    let session = LakeSession::new(base_lake.clone(), config.clone());
    let counters = alloc_counters();
    let start = Instant::now();
    session.add_table(pool[0].clone()).expect("pool add");
    let incremental_secs = start.elapsed().as_secs_f64();
    let (incremental_bytes, incremental_allocs) = alloc_since(counters);

    let mut grown = base_lake.clone();
    grown.add_table(pool[0].clone()).expect("pool add");
    let counters = alloc_counters();
    let start = Instant::now();
    let rebuilt = LakeSession::new(grown, config.clone());
    let rebuild_secs = start.elapsed().as_secs_f64();
    let (rebuild_bytes, rebuild_allocs) = alloc_since(counters);

    // identical serving behaviour, asserted before any number is reported
    for query in queries.iter().take(4) {
        let a = session.query(query, K).expect("mutated session query");
        let b = rebuilt.query(query, K).expect("rebuilt session query");
        assert_eq!(a.tuples, b.tuples, "single-add: strategies diverged");
        assert_eq!(a.retrieved_tables, b.retrieved_tables);
    }
    let single_speedup = rebuild_secs / incremental_secs;

    // ---- interleaved: M add/drop mutations with queries between ----------
    // Each pool table is added then removed, with 2 queries after every
    // mutation — the slowly-changing-lake serving shape.
    let session = LakeSession::new(base_lake.clone(), config.clone());
    let mut incremental_results = Vec::new();
    let counters = alloc_counters();
    let start = Instant::now();
    for (mi, table) in pool.iter().enumerate() {
        session.add_table(table.clone()).expect("pool add");
        for qi in 0..2 {
            let q = &queries[(mi * 4 + qi) % queries.len()];
            incremental_results.push(session.query(q, K).expect("query"));
        }
        session.remove_table(table.name()).expect("pool remove");
        for qi in 2..4 {
            let q = &queries[(mi * 4 + qi) % queries.len()];
            incremental_results.push(session.query(q, K).expect("query"));
        }
    }
    let interleaved_incremental_secs = start.elapsed().as_secs_f64();
    let (interleaved_incremental_bytes, _) = alloc_since(counters);
    let mutations = pool.len() * 2;
    let query_count = incremental_results.len();

    let mut rebuild_results = Vec::new();
    let mut lake = base_lake.clone();
    let counters = alloc_counters();
    let start = Instant::now();
    for (mi, table) in pool.iter().enumerate() {
        lake.add_table(table.clone()).expect("pool add");
        let fresh = LakeSession::new(lake.clone(), config.clone());
        for qi in 0..2 {
            let q = &queries[(mi * 4 + qi) % queries.len()];
            rebuild_results.push(fresh.query(q, K).expect("query"));
        }
        lake.remove_table(table.name()).expect("pool remove");
        let fresh = LakeSession::new(lake.clone(), config.clone());
        for qi in 2..4 {
            let q = &queries[(mi * 4 + qi) % queries.len()];
            rebuild_results.push(fresh.query(q, K).expect("query"));
        }
    }
    let interleaved_rebuild_secs = start.elapsed().as_secs_f64();
    let (interleaved_rebuild_bytes, _) = alloc_since(counters);
    for (i, (a, b)) in incremental_results.iter().zip(&rebuild_results).enumerate() {
        assert_eq!(
            a.tuples, b.tuples,
            "interleaved query {i}: strategies diverged"
        );
        assert_eq!(a.retrieved_tables, b.retrieved_tables);
    }
    let interleaved_speedup = interleaved_rebuild_secs / interleaved_incremental_secs;

    let mut report = Report::new(
        "Lake mutation: incremental per-table deltas vs rebuild-per-mutation (overlap+pretrained)",
    )
    .headers([
        "scenario",
        "incremental (s)",
        "rebuild (s)",
        "speedup",
        "incr alloc",
        "rebuild alloc",
    ]);
    report.row([
        "single-table add".to_string(),
        fmt3(incremental_secs),
        fmt3(rebuild_secs),
        format!("{single_speedup:.2}x"),
        format!("{} / {incremental_allocs}", fmt_bytes(incremental_bytes)),
        format!("{} / {rebuild_allocs}", fmt_bytes(rebuild_bytes)),
    ]);
    report.row([
        format!("{mutations} mutations + {query_count} queries"),
        fmt3(interleaved_incremental_secs),
        fmt3(interleaved_rebuild_secs),
        format!("{interleaved_speedup:.2}x"),
        fmt_bytes(interleaved_incremental_bytes),
        fmt_bytes(interleaved_rebuild_bytes),
    ]);
    report.note("alloc = bytes allocated / allocation calls inside the timed publish window");
    report.note("results asserted identical between strategies after every mutation");
    report.note("equivalence itself is pinned bit-for-bit by tests/session_mutation.rs");
    report.print();

    let _ = writeln!(json, "  \"mutation\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"incremental LakeSession::add_table/remove_table (per-table deltas) vs \
         a fresh LakeSession::new per mutation, SANTOS-small, overlap+pretrained, k = {K}; \
         results asserted identical between strategies\","
    );
    let _ = writeln!(
        json,
        "    \"single_add\": {{ \"incremental_secs\": {incremental_secs:.4}, \
         \"rebuild_secs\": {rebuild_secs:.4}, \"speedup\": {single_speedup:.2}, \
         \"incremental_alloc_bytes\": {incremental_bytes}, \
         \"incremental_allocs\": {incremental_allocs}, \
         \"rebuild_alloc_bytes\": {rebuild_bytes}, \
         \"rebuild_allocs\": {rebuild_allocs} }},"
    );
    let _ = writeln!(
        json,
        "    \"interleaved\": {{ \"mutations\": {mutations}, \"queries\": {query_count}, \
         \"incremental_secs\": {interleaved_incremental_secs:.3}, \
         \"rebuild_secs\": {interleaved_rebuild_secs:.3}, \
         \"speedup\": {interleaved_speedup:.2}, \
         \"incremental_alloc_bytes\": {interleaved_incremental_bytes}, \
         \"rebuild_alloc_bytes\": {interleaved_rebuild_bytes} }}"
    );
    let _ = writeln!(json, "  }},");
}

/// The multi-client scenario: the generation-snapshot concurrency model,
/// measured. Pure-read first — the same queries through one pinned view on
/// one thread vs spread across parallel client threads (each pinning its
/// own view), results asserted bit-identical before timing is reported; the
/// snapshot model's read path must not tax the serial case. Then the
/// headline shape: readers querying *while* a mutator publishes new
/// generations — reads never block on mutations, so read throughput is
/// reported alongside the generation span the readers actually observed
/// (linearizability of those observations is pinned by
/// `tests/session_concurrency.rs`).
fn concurrency_benchmark(full_lake: &dust_table::DataLake, queries: &[Table], json: &mut String) {
    const READERS: usize = 4;
    const READS: usize = 16;
    let config = PipelineConfig {
        search: SearchTechnique::Overlap,
        ..PipelineConfig::fast()
    };
    let session = LakeSession::new(full_lake.clone(), config.clone());
    let batch: Vec<Table> = (0..READS)
        .map(|i| queries[i % queries.len()].clone())
        .collect();

    // ---- pure read: one thread, one pinned view ---------------------------
    let view = session.view();
    let start = Instant::now();
    let serial: Vec<_> = batch
        .iter()
        .map(|q| view.query(q, K).expect("serial query"))
        .collect();
    let serial_secs = start.elapsed().as_secs_f64();
    drop(view);

    // ---- pure read: the same queries across READERS client threads -------
    let collected = std::sync::Mutex::new(Vec::with_capacity(READS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (session, batch, collected) = (&session, &batch, &collected);
            scope.spawn(move || {
                for i in (reader..batch.len()).step_by(READERS) {
                    let view = session.view();
                    let result = view.query(&batch[i], K).expect("concurrent query");
                    // dust-lint: lock(bench-collect)
                    collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, result));
                }
            });
        }
    });
    let concurrent_secs = start.elapsed().as_secs_f64();
    let mut concurrent = collected.into_inner().unwrap();
    concurrent.sort_by_key(|(i, _)| *i);
    for ((i, c), s) in concurrent.iter().zip(&serial) {
        assert_eq!(
            c.tuples, s.tuples,
            "pure-read query {i}: concurrent and serial selections diverged"
        );
        assert_eq!(c.retrieved_tables, s.retrieved_tables);
    }
    let overhead = concurrent_secs / serial_secs;

    // ---- interleaved: readers keep serving while a mutator publishes ------
    let mut base_lake = full_lake.clone();
    let names = base_lake.table_names();
    let pool: Vec<Table> = names
        .iter()
        .rev()
        .take(2)
        .map(|name| base_lake.remove_table(name).expect("pool table exists"))
        .collect();
    let session = LakeSession::new(base_lake, config.clone());
    let observed = std::sync::Mutex::new(Vec::with_capacity(READS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for table in &pool {
                session.add_table(table.clone()).expect("bench add");
                session.remove_table(table.name()).expect("bench remove");
            }
        });
        for reader in 0..READERS {
            let (session, batch, observed) = (&session, &batch, &observed);
            scope.spawn(move || {
                for i in (reader..batch.len()).step_by(READERS) {
                    let view = session.view();
                    view.query(&batch[i], K).expect("interleaved query");
                    // dust-lint: lock(bench-collect)
                    observed
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(view.generation());
                }
            });
        }
    });
    let interleaved_secs = start.elapsed().as_secs_f64();
    let observed = observed.into_inner().unwrap();
    let mutations = pool.len() * 2;
    let gen_lo = observed.iter().min().copied().unwrap_or(0);
    let gen_hi = observed.iter().max().copied().unwrap_or(0);
    let pure_rate = READS as f64 / concurrent_secs;
    let interleaved_rate = READS as f64 / interleaved_secs;

    let mut report = Report::new(
        "Concurrent serving: pinned-view readers, with and without interleaved mutations",
    )
    .headers(["scenario", "wall (s)", "reads/s", "detail"]);
    report.row([
        format!("{READS} reads, 1 thread"),
        fmt3(serial_secs),
        format!("{:.1}", READS as f64 / serial_secs),
        "serial baseline".to_string(),
    ]);
    report.row([
        format!("{READS} reads, {READERS} clients"),
        fmt3(concurrent_secs),
        format!("{pure_rate:.1}"),
        format!("{overhead:.2}x serial wall clock"),
    ]);
    report.row([
        format!("{READS} reads + {mutations} mutations"),
        fmt3(interleaved_secs),
        format!("{interleaved_rate:.1}"),
        format!("readers observed generations {gen_lo}..{gen_hi}"),
    ]);
    report.note("concurrent pure-read results asserted bit-identical to the serial view");
    report.note("read ≡ rebuild-at-observed-generation is pinned by tests/session_concurrency.rs");
    report.print();

    let _ = writeln!(json, "  \"concurrency\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"generation-snapshot serving: {READS} queries through one pinned view \
         on one thread vs {READERS} client threads (results asserted identical), then the same \
         reads while a mutator publishes {mutations} generations; reads never block on \
         mutations\","
    );
    let _ = writeln!(
        json,
        "    \"pure_read\": {{ \"reads\": {READS}, \"readers\": {READERS}, \
         \"serial_secs\": {serial_secs:.3}, \"concurrent_secs\": {concurrent_secs:.3}, \
         \"overhead_vs_serial\": {overhead:.2} }},"
    );
    let _ = writeln!(
        json,
        "    \"interleaved\": {{ \"reads\": {READS}, \"mutations\": {mutations}, \
         \"secs\": {interleaved_secs:.3}, \"reads_per_sec\": {interleaved_rate:.1}, \
         \"generations_observed\": [{gen_lo}, {gen_hi}] }}"
    );
    let _ = writeln!(json, "  }},");
}

/// The connection-multiplexing scenario: the serve worker pool under many
/// more clients than workers. A serial reference first computes every
/// response on one thread; then 64 concurrent TCP clients drive the same
/// requests through the bounded pool and every response line is asserted
/// **bit-identical** to the reference before any timing is reported.
/// Finally the same workload at 4 clients runs against both connection
/// models — the worker pool and the thread-per-connection shape it
/// replaced — so the multiplexing refactor's low-concurrency cost is a
/// measured number, not a hope.
fn connections_benchmark(full_lake: &dust_table::DataLake, queries: &[Table], json: &mut String) {
    const CLIENTS: usize = 64;
    const BASELINE_CLIENTS: usize = 4;
    const REQUESTS: usize = 64;
    const WORKERS: usize = 4;
    let config = PipelineConfig {
        search: SearchTechnique::Overlap,
        ..PipelineConfig::fast()
    };
    let session = LakeSession::new(full_lake.clone(), config);

    // One request line in ("query index"), one deterministic response
    // line out: index, selected tuples, retrieved tables, and the
    // diversity scores as raw bits — any divergence anywhere is visible.
    let handler = |line: &str| -> String {
        let i: usize = line.trim().parse().expect("request index");
        let view = session.view();
        let r = view
            .query(&queries[i % queries.len()], K)
            .expect("bench query");
        format!(
            "{i}|{:?}|{:?}|{:016x}|{:016x}",
            r.tuples,
            r.retrieved_tables,
            r.diversity.average.to_bits(),
            r.diversity.minimum.to_bits()
        )
    };

    // ---- serial reference: every response, one thread, no sockets --------
    let serial: Vec<String> = (0..REQUESTS).map(|i| handler(&i.to_string())).collect();

    // ---- worker pool under CLIENTS concurrent connections ----------------
    let pool_secs = drive_pool(&handler, &serial, CLIENTS, WORKERS);
    // ---- both models at the low-concurrency baseline ----------------------
    let pool_baseline_secs = drive_pool(&handler, &serial, BASELINE_CLIENTS, WORKERS);
    let thread_secs = drive_thread_per_conn(&handler, &serial, BASELINE_CLIENTS);
    let pool_vs_thread = thread_secs / pool_baseline_secs;

    let mut report = Report::new(format!(
        "Connection multiplexing: {WORKERS}-worker pool vs thread-per-connection (overlap+pretrained)"
    ))
    .headers(["model", "clients", "requests", "wall (s)", "lines/s"]);
    report.row([
        "worker pool".to_string(),
        CLIENTS.to_string(),
        REQUESTS.to_string(),
        fmt3(pool_secs),
        format!("{:.1}", REQUESTS as f64 / pool_secs),
    ]);
    report.row([
        "worker pool".to_string(),
        BASELINE_CLIENTS.to_string(),
        REQUESTS.to_string(),
        fmt3(pool_baseline_secs),
        format!("{:.1}", REQUESTS as f64 / pool_baseline_secs),
    ]);
    report.row([
        "thread-per-connection".to_string(),
        BASELINE_CLIENTS.to_string(),
        REQUESTS.to_string(),
        fmt3(thread_secs),
        format!("{:.1}", REQUESTS as f64 / thread_secs),
    ]);
    report.note("every response line asserted bit-identical to the serial reference before timing");
    report.note(format!(
        "pool wall clock at {BASELINE_CLIENTS} clients is {pool_vs_thread:.2}x thread-per-connection (>1 = pool faster)"
    ));
    report.print();

    let _ = writeln!(json, "  \"connections\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"serve TCP models over loopback, one query request per line: \
         {CLIENTS} concurrent clients multiplexed by a {WORKERS}-worker bounded pool, then the \
         same {REQUESTS} requests at {BASELINE_CLIENTS} clients under both the pool and the \
         thread-per-connection model it replaced; every response asserted bit-identical to a \
         serial single-thread reference before timing\","
    );
    let _ = writeln!(
        json,
        "    \"pool\": {{ \"clients\": {CLIENTS}, \"workers\": {WORKERS}, \
         \"requests\": {REQUESTS}, \"secs\": {pool_secs:.3}, \
         \"lines_per_sec\": {:.1} }},",
        REQUESTS as f64 / pool_secs
    );
    let _ = writeln!(
        json,
        "    \"baseline\": {{ \"clients\": {BASELINE_CLIENTS}, \"requests\": {REQUESTS}, \
         \"pool_secs\": {pool_baseline_secs:.3}, \"thread_per_connection_secs\": {thread_secs:.3}, \
         \"pool_speedup_vs_thread\": {pool_vs_thread:.2} }}"
    );
    let _ = writeln!(json, "  }},");
}

/// Drive `REQUESTS` request lines through a live worker pool from
/// `clients` concurrent blocking sockets, asserting every response
/// against the serial reference. Returns the client-side wall clock.
fn drive_pool(
    handler: &(dyn Fn(&str) -> String + Sync),
    serial: &[String],
    clients: usize,
    workers: usize,
) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let counters = PoolCounters::default();
    let shutdown = AtomicBool::new(false);
    let options = PoolOptions {
        workers,
        max_connections: clients + 8,
        ..PoolOptions::default()
    };
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool::run(&listener, &options, &counters, &shutdown, handler).expect("pool run");
        });
        let start = Instant::now();
        std::thread::scope(|inner| {
            for c in 0..clients {
                inner.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for i in (c..serial.len()).step_by(clients) {
                        writeln!(stream, "{i}").expect("send");
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("recv");
                        assert_eq!(
                            line.trim_end(),
                            serial[i],
                            "pool response {i} diverged from the serial reference"
                        );
                    }
                });
            }
        });
        elapsed = start.elapsed().as_secs_f64();
        shutdown.store(true, Ordering::SeqCst);
    });
    assert_eq!(
        counters.served_lines.load(Ordering::Relaxed),
        serial.len() as u64,
        "pool served a different number of lines than were sent"
    );
    elapsed
}

/// The model the pool replaced, reconstructed for the head-to-head: one
/// OS thread per accepted connection, blocking reads. Returns the
/// client-side wall clock for the same asserted workload.
fn drive_thread_per_conn(
    handler: &(dyn Fn(&str) -> String + Sync),
    serial: &[String],
    clients: usize,
) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..clients {
                let (stream, _) = listener.accept().expect("accept");
                scope.spawn(move || {
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap_or(0) > 0 {
                        let response = handler(line.trim());
                        if writeln!(writer, "{response}").is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        let start = Instant::now();
        std::thread::scope(|inner| {
            for c in 0..clients {
                inner.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for i in (c..serial.len()).step_by(clients) {
                        writeln!(stream, "{i}").expect("send");
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("recv");
                        assert_eq!(
                            line.trim_end(),
                            serial[i],
                            "thread-per-connection response {i} diverged"
                        );
                    }
                });
            }
        });
        elapsed = start.elapsed().as_secs_f64();
    });
    elapsed
}

/// The durability scenario: restart cost by strategy. A server that dies
/// pays one of three prices to come back: rebuild the session from the
/// lake (re-embed, and for the fine-tuned embedder retrain), load a
/// snapshot (`SnapshotStore::open`), or load a snapshot and replay a WAL
/// of mutations that happened after it. Results are asserted identical
/// across all three before any timing is reported.
///
/// Both embedder kinds are measured because they tell different stories:
/// the pretrained hash-embedder rebuilds almost for free, so the snapshot
/// mostly buys crash-consistent mutations; the fine-tuned configuration —
/// the paper's actual DUST shape — pays model training on every cold
/// start, which the snapshot skips entirely (the trained weights are
/// persisted). WAL replay on a fine-tuned session retrains per record by
/// design (the documented mutation fallback), which is exactly why
/// checkpointing exists.
fn recovery_benchmark(full_lake: &dust_table::DataLake, queries: &[Table], json: &mut String) {
    const WAL_MUTATIONS: usize = 3;
    let configs = configs();
    let picks = [0usize, 2]; // overlap+pretrained, overlap+finetuned
    let dir = std::env::temp_dir().join(format!("dust-exp-recovery-{}", std::process::id()));

    let mut report = Report::new(
        "Recovery: cold rebuild vs snapshot load vs snapshot + WAL replay (SANTOS-small)",
    )
    .headers(["config", "strategy", "restart (s)", "speedup vs cold"]);
    let _ = writeln!(json, "  \"recovery\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"restart cost on SANTOS-small: LakeSession::new from the lake vs \
         SnapshotStore::open (snapshot only) vs SnapshotStore::open (snapshot + \
         {WAL_MUTATIONS} WAL records); results asserted identical across strategies first; \
         the fine-tuned snapshot persists the trained model, so loading skips training\","
    );

    for (pi, &ci) in picks.iter().enumerate() {
        let (name, config) = &configs[ci];
        let _ = std::fs::remove_dir_all(&dir);

        // ---- cold rebuild: restart without persistence --------------------
        let lake = full_lake.clone();
        let start = Instant::now();
        let session = LakeSession::new(lake, config.clone());
        let cold_secs = start.elapsed().as_secs_f64();

        // ---- snapshot load: no WAL records --------------------------------
        dust_core::SnapshotStore::create(&dir, &session).expect("snapshot create");
        let start = Instant::now();
        let (_store, loaded, rep) = dust_core::SnapshotStore::open(&dir).expect("snapshot open");
        let load_secs = start.elapsed().as_secs_f64();
        assert_eq!(rep.replayed, 0, "fresh snapshot should have an empty WAL");
        for (i, query) in queries.iter().take(4).enumerate() {
            let a = session.query(query, K).expect("cold query");
            let b = loaded.query(query, K).expect("loaded query");
            assert_eq!(
                a.tuples, b.tuples,
                "{name}, query {i}: snapshot load diverged"
            );
            assert_eq!(a.retrieved_tables, b.retrieved_tables);
        }
        drop(loaded);

        // ---- snapshot + WAL replay: mutations logged after the save -------
        let mut store = dust_core::SnapshotStore::create(&dir, &session).expect("snapshot create");
        let victims = session.lake().table_names();
        for victim in victims.iter().rev().take(WAL_MUTATIONS) {
            session.remove_table(victim).expect("bench remove");
            store
                .log_remove_table(victim, session.generation())
                .expect("bench log");
        }
        drop(store);
        let start = Instant::now();
        let (_store, replayed, rep) = dust_core::SnapshotStore::open(&dir).expect("replay open");
        let replay_secs = start.elapsed().as_secs_f64();
        assert_eq!(rep.replayed, WAL_MUTATIONS, "replay count");
        for (i, query) in queries.iter().take(4).enumerate() {
            let a = session.query(query, K).expect("mutated query");
            let b = replayed.query(query, K).expect("replayed query");
            assert_eq!(a.tuples, b.tuples, "{name}, query {i}: WAL replay diverged");
            assert_eq!(a.retrieved_tables, b.retrieved_tables);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let load_speedup = cold_secs / load_secs;
        let replay_speedup = cold_secs / replay_secs;
        report.row([
            name.to_string(),
            "cold rebuild".to_string(),
            fmt3(cold_secs),
            "1.00x".to_string(),
        ]);
        report.row([
            name.to_string(),
            "snapshot load".to_string(),
            fmt3(load_secs),
            format!("{load_speedup:.2}x"),
        ]);
        report.row([
            name.to_string(),
            format!("snapshot + {WAL_MUTATIONS}-record WAL replay"),
            fmt3(replay_secs),
            format!("{replay_speedup:.2}x"),
        ]);
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(
            json,
            "      \"cold_rebuild_secs\": {cold_secs:.4},\n      \
             \"snapshot_load_secs\": {load_secs:.4},\n      \
             \"snapshot_replay_secs\": {replay_secs:.4},\n      \
             \"wal_records_replayed\": {WAL_MUTATIONS},\n      \
             \"load_speedup\": {load_speedup:.2},\n      \
             \"replay_speedup\": {replay_speedup:.2}"
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if pi + 1 < picks.len() { "," } else { "" }
        );
    }
    report.note("results asserted identical across all three strategies before timing");
    report.note("bit-exact recovery is pinned by tests/session_recovery.rs");
    report.print();
    let _ = writeln!(json, "  }}");
}
