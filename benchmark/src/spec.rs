//! The benchmark's fixed shape: lakes, workloads, load constants and the
//! metric tables. `BENCHMARK.json` at the repo root repeats the workload
//! and metric names; a unit test keeps the two in step.

/// Seconds of timed load per run (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;
/// The seed a full set runs on when none is given.
pub const DEFAULT_SEED: u64 = 1447;
/// Tuples requested per query (`k`) — the paper's default.
pub const K: usize = 10;
/// Closed-loop client connections = `nproc` of the reference box.
pub const CLIENTS: usize = 2;
/// `serve --workers`.
pub const WORKERS: usize = 2;
/// `serve --checkpoint-after`: one mutation in seven carries a full
/// snapshot rewrite. Odd, so that the stall falls on removes and adds in
/// turn and contaminates neither median by more than a seventh.
pub const CHECKPOINT_AFTER: usize = 7;
/// WAL records between the last checkpoint and the SIGKILL.
pub const WAL_TAIL: usize = 2;
/// Cold starts per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Restarts from a copy of the crashed directory; `restart_s` is their median.
pub const RESTART_REPEATS: usize = 5;
/// Explicit `{"mode":"checkpoint"}` requests; `checkpoint_ms` is their median.
pub const CHECKPOINT_REPEATS: usize = 9;
/// Rows of the query table sent as a `mode:"similar"` probe.
pub const PROBE_ROWS: usize = 8;
/// Lake tables the writer removes and re-adds, round-robin.
pub const MUTATED_TABLES: usize = 3;
/// Query tables generated per domain.
pub const QUERIES_PER_DOMAIN: usize = 4;
/// One timed read in this many is compared with the in-process reference
/// (every warm-up, mutation and restart answer is).
pub const VERIFY_EVERY: usize = 4;
/// Times each distinct request is staged in the traced pass.
pub const TRACE_ROUNDS: usize = 2;
/// `{"mode":"stats"}` round trips behind `serve.stats_rtt_us`.
pub const STATS_PROBES: usize = 200;

/// A generated lake: `BenchmarkConfig::santos()` with these overrides and
/// every column kept (`min_columns` = all). Tables of one arity and nearly
/// one size keep each latency distribution unimodal, so that another seed
/// changes the values and not the amount of work.
#[derive(Debug)]
pub struct LakeShape {
    pub name: &'static str,
    pub domains: usize,
    pub tables_per_domain: usize,
    pub base_rows: usize,
    /// Derived tables keep this share of the base rows.
    pub min_row_fraction: f64,
    pub max_row_fraction: f64,
}

/// Few large tables: 20 × ~170 rows, ~840 candidate tuples per query.
pub const WIDE: LakeShape = LakeShape {
    name: "wide",
    domains: 4,
    tables_per_domain: 5,
    base_rows: 480,
    min_row_fraction: 0.34,
    max_row_fraction: 0.36,
};

/// Many small tables holding as many tuples: 192 × ~17 rows, ~90
/// candidates per query.
pub const NARROW: LakeShape = LakeShape {
    name: "narrow",
    domains: 12,
    tables_per_domain: 16,
    base_rows: 50,
    min_row_fraction: 0.32,
    max_row_fraction: 0.38,
};

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub lake: &'static LakeShape,
    /// Start `serve` with `--finetune` (64-d projection head).
    pub finetune: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wide_pre",
        why: "~840 candidates at 768 dims: the pairwise matrix and clustering (diversify) are 2/3 of a query, embed 5 %; mutations cost WAL and checkpoint",
        lake: &WIDE,
        finetune: false,
    },
    Workload {
        name: "wide_ft",
        why: "same lake and requests under --finetune: embed is 56 % of a query, diversify 12 %; every mutation and replayed WAL record retrains and re-embeds the lake",
        lake: &WIDE,
        finetune: true,
    },
    Workload {
        name: "narrow_pre",
        why: "192 small tables holding as many tuples: search is 83 % of a read; mutations cost WAL fsync and checkpoint, not compute",
        lake: &NARROW,
        finetune: false,
    },
    Workload {
        name: "narrow_ft",
        why: "narrow lake under --finetune: search-bound reads beside retrain-bound writes and restarts, where fsync cost is invisible",
        lake: &NARROW,
        finetune: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of `serve` sees, measured over loopback TCP with tracing off.
pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("similar_p50_ms", "ms", Lower, 0.25),
    e2e("mutation_p50_ms", "ms", Lower, 0.25),
    e2e("checkpoint_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("restart_s", "s", Lower, 0.25),
    e2e("server_rss_mb", "MB", Lower, 0.1),
    e2e("stored_bytes_per_lake_byte", "B/B", Lower, 0.05),
    e2e("diversity_avg", "1", Higher, 0.1),
];

/// Single layers, timed from the benchmark process around public calls.
pub const PER_LAYER: [Metric; 60] = [
    layer("table.load_lake_s", "s", Lower),
    layer("table.parse_csv_ms", "ms", Lower),
    layer("table.query_rows", "count", Lower),
    layer("search.index_build_s", "s", Lower),
    layer("search.overlap_ms", "ms", Lower),
    layer("search.retrieved_tables", "count", Lower),
    layer("align.holistic_ms", "ms", Lower),
    layer("align.outer_union_ms", "ms", Lower),
    layer("align.candidates", "count", Lower),
    layer("align.aligned_columns", "count", Lower),
    layer("embed.query_tuples_ms", "ms", Lower),
    layer("embed.candidate_tuples_ms", "ms", Lower),
    layer("embed.train_s", "s", Lower),
    layer("embed.tuples", "count", Lower),
    layer("embed.us_per_tuple", "us", Lower),
    layer("embed.dim", "count", Lower),
    layer("diversify.pack_ms", "ms", Lower),
    layer("diversify.matrix_ms", "ms", Lower),
    layer("diversify.select_ms", "ms", Lower),
    layer("diversify.pairs", "count", Lower),
    layer("cluster.agglomerative_ms", "ms", Lower),
    layer("cluster.medoids_ms", "ms", Lower),
    layer("cluster.points", "count", Lower),
    layer("cluster.share_of_select", "1", Lower),
    layer("session.build_s", "s", Lower),
    layer("session.view_pin_us", "us", Lower),
    layer("session.query_ms", "ms", Lower),
    layer("session.unattributed_share", "1", Lower),
    layer("session.similar_tuples_ms", "ms", Lower),
    layer("session.add_table_ms", "ms", Lower),
    layer("session.remove_table_ms", "ms", Lower),
    layer("session.query_allocs", "allocs", Lower),
    layer("session.query_alloc_bytes", "B", Lower),
    layer("session.add_table_allocs", "allocs", Lower),
    layer("session.add_table_alloc_bytes", "B", Lower),
    layer("share.search", "1", Lower),
    layer("share.align", "1", Lower),
    layer("share.embed", "1", Lower),
    layer("share.diversify", "1", Lower),
    layer("persist.snapshot_create_s", "s", Lower),
    layer("persist.snapshot_bytes", "B", Lower),
    layer("persist.wal_append_ms", "ms", Lower),
    layer("persist.wal_bytes_per_record", "B", Lower),
    layer("persist.checkpoint_ms", "ms", Lower),
    layer("persist.load_s", "s", Lower),
    layer("persist.open_s", "s", Lower),
    layer("persist.replayed_records", "count", Lower),
    layer("persist.replay_ms_per_record", "ms", Lower),
    layer("serve.wire_overhead_ms", "ms", Lower),
    layer("serve.stats_rtt_us", "us", Lower),
    layer("serve.request_bytes", "B", Lower),
    layer("serve.response_bytes", "B", Lower),
    layer("pool.connect_ms", "ms", Lower),
    layer("pool.accepted", "count", Lower),
    layer("pool.rejected_overloaded", "count", Lower),
    layer("pool.lines_too_long", "count", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "1", Lower),
    layer("trace.staged_mismatches", "count", Lower),
    layer("lake.csv_bytes", "B", Lower),
];
