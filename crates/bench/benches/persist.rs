//! Criterion microbenchmarks for the durable store on the benchmark's two
//! lake shapes, through the public `SnapshotStore::{create_with,
//! checkpoint, open_with}`: a pre-trained session over the benchmark's
//! `NARROW` / `WIDE` lake (`benchmark/src/spec.rs`, seed 1447, four queries
//! per domain).
//!
//! * `create/{narrow,wide}` — the full write a server's set-up pays: every
//!   table and its tuple block into a new pack, plus the lake, search and
//!   manifest files;
//! * `checkpoint_unchanged/{narrow,wide}` — a checkpoint of a session whose
//!   every table the pack holds as it is: the lake segment names pack
//!   indices only;
//! * `checkpoint_after_churn/{narrow,wide}` — a checkpoint after three
//!   tables were removed and added back, as the benchmark's writer does:
//!   their new `Arc`s are written inline, the pack is kept;
//! * `open/{narrow,wide}` — read, check and decode a fresh directory back
//!   into a session (its WAL is empty). Before timing, the opened session
//!   is checked against the one that was saved — a failed guard aborts the
//!   bench.
//!
//! ## Where a checkpoint's time went
//!
//! In-process split, ms per call: the range over three alternating rounds
//! of the mean of 20 calls after 3 warm-ups, pinned to one core of a shared
//! 2-vCPU Xeon VM (ext4 on a virtio disk). Before = format 3, where every
//! checkpoint wrote every table into the lake segment and every block into
//! the tuple segment; after = format 4, where the pack `seg-{b}-pack.bin`
//! holds them and a checkpoint writes only the tables it does not hold as
//! they are. After a churn of three tables the pack is kept and those three
//! go inline (≈ 170 KB narrow, ≈ 1.6 MB wide). Pack, lake and search are
//! encode + checksum + write; fsync covers every segment, the WAL header
//! and the directory; sweep deletes the superseded files:
//!
//! | | narrow before | narrow after, unchanged | narrow after, churn | wide before | wide after, unchanged | wide after, churn |
//! |---|---|---|---|---|---|---|
//! | **checkpoint, total** | **31.5–37.6** | **5.6–7.1** | **6.8–7.3** | **29.5–39.0** | **6.6–7.4** | **9.8–12.5** |
//! | pack (before: tuple segment) | 11.7–14.0 | — | — | 10.4–11.8 | — | — |
//! | lake (tables, or tags + inline entries) | 1.0–1.2 | 0.3 | 0.5 | 1.1–1.4 | 0.5 | 2.0–2.2 |
//! | search | 5.0–6.2 | 3.4–4.2 | 4.1–4.3 | 5.7–7.6 | 3.9–4.8 | 4.4–4.9 |
//! | fsync | 7.9–10.3 | 1.1–1.6 | 1.3–1.8 | 7.9–12.3 | 1.1–2.1 | 2.1–3.4 |
//! | sweep | 4.8–5.4 | 0.3–0.4 | 0.4–0.5 | 4.0–5.2 | 0.4–0.5 | 0.9–1.6 |
//! | rest (pin a view, WAL, manifest) | 0.4–0.7 | 0.3–0.6 | 0.3–0.4 | 0.4–0.8 | 0.3–0.4 | 0.3–0.4 |
//!
//! What a checkpoint still pays is mostly the search segment, which is
//! still rewritten whole; `create` pays what every checkpoint used to.
//! One file per table was rejected: writing and fsyncing 192 files of 54 KB
//! took 70–250 ms against 16–22 ms for one 10.4 MB file.

use criterion::{criterion_group, criterion_main, Criterion};
use dust_core::{LakeSession, PipelineConfig, SessionOptions, SnapshotStore, StoreOptions};
use dust_datagen::BenchmarkConfig;

/// A pre-trained session over the benchmark's lake of this shape.
fn benchmark_session(wide: bool) -> LakeSession {
    let (name, num_domains, lake_tables_per_domain, base_rows, min_row_fraction, max_row_fraction) =
        if wide {
            ("wide", 4, 5, 480, 0.34, 0.36)
        } else {
            ("narrow", 12, 16, 50, 0.32, 0.38)
        };
    let lake = BenchmarkConfig {
        name: name.into(),
        num_domains,
        lake_tables_per_domain,
        base_rows,
        queries_per_domain: 4,
        min_row_fraction,
        max_row_fraction,
        min_columns: usize::MAX,
        seed: 1447,
        ..BenchmarkConfig::santos()
    }
    .generate()
    .lake;
    LakeSession::with_options(lake, PipelineConfig::fast(), SessionOptions::default())
}

/// Remove three tables and add them back, as the benchmark's writer does:
/// the same rows under new `Arc`s, so the pack no longer holds them.
fn churn_three_tables(session: &LakeSession) {
    for name in session.lake().table_names().into_iter().step_by(5).take(3) {
        let table = session.remove_table(&name).unwrap();
        session.add_table(table).unwrap();
    }
}

fn bench_persist(c: &mut Criterion) {
    let options = StoreOptions::default();
    let shapes: Vec<(&str, LakeSession)> = [("narrow", false), ("wide", true)]
        .into_iter()
        .map(|(shape, wide)| (shape, benchmark_session(wide)))
        .collect();
    let dir = |shape: &str| {
        std::env::temp_dir().join(format!("dust-bench-persist-{shape}-{}", std::process::id()))
    };

    let mut group = c.benchmark_group("create");
    for (shape, session) in &shapes {
        group.bench_function(*shape, |b| {
            b.iter(|| SnapshotStore::create_with(&dir(shape), session, options).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("checkpoint_unchanged");
    for (shape, session) in &shapes {
        let mut store = SnapshotStore::create_with(&dir(shape), session, options).unwrap();
        group.bench_function(*shape, |b| b.iter(|| store.checkpoint(session).unwrap()));
        assert_eq!(
            store.pack_epoch(),
            1,
            "an unchanged {shape} checkpoint rewrote the pack"
        );
    }
    group.finish();

    let mut group = c.benchmark_group("checkpoint_after_churn");
    for (shape, session) in &shapes {
        let mut store = SnapshotStore::create_with(&dir(shape), session, options).unwrap();
        churn_three_tables(session);
        group.bench_function(*shape, |b| b.iter(|| store.checkpoint(session).unwrap()));
        assert_eq!(
            store.pack_epoch(),
            1,
            "a {shape} checkpoint after churn rewrote the pack"
        );
    }
    group.finish();

    let mut group = c.benchmark_group("open");
    for (shape, session) in &shapes {
        let dir = dir(shape);
        drop(SnapshotStore::create_with(&dir, session, options).unwrap());
        let (store, opened, report) = SnapshotStore::open_with(&dir, options).unwrap();
        drop(store);
        let (saved, restored) = (session.stats(), opened.stats());
        assert_eq!(
            (opened.generation(), report.replayed),
            (session.generation(), 0),
            "the {shape} directory did not reopen at the saved generation"
        );
        assert_eq!(
            (restored.tables, restored.tuples),
            (saved.tables, saved.tuples),
            "the {shape} session did not reopen with the saved tables and tuples"
        );
        group.bench_function(*shape, |b| {
            b.iter(|| SnapshotStore::open_with(&dir, options).unwrap())
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_persist
}
criterion_main!(benches);
