//! Criterion microbenchmarks for the durable store: one checkpoint and one
//! open of a session on the benchmark's two lake shapes, through the public
//! `SnapshotStore::{create_with, checkpoint, open_with}`.
//!
//! `checkpoint/{narrow,wide}` rewrites every segment of a pre-trained
//! session over the benchmark's `NARROW` / `WIDE` lake
//! (`benchmark/src/spec.rs`, seed 1447, four queries per domain) and
//! swings the manifest; `open/{narrow,wide}`
//! reads, checks and decodes that directory back into a session (its WAL
//! is empty). Before timing, the opened session is checked against the one
//! that was saved — a failed guard aborts the bench.
//!
//! ## Where a checkpoint's and an open's time went
//!
//! In-process split, ms per call: the range over four alternating rounds
//! of the median of 20 calls after 3 warm-ups, pinned to one core of a
//! shared 2-vCPU Xeon VM (ext4 on a virtio disk). Before = the bit-serial
//! CRC-32, the shard rows gathered into a vector and each payload copied
//! into its frame; after = the slicing-by-16 CRC-32 and one buffer that
//! holds each segment's frame, payload and trailer in turn. Every stored
//! byte is identical (`tests/session_recovery.rs` pins them):
//!
//! | | narrow before | narrow after | wide before | wide after |
//! |---|---|---|---|---|
//! | **checkpoint, total** | **95.7–110.1** | **23.6–28.7** | **92.7–106.0** | **23.2–26.9** |
//! | encode | 13.9–16.9 | 5.3–7.5 | 12.9–14.6 | 6.1–7.2 |
//! | frame (payload → frame copy) | 5.1–5.8 | — | 4.1–4.5 | — |
//! | checksum | 63.0–69.1 | 5.8–6.7 | 63.3–70.2 | 5.6–6.4 |
//! | write | 2.6–3.1 | 2.5–3.3 | 2.4–2.9 | 2.4–3.0 |
//! | fsync (segments, WAL header, directory) | 6.1–7.7 | 6.1–7.4 | 6.1–7.7 | 5.4–6.7 |
//! | rest (pin a view, sweep the old epoch) | 4.5–5.8 | 3.4–4.4 | 4.0–4.8 | 3.2–4.0 |
//! | **open, total** | **70.1–78.7** | **12.3–15.6** | **75.8–84.1** | **16.4–18.0** |
//! | read | 1.6–2.0 | 1.6–2.0 | 2.9–3.2 | 2.8–3.3 |
//! | checksum | 62.9–67.4 | 5.6–6.4 | 63.8–70.7 | 5.6–6.2 |
//! | unframe (`drain` of the header) | 0.4–0.6 | — | 0.5 | — |
//! | decode | 4.9–6.8 | 4.9–7.0 | 7.8–8.6 | 7.6–8.3 |
//! | rest (WAL, session assembly) | 0.4–0.6 | 0.3–0.5 | 0.5–0.6 | 0.3–0.5 |
//!
//! The bit-serial loop shifted one bit per step, ≈ 175 MB/s, over the
//! ≈ 11 MB every checkpoint writes and every open reads back; sixteen
//! table lookups per 16-byte block run at ≈ 2 GB/s. The encoder writes
//! the frame header first and the embedding rows straight into the buffer, so
//! neither the payload nor the embedding rows are copied a second time.
//! This bench, three alternating runs per tree on the same core, median
//! sample: `checkpoint/narrow` 99.1–113.3 → 22.2–25.2 ms,
//! `checkpoint/wide` 95.8–112.5 → 23.2–28.2, `open/narrow` 77.8–83.5 →
//! 15.7–16.8, `open/wide` 78.0–82.8 → 20.1–21.6.

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

fn bench_persist(c: &mut Criterion) {
    let options = StoreOptions::default();
    let shapes: Vec<(&str, LakeSession)> = [("narrow", false), ("wide", true)]
        .into_iter()
        .map(|(shape, wide)| (shape, benchmark_session(wide)))
        .collect();
    let dir = |shape: &str| {
        std::env::temp_dir().join(format!("dust-bench-persist-{shape}-{}", std::process::id()))
    };

    let mut group = c.benchmark_group("checkpoint");
    for (shape, session) in &shapes {
        let mut store = SnapshotStore::create_with(&dir(shape), session, options).unwrap();
        group.bench_function(*shape, |b| b.iter(|| store.checkpoint(session).unwrap()));
    }
    group.finish();

    let mut group = c.benchmark_group("open");
    for (shape, session) in &shapes {
        let dir = dir(shape);
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
