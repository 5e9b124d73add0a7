//! Criterion microbenchmarks for the durable store on the benchmark's two
//! lake shapes, through the public `SnapshotStore::{create_with,
//! checkpoint, open_with}`: a pre-trained session over the benchmark's
//! `NARROW` / `WIDE` lake (`benchmark/src/spec.rs`, seed 1447, four queries
//! per domain), searching by Overlap as the benchmark does. The `create`,
//! `checkpoint_unchanged` and `open` groups also time a D3L and a Starmie
//! session over the narrow lake (`narrow_d3l`, `narrow_starmie`).
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
//!   bench;
//! * `open_replay/{narrow_ft,wide_ft}/{2,6}` — open a directory of a
//!   session under the configuration `serve --finetune` trains, with 2 and
//!   with 6 WAL records after its checkpoint (one and three tables removed
//!   and added back). Before timing, the opened session must answer as the
//!   live one, bit for bit.
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
//! | search (format 4; format 5 below) | 5.0–6.2 | 3.4–4.2 | 4.1–4.3 | 5.7–7.6 | 3.9–4.8 | 4.4–4.9 |
//! | fsync | 7.9–10.3 | 1.1–1.6 | 1.3–1.8 | 7.9–12.3 | 1.1–2.1 | 2.1–3.4 |
//! | sweep | 4.8–5.4 | 0.3–0.4 | 0.4–0.5 | 4.0–5.2 | 0.4–0.5 | 0.9–1.6 |
//! | rest (pin a view, WAL, manifest) | 0.4–0.7 | 0.3–0.6 | 0.3–0.4 | 0.4–0.8 | 0.3–0.4 | 0.3–0.4 |
//!
//! Format 5 writes the search segment's inverted index as column postings
//! (tables renumbered in name order, values sorted, each posting ascending
//! `u32` column ids, column sizes counted on decode) instead of sets of
//! table names. Re-measured the same way, format 4 against format 5, on an
//! unchanged checkpoint (the host read slower than for the table above):
//!
//! | | narrow, format 4 | narrow, format 5 | wide, format 4 | wide, format 5 |
//! |---|---|---|---|---|
//! | **checkpoint, total** | **9.1–9.9** | **2.9–3.1** | **10.5–13.4** | **3.9–4.2** |
//! | search (encode + checksum + write) | 6.4–7.5 | 1.0–1.2 | 7.6–10.0 | 1.6–1.7 |
//! | search segment bytes | 413 624 | 130 824 | 416 568 | 191 638 |
//! | search decode on open (read, check, build) | 3.5–3.8 | 0.9–1.2 | 3.5–4.4 | 1.6–1.8 |
//!
//! The search segment is still rewritten whole by every checkpoint, but it
//! is now about a third of an unchanged one, no longer most of it; `create`
//! pays what every checkpoint used to. One file per table was rejected:
//! writing and fsyncing 192 files of 54 KB took 70–250 ms against 16–22 ms
//! for one 10.4 MB file.
//!
//! Format 6 moved the D3L and Starmie column embeddings from the search
//! segment, rewritten by every checkpoint, into each table's pack entry.
//! Format 5 against format 6 on the narrow lake, Overlap / D3L / Starmie:
//! ms per call, the median of five alternating rounds on one core as
//! above (range over the rounds), and the bytes of an unchanged checkpoint:
//!
//! | | format 5 | format 6 |
//! |---|---|---|
//! | **checkpoint_unchanged** | **2.03 / 4.88 / 11.5** (1.7–2.2 / 4.8–5.9 / 9.7–14.2) | **2.00 / 2.05 / 1.32** (1.7–2.1 / 2.0–2.2 / 1.2–1.5) |
//! | unchanged checkpoint bytes | 247 451 / 1 644 651 / 3 670 389 | 247 451 / 247 451 / 116 645 |
//! | create | 26.9 / 29.6 / 35.8 (20–43) | 28.3 / 32.7 / 35.3 (25–38) |
//! | open | 16.4 / 18.0 / 18.6 (14–22) | 15.6 / 18.5 / 19.5 (14–24) |
//!
//! `create` and `open` move the same bytes as before, less the table names
//! the search segment no longer repeats, and stay inside the host's spread.
//!
//! ## Replay retrains once
//!
//! Recovery used to replay each WAL record through the live mutation, so a
//! fine-tuned open retrained the model and re-embedded the lake once per
//! record. It now applies every record's lake and index delta and retrains
//! once, on the final lake. Median ms per open over two alternating rounds
//! (one value per round), all cores of the shared 2-vCPU VM:
//!
//! | | before | after |
//! |---|---|---|
//! | `open_replay/narrow_ft/2` | 269 / 170 | 88 / 132 |
//! | `open_replay/narrow_ft/6` | 929 / 779 | 127 / 189 |
//! | `open_replay/wide_ft/2` | 204 / 253 | 98 / 101 |
//! | `open_replay/wide_ft/6` | 680 / 899 | 130 / 178 |
//!
//! Before, an open grew by one retrain per record; after, it is the load
//! plus one retrain, whatever the number of records. The other groups did
//! not move beyond the host's spread (`open/narrow` 13.3 / 10.2 before,
//! 10.3 / 11.8 after).

use criterion::{criterion_group, criterion_main, Criterion};
use dust_core::{
    DustResult, LakeSession, PipelineConfig, SearchTechnique, SessionOptions, SnapshotStore,
    StoreOptions, TupleEmbedderKind,
};
use dust_datagen::BenchmarkConfig;
use dust_embed::{FineTuneConfig, PretrainedModel};
use dust_table::DataLake;

/// A pre-trained session over the benchmark's lake of this shape.
fn benchmark_session(wide: bool, search: SearchTechnique) -> LakeSession {
    let config = PipelineConfig {
        search,
        ..PipelineConfig::fast()
    };
    LakeSession::with_options(benchmark_lake(wide), config, SessionOptions::default())
}

/// The benchmark's lake of this shape.
fn benchmark_lake(wide: bool) -> DataLake {
    let (name, num_domains, lake_tables_per_domain, base_rows, min_row_fraction, max_row_fraction) =
        if wide {
            ("wide", 4, 5, 480, 0.34, 0.36)
        } else {
            ("narrow", 12, 16, 50, 0.32, 0.38)
        };
    BenchmarkConfig {
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
    .lake
}

/// A session over the benchmark's lake of this shape under the
/// configuration `serve --finetune` trains (Overlap search).
fn fine_tuned_session(wide: bool) -> LakeSession {
    let config = PipelineConfig {
        embedder: TupleEmbedderKind::FineTuned {
            backbone: PretrainedModel::Roberta,
            config: FineTuneConfig {
                max_epochs: 15,
                patience: 3,
                ..FineTuneConfig::default()
            },
            training_pairs: 150,
        },
        ..PipelineConfig::fast()
    };
    LakeSession::new(benchmark_lake(wide), config)
}

/// The opened session answers as the live one did, bit for bit: its
/// generation, its tables and tuples, and the first query's diverse and
/// `similar` answers.
fn assert_serves_as(opened: &LakeSession, live: &LakeSession, what: &str) {
    let (a, b) = (opened.stats(), live.stats());
    assert_eq!(
        (opened.generation(), a.tables, a.tuples),
        (live.generation(), b.tables, b.tuples),
        "{what}: generation, tables or tuples differ"
    );
    let lake = live.lake();
    let probe = lake
        .queries()
        .next()
        .expect("the benchmark lake has queries");
    let (x, y) = (
        opened.query(probe, 5).unwrap(),
        live.query(probe, 5).unwrap(),
    );
    assert_eq!(x.tuples, y.tuples, "{what}: diverse tuples differ");
    let bits = |d: &DustResult| (d.diversity.average.to_bits(), d.diversity.minimum.to_bits());
    assert_eq!(bits(&x), bits(&y), "{what}: diversity differs");
    let similar = |s: &LakeSession| {
        let ranked = s.similar_tuples(probe, 10);
        ranked
            .into_iter()
            .map(|t| (t.table, t.row, t.score.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        similar(opened),
        similar(live),
        "{what}: similar answers differ"
    );
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
    let shapes: Vec<(&str, LakeSession)> = [
        ("narrow", false, SearchTechnique::Overlap),
        ("wide", true, SearchTechnique::Overlap),
        ("narrow_d3l", false, SearchTechnique::D3l),
        ("narrow_starmie", false, SearchTechnique::Starmie),
    ]
    .into_iter()
    .map(|(shape, wide, search)| (shape, benchmark_session(wide, search)))
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
    for (shape, session) in &shapes[..2] {
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

    // A fine-tuned directory with 2 WAL records after its checkpoint (one
    // table removed and added back; the benchmark's restart replays 2) and
    // with 6 (three tables), the most `--checkpoint-after 7` leaves.
    let mut group = c.benchmark_group("open_replay");
    for (shape, wide) in [("narrow_ft", false), ("wide_ft", true)] {
        let live = fine_tuned_session(wide);
        let dir = dir(shape);
        let mut store = SnapshotStore::create_with(&dir, &live, options).unwrap();
        let names = live.lake().table_names();
        for (records, name) in [2, 4, 6].into_iter().zip(names.iter().step_by(5)) {
            let table = live.remove_table(name).unwrap();
            store.log_remove_table(name, live.generation()).unwrap();
            live.add_table(table.clone()).unwrap();
            store.log_add_table(&table, live.generation()).unwrap();
            if records == 4 {
                continue;
            }
            let (_, opened, report) = SnapshotStore::open_with(&dir, options).unwrap();
            assert_eq!(report.replayed, records, "{shape}: WAL records");
            assert_serves_as(&opened, &live, &format!("{shape} after {records} records"));
            group.bench_function(format!("{shape}/{records}"), |b| {
                b.iter(|| SnapshotStore::open_with(&dir, options).unwrap())
            });
        }
        drop(store);
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
