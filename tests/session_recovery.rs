//! Crash-safe recovery suite for the durable [`LakeSession`] store:
//! snapshot + WAL recovery must be a pure availability optimisation,
//! never a behaviour change — and damaged files must *fail typed*, never
//! panic, never serve silently wrong data.
//!
//! Two pinned properties:
//!
//! 1. **Equivalence** — after any mutation sequence (logged to the WAL,
//!    optionally checkpointed mid-sequence), `SnapshotStore::open` yields
//!    a session whose `query`, `similar_tuples`, and `similar_columns`
//!    results are **bit-identical** to a fresh `LakeSession::new` over the
//!    mutated lake — across all three search techniques and both embedder
//!    kinds.
//! 2. **Fault injection** — flip a bit or truncate any file in the
//!    snapshot directory at a random offset; recovery then either still
//!    produces a bit-identical session (possible only for WAL truncation
//!    at a record boundary, which legitimately rewinds to an acknowledged
//!    prefix state, or a mutation that misses validated bytes entirely)
//!    or fails with a clean typed [`PersistError`]. The one outcome that
//!    must never happen is a panic or a session that answers differently
//!    from *some* acknowledged generation.

use dust_core::{
    DustResult, LakeSession, PersistError, PipelineConfig, SearchTechnique, SnapshotStore,
};
use dust_datagen::BenchmarkConfig;
use dust_embed::{FineTuneConfig, PretrainedModel};
use dust_table::{DataLake, Table};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TECHNIQUES: [SearchTechnique; 3] = [
    SearchTechnique::Overlap,
    SearchTechnique::D3l,
    SearchTechnique::Starmie,
];

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique, self-cleaning snapshot directory per proptest case.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dust-recovery-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_lake() -> DataLake {
    BenchmarkConfig::tiny().generate().lake
}

/// Same mutation pool as `tests/session_mutation.rs`: every tiny-lake
/// table (initially present) plus synthesized tables (initially absent);
/// an op index toggles one entry in or out of the lake.
fn table_pool(lake: &DataLake) -> Vec<Table> {
    let mut pool: Vec<Table> = lake.tables().cloned().collect();
    pool.push(
        Table::builder("extra_parks")
            .column("Park Name", ["Delta Park", "Echo Park", "Foxtrot Park"])
            .column("Country", ["USA", "USA", "Canada"])
            .build()
            .unwrap(),
    );
    pool.push(
        Table::builder("extra_molecules")
            .column("Formula", ["C8H10N4O2", "C9H8O4"])
            .column("Mass", ["194.19", "180.16"])
            .build()
            .unwrap(),
    );
    pool
}

/// Apply one toggle op through the session AND the durable store, exactly
/// as the `serve` binary does: mutate first, log only on success.
fn apply_logged(session: &LakeSession, store: &mut SnapshotStore, table: &Table) {
    if session.lake().table(table.name()).is_ok() {
        session.remove_table(table.name()).unwrap();
        store
            .log_remove_table(table.name(), session.generation())
            .unwrap();
    } else {
        session.add_table(table.clone()).unwrap();
        store.log_add_table(table, session.generation()).unwrap();
    }
}

/// A fine-tuned configuration small enough to train in a test.
fn tiny_fine_tuned_config() -> PipelineConfig {
    PipelineConfig {
        embedder: dust_core::TupleEmbedderKind::FineTuned {
            backbone: PretrainedModel::Bert,
            config: FineTuneConfig {
                hidden_dim: 16,
                output_dim: 8,
                max_epochs: 2,
                patience: 1,
                ..FineTuneConfig::default()
            },
            training_pairs: 40,
        },
        tables_per_query: 5,
        ..PipelineConfig::default()
    }
}

fn probes(lake: &DataLake, n: usize) -> Vec<Table> {
    lake.query_names()
        .iter()
        .take(n)
        .map(|name| lake.query(name).unwrap().clone())
        .collect()
}

/// Field-by-field equality, bit-exact on every floating-point score except
/// the wall-clock timings (which legitimately differ between runs).
fn assert_same_result(a: &DustResult, b: &DustResult, context: &str) {
    assert_eq!(a.tuples, b.tuples, "{context}: selected tuples differ");
    assert_eq!(
        a.retrieved_tables, b.retrieved_tables,
        "{context}: retrieved tables differ"
    );
    assert_eq!(
        a.dropped_tables, b.dropped_tables,
        "{context}: dropped-table diagnostics differ"
    );
    assert_eq!(a.alignment, b.alignment, "{context}: alignment differs");
    assert_eq!(
        a.candidate_tuples, b.candidate_tuples,
        "{context}: candidate pool size differs"
    );
    assert_eq!(
        a.diversity.average.to_bits(),
        b.diversity.average.to_bits(),
        "{context}: average diversity differs"
    );
    assert_eq!(
        a.diversity.minimum.to_bits(),
        b.diversity.minimum.to_bits(),
        "{context}: min diversity differs"
    );
}

/// The recovered session vs a reference session, compared bit-for-bit on
/// every serving surface (`query`, `similar_tuples`, `similar_columns`).
fn assert_sessions_match(recovered: &LakeSession, reference: &LakeSession, context: &str) {
    let (rs, fs) = (recovered.stats(), reference.stats());
    assert_eq!(rs.tables, fs.tables, "{context}: table counts differ");
    assert_eq!(rs.tuples, fs.tuples, "{context}: tuple counts differ");
    assert_eq!(rs.columns, fs.columns, "{context}: column counts differ");

    for (qi, probe) in probes(&reference.lake(), 2).iter().enumerate() {
        let a = recovered.query(probe, 4).unwrap();
        let b = reference.query(probe, 4).unwrap();
        assert_same_result(&a, &b, &format!("{context}: query {qi}"));

        let at = recovered.similar_tuples(probe, 8);
        let bt = reference.similar_tuples(probe, 8);
        assert_eq!(at.len(), bt.len(), "{context}: similar_tuples length");
        for (x, y) in at.iter().zip(&bt) {
            assert_eq!(
                (&x.table, x.row, x.score.to_bits()),
                (&y.table, y.row, y.score.to_bits()),
                "{context}: similar_tuples entry differs"
            );
        }

        let probe_col = probe.column(0).unwrap();
        let ac = recovered.similar_columns(probe_col, 6);
        let bc = reference.similar_columns(probe_col, 6);
        assert_eq!(ac.len(), bc.len(), "{context}: similar_columns length");
        for (x, y) in ac.iter().zip(&bc) {
            assert_eq!(
                (&x.table, &x.column, x.score.to_bits()),
                (&y.table, &y.column, y.score.to_bits()),
                "{context}: similar_columns entry differs"
            );
        }
    }
}

/// A fresh session over the same lake and config — the "never persisted
/// anything" reference the recovered session must be indistinguishable
/// from.
fn fresh_rebuild(of: &LakeSession) -> LakeSession {
    LakeSession::new(of.lake().clone(), of.config().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Save → mutate (logged) → optional mid-sequence checkpoint → drop →
    /// open: the recovered session must match both the live session it
    /// replaces and a fresh rebuild over the mutated lake, bit for bit,
    /// for all three search techniques.
    #[test]
    fn recovery_matches_live_session_and_fresh_rebuild(
        ops in prop::collection::vec(0usize..12, 0..6),
        checkpoint_at in 0usize..8,
    ) {
        for technique in TECHNIQUES {
            let tmp = TempDir::new("equiv");
            let config = PipelineConfig { search: technique, ..PipelineConfig::fast() };
            let session = LakeSession::new(tiny_lake(), config);
            let pool = table_pool(&session.lake());
            let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
            for (i, &op) in ops.iter().enumerate() {
                apply_logged(&session, &mut store, &pool[op % pool.len()]);
                if i == checkpoint_at {
                    store.checkpoint(&session).unwrap();
                }
            }
            // the comparison queries need candidates
            if session.lake().num_tables() == 0 {
                apply_logged(&session, &mut store, &pool[0]);
            }
            drop(store);

            let (_store, recovered, report) = SnapshotStore::open(&tmp.0).unwrap();
            prop_assert_eq!(
                report.snapshot_generation + report.replayed as u64,
                session.generation()
            );
            prop_assert_eq!(recovered.generation(), session.generation());
            let context = format!("{technique:?}, ops {ops:?}, ckpt@{checkpoint_at}");
            assert_sessions_match(&recovered, &session, &context);
            assert_sessions_match(&recovered, &fresh_rebuild(&session), &format!("{context} vs fresh"));
        }
    }

    /// The fine-tuned embedder: the snapshot persists the *trained* model
    /// (no retraining on load), and WAL replay retrains deterministically
    /// — either way the recovered session matches a fresh rebuild that
    /// trains from scratch.
    #[test]
    fn fine_tuned_recovery_matches_fresh_rebuild(
        ops in prop::collection::vec(0usize..12, 0..3),
    ) {
        let tmp = TempDir::new("finetune");
        let session = LakeSession::new(tiny_lake(), tiny_fine_tuned_config());
        let pool = table_pool(&session.lake());
        let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
        for &op in &ops {
            apply_logged(&session, &mut store, &pool[op % pool.len()]);
        }
        drop(store);

        let (_store, recovered, _report) = SnapshotStore::open(&tmp.0).unwrap();
        prop_assert_eq!(recovered.generation(), session.generation());
        let context = format!("fine-tuned, ops {ops:?}");
        assert_sessions_match(&recovered, &session, &context);
        assert_sessions_match(&recovered, &fresh_rebuild(&session), &format!("{context} vs fresh"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Damage one file in a populated snapshot directory — a single bit
    /// flip or a truncation at an arbitrary offset — then recover.
    /// Allowed outcomes:
    ///
    /// * a clean typed [`PersistError`] (its `kind()` is one of the
    ///   documented classes), or
    /// * a successfully recovered session that is bit-identical to a
    ///   fresh rebuild of **some acknowledged generation** (WAL
    ///   truncation at a record boundary rewinds to an earlier
    ///   generation; that is the only silent-success path and it is still
    ///   exact).
    ///
    /// Panics and divergent answers are the outlawed outcomes.
    #[test]
    fn fault_injection_fails_typed_or_recovers_exactly(
        file_pick in 0usize..64,
        truncate_pick in 0u8..2,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let truncate = truncate_pick == 1;
        let tmp = TempDir::new("fault");
        let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
        let pool = table_pool(&session.lake());
        let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();

        // Lake state at every acknowledged generation, for the rewind check.
        // The checkpoint after the first mutation keeps epoch 1's pack and
        // writes the added table inline, so both are among the victims.
        let mut lake_states = vec![session.lake().clone()];
        apply_logged(&session, &mut store, &pool[pool.len() - 1]);
        lake_states.push(session.lake().clone());
        store.checkpoint(&session).unwrap();
        prop_assert_eq!((store.epoch(), store.pack_epoch()), (2, 1));
        apply_logged(&session, &mut store, &pool[0]);
        lake_states.push(session.lake().clone());
        drop(store);

        // pick a victim file and damage it
        let mut files: Vec<PathBuf> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = &files[file_pick % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        prop_assert!(!bytes.is_empty(), "every snapshot file has at least a header");
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(victim, &bytes).unwrap();

        match SnapshotStore::open(&tmp.0) {
            Err(e) => {
                let kind = e.kind();
                prop_assert!(
                    ["io", "corrupt", "unsupported_version", "no_snapshot", "replay"]
                        .contains(&kind),
                    "unknown error kind {kind:?} for {e}"
                );
                prop_assert!(!e.to_string().is_empty());
                // graceful degradation: the same directory must accept a
                // rebuilt-from-lake session afterwards
                let rebuilt = fresh_rebuild(&session);
                SnapshotStore::create(&tmp.0, &rebuilt).unwrap();
                let (_s, reopened, _r) = SnapshotStore::open(&tmp.0).unwrap();
                assert_sessions_match(&reopened, &rebuilt, "post-fault re-create");
            }
            Ok((_store, recovered, report)) => {
                // Success is only legitimate at an acknowledged generation;
                // the answers there must be exact.
                let generation = recovered.generation();
                prop_assert_eq!(
                    report.snapshot_generation + report.replayed as u64,
                    generation
                );
                prop_assert!(
                    (generation as usize) < lake_states.len(),
                    "recovered generation {generation} was never acknowledged"
                );
                let reference = LakeSession::new(
                    lake_states[generation as usize].clone(),
                    session.config().clone(),
                );
                // generations agree by construction only when no rewind
                // happened; align them for the comparison helper
                assert_eq!(reference.generation(), 0);
                let context = format!(
                    "fault {} pos {pos} on {}",
                    if truncate { "truncate" } else { "bit-flip" },
                    victim.display()
                );
                assert_recovered_matches_reference(&recovered, &reference, &context);
            }
        }
    }
}

/// Like [`assert_sessions_match`] but without the generation check: the
/// reference is rebuilt from a recorded lake state and starts at
/// generation 0 even when the recovered session legitimately rewound to a
/// later one.
fn assert_recovered_matches_reference(
    recovered: &LakeSession,
    reference: &LakeSession,
    context: &str,
) {
    let (rs, fs) = (recovered.stats(), reference.stats());
    assert_eq!(rs.tables, fs.tables, "{context}: table counts differ");
    assert_eq!(rs.tuples, fs.tuples, "{context}: tuple counts differ");
    assert_eq!(rs.columns, fs.columns, "{context}: column counts differ");
    for (qi, probe) in probes(&reference.lake(), 1).iter().enumerate() {
        let a = recovered.query(probe, 4).unwrap();
        let b = reference.query(probe, 4).unwrap();
        assert_same_result(&a, &b, &format!("{context}: query {qi}"));
        let at = recovered.similar_tuples(probe, 8);
        let bt = reference.similar_tuples(probe, 8);
        assert_eq!(at.len(), bt.len(), "{context}: similar_tuples length");
        for (x, y) in at.iter().zip(&bt) {
            assert_eq!(
                (&x.table, x.row, x.score.to_bits()),
                (&y.table, y.row, y.score.to_bits()),
                "{context}: similar_tuples entry differs"
            );
        }
    }
}

/// Deleting a required segment outright (not just damaging it) is also a
/// typed error, and `NoSnapshot` is reserved for a genuinely empty
/// directory.
#[test]
fn missing_segment_is_typed_and_distinct_from_empty_dir() {
    let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
    for segment in ["seg-1-search.bin", "seg-1-pack.bin"] {
        let tmp = TempDir::new("missing");
        session.save(&tmp.0).unwrap();
        let victim = tmp.0.join(segment);
        std::fs::remove_file(&victim).unwrap();
        match SnapshotStore::open(&tmp.0) {
            Err(PersistError::Io { path, .. }) => assert_eq!(path, victim),
            other => panic!("expected Io for missing {segment}, got {:?}", other.err()),
        }
    }

    let empty = TempDir::new("empty");
    match SnapshotStore::open(&empty.0) {
        Err(PersistError::NoSnapshot { dir }) => assert_eq!(dir, empty.0),
        other => panic!("expected NoSnapshot, got {:?}", other.err()),
    }
}

fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The directory holds exactly what the store's manifest names: `MANIFEST`,
/// the epoch's lake and search segments (+ the model iff one was trained),
/// its pack and its WAL — no superseded epoch, no leaked pack.
fn assert_directory_is_the_manifests(store: &SnapshotStore, dir: &Path, has_model: bool) {
    let (epoch, pack) = (store.epoch(), store.pack_epoch());
    let mut expected = vec![
        "MANIFEST".to_string(),
        format!("seg-{epoch}-lake.bin"),
        format!("seg-{pack}-pack.bin"),
        format!("seg-{epoch}-search.bin"),
        format!("wal-{epoch}.log"),
    ];
    if has_model {
        expected.push(format!("seg-{epoch}-model.bin"));
    }
    expected.sort();
    assert_eq!(file_names(dir), expected, "epoch {epoch}, pack {pack}");
}

/// The durable set is exactly lake + pack + search structures (+ the model
/// iff one was trained) + WAL: nothing the served paths never read — in
/// particular no `columns` segment — reaches the disk.
#[test]
fn a_fresh_snapshot_directory_holds_exactly_the_served_segments() {
    for (config, has_model) in [
        (PipelineConfig::fast(), false),
        (tiny_fine_tuned_config(), true),
    ] {
        let tmp = TempDir::new("file-set");
        let session = LakeSession::new(tiny_lake(), config);
        let store = SnapshotStore::create(&tmp.0, &session).unwrap();
        assert_eq!((store.epoch(), store.pack_epoch()), (1, 1));
        assert_directory_is_the_manifests(&store, &tmp.0, has_model);
    }
}

/// A directory written under an older format version — 1 (which carried
/// a `columns` segment), 2 (hashed tuple shards with per-row provenance)
/// or 3 (every table and block rewritten by each checkpoint) — is refused
/// with the typed version error, the caller's cue to rebuild from the
/// lake: never decoded on a guess, never a panic.
#[test]
fn a_format_version_1_directory_is_a_typed_unsupported_version() {
    for found in [1u32, 2, 3] {
        let tmp = TempDir::new(&format!("v{found}"));
        let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
        session.save(&tmp.0).unwrap();
        // every file shares one frame: 8 magic bytes, then the version as
        // a little-endian u32 (validated before anything after it is read)
        for name in file_names(&tmp.0) {
            let path = tmp.0.join(name);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }
        match &SnapshotStore::open(&tmp.0).err() {
            Some(
                e @ PersistError::UnsupportedVersion {
                    found: f,
                    expected: 4,
                    ..
                },
            ) if *f == found => assert_eq!(e.kind(), "unsupported_version"),
            other => panic!("v{found}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// FNV-1a-64 of a byte string, with the constants
/// `tests/finetune_integration.rs` pins its training goldens with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What follows a file's header: a segment's payload (between the 13-byte
/// frame header and the 4-byte CRC trailer), or a WAL's records (after its
/// 24-byte header).
fn payload<'a>(name: &str, bytes: &'a [u8]) -> &'a [u8] {
    if name.starts_with("wal-") {
        &bytes[24..]
    } else {
        &bytes[13..bytes.len() - 4]
    }
}

/// Every stored byte is pinned: a `tiny` session is saved, mutated once,
/// checkpointed (epoch 2) and mutated twice more (two WAL records), and
/// each file in the directory is hashed whole. The pre-trained checkpoint
/// keeps epoch 1's pack and writes the added table inline; the fine-tuned
/// one retrained every block, so it writes a new pack. Format 4 changed
/// only the manifest (a pack epoch), the lake segment (a pack index or an
/// inline entry per table) and the pack (the tables and blocks of format
/// 3's lake and tuple segments); the payloads of the search and model
/// segments and the WAL's records are hashed as well, against the values
/// they have had since format 2, so the version bump is proven to have
/// moved nothing else.
#[test]
fn snapshot_directory_bytes_match_the_format_v4_goldens() {
    let pretrained: [(&str, u64); 5] = [
        ("MANIFEST", 0xc704_822c_ceda_b542),
        ("seg-1-pack.bin", 0x7062_075a_7883_787f),
        ("seg-2-lake.bin", 0x4a88_e972_f64c_a068),
        ("seg-2-search.bin", 0x2e38_f34c_a5f8_5f67),
        ("wal-2.log", 0x29af_a88c_a07c_4b2c),
    ];
    let fine_tuned: [(&str, u64); 6] = [
        ("MANIFEST", 0xbfd0_8a2d_4c11_3fd7),
        ("seg-2-lake.bin", 0xd423_5757_6d74_9577),
        ("seg-2-model.bin", 0x07ec_e040_ad8c_9fbb),
        ("seg-2-pack.bin", 0x9031_b3c3_4a41_bce0),
        ("seg-2-search.bin", 0x2e38_f34c_a5f8_5f67),
        ("wal-2.log", 0x29af_a88c_a07c_4b2c),
    ];
    let unchanged_payloads: [(&str, u64); 3] = [
        ("seg-2-model.bin", 0x27a2_c159_3e85_41f5),
        ("seg-2-search.bin", 0x0b21_6f1d_7c35_67c2),
        ("wal-2.log", 0xc253_2af9_3002_0a57),
    ];
    for (config, golden) in [
        (PipelineConfig::fast(), &pretrained[..]),
        (tiny_fine_tuned_config(), &fine_tuned[..]),
    ] {
        let tmp = TempDir::new("golden");
        let session = LakeSession::new(tiny_lake(), config);
        let pool = table_pool(&session.lake());
        let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
        apply_logged(&session, &mut store, &pool[pool.len() - 2]);
        store.checkpoint(&session).unwrap();
        apply_logged(&session, &mut store, &pool[0]);
        apply_logged(&session, &mut store, &pool[pool.len() - 1]);
        drop(store);

        let files: Vec<(String, Vec<u8>)> = file_names(&tmp.0)
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(tmp.0.join(&name)).unwrap();
                (name, bytes)
            })
            .collect();
        for (name, bytes) in &files {
            if let Some(&(_, hash)) = unchanged_payloads.iter().find(|(n, _)| n == name) {
                assert_eq!(fnv1a(payload(name, bytes)), hash, "{name} payload moved");
            }
        }
        let actual: Vec<(&str, u64)> = (files.iter())
            .map(|(name, bytes)| (name.as_str(), fnv1a(bytes)))
            .collect();
        assert_eq!(actual, golden, "{:?}", session.config().embedder);
    }
}

/// Every file in `dir`, by name.
fn read_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    (file_names(dir).into_iter())
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect()
}

/// A crash *during* checkpoint must leave the previous epoch fully
/// servable. Two crashes before the manifest's atomic rename: one that
/// left partial epoch-2 files, and one that had written the whole of epoch
/// 2 — a new pack included — beside epoch 1 and its pack.
#[test]
fn old_epoch_survives_a_simulated_checkpoint_crash() {
    let tmp = TempDir::new("ckpt-crash");
    let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
    let pool = table_pool(&session.lake());
    let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
    apply_logged(&session, &mut store, &pool[pool.len() - 1]);
    drop(store);

    // A checkpoint that crashed after writing some epoch-2 files but
    // before publishing MANIFEST: epoch-2 leftovers sit beside epoch 1.
    std::fs::write(tmp.0.join("seg-2-lake.bin"), b"partial garbage").unwrap();
    std::fs::write(tmp.0.join("wal-2.log"), b"more garbage").unwrap();

    let (mut store, recovered, report) = SnapshotStore::open(&tmp.0).unwrap();
    assert_eq!(report.replayed, 1);
    assert_sessions_match(&recovered, &session, "recovery beside crashed checkpoint");

    // Remove two thirds of the lake, so the next checkpoint's pack rule
    // writes a new pack, and keep the directory as it was before it.
    for table in &pool[..6] {
        apply_logged(&recovered, &mut store, table);
    }
    let before = read_files(&tmp.0);
    store.checkpoint(&recovered).unwrap();
    assert_eq!((store.epoch(), store.pack_epoch()), (2, 2));
    drop(store);
    // The crash: epoch 2 and its pack are complete on disk, but MANIFEST
    // still names epoch 1 and its pack.
    let epoch_1 =
        |name: &str| name == "MANIFEST" || name.starts_with("seg-1-") || name == "wal-1.log";
    for (name, bytes) in before.iter().filter(|(name, _)| epoch_1(name)) {
        std::fs::write(tmp.0.join(name), bytes).unwrap();
    }
    assert!(tmp.0.join("seg-2-pack.bin").exists());
    let (mut store, reopened, report) = SnapshotStore::open(&tmp.0).unwrap();
    assert_eq!(
        (store.epoch(), store.pack_epoch(), report.replayed),
        (1, 1, 7)
    );
    assert_sessions_match(&reopened, &recovered, "recovery beside an unpublished pack");
    assert_sessions_match(&reopened, &fresh_rebuild(&recovered), "… vs fresh");
    // the next checkpoint sweeps the unpublished epoch's leftovers
    store.checkpoint(&reopened).unwrap();
    assert_directory_is_the_manifests(&store, &tmp.0, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A random chain of table toggles, checkpoints and reopens (drop the
    /// store, `open`, continue on the recovered session), on every search
    /// technique and on the fine-tuned embedder. After every reopen the
    /// recovered session matches the live one and a fresh rebuild, and
    /// after every checkpoint and reopen the directory holds exactly what
    /// the manifest names. On a pre-trained lake of at least four tables
    /// whose pack holds every table as it is, one mutation's checkpoint
    /// keeps the pack and writes less than `create` did.
    #[test]
    fn checkpoint_chains_recover_exactly_and_leak_no_pack(
        steps in prop::collection::vec(0usize..16, 0..10),
    ) {
        let pretrained = TECHNIQUES.map(|search| PipelineConfig { search, ..PipelineConfig::fast() });
        for config in pretrained.into_iter().chain([tiny_fine_tuned_config()]) {
            let fine_tuned = matches!(config.embedder, dust_core::TupleEmbedderKind::FineTuned { .. });
            let tmp = TempDir::new("chain");
            let mut session = LakeSession::new(tiny_lake(), config);
            let pool = table_pool(&session.lake());
            let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
            let created = store.last_checkpoint_bytes();
            let context = format!("{:?}, steps {steps:?}", session.config());
            if !fine_tuned {
                assert_one_mutation_keeps_the_pack(&session, &mut store, &pool, created, &context);
            }
            for (i, &step) in steps.iter().enumerate() {
                let context = format!("{context} @ {i}");
                match step {
                    0..12 => apply_logged(&session, &mut store, &pool[step % pool.len()]),
                    12 | 13 => store.checkpoint(&session).unwrap(),
                    _ => {
                        drop(store);
                        let (reopened, recovered, report) = SnapshotStore::open(&tmp.0).unwrap();
                        prop_assert_eq!(recovered.generation(), session.generation());
                        // the comparison queries need candidates
                        if session.lake().num_tables() > 0 {
                            assert_sessions_match(&recovered, &session, &context);
                            let fresh = fresh_rebuild(&session);
                            assert_sessions_match(&recovered, &fresh, &format!("{context} vs fresh"));
                        }
                        (store, session) = (reopened, recovered);
                        let whole_pack = store.pack_epoch() == store.epoch() && report.replayed == 0;
                        if !fine_tuned && whole_pack && session.lake().num_tables() >= 4 {
                            assert_one_mutation_keeps_the_pack(&session, &mut store, &pool, created, &context);
                        }
                    }
                }
                if step >= 12 {
                    assert_directory_is_the_manifests(&store, &tmp.0, fine_tuned);
                }
            }
        }
    }
}

/// Toggle the pool's smallest table (`extra_molecules`, two rows) and
/// checkpoint: with a pack that holds every other table as it is, that
/// table's entry is the only inline or dead one, well under half the live
/// bytes, so the pack's file name stays and the checkpoint writes less
/// than `create`, which wrote every table.
fn assert_one_mutation_keeps_the_pack(
    session: &LakeSession,
    store: &mut SnapshotStore,
    pool: &[Table],
    created: u64,
    context: &str,
) {
    let pack = store.pack_epoch();
    apply_logged(session, store, pool.last().unwrap());
    store.checkpoint(session).unwrap();
    assert_eq!(
        store.pack_epoch(),
        pack,
        "{context}: one mutation rewrote the pack"
    );
    assert!(
        store.last_checkpoint_bytes() < created,
        "{context}: a one-mutation checkpoint wrote {} bytes, create {created}",
        store.last_checkpoint_bytes()
    );
}
