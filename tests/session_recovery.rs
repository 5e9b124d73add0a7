//! Crash-safe recovery suite for the durable [`LakeSession`] store:
//! snapshot + WAL recovery must be a pure availability optimisation,
//! never a behaviour change — and damaged files must *fail typed*, never
//! panic, never serve silently wrong data.
//!
//! Two pinned properties:
//!
//! 1. **Equivalence** — after any mutation sequence (logged to the WAL,
//!    optionally checkpointed mid-sequence), `SnapshotStore::open` yields
//!    a session whose `query` and `similar_tuples` results are
//!    **bit-identical** to a fresh `LakeSession::new` over the
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

mod common;

use common::assert_same_result;
use dust_core::{
    LakeSession, PersistError, PipelineConfig, SearchTechnique, SessionError, SnapshotStore,
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

/// The recovered session vs a reference session, compared bit-for-bit on
/// every serving surface (`query`, `similar_tuples`).
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
    /// (no retraining on load), and WAL replay — up to 7 records, re-adds
    /// of removed tables included, applied as one batch — retrains once
    /// on the final lake; either way the recovered session matches a fresh
    /// rebuild that trains from scratch.
    #[test]
    fn fine_tuned_recovery_matches_fresh_rebuild(
        ops in prop::collection::vec(0usize..12, 0..8),
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
                // the reference starts at generation 0 even when the
                // recovered session legitimately rewound to a later one;
                // the comparison reads answers, never generations
                assert_eq!(reference.generation(), 0);
                let context = format!(
                    "fault {} pos {pos} on {}",
                    if truncate { "truncate" } else { "bit-flip" },
                    victim.display()
                );
                assert_sessions_match(&recovered, &reference, &context);
            }
        }
    }
}

/// Replayed WAL records publish no generation of their own: a restored
/// session's history ring starts empty, so a replayed intermediate is
/// evicted and only the recovered generation serves.
#[test]
fn a_restored_history_ring_holds_no_replayed_generation() {
    let tmp = TempDir::new("history");
    let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
    let pool = table_pool(&session.lake());
    let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
    for table in &pool[pool.len() - 3..] {
        apply_logged(&session, &mut store, table);
    }
    drop(store);

    let (_store, recovered, report) = SnapshotStore::open(&tmp.0).unwrap();
    assert_eq!(report.replayed, 3);
    let current = report.snapshot_generation + 3;
    assert_eq!(recovered.history_window(), (current, current, 0));
    let requested = report.snapshot_generation + 1;
    match recovered.view_at(requested) {
        Err(e @ SessionError::GenerationEvicted { .. }) => {
            assert_eq!(e.kind(), "generation_evicted");
            let evicted = SessionError::GenerationEvicted {
                requested,
                oldest: current,
                newest: current,
            };
            assert_eq!(e.to_string(), evicted.to_string());
        }
        Err(e) => panic!("expected generation_evicted, got {e:?}"),
        Ok(view) => panic!("served replayed generation {}", view.generation()),
    }
    let view = recovered.view_at(current).unwrap();
    assert_eq!(view.generation(), current);
    let probe = &probes(view.lake(), 1)[0];
    assert_same_result(
        &view.query(probe, 4).unwrap(),
        &session.query(probe, 4).unwrap(),
        "current generation after restore",
    );
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

/// A search segment whose CRC holds but whose index describes another
/// lake — one table fewer, or one table renamed so the index names a table
/// the lake lacks — is a typed `Corrupt` naming the segment: the decoded
/// index is checked against the decoded lake, since a stale index would
/// hand shortlist places to tables the lake cannot score.
#[test]
fn a_search_segment_of_another_lake_is_typed_corrupt() {
    let lake = tiny_lake();
    let victim = lake.table_names()[0].clone();
    let mut fewer = lake.clone();
    let removed = fewer.remove_table(&victim).unwrap();
    let mut renamed = fewer.clone();
    let rows: Vec<usize> = (0..removed.num_rows()).collect();
    renamed
        .add_table(removed.select(&rows, "zz_renamed").unwrap())
        .unwrap();
    for technique in [SearchTechnique::Overlap, SearchTechnique::D3l] {
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        for other in [&fewer, &renamed] {
            let (tmp, donor) = (TempDir::new("skew"), TempDir::new("donor"));
            LakeSession::new(lake.clone(), config.clone())
                .save(&tmp.0)
                .unwrap();
            LakeSession::new(other.clone(), config.clone())
                .save(&donor.0)
                .unwrap();
            let segment = tmp.0.join("seg-1-search.bin");
            std::fs::copy(donor.0.join("seg-1-search.bin"), &segment).unwrap();
            match SnapshotStore::open(&tmp.0).err() {
                Some(e @ PersistError::Corrupt { .. }) => {
                    assert_eq!(e.kind(), "corrupt");
                    assert!(e.to_string().contains("seg-1-search.bin"), "{e}");
                }
                other => panic!("{technique:?}: expected Corrupt, got {other:?}"),
            }
        }
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

/// The durable set is exactly lake + pack + search segment (+ the model
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
/// a `columns` segment), 2 (hashed tuple shards with per-row provenance),
/// 3 (every table and block rewritten by each checkpoint), 4 (index
/// postings as sets of table names) or 5 (D3L and Starmie column
/// embeddings in the search segment) — is refused with the typed version
/// error, the caller's cue to rebuild from the lake: never decoded on a
/// guess, never a panic.
#[test]
fn a_format_version_1_directory_is_a_typed_unsupported_version() {
    for found in [1u32, 2, 3, 4, 5] {
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
                    expected: 6,
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
/// one retrained every block, so it writes a new pack. Both sessions search
/// by Overlap, whose entries and search segment format 6 left as they
/// were: it moved the D3L and Starmie column embeddings into the entries,
/// and the version field of every file's header. So each file's payload
/// is hashed as well, against the value it had under format 5 — the
/// search segment's since format 5, every other payload (manifest, pack,
/// lake, model and the WAL's records) since format 4 — which proves the
/// bump moved nothing else.
#[test]
fn snapshot_directory_bytes_match_the_format_v6_goldens() {
    // (file, whole-file hash, payload hash)
    let pretrained: [(&str, u64, u64); 5] = [
        ("MANIFEST", 0x4522_5543_cb32_f2a8, 0x9817_0136_b014_dac7),
        (
            "seg-1-pack.bin",
            0x19b4_fbd5_7fb9_1adb,
            0x5f67_c297_1bce_66c1,
        ),
        (
            "seg-2-lake.bin",
            0x4dc1_6f84_0d4c_57bd,
            0x279f_d2ea_6a3c_512c,
        ),
        (
            "seg-2-search.bin",
            0x565c_b37d_fcd0_fafb,
            0x6fb2_f245_483c_6b13,
        ),
        ("wal-2.log", 0x1a1a_2d5b_77ef_7674, 0xc253_2af9_3002_0a57),
    ];
    let fine_tuned: [(&str, u64, u64); 6] = [
        ("MANIFEST", 0xdae9_0bb0_4c49_caab, 0x8cf2_685c_14f4_d49d),
        (
            "seg-2-lake.bin",
            0x9888_163b_2804_8564,
            0x23b1_7cbe_f10e_8cb7,
        ),
        (
            "seg-2-model.bin",
            0x38b6_7492_cac2_5f0d,
            0x27a2_c159_3e85_41f5,
        ),
        (
            "seg-2-pack.bin",
            0x604c_004b_3c70_d91c,
            0xe9c3_3412_3ead_248c,
        ),
        (
            "seg-2-search.bin",
            0x565c_b37d_fcd0_fafb,
            0x6fb2_f245_483c_6b13,
        ),
        ("wal-2.log", 0x1a1a_2d5b_77ef_7674, 0xc253_2af9_3002_0a57),
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

        let actual: Vec<(String, u64, u64)> = (read_files(&tmp.0).into_iter())
            .map(|(name, bytes)| {
                let hashes = (fnv1a(&bytes), fnv1a(payload(&name, &bytes)));
                (name, hashes.0, hashes.1)
            })
            .collect();
        let actual: Vec<(&str, u64, u64)> = (actual.iter())
            .map(|(name, file, payload)| (name.as_str(), *file, *payload))
            .collect();
        assert_eq!(actual, golden, "{:?}", session.config().embedder);
    }
}

/// The bugfix pinned by this test: a Starmie search segment of another lake
/// — a lake of the same table names whose first table lost its last column
/// — copied into a snapshot directory. Format 5 kept every table's column
/// embeddings in that segment, unchecked, so the directory opened and
/// ranked the first table by the other lake's columns. Now the segment
/// holds only the technique's tag and each table's columns come from the
/// entry that holds the table: the directory must open to answers
/// bit-identical to the saved session's, or fail typed.
#[test]
fn a_starmie_search_segment_of_another_lake_never_changes_an_answer() {
    let lake = tiny_lake();
    let first = lake.tables().next().unwrap().clone();
    let kept: Vec<usize> = (0..first.num_columns() - 1).collect();
    let mut other = lake.clone();
    other.remove_table(first.name()).unwrap();
    other
        .add_table(first.project(&kept, first.name()).unwrap())
        .unwrap();
    assert_eq!(other.table_names(), lake.table_names());
    let config = PipelineConfig {
        search: SearchTechnique::Starmie,
        ..PipelineConfig::fast()
    };
    let (tmp, donor) = (TempDir::new("starmie-skew"), TempDir::new("starmie-donor"));
    let saved = LakeSession::new(lake, config.clone());
    saved.save(&tmp.0).unwrap();
    LakeSession::new(other, config).save(&donor.0).unwrap();
    let segment = tmp.0.join("seg-1-search.bin");
    std::fs::copy(donor.0.join("seg-1-search.bin"), &segment).unwrap();
    match SnapshotStore::open(&tmp.0) {
        Ok((_store, opened, _report)) => {
            assert_sessions_match(&opened, &saved, "a donor's Starmie search segment")
        }
        Err(e) => assert_eq!(e.kind(), "corrupt", "{e}"),
    }
}

/// An unchanged checkpoint keeps the pack under every technique, and a D3L
/// or Starmie session's writes no more bytes than an Overlap session's over
/// the same lake: their column embeddings sit in the pack, beside their
/// tables, not in a segment every checkpoint rewrites.
#[test]
fn an_unchanged_checkpoint_writes_no_more_for_d3l_or_starmie_than_for_overlap() {
    let written = TECHNIQUES.map(|search| {
        let tmp = TempDir::new("unchanged");
        let config = PipelineConfig {
            search,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::new(tiny_lake(), config);
        let mut store = SnapshotStore::create(&tmp.0, &session).unwrap();
        store.checkpoint(&session).unwrap();
        assert_eq!(store.pack_epoch(), 1, "{search:?} rewrote the pack");
        store.last_checkpoint_bytes()
    });
    let [overlap, d3l, starmie] = written;
    assert!(d3l <= overlap, "D3L wrote {d3l} bytes, Overlap {overlap}");
    assert!(
        starmie <= overlap,
        "Starmie wrote {starmie} bytes, Overlap {overlap}"
    );
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
