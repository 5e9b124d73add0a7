//! Durable persistence for [`LakeSession`]: versioned snapshot + WAL.
//!
//! A session lives in a *snapshot directory*:
//!
//! ```text
//! snapshot-dir/
//! ├── MANIFEST              epoch + pack epoch + config  (atomically replaced)
//! ├── seg-{b}-pack.bin      immutable: each table of epoch b + its block
//! ├── seg-{e}-lake.bin      name, queries, ground truth; per table a pack
//! │                         index, or the table + block inline if changed
//! ├── seg-{e}-search.bin    the technique's tag + its inverted index
//! ├── seg-{e}-model.bin     trained projection head (model sessions only)
//! └── wal-{e}.log           LSN-stamped mutations since the snapshot
//! ```
//!
//! Every file is magic-tagged, format-versioned (currently version 6; any
//! other version is a typed `UnsupportedVersion`, answered by rebuilding
//! from the lake), and CRC-32 sealed ([`codec`]); damage is *detected* and
//! reported as a typed [`PersistError`], never served. The durable set is
//! exactly what served traffic reads. A table's block — its tuple
//! embeddings and, under D3L and Starmie, its column embeddings — is
//! written beside its rows in one entry, so the table, not the lake, is
//! the unit a checkpoint writes.
//!
//! Recovery = load the manifest's epoch (model, pack, lake, search), then
//! apply the whole WAL as one generation through the session's one mutation
//! path (a lake-derived model retrains once) — the restored session answers
//! queries bit-identically to the one that saved (`tests/session_recovery.rs`).
//!
//! Checkpointing writes epoch `e+1` — its lake, search and model segments
//! and an empty WAL — and only what changed: a table whose `Arc`s are the
//! ones the pack was written from or decoded into is named by its pack
//! index, any other is written inline. A new pack `seg-{e+1}-pack.bin`
//! holding every table is written instead iff inline bytes + dead pack
//! bytes ≥ ½ × live bytes (the pack rule in [`snapshot`]), so a restart
//! reads at most 1.5 × live. Then `MANIFEST` is atomically swung and every
//! file it does not name is deleted. A crash anywhere in that sequence
//! leaves a fully consistent directory.

mod codec;
mod error;
mod snapshot;
mod wal;

pub use error::{PersistError, SessionError};
pub use wal::WalOp;

use crate::session::LakeSession;
use dust_table::Table;
use std::path::{Path, PathBuf};

/// Tuning knobs for a [`SnapshotStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rewrite the snapshot and truncate the WAL once this many records
    /// have accumulated since the last checkpoint (`maybe_checkpoint`).
    pub checkpoint_after: usize,
    /// Also rewrite once this many WAL **bytes** accumulated since the
    /// last checkpoint, whichever trigger fires first. Record count is a
    /// poor proxy for replay cost when table sizes vary wildly — a handful
    /// of million-row `AddTable` records can out-weigh hundreds of small
    /// ones. `u64::MAX` disables the byte trigger.
    pub checkpoint_after_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            checkpoint_after: 64,
            checkpoint_after_bytes: 64 << 20,
        }
    }
}

/// What recovery found when opening a snapshot directory.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Generation stored in the snapshot itself.
    pub snapshot_generation: u64,
    /// Number of WAL records replayed on top of it.
    pub replayed: usize,
    /// Whether a torn (partially written) trailing WAL record was dropped.
    pub dropped_torn_tail: bool,
}

/// Handle to a snapshot directory with a live, appendable WAL.
///
/// Obtained from [`SnapshotStore::create`] (persist a session for the
/// first time, or overwrite) or [`SnapshotStore::open`] (recover). While
/// serving, call [`log_add_table`](SnapshotStore::log_add_table) /
/// [`log_remove_table`](SnapshotStore::log_remove_table) *after* each
/// successfully applied mutation — failed mutations are never logged — and
/// [`maybe_checkpoint`](SnapshotStore::maybe_checkpoint) to bound replay
/// time.
pub struct SnapshotStore {
    dir: PathBuf,
    epoch: u64,
    /// The pack the current epoch indexes, and what its entries hold.
    pack: snapshot::Pack,
    wal: wal::WalWriter,
    records_since_checkpoint: usize,
    bytes_since_checkpoint: u64,
    /// Bytes the last checkpoint (or `create`) wrote; 0 after `open`.
    last_checkpoint_bytes: u64,
    options: StoreOptions,
}

impl SnapshotStore {
    /// Persist `session` into `dir` as a fresh epoch-1 snapshot with an
    /// empty WAL, replacing whatever the directory held before.
    pub fn create(dir: &Path, session: &LakeSession) -> Result<SnapshotStore, PersistError> {
        Self::create_with(dir, session, StoreOptions::default())
    }

    /// [`create`](SnapshotStore::create) with explicit [`StoreOptions`].
    pub fn create_with(
        dir: &Path,
        session: &LakeSession,
        options: StoreOptions,
    ) -> Result<SnapshotStore, PersistError> {
        std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
        // no pack yet: the pack rule writes every table into a new one
        let (epoch, pack) = (1, snapshot::Pack::default());
        let written = write_epoch(dir, session, epoch, &pack)?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            epoch,
            pack: written.new_pack.unwrap_or(pack),
            wal: written.wal,
            records_since_checkpoint: 0,
            bytes_since_checkpoint: 0,
            last_checkpoint_bytes: written.bytes,
            options,
        })
    }

    /// Recover a session from `dir`: load the manifest's epoch, apply the
    /// whole WAL as one prepared generation (a fine-tuned model retrains at
    /// most once), and return the store reopened for appending (a dropped
    /// torn tail is truncated away first).
    pub fn open(dir: &Path) -> Result<(SnapshotStore, LakeSession, RecoveryReport), PersistError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`open`](SnapshotStore::open) with explicit [`StoreOptions`].
    pub fn open_with(
        dir: &Path,
        options: StoreOptions,
    ) -> Result<(SnapshotStore, LakeSession, RecoveryReport), PersistError> {
        let manifest = snapshot::read_manifest(dir)?;
        let (session, pack) = snapshot::load_session(dir, &manifest)?;

        let wal_path = snapshot::wal_path(dir, manifest.epoch);
        let (contents, valid_len) = wal::read_wal(&wal_path)?;
        if contents.base_generation != manifest.generation {
            return Err(PersistError::corrupt(
                &wal_path,
                format!(
                    "WAL extends generation {} but the snapshot is at {}",
                    contents.base_generation, manifest.generation
                ),
            ));
        }
        let replayed = contents.records.len();
        let base = manifest.generation;
        let mut ops = Vec::with_capacity(replayed);
        // a gap is refused before any op applies, so before any retrain
        for (expected, (lsn, op)) in (base + 1..).zip(contents.records) {
            if lsn != expected {
                let detail = format!("session is at generation {}", expected - 1);
                return Err(PersistError::Replay { lsn, detail });
            }
            ops.push(op);
        }
        let session = session
            .replay(ops)
            .map_err(|(at, e)| PersistError::Replay {
                lsn: base + 1 + at as u64,
                detail: e.to_string(),
            })?;

        let next_lsn = session.generation() + 1;
        let wal = wal::WalWriter::reopen(&wal_path, next_lsn, valid_len)?;
        let report = RecoveryReport {
            snapshot_generation: manifest.generation,
            replayed,
            dropped_torn_tail: contents.dropped_torn_tail,
        };
        Ok((
            SnapshotStore {
                dir: dir.to_path_buf(),
                epoch: manifest.epoch,
                pack,
                wal,
                records_since_checkpoint: replayed,
                // Everything after the fixed WAL header is replayed record
                // bytes — the byte trigger survives restarts exactly.
                bytes_since_checkpoint: valid_len.saturating_sub(wal::HEADER_LEN as u64),
                last_checkpoint_bytes: 0,
                options,
            },
            session,
            report,
        ))
    }

    /// Log an already-applied `add_table` mutation. `generation` is the
    /// session's generation *after* the mutation; it must equal the LSN
    /// this record gets, which catches any store/session desync at the
    /// call site instead of at the next recovery.
    pub fn log_add_table(&mut self, table: &Table, generation: u64) -> Result<(), PersistError> {
        self.log(&wal::Record::add_table(table), generation)
    }

    /// Log an already-applied `remove_table` mutation (see
    /// [`log_add_table`](SnapshotStore::log_add_table)).
    pub fn log_remove_table(&mut self, name: &str, generation: u64) -> Result<(), PersistError> {
        self.log(&wal::Record::remove_table(name), generation)
    }

    fn log(&mut self, record: &wal::Record, generation: u64) -> Result<(), PersistError> {
        let expected = self.wal.next_lsn();
        if generation != expected {
            return Err(PersistError::Replay {
                lsn: expected,
                detail: format!("session generation {generation} does not match the next LSN"),
            });
        }
        let (_lsn, bytes) = self.wal.append(record)?;
        self.records_since_checkpoint += 1;
        self.bytes_since_checkpoint += bytes as u64;
        Ok(())
    }

    /// Snapshot the session's current generation as a new epoch and start
    /// an empty WAL, bounding future recovery replay to zero. The whole
    /// epoch photographs **one** pinned generation, so a checkpoint is
    /// internally consistent even while readers and the caller's other
    /// threads keep working. Only what changed is written: tables still
    /// held by the pack are named by index, the rest inline, unless the
    /// pack rule (see `snapshot`) calls for a new pack. Crash-safe: the new
    /// epoch (and pack) is complete and fsynced before `MANIFEST` is
    /// atomically swung to it; files the new manifest does not name are
    /// deleted only afterwards.
    ///
    /// The caller must ensure no mutation is applied-but-not-yet-logged
    /// while this runs (the `serve` binary holds its durability lock
    /// across apply + log + checkpoint), otherwise that mutation would be
    /// neither in the new snapshot nor in the new WAL.
    pub fn checkpoint(&mut self, session: &LakeSession) -> Result<(), PersistError> {
        let epoch = self.epoch + 1;
        let written = write_epoch(&self.dir, session, epoch, &self.pack)?;
        if let Some(pack) = written.new_pack {
            self.pack = pack;
        }
        self.epoch = epoch;
        self.wal = written.wal;
        self.records_since_checkpoint = 0;
        self.bytes_since_checkpoint = 0;
        self.last_checkpoint_bytes = written.bytes;
        Ok(())
    }

    /// [`checkpoint`](SnapshotStore::checkpoint) iff at least
    /// `checkpoint_after` records **or** `checkpoint_after_bytes` WAL
    /// bytes accumulated since the last one — whichever trigger fires
    /// first. Returns whether a checkpoint ran.
    pub fn maybe_checkpoint(&mut self, session: &LakeSession) -> Result<bool, PersistError> {
        if self.records_since_checkpoint >= self.options.checkpoint_after
            || self.bytes_since_checkpoint >= self.options.checkpoint_after_bytes
        {
            self.checkpoint(session)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch whose `seg-{pack_epoch}-pack.bin` the current epoch
    /// indexes; it moves only when a checkpoint writes a new pack.
    pub fn pack_epoch(&self) -> u64 {
        self.pack.epoch
    }

    /// Bytes the last [`checkpoint`](SnapshotStore::checkpoint) (or
    /// [`create`](SnapshotStore::create)) wrote — segments, pack if one was
    /// written, WAL header and manifest; 0 for a store just opened.
    pub fn last_checkpoint_bytes(&self) -> u64 {
        self.last_checkpoint_bytes
    }

    /// WAL records appended (or replayed) since the last checkpoint.
    pub fn wal_records(&self) -> usize {
        self.records_since_checkpoint
    }

    /// WAL bytes appended (or replayed) since the last checkpoint — the
    /// same quantity the `checkpoint_after_bytes` trigger compares against
    /// (record bytes only; the fixed file header is excluded).
    pub fn wal_bytes(&self) -> u64 {
        self.bytes_since_checkpoint
    }
}

/// What [`write_epoch`] left behind: the new epoch's WAL, the pack it
/// wrote (if the pack rule asked for one) and the bytes it wrote.
struct WrittenEpoch {
    wal: wal::WalWriter,
    new_pack: Option<snapshot::Pack>,
    bytes: u64,
}

/// Write `epoch` of `session` beside the current one — its segments (and a
/// new pack if `pack` is stale), then an empty WAL — swing `MANIFEST` to it
/// and sweep every file the new manifest does not name.
fn write_epoch(
    dir: &Path,
    session: &LakeSession,
    epoch: u64,
    pack: &snapshot::Pack,
) -> Result<WrittenEpoch, PersistError> {
    // One pinned view for every segment plus the manifest: concurrent
    // mutations publish newer generations without tearing the snapshot.
    let view = session.view();
    let (new_pack, segment_bytes) = snapshot::write_epoch_segments(dir, &view, epoch, pack)?;
    let wal = wal::WalWriter::create(&snapshot::wal_path(dir, epoch), view.generation())?;
    let pack_epoch = new_pack.as_ref().unwrap_or(pack).epoch;
    let manifest = snapshot::manifest_for(&view, epoch, pack_epoch);
    let manifest_bytes = snapshot::publish_manifest(dir, &manifest)?;
    snapshot::sweep_unnamed_files(dir, &manifest);
    Ok(WrittenEpoch {
        wal,
        new_pack,
        bytes: segment_bytes + wal::HEADER_LEN as u64 + manifest_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use dust_datagen::BenchmarkConfig;
    use dust_table::{Column, Value};
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dust-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_session() -> LakeSession {
        let lake = BenchmarkConfig::tiny().generate().lake;
        LakeSession::new(lake, PipelineConfig::fast())
    }

    fn extra_table(name: &str) -> Table {
        Table::from_columns(
            name,
            vec![
                Column::new(
                    "city",
                    vec![
                        Value::Text("utrecht".into()),
                        Value::Text("leiden".into()),
                        Value::Null,
                    ],
                ),
                Column::new(
                    "population",
                    vec![Value::Int(361924), Value::Int(127046), Value::Float(1.5)],
                ),
            ],
        )
        .unwrap()
    }

    /// Debug formatting of f64 is injective on distinct finite bit
    /// patterns, so equal Debug output here means bit-identical scores.
    /// The exhaustive bit-level suite lives in `tests/session_recovery.rs`.
    fn assert_serves_identically(a: &LakeSession, b: &LakeSession) {
        assert_eq!(a.generation(), b.generation());
        let sa = a.stats();
        let sb = b.stats();
        assert_eq!(
            (sa.tables, sa.tuples, sa.columns),
            (sb.tables, sb.tuples, sb.columns)
        );
        let probe = a
            .lake()
            .queries()
            .next()
            .expect("tiny lake has a query")
            .clone();
        let ra = a.query(&probe, 5).unwrap();
        let rb = b.query(&probe, 5).unwrap();
        assert_eq!(format!("{:?}", ra.tuples), format!("{:?}", rb.tuples));
        assert_eq!(ra.retrieved_tables, rb.retrieved_tables);
        assert_eq!(format!("{:?}", ra.diversity), format!("{:?}", rb.diversity));
        assert_eq!(
            format!("{:?}", a.similar_tuples(&probe, 7)),
            format!("{:?}", b.similar_tuples(&probe, 7))
        );
    }

    #[test]
    fn save_open_round_trip() {
        let dir = temp_dir("round-trip");
        let session = tiny_session();
        session.save(&dir).unwrap();
        let restored = LakeSession::open(&dir).unwrap();
        assert_serves_identically(&session, &restored);
    }

    #[test]
    fn wal_replay_restores_mutations() {
        let dir = temp_dir("wal-replay");
        let session = tiny_session();
        let mut store = SnapshotStore::create(&dir, &session).unwrap();

        session.add_table(extra_table("wal_extra")).unwrap();
        store
            .log_add_table(&extra_table("wal_extra"), session.generation())
            .unwrap();
        let victim = session.lake().table_names()[0].clone();
        session.remove_table(&victim).unwrap();
        store
            .log_remove_table(&victim, session.generation())
            .unwrap();
        assert_eq!(store.wal_records(), 2);
        drop(store);

        let (_store, restored, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(!report.dropped_torn_tail);
        assert_serves_identically(&session, &restored);
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let dir = temp_dir("checkpoint");
        let session = tiny_session();
        let mut store = SnapshotStore::create(&dir, &session).unwrap();
        session.add_table(extra_table("ckpt_extra")).unwrap();
        store
            .log_add_table(&extra_table("ckpt_extra"), session.generation())
            .unwrap();
        store.checkpoint(&session).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.wal_records(), 0);
        assert!(!snapshot::wal_path(&dir, 1).exists(), "old epoch swept");
        drop(store);

        let (store, restored, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(report.replayed, 0);
        assert_serves_identically(&session, &restored);
    }

    #[test]
    fn byte_trigger_checkpoints_before_the_record_trigger() {
        let dir = temp_dir("byte-trigger");
        let session = tiny_session();
        // Record trigger far away, byte trigger tiny: the very first logged
        // mutation (hundreds of bytes of table payload) must checkpoint.
        let mut store = SnapshotStore::create_with(
            &dir,
            &session,
            StoreOptions {
                checkpoint_after: 1000,
                checkpoint_after_bytes: 32,
            },
        )
        .unwrap();
        session.add_table(extra_table("bytes_extra")).unwrap();
        store
            .log_add_table(&extra_table("bytes_extra"), session.generation())
            .unwrap();
        assert!(store.wal_bytes() >= 32, "record bytes were not counted");
        assert!(store.maybe_checkpoint(&session).unwrap());
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.wal_records(), 0);
        assert_eq!(store.wal_bytes(), 0, "checkpoint must reset the byte count");
        assert!(!store.maybe_checkpoint(&session).unwrap());

        // And with the byte trigger disabled, the same mutation volume
        // does not checkpoint.
        let dir2 = temp_dir("byte-trigger-off");
        let session2 = tiny_session();
        let mut store2 = SnapshotStore::create_with(
            &dir2,
            &session2,
            StoreOptions {
                checkpoint_after: 1000,
                checkpoint_after_bytes: u64::MAX,
            },
        )
        .unwrap();
        session2.add_table(extra_table("bytes_extra")).unwrap();
        store2
            .log_add_table(&extra_table("bytes_extra"), session2.generation())
            .unwrap();
        assert!(!store2.maybe_checkpoint(&session2).unwrap());
        assert_eq!(store2.epoch(), 1);
    }

    #[test]
    fn wal_bytes_survive_reopen() {
        let dir = temp_dir("bytes-reopen");
        let session = tiny_session();
        let mut store = SnapshotStore::create(&dir, &session).unwrap();
        session.add_table(extra_table("reopen_extra")).unwrap();
        store
            .log_add_table(&extra_table("reopen_extra"), session.generation())
            .unwrap();
        let logged = store.wal_bytes();
        assert!(logged > 0);
        drop(store);

        let (store, _restored, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(
            store.wal_bytes(),
            logged,
            "bytes-since-checkpoint must be reconstructed from the replayed WAL"
        );
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let dir = temp_dir("torn-tail");
        let session = tiny_session();
        let mut store = SnapshotStore::create(&dir, &session).unwrap();
        session.add_table(extra_table("torn_extra")).unwrap();
        store
            .log_add_table(&extra_table("torn_extra"), session.generation())
            .unwrap();
        drop(store);

        // Simulate a crash mid-append: a few bytes of a record header.
        let wal = snapshot::wal_path(&dir, 1);
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);

        let (mut store, restored, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.dropped_torn_tail);
        assert_serves_identically(&session, &restored);

        // The truncated tail must not poison subsequent appends.
        store
            .log_remove_table("torn_extra", restored.generation() + 1)
            .unwrap();
        drop(store);
        let (_s, reread, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(reread.generation(), session.generation() + 1);
    }

    #[test]
    fn corrupt_segment_is_a_typed_error() {
        let dir = temp_dir("corrupt-seg");
        let session = tiny_session();
        session.save(&dir).unwrap();
        let lake_seg = snapshot::lake_path(&dir, 1);
        let mut bytes = std::fs::read(&lake_seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&lake_seg, &bytes).unwrap();

        match LakeSession::open(&dir).err() {
            Some(PersistError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn missing_manifest_is_no_snapshot() {
        let dir = temp_dir("no-snapshot");
        match LakeSession::open(&dir).err() {
            Some(e @ PersistError::NoSnapshot { .. }) => assert_eq!(e.kind(), "no_snapshot"),
            other => panic!("expected NoSnapshot, got {other:?}"),
        }
    }

    /// A WAL whose first, middle or last record cannot apply — a remove of
    /// an absent table, or an add of a name the lake already holds — is a
    /// typed `Replay` carrying exactly that record's LSN.
    #[test]
    fn an_unappliable_record_is_a_replay_error_at_its_lsn() {
        let session = tiny_session();
        let existing = session.lake().table_names()[0].clone();
        for bad in 0..3u64 {
            for duplicate in [false, true] {
                let dir = temp_dir(&format!("unappliable-{bad}-{duplicate}"));
                let mut store = SnapshotStore::create(&dir, &session).unwrap();
                for lsn in 1..=3u64 {
                    let logged = match (lsn - 1 == bad, duplicate, lsn) {
                        (true, false, _) => store.log_remove_table("absent", lsn),
                        (true, true, _) => store.log_add_table(&extra_table(&existing), lsn),
                        (false, _, 3) => store.log_remove_table("replayed_1", lsn),
                        (false, _, _) => {
                            store.log_add_table(&extra_table(&format!("replayed_{lsn}")), lsn)
                        }
                    };
                    logged.unwrap();
                }
                drop(store);
                match SnapshotStore::open(&dir).err() {
                    Some(PersistError::Replay { lsn, .. }) => {
                        assert_eq!(lsn, bad + 1, "bad record {bad}, duplicate {duplicate}")
                    }
                    other => panic!("expected Replay at LSN {}, got {other:?}", bad + 1),
                }
            }
        }
    }

    #[test]
    fn desynced_log_generation_is_rejected() {
        let dir = temp_dir("desync");
        let session = tiny_session();
        let mut store = SnapshotStore::create(&dir, &session).unwrap();
        // Caller claims a generation that skips an LSN.
        let err = store
            .log_add_table(&extra_table("skip"), session.generation() + 2)
            .unwrap_err();
        assert_eq!(err.kind(), "replay");
    }
}
