//! LSN-stamped write-ahead log of lake mutations.
//!
//! One WAL file per snapshot epoch (`wal-{epoch}.log`). The snapshot holds
//! the session at generation *G*; every committed mutation after it is an
//! appended, fsynced record stamped `G+1, G+2, …`. Recovery replays the
//! records through the session's live delta paths, landing bit-identically
//! on the state the serving process last acknowledged.
//!
//! On-disk layout (little-endian throughout):
//!
//! ```text
//! header:  [magic "DUSTWAL\0"][version u32][base_generation u64][crc u32]
//! record:  [lsn u64][kind u8][payload_len u32][header_crc u32]
//!          [payload .. payload_len][payload_crc u32]
//! ```
//!
//! Both CRCs are CRC-32/IEEE. The split header/payload checksum is what
//! distinguishes the two failure modes a log tail can be in:
//!
//! * **torn write** — the process died mid-append. The tail is *shorter*
//!   than a full record (header or payload cut off) but every complete
//!   record before it is intact. Recovery drops the tail and reports it;
//!   the lost mutation was never acknowledged, so dropping it is correct.
//! * **corruption** — a record that is fully present fails its checksum,
//!   or LSNs skip. That is bit rot or truncation *in the middle* of
//!   acknowledged history; replaying past it could silently resurrect a
//!   stale state, so recovery refuses with [`PersistError::Corrupt`].

use super::codec::{crc32, ByteReader, ByteWriter, FORMAT_VERSION, WAL_MAGIC};
use super::error::PersistError;
use super::snapshot::{get_table, put_table};
use dust_table::Table;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 4;
const RECORD_HEADER_LEN: usize = 8 + 1 + 4 + 4;

const KIND_ADD_TABLE: u8 = 1;
const KIND_REMOVE_TABLE: u8 = 2;

/// One logged lake mutation.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// `add_table` with the full table payload.
    AddTable(Table),
    /// `remove_table` by name.
    RemoveTable(String),
}

/// Everything a WAL file held, as read back at recovery time.
#[derive(Debug)]
pub(crate) struct WalContents {
    /// Snapshot generation this log extends (records are stamped from
    /// `base_generation + 1`).
    pub(crate) base_generation: u64,
    /// Complete, checksum-valid records in LSN order.
    pub(crate) records: Vec<(u64, WalOp)>,
    /// Whether an incomplete trailing record (a torn write from a crash
    /// mid-append) was found and cleanly dropped.
    pub(crate) dropped_torn_tail: bool,
}

/// Appender for the live WAL file. Every [`append`](WalWriter::append) is
/// written and fsynced before it returns, so an acknowledged mutation
/// survives power loss.
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    next_lsn: u64,
}

impl WalWriter {
    /// Create a fresh WAL for a snapshot at `base_generation`, fsyncing
    /// the header. Truncates any existing file at `path`.
    pub(crate) fn create(path: &Path, base_generation: u64) -> Result<Self, PersistError> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&base_generation.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());

        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| PersistError::io(path, e))?;
        file.write_all(&header)
            .and_then(|()| file.sync_data())
            .map_err(|e| PersistError::io(path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            next_lsn: base_generation + 1,
        })
    }

    /// Reopen an existing (already validated) WAL for appending. The
    /// caller supplies `next_lsn` from the recovery pass; appends resume
    /// after the last valid record. If a torn tail was dropped during
    /// recovery the file is first truncated back to `valid_len`, so the
    /// next append cannot splice onto garbage bytes.
    pub(crate) fn reopen(path: &Path, next_lsn: u64, valid_len: u64) -> Result<Self, PersistError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io(path, e))?;
        file.set_len(valid_len)
            .and_then(|()| file.sync_data())
            .and_then(|()| file.seek(SeekFrom::Start(valid_len)).map(|_| ()))
            .map_err(|e| PersistError::io(path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            next_lsn,
        })
    }

    /// LSN the next appended record will carry.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Append one mutation record and fsync it. Returns the record's LSN
    /// and its on-disk size in bytes (header + payload + seals), which the
    /// store accumulates for its bytes-since-checkpoint trigger.
    pub(crate) fn append(&mut self, op: &WalOp) -> Result<(u64, usize), PersistError> {
        let (kind, payload) = match op {
            WalOp::AddTable(table) => {
                let mut w = ByteWriter::new();
                put_table(&mut w, table);
                (KIND_ADD_TABLE, w.into_bytes())
            }
            WalOp::RemoveTable(name) => {
                let mut w = ByteWriter::new();
                w.put_str(name);
                (KIND_REMOVE_TABLE, w.into_bytes())
            }
        };
        let payload_len = record_payload_len(payload.len(), &self.path)?;
        let lsn = self.next_lsn;
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len() + 4);
        rec.extend_from_slice(&lsn.to_le_bytes());
        rec.push(kind);
        rec.extend_from_slice(&payload_len.to_le_bytes());
        let header_crc = crc32(&rec);
        rec.extend_from_slice(&header_crc.to_le_bytes());
        rec.extend_from_slice(&payload);
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());

        self.file
            .write_all(&rec)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| PersistError::io(&self.path, e))?;
        self.next_lsn += 1;
        Ok((lsn, rec.len()))
    }
}

/// A record's payload length as the `u32` its header stores. A payload of
/// 4 GiB or more cannot be framed: it is refused before anything is
/// written, so the log and its next LSN stay as they were.
fn record_payload_len(len: usize, path: &Path) -> Result<u32, PersistError> {
    u32::try_from(len).map_err(|_| {
        let detail = format!("WAL record payload of {len} bytes exceeds the 4 GiB record limit");
        PersistError::io(path, io::Error::new(io::ErrorKind::FileTooLarge, detail))
    })
}

/// Read and validate a WAL file, returning its records plus the byte
/// length of the valid prefix (for truncating a torn tail on reopen).
pub(crate) fn read_wal(path: &Path) -> Result<(WalContents, u64), PersistError> {
    // sized from the file length: one allocation, no regrowth
    let bytes = std::fs::read(path).map_err(|e| PersistError::io(path, e))?;

    if bytes.len() < HEADER_LEN {
        return Err(PersistError::corrupt(
            path,
            format!("WAL header is {} bytes, need {HEADER_LEN}", bytes.len()),
        ));
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(PersistError::corrupt(path, "bad WAL magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if crc32(&bytes[..20]) != stored_crc {
        return Err(PersistError::corrupt(path, "WAL header checksum mismatch"));
    }
    let base_generation = u64::from_le_bytes(bytes[12..20].try_into().unwrap());

    let mut records = Vec::new();
    let mut dropped_torn_tail = false;
    let mut pos = HEADER_LEN;
    let mut expected_lsn = base_generation + 1;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < RECORD_HEADER_LEN {
            // Crash mid-append before the record header finished: the
            // mutation was never acknowledged. Drop it and stop.
            dropped_torn_tail = true;
            break;
        }
        let header = &bytes[pos..pos + RECORD_HEADER_LEN];
        let stored = u32::from_le_bytes(header[13..17].try_into().unwrap());
        if crc32(&header[..13]) != stored {
            return Err(PersistError::corrupt(
                path,
                format!("record header checksum mismatch at offset {pos}"),
            ));
        }
        let lsn = u64::from_le_bytes(header[..8].try_into().unwrap());
        let kind = header[8];
        let payload_len = u32::from_le_bytes(header[9..13].try_into().unwrap()) as usize;
        if remaining < RECORD_HEADER_LEN + payload_len + 4 {
            // Valid header, payload cut off: torn write. Drop and stop.
            dropped_torn_tail = true;
            break;
        }
        let payload_start = pos + RECORD_HEADER_LEN;
        let payload = &bytes[payload_start..payload_start + payload_len];
        let payload_crc = u32::from_le_bytes(
            bytes[payload_start + payload_len..payload_start + payload_len + 4]
                .try_into()
                .unwrap(),
        );
        if crc32(payload) != payload_crc {
            return Err(PersistError::corrupt(
                path,
                format!("record payload checksum mismatch at LSN {lsn}"),
            ));
        }
        if lsn != expected_lsn {
            return Err(PersistError::corrupt(
                path,
                format!("LSN sequence broken: found {lsn}, expected {expected_lsn}"),
            ));
        }
        let op = match kind {
            KIND_ADD_TABLE => {
                let mut r = ByteReader::new(payload, path);
                let table = get_table(&mut r)?;
                r.finish()?;
                WalOp::AddTable(table)
            }
            KIND_REMOVE_TABLE => {
                let mut r = ByteReader::new(payload, path);
                let name = r.get_str()?;
                r.finish()?;
                WalOp::RemoveTable(name)
            }
            k => {
                return Err(PersistError::corrupt(
                    path,
                    format!("unknown WAL record kind {k} at LSN {lsn}"),
                ))
            }
        };
        records.push((lsn, op));
        expected_lsn += 1;
        pos = payload_start + payload_len + 4;
    }
    let valid_len = pos as u64;
    Ok((
        WalContents {
            base_generation,
            records,
            dropped_torn_tail,
        },
        valid_len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `append` sizes the record through this check before it builds or
    /// writes a byte, so an oversized payload leaves the log untouched.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_oversized_record_payload_is_a_typed_error_not_a_panic() {
        let path = Path::new("wal-1.log");
        assert_eq!(record_payload_len(0, path).unwrap(), 0);
        let max = u32::MAX as usize;
        assert_eq!(record_payload_len(max, path).unwrap(), u32::MAX);
        let err = record_payload_len(max + 1, path).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(err.to_string().contains("4 GiB record limit"), "{err}");
    }
}
