//! Binary codec primitives for the durable store.
//!
//! The vendored serde shim is inert (its derives expand to nothing), so the
//! on-disk formats are hand-rolled: little-endian fixed-width integers,
//! length-prefixed strings, and `f32`/`f64` written via their IEEE bit
//! patterns (so floats round-trip **bit for bit** — the foundation of the
//! recovered ≡ fresh equivalence guarantee).
//!
//! Every segment file shares one frame:
//!
//! ```text
//! [ magic 8B ][ version u32 ][ kind u8 ][ payload … ][ CRC32 u32 ]
//! ```
//!
//! The trailer CRC covers every preceding byte, so a torn write, a
//! truncation, or any single-bit flip anywhere in the file is *detected* —
//! [`read_segment`] returns a typed [`PersistError`], never garbage.

use super::error::PersistError;
use std::fs::File;
use std::io::Write;
use std::ops::{Deref, DerefMut};
use std::path::Path;

/// Magic prefix of every snapshot segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"DUSTSEG\0";
/// Magic prefix of the write-ahead log.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"DUSTWAL\0";
/// On-disk format version, bumped on any layout change.
pub(crate) const FORMAT_VERSION: u32 = 6;

/// Slicing-by-16 tables for the reflected 0xEDB88320 polynomial, built at
/// compile time: `CRC_TABLES[0][b]` is the CRC register after shifting byte
/// `b` through it, and `CRC_TABLES[k][b]` is that register after `k` more
/// zero bytes, so one 16-byte block folds in with 16 independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let (mut k, mut b) = (0, 0);
    while k < 16 {
        // byte `b`, then `k` zero bytes, shifted through bit by bit
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 * (k + 1) {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[k][b] = crc;
        (k, b) = if b == 255 { (k + 1, 0) } else { (k, b + 1) };
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) over `bytes`,
/// sixteen bytes per step. Detects every single-bit error and every burst
/// ≤ 32 bits — which is exactly the fault classes the recovery suite
/// injects.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The CRC-32 register after shifting `bytes` through `crc`: starting from
/// `!0` and inverting at the end, any split of the input into consecutive
/// updates gives [`crc32`] of the whole, bit for bit.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        let mut block = *block;
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        // byte i of the block still has 15 - i bytes to pass through
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc as u8 ^ b)];
    }
    crc
}

/// Append-only byte buffer with typed little-endian writers.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes buffered so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub(crate) fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// `vs` after its length, into space grown once.
    pub(crate) fn put_f32s(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        let start = self.buf.len();
        self.buf.resize(start + 4 * vs.len(), 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    pub(crate) fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        self.buf.reserve(8 * vs.len());
        for v in vs {
            self.put_f64(*v);
        }
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a decoded payload. Every read is bounds-checked and returns
/// a typed [`PersistError::Corrupt`] on overrun — a lying length prefix
/// (which the CRC already makes vanishingly unlikely) cannot panic.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], path: &'a Path) -> Self {
        ByteReader { buf, pos: 0, path }
    }

    pub(crate) fn corrupt(&self, detail: impl Into<String>) -> PersistError {
        PersistError::corrupt(self.path, detail)
    }

    /// Bytes read so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(self.corrupt(format!(
                "payload overrun: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ))),
        }
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("invalid bool byte {v}"))),
        }
    }

    pub(crate) fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("length {v} exceeds usize")))
    }

    /// A `usize` used as an element count: additionally bounded by the
    /// bytes remaining (each element costs ≥ 1 byte), so a corrupted
    /// length cannot trigger an absurd allocation.
    pub(crate) fn get_count(&mut self) -> Result<usize, PersistError> {
        let n = self.get_usize()?;
        if n > self.buf.len() - self.pos {
            return Err(self.corrupt(format!(
                "element count {n} exceeds the {} bytes remaining",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    pub(crate) fn get_i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn get_f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    pub(crate) fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub(crate) fn get_f32s(&mut self) -> Result<Vec<f32>, PersistError> {
        let n = self.get_usize()?;
        let len = n
            .checked_mul(4)
            .filter(|&l| l <= self.buf.len() - self.pos)
            .ok_or_else(|| self.corrupt(format!("f32 buffer of {n} elements overruns payload")))?;
        let raw = self.take(len)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    pub(crate) fn get_f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.get_usize()?;
        let len = n
            .checked_mul(8)
            .filter(|&l| l <= self.buf.len() - self.pos)
            .ok_or_else(|| self.corrupt(format!("f64 buffer of {n} elements overruns payload")))?;
        let raw = self.take(len)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    pub(crate) fn get_str(&mut self) -> Result<String, PersistError> {
        let n = self.get_count()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| self.corrupt("string payload is not UTF-8".to_string()))
    }

    pub(crate) fn finish(self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// The writer [`write_segment`] hands its encoder: a [`ByteWriter`] that
/// can also [`flush`](Self::flush) what it holds to the segment's file.
pub(crate) struct SegmentWriter<'a> {
    w: &'a mut ByteWriter,
    file: File,
    /// CRC-32 register over every byte already flushed.
    crc: u32,
    /// Bytes already flushed.
    flushed: u64,
    /// The first failed write, reported when the segment is sealed.
    written: std::io::Result<()>,
}

impl SegmentWriter<'_> {
    /// Fold the buffered bytes into the checksum and write them out, so a
    /// segment of many parts never sits whole in memory. The file's bytes
    /// are the same wherever the encoder flushes.
    pub(crate) fn flush(&mut self) {
        self.crc = crc32_update(self.crc, &self.w.buf);
        self.flushed += self.w.buf.len() as u64;
        if self.written.is_ok() {
            self.written = self.file.write_all(&self.w.buf);
        }
        self.w.buf.clear();
    }
}

impl Deref for SegmentWriter<'_> {
    type Target = ByteWriter;

    fn deref(&self) -> &ByteWriter {
        self.w
    }
}

impl DerefMut for SegmentWriter<'_> {
    fn deref_mut(&mut self) -> &mut ByteWriter {
        self.w
    }
}

/// Write a framed, checksummed segment file, fsync it and return its
/// length in bytes. The frame header,
/// the payload `encode` appends after it and the CRC32 trailer share `w`'s
/// one buffer: nothing is copied into a frame, and a writer passed from
/// segment to segment (it is emptied first) keeps its one allocation. An
/// encoder that [flushes](SegmentWriter::flush) between parts bounds that
/// buffer by its largest part instead of the whole segment.
pub(crate) fn write_segment(
    path: &Path,
    kind: u8,
    w: &mut ByteWriter,
    encode: impl FnOnce(&mut SegmentWriter<'_>),
) -> Result<u64, PersistError> {
    let file = File::create(path).map_err(|e| PersistError::io(path, e))?;
    w.buf.clear();
    w.buf.extend_from_slice(SEGMENT_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u8(kind);
    let mut segment = SegmentWriter {
        w,
        file,
        crc: !0,
        flushed: 0,
        written: Ok(()),
    };
    encode(&mut segment);
    let SegmentWriter {
        w,
        mut file,
        crc,
        flushed,
        written,
    } = segment;
    w.put_u32(!crc32_update(crc, &w.buf));
    written
        .and_then(|()| file.write_all(&w.buf))
        .and_then(|()| file.sync_all())
        .map(|()| flushed + w.buf.len() as u64)
        .map_err(|e| PersistError::io(path, e))
}

/// Read and validate a segment file — magic, format version, the CRC32
/// trailer, kind byte — and hand its payload to `decode` as a slice of the
/// file's one buffer. Any mismatch — including a file shorter than the
/// frame itself — is a typed error.
pub(crate) fn read_segment<T>(
    path: &Path,
    expected_kind: u8,
    decode: impl FnOnce(&[u8]) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    // sized from the file length: one allocation, no regrowth
    let bytes = std::fs::read(path).map_err(|e| PersistError::io(path, e))?;
    let header = SEGMENT_MAGIC.len() + 4 + 1;
    if bytes.len() < header + 4 {
        return Err(PersistError::corrupt(
            path,
            format!("file too short ({} bytes) to be a segment", bytes.len()),
        ));
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(PersistError::corrupt(path, "bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let body_end = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let actual_crc = crc32(&bytes[..body_end]);
    if stored_crc != actual_crc {
        return Err(PersistError::corrupt(
            path,
            format!("CRC mismatch (stored {stored_crc:08x}, computed {actual_crc:08x})"),
        ));
    }
    // The kind byte is validated after the CRC: a kind mismatch on an
    // intact file means the manifest and segments disagree.
    let kind = bytes[12];
    if kind != expected_kind {
        return Err(PersistError::corrupt(
            path,
            format!("segment kind {kind} where {expected_kind} was expected"),
        ));
    }
    decode(&bytes[header..body_end])
}

/// Fsync a directory so a just-renamed file inside it survives a crash
/// (POSIX requires the directory entry itself to be flushed).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    let handle = File::open(dir).map_err(|e| PersistError::io(dir, e))?;
    handle.sync_all().map_err(|e| PersistError::io(dir, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// One byte through the bit-serial CRC-32 register — the loop the
    /// table-driven [`crc32`] replaced, kept as its oracle.
    fn bit_serial_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
        crc
    }

    fn bit_serial_crc32(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |crc, &b| bit_serial_step(crc, b))
    }

    /// xorshift64 bytes: deterministic, and no byte value is favoured.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    fn read_payload(path: &Path, kind: u8) -> Result<Vec<u8>, PersistError> {
        read_segment(path, kind, |payload| Ok(payload.to_vec()))
    }

    fn temp_segment(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("dust-codec-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        (dir, path)
    }

    /// Write a segment of exactly `len` bytes — frame header, noise
    /// payload, CRC trailer — to `path` and return its bytes.
    fn sealed_segment(path: &Path, kind: u8, len: usize) -> Vec<u8> {
        write_segment(path, kind, &mut ByteWriter::new(), |w| {
            w.buf.extend(noise(len - 13 - 4, 0x5EED))
        })
        .unwrap();
        std::fs::read(path).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(bit_serial_crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bit_serial_crc32(b""), 0);
    }

    /// Every length 0..=4096 at every start offset 0..16: each remainder of
    /// the 16-byte blocks, each alignment of the slice, and the empty input.
    #[test]
    fn table_driven_crc_equals_the_bit_serial_oracle() {
        let data = noise(4096 + 16, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..16 {
            let window = &data[offset..offset + 4096];
            // the oracle streams, so one pass yields the CRC of every prefix
            let mut crc = !0;
            let mut prefix_crcs = vec![0];
            for &b in window {
                crc = bit_serial_step(crc, b);
                prefix_crcs.push(!crc);
            }
            for (len, &expected) in prefix_crcs.iter().enumerate() {
                assert_eq!(
                    crc32(&window[..len]),
                    expected,
                    "length {len} at offset {offset}"
                );
            }
        }
    }

    /// Flushing after any prefix of the payload — the CRC folded in two
    /// updates, the file written in two parts — seals the same file as
    /// writing it whole.
    #[test]
    fn a_flushed_segment_is_the_same_bytes_as_a_whole_one() {
        let (dir, path) = temp_segment("flush");
        let sealed = sealed_segment(&path, 3, 256);
        let payload = &sealed[13..252];
        for cut in (0..=payload.len()).step_by(7).chain([payload.len()]) {
            let len = write_segment(&path, 3, &mut ByteWriter::new(), |s| {
                s.buf.extend_from_slice(&payload[..cut]);
                s.flush();
                s.buf.extend_from_slice(&payload[cut..]);
            })
            .unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), sealed, "flushed at {cut}");
            assert_eq!(len, sealed.len() as u64, "length reported at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_in_a_framed_segment_is_detected() {
        let (dir, path) = temp_segment("flip");
        let sealed = sealed_segment(&path, 3, 256);
        assert_eq!(sealed.len(), 256);
        assert_eq!(read_payload(&path, 3).unwrap(), sealed[13..252]);
        for bit in 0..8 * sealed.len() {
            let mut corrupted = sealed.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &corrupted).unwrap();
            assert!(
                read_payload(&path, 3).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A burst of length `len` flips its first and last bit and any bits
    /// between. The CRC alone — not the magic or version check — must catch
    /// every burst of up to 32 bits: at the start of the frame, inside the
    /// payload off any byte boundary, and ending on the trailer's last bit.
    #[test]
    fn every_burst_of_at_most_32_bits_fails_the_crc() {
        let (dir, path) = temp_segment("burst");
        let sealed = sealed_segment(&path, 3, 256);
        std::fs::remove_dir_all(&dir).unwrap();
        let bits = 8 * sealed.len();
        let crc_holds = |bytes: &[u8]| {
            let body_end = bytes.len() - 4;
            crc32(&bytes[..body_end]).to_le_bytes() == bytes[body_end..]
        };
        assert!(crc_holds(&sealed));
        let noise = noise(16 * 4, 0xB0B5);
        let (interiors, _) = noise.as_chunks::<4>();
        for len in 1..=32usize {
            let ends = 1u32 | (1u32 << (len - 1));
            let solid = u32::MAX >> (32 - len);
            let patterns = [ends, solid, ends | (0x5555_5555 & solid)]
                .into_iter()
                .chain(
                    interiors
                        .iter()
                        .map(|&c| ends | (u32::from_le_bytes(c) & solid)),
                );
            for pattern in patterns {
                for start in [0, 13 * 8 + 3, bits - len] {
                    let mut corrupted = sealed.clone();
                    for i in (0..len).filter(|i| pattern >> i & 1 == 1) {
                        let bit = start + i;
                        corrupted[bit / 8] ^= 1 << (bit % 8);
                    }
                    assert!(
                        !crc_holds(&corrupted),
                        "burst {pattern:#x} of {len} bits at bit {start} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f32(1.5);
        w.put_f64(-0.0);
        w.put_f32s(&[f32::NAN, 2.0]);
        w.put_f64s(&[f64::INFINITY]);
        w.put_str("snapshot ✓");
        let bytes = w.into_bytes();
        let path = Path::new("test");
        let mut r = ByteReader::new(&bytes, path);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        let f32s = r.get_f32s().unwrap();
        assert!(f32s[0].is_nan() && f32s[1] == 2.0);
        assert_eq!(r.get_f64s().unwrap(), vec![f64::INFINITY]);
        assert_eq!(r.get_str().unwrap(), "snapshot ✓");
        r.finish().unwrap();
    }

    #[test]
    fn reader_overrun_is_a_typed_error_not_a_panic() {
        let bytes = [1u8, 2, 3];
        let path = Path::new("test");
        let mut r = ByteReader::new(&bytes, path);
        assert!(matches!(r.get_u64(), Err(PersistError::Corrupt { .. })));
        // a lying count cannot allocate past the buffer either
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, path);
        assert!(matches!(r.get_count(), Err(PersistError::Corrupt { .. })));
    }

    #[test]
    fn segment_round_trip_and_fault_detection() {
        let (dir, path) = temp_segment("round-trip");
        // a writer reused from a longer segment must leave none of it behind
        let w = &mut ByteWriter::new();
        write_segment(&path, 3, w, |w| w.put_str(&"x".repeat(1000))).unwrap();
        write_segment(&path, 3, w, |w| w.put_str("hello segment")).unwrap();
        let decoded = read_segment(&path, 3, |payload| {
            let mut r = ByteReader::new(payload, &path);
            let s = r.get_str()?;
            r.finish().map(|()| s)
        });
        assert_eq!(decoded.unwrap(), "hello segment");
        // wrong kind
        assert!(matches!(
            read_payload(&path, 4),
            Err(PersistError::Corrupt { .. })
        ));
        // truncation → typed error
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_payload(&path, 3).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            read_payload(&path, 3),
            Err(PersistError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_skew_is_reported_as_such() {
        let (dir, path) = temp_segment("ver");
        write_segment(&path, 1, &mut ByteWriter::new(), |_| {}).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // bump the version field and re-seal the CRC so only the version
        // check can fail
        bytes[8] = 99;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_payload(&path, 1),
            Err(PersistError::UnsupportedVersion { found: 99, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
