//! The versioned snapshot: a whole [`LakeSession`] as checksummed segment
//! files.
//!
//! One snapshot *epoch* is a set of segment files named `seg-{epoch}-*.bin`
//! plus a WAL `wal-{epoch}.log`, and the table *pack* `seg-{b}-pack.bin` of
//! some epoch `b ≤ epoch`, all referenced by the single `MANIFEST` file.
//! Checkpointing writes the new epoch's files before atomically renaming
//! the new manifest into place, so a crash at any point leaves the
//! directory with one consistent epoch (old or new, never a mix).
//!
//! Segments (each framed and CRC32-sealed by [`super::codec`]):
//!
//! * **manifest** — epoch, pack epoch, generation, the full
//!   [`PipelineConfig`], and whether a trained model segment exists;
//! * **pack** — immutable once written: one *entry* per lake table of epoch
//!   `b`, in name order. An entry is the table's block beside its rows:
//!   the rows, then the tuple embeddings (dim, rows, data, norms and
//!   inverse norms, bit-exact; row *i* is tuple *i* of the table), then —
//!   under D3L and Starmie only — the column block: a count and one vector
//!   per column, in column order. Under Overlap an entry ends after the
//!   tuple embeddings;
//! * **lake** — the [`DataLake`] (name, queries, ground truth) and, for each
//!   table in name order, either `0` + the index of its pack entry or `1` +
//!   an inline entry for a table that is not the one the pack holds. A pack
//!   index out of range or named twice, names out of order, tuple
//!   embeddings whose rows are not the table's or (non-empty) of another
//!   dimension than the embedder's, a column block of another count than
//!   the table's columns or holding a vector of another dimension than the
//!   technique's, and a column block where the technique keeps none or none
//!   where it keeps one, are each a typed [`PersistError::Corrupt`]; pack
//!   entries no table names are decoded and dropped;
//! * **search** — the technique's tag, then under Overlap and D3L the
//!   [`InvertedValueIndex`] as column postings (Starmie keeps no index);
//!   the searcher objects themselves are `::new()` defaults and are
//!   reconstructed, not persisted. The index is written canonically —
//!   tables renumbered in name order, values sorted, each posting as
//!   ascending column ids — so its bytes are a function of the lake alone;
//!   decoding checks it against the decoded lake (names, column counts, ids
//!   in range and ascending, no empty posting, no value twice) and answers
//!   a typed [`PersistError::Corrupt`] otherwise;
//! * **model** — the trained [`DustModel`] head weights and centering
//!   vector (present only when the session embeds through a model), so a
//!   restart never re-pays training.
//!
//! Everything floating-point is written via IEEE bit patterns, so a
//! restored session's scores are **bit-identical** to the saved one's.
//!
//! **The pack rule.** A checkpoint reuses pack entry *i* for a table iff
//! the table's `Arc<Table>` and `Arc<TableBlock>` are the very ones the
//! entry was written from or decoded into ([`Pack`] remembers them as
//! `Weak`s); every other table is inline. Let *live* be the encoded bytes
//! of the current tables' entries: a new pack, naming every table, is
//! written iff inline bytes + dead pack bytes ≥ ½ × live. So a restart
//! reads at most 1.5 × live, and a checkpoint that keeps the pack writes
//! less than ½ × live of table data.
//!
//! Since every column embedding lives in its table's entry, an unchanged
//! D3L or Starmie checkpoint writes what an Overlap one does: pack indices
//! and, for D3L, the index. Directories of an older format version — 1 (a
//! `columns` segment and one more manifest field), 2 (one hashed `shard-i`
//! segment per tuple shard with per-row provenance, and a shard count in
//! the manifest), 3 (every table in the lake segment and every block in
//! one `tuples` segment, rewritten by each checkpoint), 4 (index postings
//! as sets of table names, after a stored table count) or 5 (D3L and
//! Starmie column embeddings of every table in the search segment, none in
//! the entries) — answer [`PersistError::UnsupportedVersion`]; callers
//! take their usual rebuild-from-lake fallback.

use super::codec::{read_segment, write_segment, ByteReader, ByteWriter, SegmentWriter};
use super::error::PersistError;
use crate::config::{DustConfigSerde, PipelineConfig, SearchTechnique, TupleEmbedderKind};
use crate::session::{
    LakeSession, Searcher, SessionEmbedder, SessionOptions, SessionSnapshot, SessionView,
    TableBlock, TableBlocks,
};
use dust_cluster::{AgglomerativeAlgorithm, Linkage};
use dust_embed::{
    ColumnSerialization, Distance, DustModel, EmbeddingStore, FineTuneConfig, PretrainedModel,
    ProjectionHead, TupleEncoder, Vector,
};
use dust_search::{ColumnRef, InvertedValueIndex};
use dust_table::{Column, DataLake, Table, TableId, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

/// Segment kind bytes (validated after the CRC, so a mismatch on an intact
/// file means manifest/segment skew, not bit rot).
pub(crate) const KIND_MANIFEST: u8 = 0;
pub(crate) const KIND_LAKE: u8 = 1;
pub(crate) const KIND_PACK: u8 = 2;
pub(crate) const KIND_SEARCH: u8 = 4;
pub(crate) const KIND_MODEL: u8 = 5;

/// Lake-segment tags: a table held by the pack, or written inline.
const TAG_PACKED: u8 = 0;
const TAG_INLINE: u8 = 1;

/// The manifest: everything needed to locate and interpret the segment
/// files of the current epoch.
#[derive(Debug, Clone)]
pub(crate) struct Manifest {
    pub(crate) epoch: u64,
    /// The epoch whose `seg-{pack_epoch}-pack.bin` this epoch's lake
    /// segment indexes into.
    pub(crate) pack_epoch: u64,
    pub(crate) generation: u64,
    pub(crate) model_injected: bool,
    pub(crate) has_model: bool,
    pub(crate) config: PipelineConfig,
}

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

pub(crate) fn lake_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("seg-{epoch}-lake.bin"))
}

pub(crate) fn pack_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("seg-{epoch}-pack.bin"))
}

pub(crate) fn search_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("seg-{epoch}-search.bin"))
}

pub(crate) fn model_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("seg-{epoch}-model.bin"))
}

pub(crate) fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.log"))
}

// ---------------------------------------------------------------------------
// enum tags
// ---------------------------------------------------------------------------

fn model_tag(m: PretrainedModel) -> u8 {
    match m {
        PretrainedModel::FastText => 0,
        PretrainedModel::Glove => 1,
        PretrainedModel::Bert => 2,
        PretrainedModel::Roberta => 3,
        PretrainedModel::SBert => 4,
        PretrainedModel::Ditto => 5,
    }
}

fn model_from(tag: u8, r: &ByteReader<'_>) -> Result<PretrainedModel, PersistError> {
    Ok(match tag {
        0 => PretrainedModel::FastText,
        1 => PretrainedModel::Glove,
        2 => PretrainedModel::Bert,
        3 => PretrainedModel::Roberta,
        4 => PretrainedModel::SBert,
        5 => PretrainedModel::Ditto,
        _ => return Err(r.corrupt(format!("unknown pretrained-model tag {tag}"))),
    })
}

fn serialization_tag(s: ColumnSerialization) -> u8 {
    match s {
        ColumnSerialization::CellLevel => 0,
        ColumnSerialization::ColumnLevel => 1,
    }
}

fn serialization_from(tag: u8, r: &ByteReader<'_>) -> Result<ColumnSerialization, PersistError> {
    Ok(match tag {
        0 => ColumnSerialization::CellLevel,
        1 => ColumnSerialization::ColumnLevel,
        _ => return Err(r.corrupt(format!("unknown column-serialization tag {tag}"))),
    })
}

fn distance_tag(d: Distance) -> u8 {
    match d {
        Distance::Cosine => 0,
        Distance::Euclidean => 1,
        Distance::Manhattan => 2,
    }
}

fn distance_from(tag: u8, r: &ByteReader<'_>) -> Result<Distance, PersistError> {
    Ok(match tag {
        0 => Distance::Cosine,
        1 => Distance::Euclidean,
        2 => Distance::Manhattan,
        _ => return Err(r.corrupt(format!("unknown distance tag {tag}"))),
    })
}

fn linkage_tag(l: Linkage) -> u8 {
    match l {
        Linkage::Single => 0,
        Linkage::Complete => 1,
        Linkage::Average => 2,
        Linkage::Ward => 3,
        Linkage::Centroid => 4,
        Linkage::Median => 5,
    }
}

fn linkage_from(tag: u8, r: &ByteReader<'_>) -> Result<Linkage, PersistError> {
    Ok(match tag {
        0 => Linkage::Single,
        1 => Linkage::Complete,
        2 => Linkage::Average,
        3 => Linkage::Ward,
        4 => Linkage::Centroid,
        5 => Linkage::Median,
        _ => return Err(r.corrupt(format!("unknown linkage tag {tag}"))),
    })
}

fn algorithm_tag(a: AgglomerativeAlgorithm) -> u8 {
    match a {
        AgglomerativeAlgorithm::Auto => 0,
        AgglomerativeAlgorithm::NnChain => 1,
        AgglomerativeAlgorithm::Generic => 2,
    }
}

fn algorithm_from(tag: u8, r: &ByteReader<'_>) -> Result<AgglomerativeAlgorithm, PersistError> {
    Ok(match tag {
        0 => AgglomerativeAlgorithm::Auto,
        1 => AgglomerativeAlgorithm::NnChain,
        2 => AgglomerativeAlgorithm::Generic,
        _ => return Err(r.corrupt(format!("unknown clustering-algorithm tag {tag}"))),
    })
}

fn technique_tag(t: SearchTechnique) -> u8 {
    match t {
        SearchTechnique::Overlap => 0,
        SearchTechnique::D3l => 1,
        SearchTechnique::Starmie => 2,
    }
}

fn technique_from(tag: u8, r: &ByteReader<'_>) -> Result<SearchTechnique, PersistError> {
    Ok(match tag {
        0 => SearchTechnique::Overlap,
        1 => SearchTechnique::D3l,
        2 => SearchTechnique::Starmie,
        _ => return Err(r.corrupt(format!("unknown search-technique tag {tag}"))),
    })
}

// ---------------------------------------------------------------------------
// value / table / lake codecs
// ---------------------------------------------------------------------------

fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Bool(b) => {
            w.put_u8(1);
            w.put_bool(*b);
        }
        Value::Int(i) => {
            w.put_u8(2);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(3);
            w.put_f64(*f);
        }
        Value::Text(s) => {
            w.put_u8(4);
            w.put_str(s);
        }
    }
}

fn get_value(r: &mut ByteReader<'_>) -> Result<Value, PersistError> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.get_bool()?),
        2 => Value::Int(r.get_i64()?),
        3 => Value::Float(r.get_f64()?),
        4 => Value::Text(r.get_str()?),
        t => return Err(r.corrupt(format!("unknown value tag {t}"))),
    })
}

pub(crate) fn put_table(w: &mut ByteWriter, table: &Table) {
    w.put_str(table.name());
    w.put_usize(table.num_columns());
    for column in table.columns() {
        w.put_str(column.name());
        w.put_usize(column.len());
        for value in column.values() {
            put_value(w, value);
        }
    }
}

pub(crate) fn get_table(r: &mut ByteReader<'_>) -> Result<Table, PersistError> {
    let name = r.get_str()?;
    let num_columns = r.get_count()?;
    let mut columns = Vec::with_capacity(num_columns);
    for _ in 0..num_columns {
        let col_name = r.get_str()?;
        let num_values = r.get_count()?;
        let mut values = Vec::with_capacity(num_values);
        for _ in 0..num_values {
            values.push(get_value(r)?);
        }
        columns.push(Column::new(col_name, values));
    }
    Table::from_columns(name, columns)
        .map_err(|e| r.corrupt(format!("decoded table is invalid: {e}")))
}

/// The lake segment: name and queries, then one tag per table in name order
/// — [`TAG_PACKED`] + the table's pack index from `slots`, or
/// [`TAG_INLINE`] + its entry, flushed to the file as soon as it is
/// encoded — then the ground truth.
fn encode_lake(s: &mut SegmentWriter<'_>, lake: &DataLake, tables: &[Shared<'_>], slots: &[Slot]) {
    s.put_str(lake.name());
    s.put_usize(lake.num_queries());
    for query in lake.queries() {
        put_table(s, query);
    }
    s.put_usize(tables.len());
    for (&(table, block), slot) in tables.iter().zip(slots) {
        match slot {
            Some(index) => {
                s.put_u8(TAG_PACKED);
                s.put_usize(*index);
            }
            None => {
                s.put_u8(TAG_INLINE);
                put_entry(s, table, block);
                s.flush();
            }
        }
    }
    let gt = lake.ground_truth();
    let queries: Vec<&TableId> = gt.queries().collect();
    s.put_usize(queries.len());
    for query in queries {
        s.put_str(query);
        let unionable = gt.unionable_with(query);
        s.put_usize(unionable.len());
        for table in &unionable {
            s.put_str(table);
        }
    }
}

/// Decode the lake segment against the decoded `pack` and the entries'
/// dimensions `dims`: the lake, built from shared tables, and its blocks. A
/// packed table shares the pack's `Arc`s, so the store that loaded the pack
/// recognises it at the next checkpoint.
fn decode_lake(
    bytes: &[u8],
    path: &Path,
    pack: &[PackedEntry],
    dims: Dims,
) -> Result<(DataLake, TableBlocks), PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let name = r.get_str()?;
    let mut lake = DataLake::new(name);
    let num_queries = r.get_count()?;
    for _ in 0..num_queries {
        let query = get_table(&mut r)?;
        lake.add_query(query)
            .map_err(|e| PersistError::corrupt(path, format!("decoded query rejected: {e}")))?;
    }
    let num_tables = r.get_count()?;
    let mut named = vec![false; pack.len()];
    let mut blocks = TableBlocks::new();
    for _ in 0..num_tables {
        let (table, block) = match r.get_u8()? {
            TAG_PACKED => {
                let index = r.get_usize()?;
                let Some(entry) = pack.get(index) else {
                    return Err(r.corrupt(format!(
                        "pack index {index} is out of range: the pack holds {} entries",
                        pack.len()
                    )));
                };
                if std::mem::replace(&mut named[index], true) {
                    return Err(r.corrupt(format!("pack entry {index} is named twice")));
                }
                (entry.table.clone(), entry.block.clone())
            }
            TAG_INLINE => {
                let (table, block) = get_entry(&mut r, dims)?;
                (Arc::new(table), Arc::new(block))
            }
            tag => return Err(r.corrupt(format!("unknown table tag {tag}"))),
        };
        if let Some(previous) = blocks.keys().next_back() {
            if **previous >= *table.name() {
                return Err(r.corrupt(format!(
                    "table {:?} follows {previous:?}: names are not strictly ascending",
                    table.name()
                )));
            }
        }
        blocks.insert(Arc::from(table.name()), block);
        lake.add_table_shared(table)
            .map_err(|e| PersistError::corrupt(path, format!("decoded table rejected: {e}")))?;
    }
    let num_gt = r.get_count()?;
    for _ in 0..num_gt {
        let query = r.get_str()?;
        let n = r.get_count()?;
        for _ in 0..n {
            let table = r.get_str()?;
            lake.add_ground_truth(query.clone(), table);
        }
    }
    r.finish()?;
    Ok((lake, blocks))
}

// ---------------------------------------------------------------------------
// table entries and the pack
// ---------------------------------------------------------------------------

/// Write a store's buffers verbatim (bit-exact norms: never recomputed).
fn put_store(w: &mut ByteWriter, store: &EmbeddingStore) {
    let (data, norms, inv_norms) = store.raw_parts();
    w.put_usize(store.dim());
    w.put_usize(store.len());
    w.put_f32s(data);
    w.put_f32s(norms);
    w.put_f64s(inv_norms);
}

fn get_store(r: &mut ByteReader<'_>) -> Result<EmbeddingStore, PersistError> {
    let dim = r.get_usize()?;
    let n = r.get_usize()?;
    let data = r.get_f32s()?;
    let norms = r.get_f32s()?;
    let inv_norms = r.get_f64s()?;
    if norms.len() != n || inv_norms.len() != n || data.len() != n.saturating_mul(dim) {
        return Err(r.corrupt(format!(
            "store buffers disagree: n={n}, dim={dim}, data={}, norms={}, inv_norms={}",
            data.len(),
            norms.len(),
            inv_norms.len()
        )));
    }
    Ok(EmbeddingStore::from_raw_parts(dim, data, norms, inv_norms))
}

/// A lake table and its block, as the pinned generation shares them.
type Shared<'a> = (&'a Arc<Table>, &'a Arc<TableBlock>);

/// Where an epoch keeps a table's entry: its index in the pack, or `None`
/// for inline in the lake segment.
type Slot = Option<usize>;

/// What an entry's embeddings must measure: the tuple embedder's dimension,
/// and the technique's column-embedding dimension — `None` when it keeps no
/// column block (Overlap).
#[derive(Debug, Clone, Copy)]
struct Dims {
    tuples: usize,
    columns: Option<usize>,
}

/// One entry: the table's rows, then its block — the tuple embeddings and,
/// under D3L and Starmie, the column block.
fn put_entry(w: &mut ByteWriter, table: &Table, block: &TableBlock) {
    put_table(w, table);
    put_store(w, &block.tuples);
    if let Some(columns) = &block.columns {
        w.put_usize(columns.len());
        for column in columns {
            w.put_f32s(column.as_slice());
        }
    }
}

/// The bytes [`put_entry`] writes for `table` and `block`, counted without
/// encoding them.
fn entry_len(table: &Table, block: &TableBlock) -> u64 {
    let str_len = |s: &str| 8 + s.len() as u64;
    let value_len = |value: &Value| {
        1 + match value {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Text(s) => str_len(s),
        }
    };
    let columns: u64 = (table.columns().iter())
        .map(|c| str_len(c.name()) + 8 + c.values().iter().map(value_len).sum::<u64>())
        .sum();
    let (data, norms, inv_norms) = block.tuples.raw_parts();
    let store = 16 + 8 + 4 * data.len() + 8 + 4 * norms.len() + 8 + 8 * inv_norms.len();
    let column_block = (block.columns.iter())
        .map(|vs| 8 + vs.iter().map(|v| 8 + 4 * v.dim()).sum::<usize>())
        .sum::<usize>();
    str_len(table.name()) + 8 + columns + (store + column_block) as u64
}

/// Decode one entry, checked against `dims`: tuple embeddings whose rows
/// are not the table's rows, or (non-empty) of another dimension than the
/// embedder's, which a probe could not be scored against; a column block
/// that does not hold one vector of the technique's dimension per column;
/// and a column block where the technique keeps none — read as the next
/// entry, or as trailing bytes — or none where it keeps one, are each a
/// typed corruption: never a panic, never a row or a column credited to the
/// wrong table.
fn get_entry(r: &mut ByteReader<'_>, dims: Dims) -> Result<(Table, TableBlock), PersistError> {
    let table = get_table(r)?;
    let tuples = get_store(r)?;
    if tuples.len() != table.num_rows() {
        return Err(r.corrupt(format!(
            "the block of table {:?} holds {} rows, the table {}",
            table.name(),
            tuples.len(),
            table.num_rows()
        )));
    }
    if !tuples.is_empty() && tuples.dim() != dims.tuples {
        return Err(r.corrupt(format!(
            "the block of table {:?} is {}-dimensional, the tuple embedder {}",
            table.name(),
            tuples.dim(),
            dims.tuples
        )));
    }
    let columns = match dims.columns {
        None => None,
        Some(dim) => {
            let count = r.get_count()?;
            if count != table.num_columns() {
                return Err(r.corrupt(format!(
                    "the column block of table {:?} holds {count} columns, the table {}",
                    table.name(),
                    table.num_columns()
                )));
            }
            let mut columns = Vec::with_capacity(count);
            for c in 0..count {
                let column = Vector::new(r.get_f32s()?);
                if column.dim() != dim {
                    return Err(r.corrupt(format!(
                        "column {c} of table {:?} is {}-dimensional, the technique's {dim}",
                        table.name(),
                        column.dim()
                    )));
                }
                columns.push(column);
            }
            Some(columns)
        }
    };
    Ok((table, TableBlock { tuples, columns }))
}

/// A decoded pack entry and its encoded length.
#[derive(Debug)]
struct PackedEntry {
    table: Arc<Table>,
    block: Arc<TableBlock>,
    len: u64,
}

/// Decode a pack: its entries in order, every one checked by [`get_entry`].
fn decode_pack(bytes: &[u8], path: &Path, dims: Dims) -> Result<Vec<PackedEntry>, PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let count = r.get_count()?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let start = r.position();
        let (table, block) = get_entry(&mut r, dims)?;
        entries.push(PackedEntry {
            table: Arc::new(table),
            block: Arc::new(block),
            len: (r.position() - start) as u64,
        });
    }
    r.finish()?;
    Ok(entries)
}

/// What the store remembers of one pack entry: the table and block it was
/// written from or decoded into, and its encoded length. A `Weak` keeps no
/// removed table's rows or block alive, yet holds its allocation, so no
/// later table can be given the same address while the entry exists.
#[derive(Debug)]
struct PackEntry {
    table: Weak<Table>,
    block: Weak<TableBlock>,
    len: u64,
}

/// The pack a manifest names: its epoch and what each entry was written
/// from. The default (epoch 0, no entries) is "no pack yet", which the pack
/// rule replaces at once.
#[derive(Debug, Default)]
pub(crate) struct Pack {
    pub(crate) epoch: u64,
    entries: Vec<PackEntry>,
}

impl Pack {
    fn from_decoded(epoch: u64, entries: &[PackedEntry]) -> Pack {
        let entries = (entries.iter())
            .map(|e| PackEntry {
                table: Arc::downgrade(&e.table),
                block: Arc::downgrade(&e.block),
                len: e.len,
            })
            .collect();
        Pack { epoch, entries }
    }

    /// Each table's slot: entry *i* iff the table and its block are the
    /// very `Arc`s entry *i* was written from or decoded into.
    fn slots(&self, tables: &[Shared<'_>]) -> Vec<Slot> {
        let by_table: BTreeMap<*const Table, usize> = (self.entries.iter().enumerate())
            .map(|(i, entry)| (entry.table.as_ptr(), i))
            .collect();
        (tables.iter())
            .map(|&(table, block)| {
                let i = *by_table.get(&Arc::as_ptr(table))?;
                std::ptr::eq(self.entries[i].block.as_ptr(), Arc::as_ptr(block)).then_some(i)
            })
            .collect()
    }

    /// The pack rule: write a new pack iff the inline bytes plus the bytes
    /// of entries no table names reach half the bytes of the live entries.
    fn is_stale(&self, tables: &[Shared<'_>], slots: &[Slot]) -> bool {
        let mut named = vec![false; self.entries.len()];
        let (mut live, mut inline) = (0, 0);
        for (&(table, block), slot) in tables.iter().zip(slots) {
            live += match *slot {
                Some(i) => {
                    named[i] = true;
                    self.entries[i].len
                }
                None => {
                    let len = entry_len(table, block);
                    inline += len;
                    len
                }
            };
        }
        let dead: u64 = (self.entries.iter().zip(&named))
            .filter(|(_, named)| !**named)
            .map(|(entry, _)| entry.len)
            .sum();
        2 * (inline + dead) >= live
    }
}

/// Write every table's entry, in name order, as the pack of `epoch`. Each
/// entry goes to the file as soon as it is encoded: the pack holds the
/// whole lake, the buffer one table.
fn write_pack(
    dir: &Path,
    epoch: u64,
    w: &mut ByteWriter,
    tables: &[Shared<'_>],
) -> Result<(Pack, u64), PersistError> {
    let mut entries = Vec::with_capacity(tables.len());
    let bytes = write_segment(&pack_path(dir, epoch), KIND_PACK, w, |s| {
        s.put_usize(tables.len());
        for &(table, block) in tables {
            let start = s.len();
            put_entry(s, table, block);
            entries.push(PackEntry {
                table: Arc::downgrade(table),
                block: Arc::downgrade(block),
                len: (s.len() - start) as u64,
            });
            s.flush();
        }
    })?;
    Ok((Pack { epoch, entries }, bytes))
}

// ---------------------------------------------------------------------------
// search-structure codec
// ---------------------------------------------------------------------------

/// The index in canonical form, a function of the lake alone: the tables
/// renumbered in name order, each as its name and column count; then every
/// value in ascending order with its posting as ascending *column ids*,
/// where table *t*'s columns are numbered after those of tables `0..t`. A
/// column's value-set size is not written: it is the number of postings
/// naming the column.
fn put_index(w: &mut ByteWriter, index: &InvertedValueIndex) {
    let mut tables: Vec<(u32, &str, &[u32])> = index.tables().collect();
    tables.sort_unstable_by_key(|&(_, name, _)| name);
    let mut first_id = vec![0u32; index.num_slots()];
    let mut num_columns = 0;
    w.put_usize(tables.len());
    for (slot, name, column_sizes) in tables {
        w.put_str(name);
        w.put_usize(column_sizes.len());
        first_id[slot as usize] = num_columns;
        num_columns += u32::try_from(column_sizes.len()).expect("column ids fit in u32");
    }
    let mut postings: Vec<(&Arc<str>, &Arc<[ColumnRef]>)> = index.postings_shared().collect();
    postings.sort_unstable_by_key(|&(value, _)| value);
    w.put_usize(postings.len());
    let mut ids = Vec::new();
    for (value, columns) in postings {
        ids.clear();
        ids.extend(
            columns
                .iter()
                .map(|c| first_id[c.table as usize] + c.column),
        );
        ids.sort_unstable();
        w.put_str(value);
        w.put_usize(ids.len());
        for &id in &ids {
            w.put_u32(id);
        }
    }
}

/// Decode the canonical index of [`put_index`] against the decoded `lake`,
/// building the postings directly — no lake column's value set is read.
/// Tables other than the lake's (by name or column count, in name order), a
/// column id out of range or not above the previous one, an empty posting,
/// or a value not above the previous one is a typed
/// [`PersistError::Corrupt`].
fn get_index(r: &mut ByteReader<'_>, lake: &DataLake) -> Result<InvertedValueIndex, PersistError> {
    let num_tables = r.get_count()?;
    if num_tables != lake.num_tables() {
        return Err(r.corrupt(format!(
            "the index holds {num_tables} tables but the lake {}",
            lake.num_tables()
        )));
    }
    let mut tables = Vec::with_capacity(num_tables);
    let mut columns = Vec::new();
    for (slot, table) in lake.tables().enumerate() {
        let name = r.get_str()?;
        let num_columns = r.get_usize()?;
        if name != table.name() || num_columns != table.num_columns() {
            return Err(r.corrupt(format!(
                "index table {slot} is {name:?} with {num_columns} columns, but the lake's is \
                 {:?} with {}",
                table.name(),
                table.num_columns()
            )));
        }
        columns.extend((0..num_columns as u32).map(|column| ColumnRef {
            table: slot as u32,
            column,
        }));
        tables.push((name, vec![0u32; num_columns].into_boxed_slice()));
    }
    let num_values = r.get_count()?;
    let mut postings: Vec<(Arc<str>, Arc<[ColumnRef]>)> = Vec::with_capacity(num_values);
    for _ in 0..num_values {
        let value: Arc<str> = Arc::from(r.get_str()?);
        if let Some((previous, _)) = postings.last().filter(|(p, _)| *p >= value) {
            return Err(r.corrupt(format!(
                "value {value:?} follows {previous:?}: values are repeated or out of order"
            )));
        }
        let n = r.get_count()?;
        if n == 0 {
            return Err(r.corrupt(format!("the posting of {value:?} is empty")));
        }
        let mut posting = Vec::with_capacity(n);
        let mut previous_id = None;
        for _ in 0..n {
            let id = r.get_u32()?;
            let Some(&column) = columns.get(id as usize) else {
                return Err(r.corrupt(format!(
                    "column id {id} is out of range: the lake has {} columns",
                    columns.len()
                )));
            };
            if previous_id.is_some_and(|previous| previous >= id) {
                return Err(r.corrupt(format!(
                    "the posting of {value:?} names column {id} out of order"
                )));
            }
            previous_id = Some(id);
            tables[column.table as usize].1[column.column as usize] += 1;
            posting.push(column);
        }
        postings.push((value, Arc::from(posting)));
    }
    Ok(InvertedValueIndex::from_parts(tables, postings))
}

/// The search segment: the technique's tag, then the index under Overlap
/// and D3L.
fn encode_search(
    w: &mut ByteWriter,
    technique: SearchTechnique,
    index: Option<&InvertedValueIndex>,
) {
    w.put_u8(technique_tag(technique));
    if let Some(index) = index {
        put_index(w, index);
    }
}

/// Decode the search segment: the index, iff `searcher` keeps one. The
/// searcher itself is the same `::new()` default a fresh session
/// constructs, not persisted. The decoded technique must match `expected`
/// (from the manifest's config), and an index must describe the decoded
/// `lake`: a mismatch means the files are inconsistent.
fn decode_search(
    bytes: &[u8],
    path: &Path,
    expected: SearchTechnique,
    searcher: &Searcher,
    lake: &DataLake,
) -> Result<Option<InvertedValueIndex>, PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let technique = technique_from(r.get_u8()?, &r)?;
    if technique != expected {
        return Err(PersistError::corrupt(
            path,
            format!("search segment holds {technique:?} but the manifest config says {expected:?}"),
        ));
    }
    let index = if searcher.has_index() {
        Some(get_index(&mut r, lake)?)
    } else {
        None
    };
    r.finish()?;
    Ok(index)
}

// ---------------------------------------------------------------------------
// model codec
// ---------------------------------------------------------------------------

fn put_finetune_config(w: &mut ByteWriter, c: &FineTuneConfig) {
    w.put_usize(c.hidden_dim);
    w.put_usize(c.output_dim);
    w.put_f32(c.dropout);
    w.put_f32(c.learning_rate);
    w.put_usize(c.max_epochs);
    w.put_usize(c.patience);
    w.put_f64(c.margin);
    w.put_u64(c.seed);
}

fn get_finetune_config(r: &mut ByteReader<'_>) -> Result<FineTuneConfig, PersistError> {
    Ok(FineTuneConfig {
        hidden_dim: r.get_usize()?,
        output_dim: r.get_usize()?,
        dropout: r.get_f32()?,
        learning_rate: r.get_f32()?,
        max_epochs: r.get_usize()?,
        patience: r.get_usize()?,
        margin: r.get_f64()?,
        seed: r.get_u64()?,
    })
}

fn encode_model(w: &mut ByteWriter, model: &DustModel) {
    w.put_u8(model_tag(model.backbone()));
    let head = model.head();
    put_finetune_config(w, head.config());
    w.put_usize(head.input_dim());
    let (w1, b1, w2, b2) = head.raw_weights();
    for part in [w1, b1, w2, b2] {
        w.put_f32s(&part);
    }
    match model.center() {
        Some(center) => {
            w.put_bool(true);
            w.put_f32s(center.as_slice());
        }
        None => w.put_bool(false),
    }
}

fn decode_model(bytes: &[u8], path: &Path) -> Result<DustModel, PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let backbone = model_from(r.get_u8()?, &r)?;
    let config = get_finetune_config(&mut r)?;
    let input_dim = r.get_usize()?;
    let w1 = r.get_f32s()?;
    let b1 = r.get_f32s()?;
    let w2 = r.get_f32s()?;
    let b2 = r.get_f32s()?;
    let center = if r.get_bool()? {
        Some(Vector::new(r.get_f32s()?))
    } else {
        None
    };
    r.finish()?;
    // Validate shapes with typed errors before the constructors' asserts
    // can fire (decode must never panic, even on an adversarial file).
    if w1.len() != config.hidden_dim.saturating_mul(input_dim)
        || b1.len() != config.hidden_dim
        || w2.len() != config.output_dim.saturating_mul(config.hidden_dim)
        || b2.len() != config.output_dim
        || config.hidden_dim == 0
        || config.output_dim == 0
        || input_dim == 0
    {
        return Err(PersistError::corrupt(path, "model weight shapes disagree"));
    }
    if input_dim != TupleEncoder::new(backbone).dim() {
        return Err(PersistError::corrupt(
            path,
            format!("head input dim {input_dim} does not match backbone {backbone:?}"),
        ));
    }
    if let Some(c) = &center {
        if c.dim() != input_dim {
            return Err(PersistError::corrupt(
                path,
                "centering vector dim does not match the backbone",
            ));
        }
    }
    let head = ProjectionHead::from_raw_weights(input_dim, config, w1, b1, w2, b2);
    Ok(DustModel::from_parts(backbone, head, center))
}

// ---------------------------------------------------------------------------
// manifest codec
// ---------------------------------------------------------------------------

fn encode_manifest(w: &mut ByteWriter, m: &Manifest) {
    w.put_u64(m.epoch);
    w.put_u64(m.pack_epoch);
    w.put_u64(m.generation);
    w.put_bool(m.model_injected);
    w.put_bool(m.has_model);
    let c = &m.config;
    w.put_u8(technique_tag(c.search));
    w.put_usize(c.tables_per_query);
    w.put_u8(model_tag(c.alignment_model));
    w.put_u8(serialization_tag(c.alignment_serialization));
    w.put_u8(linkage_tag(c.alignment_linkage));
    match &c.embedder {
        TupleEmbedderKind::Pretrained(backbone) => {
            w.put_u8(0);
            w.put_u8(model_tag(*backbone));
        }
        TupleEmbedderKind::FineTuned {
            backbone,
            config,
            training_pairs,
        } => {
            w.put_u8(1);
            w.put_u8(model_tag(*backbone));
            put_finetune_config(w, config);
            w.put_usize(*training_pairs);
        }
    }
    w.put_u8(distance_tag(c.distance));
    w.put_usize(c.diversifier.p);
    match c.diversifier.prune_to {
        Some(s) => {
            w.put_bool(true);
            w.put_usize(s);
        }
        None => w.put_bool(false),
    }
    w.put_u8(algorithm_tag(c.diversifier.algorithm));
}

fn decode_manifest(bytes: &[u8], path: &Path) -> Result<Manifest, PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let epoch = r.get_u64()?;
    let pack_epoch = r.get_u64()?;
    let generation = r.get_u64()?;
    let model_injected = r.get_bool()?;
    let has_model = r.get_bool()?;
    let search = technique_from(r.get_u8()?, &r)?;
    let tables_per_query = r.get_usize()?;
    let alignment_model = model_from(r.get_u8()?, &r)?;
    let alignment_serialization = serialization_from(r.get_u8()?, &r)?;
    let alignment_linkage = linkage_from(r.get_u8()?, &r)?;
    let embedder = match r.get_u8()? {
        0 => TupleEmbedderKind::Pretrained(model_from(r.get_u8()?, &r)?),
        1 => {
            let backbone = model_from(r.get_u8()?, &r)?;
            let config = get_finetune_config(&mut r)?;
            let training_pairs = r.get_usize()?;
            TupleEmbedderKind::FineTuned {
                backbone,
                config,
                training_pairs,
            }
        }
        t => return Err(r.corrupt(format!("unknown embedder tag {t}"))),
    };
    let distance = distance_from(r.get_u8()?, &r)?;
    let p = r.get_usize()?;
    let prune_to = if r.get_bool()? {
        Some(r.get_usize()?)
    } else {
        None
    };
    let algorithm = algorithm_from(r.get_u8()?, &r)?;
    r.finish()?;
    Ok(Manifest {
        epoch,
        pack_epoch,
        generation,
        model_injected,
        has_model,
        config: PipelineConfig {
            search,
            tables_per_query,
            alignment_model,
            alignment_serialization,
            alignment_linkage,
            embedder,
            distance,
            diversifier: DustConfigSerde {
                p,
                prune_to,
                algorithm,
            },
        },
    })
}

// ---------------------------------------------------------------------------
// whole-snapshot write / read
// ---------------------------------------------------------------------------

/// Write every segment of epoch `epoch` (everything except the manifest
/// and the WAL, which the caller sequences for crash safety): a new pack
/// if the pack rule says `pack` is stale, and the lake segment naming each
/// table's pack entry or holding it inline. Takes a pinned [`SessionView`]
/// so every segment photographs **one** generation even while concurrent
/// mutations publish newer ones. Returns the new pack, or `None` when the
/// epoch keeps `pack`, and the bytes written.
pub(crate) fn write_epoch_segments(
    dir: &Path,
    view: &SessionView<'_>,
    epoch: u64,
    pack: &Pack,
) -> Result<(Option<Pack>, u64), PersistError> {
    // One buffer for the whole epoch, written one segment after another:
    // a checkpoint's transient memory is one allocation the size of its
    // largest segment (or, for the pack and the lake segment, its largest
    // entry), not one freed and regrown per segment.
    let w = &mut ByteWriter::new();
    let tables: Vec<Shared<'_>> = (view.lake().tables_shared())
        .map(|(_, table)| table)
        .zip(view.blocks().values())
        .collect();
    let mut slots = pack.slots(&tables);
    let (mut new_pack, mut bytes) = (None, 0);
    if pack.is_stale(&tables, &slots) {
        let (written, len) = write_pack(dir, epoch, w, &tables)?;
        slots = (0..tables.len()).map(Some).collect();
        (new_pack, bytes) = (Some(written), len);
    }
    bytes += write_segment(&lake_path(dir, epoch), KIND_LAKE, w, |s| {
        encode_lake(s, view.lake(), &tables, &slots)
    })?;
    bytes += write_segment(&search_path(dir, epoch), KIND_SEARCH, w, |w| {
        encode_search(w, view.session().config().search, view.index())
    })?;
    if let SessionEmbedder::Model(model) = view.session_embedder() {
        bytes += write_segment(&model_path(dir, epoch), KIND_MODEL, w, |w| {
            encode_model(w, model)
        })?;
    }
    Ok((new_pack, bytes))
}

/// The manifest that describes the view's pinned generation at `epoch`,
/// whose lake segment indexes the pack of `pack_epoch`.
pub(crate) fn manifest_for(view: &SessionView<'_>, epoch: u64, pack_epoch: u64) -> Manifest {
    let session = view.session();
    Manifest {
        epoch,
        pack_epoch,
        generation: view.generation(),
        model_injected: session.model_injected,
        has_model: matches!(view.session_embedder(), SessionEmbedder::Model(_)),
        config: session.config().clone(),
    }
}

/// Atomically publish a manifest: write `MANIFEST.tmp`, fsync, rename over
/// `MANIFEST`, fsync the directory — which also makes every file the new
/// epoch created durable by name. A crash before the rename leaves the old
/// manifest (and its epoch files and pack) fully intact. Returns the
/// manifest's length in bytes.
pub(crate) fn publish_manifest(dir: &Path, manifest: &Manifest) -> Result<u64, PersistError> {
    let tmp = dir.join("MANIFEST.tmp");
    let bytes = write_segment(&tmp, KIND_MANIFEST, &mut ByteWriter::new(), |w| {
        encode_manifest(w, manifest)
    })?;
    let target = manifest_path(dir);
    std::fs::rename(&tmp, &target).map_err(|e| PersistError::io(&target, e))?;
    super::codec::sync_dir(dir)?;
    Ok(bytes)
}

/// Read and validate the manifest. [`PersistError::NoSnapshot`] when the
/// file does not exist (an empty directory is "nothing saved yet", not
/// corruption).
pub(crate) fn read_manifest(dir: &Path) -> Result<Manifest, PersistError> {
    let path = manifest_path(dir);
    if !path.exists() {
        return Err(PersistError::NoSnapshot {
            dir: dir.to_path_buf(),
        });
    }
    read_segment(&path, KIND_MANIFEST, |payload| {
        decode_manifest(payload, &path)
    })
}

/// Load a full session from the manifest's epoch segments and pack, in
/// that order: model, pack, lake, search. Returns the session and the pack
/// as the store must remember it — which `Arc`s each entry was decoded
/// into — so a reopened store also checkpoints only what changed. The WAL
/// is NOT replayed here — [`super::SnapshotStore::open`] does that through
/// the live mutation paths.
pub(crate) fn load_session(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(LakeSession, Pack), PersistError> {
    let start = crate::clock::now();
    let epoch = manifest.epoch;

    let embedder = match (&manifest.config.embedder, manifest.has_model) {
        (_, true) => {
            let mp = model_path(dir, epoch);
            SessionEmbedder::Model(read_segment(&mp, KIND_MODEL, |payload| {
                decode_model(payload, &mp)
            })?)
        }
        (TupleEmbedderKind::Pretrained(backbone), false) => {
            SessionEmbedder::Encoder(TupleEncoder::new(*backbone))
        }
        (TupleEmbedderKind::FineTuned { .. }, false) => {
            return Err(PersistError::corrupt(
                manifest_path(dir),
                "fine-tuned config without a model segment",
            ))
        }
    };

    let searcher = Searcher::new(manifest.config.search);
    let dims = Dims {
        tuples: embedder.dim(),
        columns: searcher.column_dim(),
    };
    let pp = pack_path(dir, manifest.pack_epoch);
    let packed = read_segment(&pp, KIND_PACK, |payload| decode_pack(payload, &pp, dims))?;
    let lp = lake_path(dir, epoch);
    let (lake, blocks) = read_segment(&lp, KIND_LAKE, |payload| {
        decode_lake(payload, &lp, &packed, dims)
    })?;
    // entries no table names are dropped here; their `Weak`s stay dead
    let pack = Pack::from_decoded(manifest.pack_epoch, &packed);
    drop(packed);

    let sp = search_path(dir, epoch);
    let index = read_segment(&sp, KIND_SEARCH, |payload| {
        decode_search(payload, &sp, manifest.config.search, &searcher, &lake)
    })?;

    // History depth is a serving-time knob, not part of the format: a
    // restored session takes the default (callers re-tune it with
    // `LakeSession::set_history_depth`) and its ring starts empty.
    let snapshot = SessionSnapshot {
        generation: manifest.generation,
        lake,
        embedder: Arc::new(embedder),
        index: index.map(Arc::new),
        blocks,
    };
    let session = LakeSession::from_snapshot(
        manifest.config.clone(),
        manifest.model_injected,
        searcher,
        snapshot,
        SessionOptions::default().history,
        start.elapsed().as_secs_f64(),
    );
    Ok((session, pack))
}

/// Best-effort removal of every `seg-*`/`wal-*` file the published
/// `manifest` does not name — it names its epoch's `seg-{e}-*` segments,
/// the pack `seg-{b}-pack.bin` and `wal-{e}.log` — so superseded epochs and
/// packs, and leftovers of a crashed checkpoint (a pack included), go.
/// Failures are ignored: stale files are garbage, not state.
pub(crate) fn sweep_unnamed_files(dir: &Path, manifest: &Manifest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let seg_keep = format!("seg-{}-", manifest.epoch);
    let pack_keep = format!("seg-{}-pack.bin", manifest.pack_epoch);
    let wal_keep = format!("wal-{}.log", manifest.epoch);
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let named = name == pack_keep
            || (name.starts_with(&seg_keep) && !name.ends_with("-pack.bin"))
            || name == wal_keep;
        let stale = ((name.starts_with("seg-") || name.starts_with("wal-")) && !named)
            || name == "MANIFEST.tmp";
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_table::Tuple;

    /// `fixtures/seg-model-v2.bin` is a format-v2 model segment written by
    /// commit `be41721`, when the head still held its weights in the
    /// persisted `output × input` form: Bert (192) → 5 → 3, four epochs on
    /// nine toy pairs. Formats 3 and 4 left the model payload as it was, so the
    /// file as a whole is a typed version skew while its payload (between
    /// the 13-byte frame header and the CRC trailer) must keep meaning the
    /// same model and the model the same payload.
    #[test]
    fn golden_v2_model_segment_decodes_embeds_and_re_encodes_verbatim() {
        let path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/fixtures/seg-model-v2.bin"
        ));
        match read_segment(path, KIND_MODEL, |payload| decode_model(payload, path)) {
            Err(PersistError::UnsupportedVersion { found: 2, .. }) => {}
            other => panic!("expected UnsupportedVersion {{ found: 2 }}, got {other:?}"),
        }
        let file = std::fs::read(path).unwrap();
        let payload = &file[13..file.len() - 4];
        let model = decode_model(payload, path).expect("a decodable model payload");
        let tuple = Tuple::new(
            vec!["Name".into(), "Kind".into(), "Place".into()],
            vec![
                Value::text("Lawler Park"),
                Value::text("park"),
                Value::text("Chicago"),
            ],
            "park_table",
            0,
        );
        let bits: Vec<u32> = model
            .embed_tuple(&tuple)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, [0x3efa_6d7a, 0xbd19_959c, 0x3ee4_39e8]);
        let mut rewritten = ByteWriter::new();
        encode_model(&mut rewritten, &model);
        assert_eq!(rewritten.into_bytes(), payload);
    }

    /// A one-column table of `rows` text cells.
    fn table(name: &str, rows: usize) -> Table {
        let cells = (0..rows).map(|i| format!("{name}{i}"));
        Table::builder(name).column("x", cells).build().unwrap()
    }

    /// `rows` vectors of `dim` arbitrary non-zero values.
    fn vectors(rows: usize, dim: usize) -> Vec<Vector> {
        (0..rows)
            .map(|i| Vector::new((0..dim).map(|c| (i * dim + c) as f32 + 0.5).collect()))
            .collect()
    }

    /// A block of `rows × dim` tuple embeddings and no column block, as
    /// Overlap keeps.
    fn block(rows: usize, dim: usize) -> TableBlock {
        TableBlock {
            tuples: EmbeddingStore::from_vectors(&vectors(rows, dim)),
            columns: None,
        }
    }

    /// `block` with a column block of `columns` vectors of `dim` values, as
    /// D3L and Starmie keep.
    fn with_columns(block: TableBlock, columns: usize, dim: usize) -> TableBlock {
        TableBlock {
            columns: Some(vectors(columns, dim)),
            ..block
        }
    }

    /// 3-d tuple embeddings; no column block (Overlap), or 2-d columns.
    const OVERLAP: Dims = Dims {
        tuples: 3,
        columns: None,
    };
    const COLUMNS: Dims = Dims {
        tuples: 3,
        columns: Some(2),
    };

    /// One lake-segment table: a pack index, or an inline entry.
    enum Tag {
        Packed(usize),
        Inline(Table, TableBlock),
    }

    /// A pack payload holding `entries`, in order.
    fn pack_payload(entries: &[(Table, TableBlock)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(entries.len());
        for (table, block) in entries {
            put_entry(&mut w, table, block);
        }
        w.into_bytes()
    }

    /// A lake-segment payload with no queries or ground truth and `tags`
    /// as its tables.
    fn lake_payload(tags: &[Tag]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("pair");
        w.put_usize(0);
        w.put_usize(tags.len());
        for tag in tags {
            match tag {
                Tag::Packed(index) => {
                    w.put_u8(TAG_PACKED);
                    w.put_usize(*index);
                }
                Tag::Inline(table, block) => {
                    w.put_u8(TAG_INLINE);
                    put_entry(&mut w, table, block);
                }
            }
        }
        w.put_usize(0);
        w.into_bytes()
    }

    /// Decode `pack`, then `tags` against it, for a 3-d embedder under
    /// Overlap.
    fn decode(
        pack: &[(Table, TableBlock)],
        tags: &[Tag],
    ) -> Result<(Vec<PackedEntry>, DataLake, TableBlocks), PersistError> {
        decode_with(pack, tags, OVERLAP)
    }

    fn decode_with(
        pack: &[(Table, TableBlock)],
        tags: &[Tag],
        dims: Dims,
    ) -> Result<(Vec<PackedEntry>, DataLake, TableBlocks), PersistError> {
        let packed = decode_pack(&pack_payload(pack), Path::new("seg-1-pack.bin"), dims)?;
        let lake_path = Path::new("seg-2-lake.bin");
        let (lake, blocks) = decode_lake(&lake_payload(tags), lake_path, &packed, dims)?;
        Ok((packed, lake, blocks))
    }

    fn assert_corrupt<T: std::fmt::Debug>(decoded: Result<T, PersistError>, detail: &str) {
        match decoded {
            Err(e @ PersistError::Corrupt { .. }) => {
                assert!(e.to_string().contains(detail), "{e}")
            }
            other => panic!("expected Corrupt ({detail}), got {other:?}"),
        }
    }

    /// Tables `a` (two rows) and `b` (one row) with 3-d blocks.
    fn pair() -> Vec<(Table, TableBlock)> {
        vec![(table("a", 2), block(2, 3)), (table("b", 1), block(1, 3))]
    }

    #[test]
    fn tuple_blocks_decode_onto_their_tables_bit_for_bit() {
        // `a` from the pack, `b` inline; the pack's `b` is dead
        let inline = vectors(1, 3)[0]
            .as_slice()
            .iter()
            .map(|v| v * 2.0)
            .collect();
        let inline = EmbeddingStore::from_vectors(&[Vector::new(inline)]);
        let inline_block = TableBlock {
            tuples: inline.clone(),
            columns: None,
        };
        let tags = [Tag::Packed(0), Tag::Inline(table("b", 1), inline_block)];
        let (packed, lake, blocks) = decode(&pair(), &tags).unwrap();
        let names: Vec<&str> = blocks.keys().map(|name| &**name).collect();
        assert_eq!(names, ["a", "b"]);
        let tuples = |name: &str| blocks[name].tuples.raw_parts();
        assert_eq!(tuples("a"), block(2, 3).tuples.raw_parts());
        assert_eq!(tuples("b"), inline.raw_parts());
        assert_eq!(lake.table("b").unwrap(), &table("b", 1));
        // a packed table is the pack's allocation, which the store remembers
        assert!(Arc::ptr_eq(&blocks["a"], &packed[0].block));
        assert!(Arc::ptr_eq(
            lake.table_shared("a").unwrap(),
            &packed[0].table
        ));
        let pack = Pack::from_decoded(1, &packed);
        let tables: Vec<Shared<'_>> = (lake.tables_shared().map(|(_, t)| t))
            .zip(blocks.values())
            .collect();
        assert_eq!(pack.slots(&tables), [Some(0), None]);
    }

    #[test]
    fn entry_len_counts_what_put_entry_writes() {
        let every_value = Table::from_columns(
            "mixed",
            vec![
                Column::new("null", vec![Value::Null, Value::Bool(true)]),
                Column::new("num", vec![Value::Int(-3), Value::Float(0.25)]),
                Column::new("text", vec![Value::text("façade"), Value::text("")]),
            ],
        )
        .unwrap();
        let empty = Table::from_columns("e", vec![Column::new("x", Vec::new())]).unwrap();
        for (table, block) in [
            (every_value.clone(), block(2, 5)),
            (every_value, with_columns(block(2, 5), 3, 4)),
            (empty.clone(), block(0, 0)),
            (empty, with_columns(block(0, 0), 1, 2)),
        ] {
            let mut w = ByteWriter::new();
            put_entry(&mut w, &table, &block);
            assert_eq!(
                entry_len(&table, &block),
                w.len() as u64,
                "{}",
                table.name()
            );
        }
    }

    #[test]
    fn a_pack_index_out_of_range_is_corrupt() {
        let tags = [Tag::Packed(0), Tag::Packed(2)];
        assert_corrupt(
            decode(&pair(), &tags),
            "pack index 2 is out of range: the pack holds 2 entries",
        );
    }

    #[test]
    fn a_pack_index_named_twice_is_corrupt() {
        let tags = [Tag::Packed(0), Tag::Packed(0)];
        assert_corrupt(decode(&pair(), &tags), "pack entry 0 is named twice");
    }

    #[test]
    fn table_names_out_of_order_are_corrupt() {
        let swapped = [Tag::Packed(1), Tag::Packed(0)];
        assert_corrupt(
            decode(&pair(), &swapped),
            "table \"a\" follows \"b\": names are not strictly ascending",
        );
        // the same name inline beside its packed entry
        let repeated = [Tag::Packed(0), Tag::Inline(table("a", 2), block(2, 3))];
        assert_corrupt(decode(&pair(), &repeated), "table \"a\" follows \"a\"");
    }

    #[test]
    fn a_tuple_block_whose_rows_are_not_its_tables_is_corrupt() {
        // in the pack: the right total, credited to the wrong tables
        let swapped = [(table("a", 2), block(1, 3)), (table("b", 1), block(2, 3))];
        assert_corrupt(
            decode(&swapped, &[]),
            "table \"a\" holds 1 rows, the table 2",
        );
        // inline
        let tags = [Tag::Packed(0), Tag::Inline(table("b", 1), block(3, 3))];
        assert_corrupt(
            decode(&pair(), &tags),
            "table \"b\" holds 3 rows, the table 1",
        );
    }

    #[test]
    fn a_tuple_block_of_another_dimension_is_corrupt() {
        // blocks that disagree with each other...
        let mixed = [(table("a", 2), block(2, 3)), (table("b", 1), block(1, 4))];
        assert_corrupt(
            decode(&mixed, &[]),
            "table \"b\" is 4-dimensional, the tuple embedder 3",
        );
        // ...or agree with each other but not with the embedder
        let tags = [Tag::Inline(table("c", 1), block(1, 5))];
        assert_corrupt(
            decode(&[], &tags),
            "table \"c\" is 5-dimensional, the tuple embedder 3",
        );
        // an empty table's block carries no dimension to check
        let empty = Table::from_columns("e", vec![Column::new("x", Vec::new())]).unwrap();
        let tags = [Tag::Inline(empty, block(0, 0))];
        assert_eq!(decode(&[], &tags).unwrap().2["e"].tuples.len(), 0);
    }

    /// `a` and `b` of [`pair`], with one 2-d vector per column.
    fn pair_with_columns() -> Vec<(Table, TableBlock)> {
        (pair().into_iter())
            .map(|(table, block)| (table, with_columns(block, 1, 2)))
            .collect()
    }

    #[test]
    fn column_blocks_decode_onto_their_tables_bit_for_bit() {
        let tags = [
            Tag::Packed(0),
            Tag::Inline(table("b", 1), with_columns(block(1, 3), 1, 2)),
        ];
        let (_, _, blocks) = decode_with(&pair_with_columns(), &tags, COLUMNS).unwrap();
        for (name, block) in &blocks {
            assert_eq!(block.columns, Some(vectors(1, 2)), "{name}");
        }
    }

    #[test]
    fn a_column_block_of_another_count_than_the_tables_columns_is_corrupt() {
        let wide = vec![(table("a", 2), with_columns(block(2, 3), 2, 2))];
        assert_corrupt(
            decode_with(&wide, &[], COLUMNS),
            "the column block of table \"a\" holds 2 columns, the table 1",
        );
    }

    #[test]
    fn a_column_vector_of_another_dimension_is_corrupt() {
        let mut pack = pair_with_columns();
        pack[1].1 = with_columns(block(1, 3), 1, 3);
        assert_corrupt(
            decode_with(&pack, &[], COLUMNS),
            "column 0 of table \"b\" is 3-dimensional, the technique's 2",
        );
    }

    #[test]
    fn a_column_block_under_overlap_is_corrupt() {
        // the first entry's column block is read as the second entry...
        assert_corrupt(
            decode_with(&pair_with_columns(), &[], OVERLAP),
            "seg-1-pack.bin",
        );
        // ...and the last one's is left over
        let last = vec![pair_with_columns().remove(1)];
        assert_corrupt(decode_with(&last, &[], OVERLAP), "trailing bytes");
        let tags = [Tag::Inline(table("c", 1), with_columns(block(1, 3), 1, 2))];
        assert_corrupt(decode_with(&[], &tags, OVERLAP), "seg-2-lake.bin");
    }

    #[test]
    fn a_missing_column_block_under_d3l_or_starmie_is_corrupt() {
        // the next entry is read as the first one's column block...
        assert_corrupt(decode_with(&pair(), &[], COLUMNS), "seg-1-pack.bin");
        // ...and the last one's runs off the payload
        let last = vec![pair().remove(1)];
        assert_corrupt(decode_with(&last, &[], COLUMNS), "payload overrun");
        let tags = [Tag::Inline(table("c", 1), block(1, 3))];
        assert_corrupt(decode_with(&[], &tags, COLUMNS), "seg-2-lake.bin");
    }

    /// Tables `a` (values `a0`, `a1`) and `b` (value `b0`), one column
    /// each: column ids 0 and 1.
    fn index_lake() -> DataLake {
        let mut lake = DataLake::new("index");
        for table in [table("a", 2), table("b", 1)] {
            lake.add_table(table).unwrap();
        }
        lake
    }

    /// An index payload of `tables` (name, column count) and `postings`.
    fn index_payload(tables: &[(&str, usize)], postings: &[(&str, &[u32])]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(tables.len());
        for (name, columns) in tables {
            w.put_str(name);
            w.put_usize(*columns);
        }
        w.put_usize(postings.len());
        for (value, ids) in postings {
            w.put_str(value);
            w.put_usize(ids.len());
            for &id in *ids {
                w.put_u32(id);
            }
        }
        w.into_bytes()
    }

    fn decode_index(payload: &[u8], lake: &DataLake) -> Result<InvertedValueIndex, PersistError> {
        let mut r = ByteReader::new(payload, Path::new("seg-1-search.bin"));
        let index = get_index(&mut r, lake)?;
        r.finish()?;
        Ok(index)
    }

    fn encode_index(index: &InvertedValueIndex) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_index(&mut w, index);
        w.into_bytes()
    }

    const TABLES: [(&str, usize); 2] = [("a", 1), ("b", 1)];

    #[test]
    fn the_index_is_written_canonically_and_decodes_to_the_same_answers() {
        let lake = index_lake();
        let fresh = InvertedValueIndex::build(&lake);
        let canonical = index_payload(&TABLES, &[("a0", &[0]), ("a1", &[0]), ("b0", &[1])]);
        assert_eq!(encode_index(&fresh), canonical);
        // churn moves `a` to slot 1 in memory, never on disk
        let mut churned = fresh.clone();
        assert!(churned.remove_table(lake.table("a").unwrap()));
        churned.add_table(&table("c", 1));
        churned.add_table(lake.table("a").unwrap());
        assert!(churned.remove_table(&table("c", 1)));
        assert_eq!(
            churned.tables().map(|t| t.1).collect::<Vec<_>>(),
            ["b", "a"]
        );
        assert_eq!(encode_index(&churned), canonical);
        let decoded = decode_index(&canonical, &lake).unwrap();
        assert_eq!(encode_index(&decoded), canonical);
        let sizes: Vec<&[u32]> = decoded.tables().map(|t| t.2).collect();
        assert_eq!(
            sizes,
            [&[2][..], &[1]],
            "sizes are derived from the postings"
        );
        let query = table("a", 1);
        assert_eq!(decoded.candidates(&query, 5), fresh.candidates(&query, 5));
    }

    #[test]
    fn index_tables_other_than_the_lakes_are_corrupt() {
        let lake = index_lake();
        let postings: [(&str, &[u32]); 1] = [("a0", &[0])];
        assert_corrupt(
            decode_index(&index_payload(&TABLES[..1], &postings), &lake),
            "the index holds 1 tables but the lake 2",
        );
        assert_corrupt(
            decode_index(&index_payload(&[("a", 1), ("c", 1)], &postings), &lake),
            "index table 1 is \"c\" with 1 columns, but the lake's is \"b\" with 1",
        );
        assert_corrupt(
            decode_index(&index_payload(&[("a", 2), ("b", 1)], &postings), &lake),
            "index table 0 is \"a\" with 2 columns",
        );
    }

    #[test]
    fn index_postings_out_of_shape_are_corrupt() {
        let lake = index_lake();
        let decode =
            |postings: &[(&str, &[u32])]| decode_index(&index_payload(&TABLES, postings), &lake);
        assert_corrupt(
            decode(&[("a0", &[2])]),
            "column id 2 is out of range: the lake has 2 columns",
        );
        assert_corrupt(
            decode(&[("a0", &[1, 0])]),
            "the posting of \"a0\" names column 0 out of order",
        );
        assert_corrupt(
            decode(&[("a0", &[0, 0])]),
            "the posting of \"a0\" names column 0 out of order",
        );
        assert_corrupt(decode(&[("a0", &[])]), "the posting of \"a0\" is empty");
        assert_corrupt(
            decode(&[("a0", &[0]), ("a0", &[1])]),
            "value \"a0\" follows \"a0\": values are repeated or out of order",
        );
        assert_corrupt(
            decode(&[("b0", &[1]), ("a0", &[0])]),
            "value \"a0\" follows \"b0\"",
        );
    }

    /// Inline bytes + dead pack bytes against half the live bytes, on four
    /// tables whose entries are the same length.
    #[test]
    fn the_pack_is_rewritten_once_inline_and_dead_bytes_reach_half_the_live() {
        let held: Vec<(Arc<Table>, Arc<TableBlock>)> = ["a", "b", "c", "d", "e"]
            .map(|name| (Arc::new(table(name, 2)), Arc::new(block(2, 3))))
            .into();
        let pack = Pack {
            epoch: 1,
            entries: (held[..4].iter())
                .map(|(table, block)| PackEntry {
                    table: Arc::downgrade(table),
                    block: Arc::downgrade(block),
                    len: entry_len(table, block),
                })
                .collect(),
        };
        let is_stale = |tables: &[Shared<'_>]| pack.is_stale(tables, &pack.slots(tables));
        let shared: Vec<Shared<'_>> = held.iter().map(|(t, b)| (t, b)).collect();
        // unchanged: no inline, no dead bytes
        assert!(!is_stale(&shared[..4]));
        // one added table is ¼ of the pack inline; one removed, ⅓ dead
        assert!(!is_stale(&shared));
        assert!(!is_stale(&shared[1..4]));
        // one replaced block is inline and leaves its entry dead: ½
        let replaced = Arc::new(block(2, 3));
        let mut churned = shared[..4].to_vec();
        churned[0].1 = &replaced;
        assert_eq!(pack.slots(&churned), [None, Some(1), Some(2), Some(3)]);
        assert!(is_stale(&churned));
        // no pack yet: every table is inline, an empty lake included
        let none = Pack::default();
        assert!(none.is_stale(&shared, &none.slots(&shared)));
        assert!(none.is_stale(&[], &[]));
    }
}
