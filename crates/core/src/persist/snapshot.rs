//! The versioned snapshot: a whole [`LakeSession`] as checksummed segment
//! files.
//!
//! One snapshot *epoch* is a set of segment files named `seg-{epoch}-*.bin`
//! plus a WAL `wal-{epoch}.log`, all referenced by the single `MANIFEST`
//! file. Checkpointing writes a complete new epoch before atomically
//! renaming the new manifest into place, so a crash at any point leaves
//! the directory with one consistent epoch (old or new, never a mix).
//!
//! Segments (each framed and CRC32-sealed by [`super::codec`]):
//!
//! * **manifest** — epoch, generation, the full [`PipelineConfig`], and
//!   whether a trained model segment exists;
//! * **lake** — the [`DataLake`] itself (tables, queries, ground truth),
//!   required both for query execution and for replaying WAL adds;
//! * **tuples** — every lake table's tuple-embedding block, in lake name
//!   order: dim, rows, data, norms and inverse norms, bit-exact. No names
//!   and no per-row provenance: decoding pairs block *t* with the decoded
//!   lake's table *t*, and a block count or row count that disagrees with
//!   the lake (or a dimension that is not the embedder's) is a typed
//!   [`PersistError::Corrupt`];
//! * **search** — the configured technique's candidate structures
//!   ([`InvertedValueIndex`] postings / Starmie / D3L per-table column
//!   embeddings); the searcher objects themselves are `::new()` defaults
//!   and are reconstructed, not persisted;
//! * **model** — the trained [`DustModel`] head weights and centering
//!   vector (present only when the session embeds through a model), so a
//!   restart never re-pays training.
//!
//! Everything floating-point is written via IEEE bit patterns, so a
//! restored session's scores are **bit-identical** to the saved one's.
//!
//! The column side (TF-IDF corpus + column embeddings) is deliberately not
//! a segment: only `similar_columns` reads it, and each generation derives
//! it from its lake on first use, so writing a snapshot embeds nothing and
//! a restored session computes exactly what a live one does. Directories
//! of an older format version — 1 (a `columns` segment and one more
//! manifest field) or 2 (one hashed `shard-i` segment per tuple shard with
//! per-row provenance, and a shard count in the manifest) — answer
//! [`PersistError::UnsupportedVersion`]; callers take their usual
//! rebuild-from-lake fallback.

use super::codec::{read_segment, write_segment, ByteReader, ByteWriter, SegmentWriter};
use super::error::PersistError;
use crate::config::{DustConfigSerde, PipelineConfig, SearchTechnique, TupleEmbedderKind};
use crate::session::{LakeSession, SearchStructures, SessionEmbedder, SessionView, TupleBlocks};
use dust_cluster::{AgglomerativeAlgorithm, Linkage};
use dust_embed::{
    ColumnEncoder, ColumnSerialization, Distance, DustModel, EmbeddingStore, FineTuneConfig,
    PretrainedModel, ProjectionHead, TupleEncoder, Vector,
};
use dust_search::{
    D3lSearch, D3lSignalStats, InvertedValueIndex, OverlapSearch, StarmieColumnStore, StarmieSearch,
};
use dust_table::{Column, DataLake, Table, TableId, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Segment kind bytes (validated after the CRC, so a mismatch on an intact
/// file means manifest/segment skew, not bit rot).
pub(crate) const KIND_MANIFEST: u8 = 0;
pub(crate) const KIND_LAKE: u8 = 1;
pub(crate) const KIND_TUPLES: u8 = 2;
pub(crate) const KIND_SEARCH: u8 = 4;
pub(crate) const KIND_MODEL: u8 = 5;

/// The manifest: everything needed to locate and interpret the segment
/// files of the current epoch.
#[derive(Debug, Clone)]
pub(crate) struct Manifest {
    pub(crate) epoch: u64,
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

pub(crate) fn tuples_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("seg-{epoch}-tuples.bin"))
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

fn encode_lake(w: &mut ByteWriter, lake: &DataLake) {
    w.put_str(lake.name());
    w.put_usize(lake.num_queries());
    for query in lake.queries() {
        put_table(w, query);
    }
    w.put_usize(lake.num_tables());
    for table in lake.tables() {
        put_table(w, table);
    }
    let gt = lake.ground_truth();
    let queries: Vec<&TableId> = gt.queries().collect();
    w.put_usize(queries.len());
    for query in queries {
        w.put_str(query);
        let unionable = gt.unionable_with(query);
        w.put_usize(unionable.len());
        for table in &unionable {
            w.put_str(table);
        }
    }
}

fn decode_lake(bytes: &[u8], path: &Path) -> Result<DataLake, PersistError> {
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
    for _ in 0..num_tables {
        let table = get_table(&mut r)?;
        lake.add_table(table)
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
    Ok(lake)
}

// ---------------------------------------------------------------------------
// tuple-block codec
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

/// Every table's block in lake name order (the map's order), after their
/// count. Block *t* belongs to the lake's table *t*; nothing else names it.
/// Each block goes to the file as soon as it is encoded: the segment holds
/// the whole lake's embeddings, the buffer only one table's.
fn encode_tuples(s: &mut SegmentWriter<'_>, blocks: &TupleBlocks) {
    s.put_usize(blocks.len());
    for block in blocks.values() {
        put_store(s, block);
        s.flush();
    }
}

/// Decode the tuple segment against the already-decoded `lake` and the
/// session's embedding dimension `dim`, pairing block *t* with table *t*
/// in name order. A block count that is not the lake's table count, a
/// block whose rows are not its table's rows, or a non-empty block of
/// another dimension (which a probe could not be scored against) is a
/// typed corruption — never a panic, never a row credited to the wrong
/// table.
fn decode_tuples(
    bytes: &[u8],
    path: &Path,
    lake: &DataLake,
    dim: usize,
) -> Result<TupleBlocks, PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let count = r.get_count()?;
    if count != lake.num_tables() {
        return Err(r.corrupt(format!(
            "{count} tuple blocks for a lake of {} tables",
            lake.num_tables()
        )));
    }
    let mut blocks = TupleBlocks::new();
    for table in lake.tables() {
        let block = get_store(&mut r)?;
        if block.len() != table.num_rows() {
            return Err(r.corrupt(format!(
                "the block of table {:?} holds {} rows, the table {}",
                table.name(),
                block.len(),
                table.num_rows()
            )));
        }
        if !block.is_empty() && block.dim() != dim {
            return Err(r.corrupt(format!(
                "the block of table {:?} is {}-dimensional, the tuple embedder {dim}",
                table.name(),
                block.dim()
            )));
        }
        blocks.insert(Arc::from(table.name()), Arc::new(block));
    }
    r.finish()?;
    Ok(blocks)
}

// ---------------------------------------------------------------------------
// search-structure codec
// ---------------------------------------------------------------------------

fn put_index(w: &mut ByteWriter, index: &InvertedValueIndex) {
    w.put_usize(index.num_tables());
    let entries = index.entries();
    w.put_usize(entries.len());
    for (value, tables) in &entries {
        w.put_str(value);
        w.put_usize(tables.len());
        for table in tables {
            w.put_str(table);
        }
    }
}

fn get_index(r: &mut ByteReader<'_>) -> Result<InvertedValueIndex, PersistError> {
    let indexed_tables = r.get_usize()?;
    let num_entries = r.get_count()?;
    let mut entries = Vec::with_capacity(num_entries);
    for _ in 0..num_entries {
        let value = r.get_str()?;
        let n = r.get_count()?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            tables.push(r.get_str()?);
        }
        entries.push((value, tables));
    }
    Ok(InvertedValueIndex::from_entries(indexed_tables, entries))
}

fn put_column_entries(w: &mut ByteWriter, entries: &[(String, Vec<Vector>)]) {
    w.put_usize(entries.len());
    for (table, vectors) in entries {
        w.put_str(table);
        w.put_usize(vectors.len());
        for v in vectors {
            w.put_f32s(v.as_slice());
        }
    }
}

fn get_column_entries(r: &mut ByteReader<'_>) -> Result<Vec<(String, Vec<Vector>)>, PersistError> {
    let n = r.get_count()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let table = r.get_str()?;
        let num_vectors = r.get_count()?;
        let mut vectors = Vec::with_capacity(num_vectors);
        for _ in 0..num_vectors {
            vectors.push(Vector::new(r.get_f32s()?));
        }
        entries.push((table, vectors));
    }
    Ok(entries)
}

fn encode_search(w: &mut ByteWriter, search: &SearchStructures) {
    match search {
        SearchStructures::Overlap { index, .. } => {
            w.put_u8(technique_tag(SearchTechnique::Overlap));
            put_index(w, index);
        }
        SearchStructures::D3l { index, stats, .. } => {
            w.put_u8(technique_tag(SearchTechnique::D3l));
            put_index(w, index);
            put_column_entries(w, &stats.entries());
        }
        SearchStructures::Starmie { store, .. } => {
            w.put_u8(technique_tag(SearchTechnique::Starmie));
            put_column_entries(w, &store.entries());
        }
    }
}

/// Decode the search segment. The searcher objects are the same `::new()`
/// defaults a fresh session constructs — only the lake-derived structures
/// round-trip. The decoded technique must match `expected` (from the
/// manifest's config): a mismatch means the files are inconsistent.
fn decode_search(
    bytes: &[u8],
    path: &Path,
    expected: SearchTechnique,
) -> Result<SearchStructures, PersistError> {
    let mut r = ByteReader::new(bytes, path);
    let technique = technique_from(r.get_u8()?, &r)?;
    if technique != expected {
        return Err(PersistError::corrupt(
            path,
            format!("search segment holds {technique:?} but the manifest config says {expected:?}"),
        ));
    }
    let search = match technique {
        SearchTechnique::Overlap => {
            let index = get_index(&mut r)?;
            SearchStructures::Overlap {
                search: OverlapSearch::new(),
                index,
            }
        }
        SearchTechnique::D3l => {
            let index = get_index(&mut r)?;
            let stats = D3lSignalStats::from_entries(get_column_entries(&mut r)?);
            SearchStructures::D3l {
                search: D3lSearch::new(),
                index,
                stats,
            }
        }
        SearchTechnique::Starmie => {
            let store = StarmieColumnStore::from_entries(get_column_entries(&mut r)?);
            SearchStructures::Starmie {
                search: StarmieSearch::new(),
                store,
            }
        }
    };
    r.finish()?;
    Ok(search)
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
    if !has_model && matches!(embedder, TupleEmbedderKind::FineTuned { .. }) {
        return Err(PersistError::corrupt(
            path,
            "fine-tuned config without a model segment",
        ));
    }
    Ok(Manifest {
        epoch,
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
/// and the WAL, which the caller sequences for crash safety). Takes a
/// pinned [`SessionView`] so every segment photographs **one** generation
/// even while concurrent mutations publish newer ones.
pub(crate) fn write_epoch_segments(
    dir: &Path,
    view: &SessionView<'_>,
    epoch: u64,
) -> Result<(), PersistError> {
    // One buffer for the whole epoch, written one segment after another:
    // a checkpoint's transient memory is one allocation the size of its
    // largest segment (or, for the tuple segment, its largest table's
    // block), not one freed and regrown per segment.
    let w = &mut ByteWriter::new();
    write_segment(&lake_path(dir, epoch), KIND_LAKE, w, |w| {
        encode_lake(w, view.lake())
    })?;
    write_segment(&tuples_path(dir, epoch), KIND_TUPLES, w, |s| {
        encode_tuples(s, view.tuple_blocks())
    })?;
    write_segment(&search_path(dir, epoch), KIND_SEARCH, w, |w| {
        encode_search(w, view.search_structures())
    })?;
    if let SessionEmbedder::Model(model) = view.session_embedder() {
        write_segment(&model_path(dir, epoch), KIND_MODEL, w, |w| {
            encode_model(w, model)
        })?;
    }
    Ok(())
}

/// The manifest that describes the view's pinned generation at `epoch`.
pub(crate) fn manifest_for(view: &SessionView<'_>, epoch: u64) -> Manifest {
    let session = view.session();
    Manifest {
        epoch,
        generation: view.generation(),
        model_injected: session.model_injected,
        has_model: matches!(view.session_embedder(), SessionEmbedder::Model(_)),
        config: session.config().clone(),
    }
}

/// Atomically publish a manifest: write `MANIFEST.tmp`, fsync, rename over
/// `MANIFEST`, fsync the directory. A crash before the rename leaves the
/// old manifest (and its epoch files) fully intact.
pub(crate) fn publish_manifest(dir: &Path, manifest: &Manifest) -> Result<(), PersistError> {
    let tmp = dir.join("MANIFEST.tmp");
    write_segment(&tmp, KIND_MANIFEST, &mut ByteWriter::new(), |w| {
        encode_manifest(w, manifest)
    })?;
    let target = manifest_path(dir);
    std::fs::rename(&tmp, &target).map_err(|e| PersistError::io(&target, e))?;
    super::codec::sync_dir(dir)?;
    Ok(())
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

/// Load a full session from the manifest's epoch segments. The WAL is NOT
/// replayed here — [`super::SnapshotStore::open`] does that through the
/// live mutation paths.
pub(crate) fn load_session(dir: &Path, manifest: &Manifest) -> Result<LakeSession, PersistError> {
    let start = crate::clock::now();
    let epoch = manifest.epoch;

    let lp = lake_path(dir, epoch);
    let lake = read_segment(&lp, KIND_LAKE, |payload| decode_lake(payload, &lp))?;

    let embedder = if manifest.has_model {
        let mp = model_path(dir, epoch);
        SessionEmbedder::Model(read_segment(&mp, KIND_MODEL, |payload| {
            decode_model(payload, &mp)
        })?)
    } else {
        // decode_manifest rejects a fine-tuned config without a model
        // segment, so this never trains
        SessionEmbedder::from_config(&manifest.config.embedder, &lake)
    };

    let tp = tuples_path(dir, epoch);
    let tuples = read_segment(&tp, KIND_TUPLES, |payload| {
        decode_tuples(payload, &tp, &lake, embedder.dim())
    })?;

    let sp = search_path(dir, epoch);
    let search = read_segment(&sp, KIND_SEARCH, |payload| {
        decode_search(payload, &sp, manifest.config.search)
    })?;

    let aligner_encoder = ColumnEncoder::new(
        manifest.config.alignment_model,
        manifest.config.alignment_serialization,
    );
    Ok(LakeSession::from_restored(
        lake,
        manifest.config.clone(),
        aligner_encoder,
        embedder,
        manifest.model_injected,
        search,
        tuples,
        manifest.generation,
        start.elapsed().as_secs_f64(),
    ))
}

/// Best-effort removal of every `seg-*`/`wal-*` file that does not belong
/// to `keep_epoch` (superseded epochs after a checkpoint, leftovers from a
/// crashed one). Failures are ignored: stale files are garbage, not state.
pub(crate) fn sweep_stale_epochs(dir: &Path, keep_epoch: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let seg_keep = format!("seg-{keep_epoch}-");
    let wal_keep = format!("wal-{keep_epoch}.log");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = (name.starts_with("seg-") && !name.starts_with(&seg_keep))
            || (name.starts_with("wal-") && name != wal_keep)
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
    /// nine toy pairs. Format 3 left the model payload as it was, so the
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

    /// Lake tables `a` (two rows) and `b` (one row), in name order.
    fn two_table_lake() -> DataLake {
        let mut lake = DataLake::new("pair");
        for (name, rows) in [("a", &["1", "2"][..]), ("b", &["3"][..])] {
            let table = Table::builder(name).column("x", rows.iter().copied());
            lake.add_table(table.build().unwrap()).unwrap();
        }
        lake
    }

    /// A `rows × dim` block of arbitrary non-zero values.
    fn block(rows: usize, dim: usize) -> EmbeddingStore {
        let vectors: Vec<Vector> = (0..rows)
            .map(|i| Vector::new((0..dim).map(|c| (i * dim + c) as f32 + 0.5).collect()))
            .collect();
        EmbeddingStore::from_vectors(&vectors)
    }

    /// A tuple-segment payload holding `blocks`, in order.
    fn tuple_payload(blocks: &[EmbeddingStore]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(blocks.len());
        for block in blocks {
            put_store(&mut w, block);
        }
        w.into_bytes()
    }

    /// Decode `blocks` against [`two_table_lake`] and a 3-d embedder.
    fn decode(blocks: &[EmbeddingStore]) -> Result<TupleBlocks, PersistError> {
        let path = Path::new("seg-1-tuples.bin");
        decode_tuples(&tuple_payload(blocks), path, &two_table_lake(), 3)
    }

    fn assert_corrupt(blocks: &[EmbeddingStore], detail: &str) {
        match decode(blocks) {
            Err(e @ PersistError::Corrupt { .. }) => {
                assert!(e.to_string().contains(detail), "{e}")
            }
            other => panic!("expected Corrupt ({detail}), got {other:?}"),
        }
    }

    #[test]
    fn tuple_blocks_decode_onto_their_tables_bit_for_bit() {
        let blocks = [block(2, 3), block(1, 3)];
        let decoded = decode(&blocks).unwrap();
        let names: Vec<&str> = decoded.keys().map(|name| &**name).collect();
        assert_eq!(names, ["a", "b"]);
        for (decoded, block) in decoded.values().zip(&blocks) {
            assert_eq!(decoded.raw_parts(), block.raw_parts());
        }
    }

    #[test]
    fn a_tuple_block_count_other_than_the_lakes_tables_is_corrupt() {
        assert_corrupt(&[block(2, 3)], "1 tuple blocks for a lake of 2 tables");
        let three = [block(2, 3), block(1, 3), block(1, 3)];
        assert_corrupt(&three, "3 tuple blocks for a lake of 2 tables");
    }

    #[test]
    fn a_tuple_block_whose_rows_are_not_its_tables_is_corrupt() {
        // the right total, credited to the wrong tables
        let swapped = [block(1, 3), block(2, 3)];
        assert_corrupt(&swapped, "table \"a\" holds 1 rows, the table 2");
    }

    #[test]
    fn a_tuple_block_of_another_dimension_is_corrupt() {
        // blocks that disagree with each other...
        let mixed = [block(2, 3), block(1, 4)];
        assert_corrupt(&mixed, "table \"b\" is 4-dimensional, the tuple embedder 3");
        // ...or agree with each other but not with the embedder
        let agreeing = [block(2, 5), block(1, 5)];
        assert_corrupt(
            &agreeing,
            "table \"a\" is 5-dimensional, the tuple embedder 3",
        );
        // an empty table's block carries no dimension to check
        let mut lake = DataLake::new("with_empty");
        let empty = Table::from_columns("e", vec![Column::new("x", Vec::new())]).unwrap();
        lake.add_table(empty).unwrap();
        let payload = tuple_payload(&[EmbeddingStore::from_vectors(&[])]);
        let path = Path::new("seg-1-tuples.bin");
        assert_eq!(
            decode_tuples(&payload, path, &lake, 3).unwrap()["e"].len(),
            0
        );
    }
}
