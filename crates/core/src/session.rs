//! The resident serving layer: embed a lake **once**, serve **many**
//! queries — and mutate the lake **incrementally**, without ever blocking
//! a reader.
//!
//! Algorithm 1 as written re-pays lake-side work on every query: the
//! inverted value index (or the full-lake Starmie/D3L column-embedding
//! pass) is rebuilt per query, and the fine-tuned DUST tuple model is
//! retrained per query. The paper's deployment story is the opposite shape
//! — many queries against one slowly-changing lake — so [`LakeSession`]
//! hoists everything query-independent out of the per-query path:
//!
//! * **one embedding block per lake table** — every lake tuple embedded
//!   once; table *t*'s tuples form one immutable [`EmbeddingStore`] whose
//!   row *i* is tuple *i* of *t* (its own provenance), shared by `Arc`
//!   exactly like the lake's `Arc<Table>`;
//! * **persistent candidate structures** — whichever structures the
//!   configured search technique needs ([`InvertedValueIndex`], Starmie
//!   contextualized column stores, D3L per-column signal embeddings),
//!   built at session construction;
//! * **one shared model** — the tuple embedder ([`DustModel`] or
//!   [`TupleEncoder`]) is constructed/trained once and reused by every
//!   query.
//!
//! [`LakeSession::query`] then runs the *identical* stage code as
//! [`DustPipeline::run`] (both call `pipeline::run_query`), so a
//! session-served result is byte-identical to a fresh pipeline run —
//! pinned by `tests/session_equivalence.rs`. [`LakeSession::query_batch`]
//! fans independent queries out over the rayon shim.
//!
//! ## Generation snapshots: reads never block on writes
//!
//! All lake-derived resident state lives in an immutable
//! `SessionSnapshot` behind an `Arc`-swapped pointer. A reader takes a
//! momentary lock only to **clone the `Arc`** (O(1), never held across
//! any work), then serves entirely from that pinned snapshot. A mutation
//! takes `&self` too: it serializes against other mutations on a writer
//! mutex, builds the **next** snapshot off to the side — cloning only the
//! `Arc`s of untouched tables and their embedding blocks — and atomically
//! publishes it. Consequences, pinned by
//! `tests/session_concurrency.rs`:
//!
//! * queries and mutations interleave freely; an in-flight `add_table`
//!   never stalls a `query`, `similar_*`, or `stats` call;
//! * every query observes exactly one lake version, and the
//!   [`LakeSession::generation`] it reports is a real consistency token:
//!   the result is bit-identical to a fresh [`LakeSession::new`] over the
//!   lake at that generation;
//! * [`LakeSession::view`] pins a generation explicitly, so a caller can
//!   run many reads against one consistent version while mutations
//!   publish newer ones;
//! * a panicking batch worker surfaces as a typed
//!   [`SessionError::QueryPanicked`] in its own slot — it cannot poison
//!   shared state (snapshots are immutable; every internal lock recovers
//!   poison) and the rest of the batch still serves.
//!
//! ## Mutating the lake
//!
//! A slowly-changing lake must not pay a full session rebuild per added or
//! dropped table. [`LakeSession::add_table`] and
//! [`LakeSession::remove_table`] apply **per-table deltas** instead:
//!
//! * an add embeds only the new table's tuples into one new block and
//!   inserts its `Arc`; a remove drops the table's `Arc`. Every other
//!   block is the previous generation's allocation;
//! * the search technique's candidate structures update by exact per-table
//!   deltas — [`InvertedValueIndex`] postings are sets, Starmie/D3L column
//!   stores are keyed per table with no cross-table float aggregate, so a
//!   delta produces structures *structurally equal* to a fresh build;
//! * the column side (the lake-wide TF-IDF corpus and the column
//!   embeddings under it — every column's embedding depends on every table
//!   through IDF) is never maintained: each generation derives it from its
//!   own pinned lake on the first [`LakeSession::similar_columns`] call
//!   against it, *off* every lock, so it is by construction what a fresh
//!   session computes. Nothing else reads it — `query`, `similar_tuples`,
//!   `stats` and the persistence layer never build it;
//! * a fine-tuned session retrains its (lake-derived, deterministically
//!   seeded) model and re-embeds every table's block — the documented
//!   recompute fallback: training is a function of the whole lake, so no
//!   exact delta exists. Sessions with an *injected* model
//!   ([`LakeSession::with_model`]) keep it: the model is not lake-derived.
//!
//! The headline guarantee, enforced by `tests/session_mutation.rs` rather
//! than prose: after **any** mutation sequence, `query` /
//! `similar_tuples` / `similar_columns` results are bit-identical to a
//! fresh [`LakeSession::new`] on the mutated lake.
//!
//! [`DustPipeline::run`]: crate::pipeline::DustPipeline
//! [`DustPipeline`]: crate::pipeline::DustPipeline
//! [`SessionError::QueryPanicked`]: crate::persist::SessionError::QueryPanicked

use crate::config::{PipelineConfig, SearchTechnique, TupleEmbedderKind};
use crate::persist::SessionError;
use crate::pipeline::run_query;
use crate::result::DustResult;
use dust_embed::{
    desc_nan_last, ColumnEncoder, Distance, DustModel, EmbeddingStore, TfIdfCorpus, TupleEncoder,
    Vector,
};
use dust_search::{
    D3lSearch, D3lSignalStats, InvertedValueIndex, OverlapSearch, StarmieColumnStore, StarmieSearch,
};
use dust_table::{Column, DataLake, Table, TableError, TableId, Tuple};
use rayon::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Construction options for a [`LakeSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOptions {
    /// Number of *previous* published generations retained for
    /// [`LakeSession::view_at`] pinned reads (the current generation is
    /// always servable on top of these). Near-free under structural
    /// sharing: a retained snapshot holds `Arc`s into its successors, so
    /// the marginal cost is one changed table per mutation. `0` disables
    /// history — only the current generation can be pinned.
    pub history: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions { history: 8 }
    }
}

/// Every lake table's tuple embeddings, keyed by table name: row *i* of a
/// block is tuple *i* of its table. The keys are `Arc<str>`, so cloning
/// the map for the next generation bumps refcounts instead of allocating
/// a string per table.
pub(crate) type TupleBlocks = BTreeMap<Arc<str>, Arc<EmbeddingStore>>;

/// The column side of one generation: the lake-wide TF-IDF corpus and
/// every lake column embedded under it. Every column embedding depends on
/// every table through IDF, so it is derived whole from the generation's
/// lake, never delta-maintained and never persisted.
#[derive(Debug)]
struct ColumnSide {
    corpus: TfIdfCorpus,
    store: EmbeddingStore,
    /// `(table, column header)` per store row (the header is captured at
    /// build time so serving a hit never needs a lake lookup).
    refs: Vec<(TableId, String)>,
}

/// The persistent candidate structures of the configured search technique.
#[derive(Debug, Clone)]
pub(crate) enum SearchStructures {
    Overlap {
        search: OverlapSearch,
        index: InvertedValueIndex,
    },
    D3l {
        search: D3lSearch,
        index: InvertedValueIndex,
        stats: D3lSignalStats,
    },
    Starmie {
        search: StarmieSearch,
        store: StarmieColumnStore,
    },
}

impl SearchStructures {
    /// Apply the exact per-table delta for an added table.
    fn add_table(&mut self, table: &Table) {
        match self {
            SearchStructures::Overlap { index, .. } => index.add_table(table),
            SearchStructures::D3l {
                search,
                index,
                stats,
            } => {
                index.add_table(table);
                stats.add_table(table, search);
            }
            SearchStructures::Starmie { search, store } => store.add_table(table, search),
        }
    }

    /// Apply the exact per-table delta for a removed table (the caller
    /// passes the removed [`Table`] because the inverted index holds no
    /// per-table value lists to subtract from).
    fn remove_table(&mut self, table: &Table) {
        match self {
            SearchStructures::Overlap { index, .. } => index.remove_table(table),
            SearchStructures::D3l { index, stats, .. } => {
                index.remove_table(table);
                stats.remove_table(table.name());
            }
            SearchStructures::Starmie { store, .. } => {
                store.remove_table(table.name());
            }
        }
    }

    /// Record the pointer identity of every per-table / per-value shared
    /// payload into `out` (see [`SessionView::sharing_fingerprint`]).
    fn sharing_fingerprint(
        &self,
        lake: &DataLake,
        out: &mut std::collections::BTreeMap<String, usize>,
    ) {
        fn postings(
            index: &InvertedValueIndex,
            out: &mut std::collections::BTreeMap<String, usize>,
        ) {
            for (value, set) in index.postings_shared() {
                out.insert(format!("posting:{value}"), Arc::as_ptr(set) as usize);
            }
        }
        match self {
            SearchStructures::Overlap { index, .. } => postings(index, out),
            SearchStructures::D3l { index, stats, .. } => {
                postings(index, out);
                for (id, _) in lake.tables_shared() {
                    if let Some(block) = stats.embeddings_shared(id) {
                        out.insert(format!("columns:{id}"), Arc::as_ptr(block) as usize);
                    }
                }
            }
            SearchStructures::Starmie { store, .. } => {
                for (id, _) in lake.tables_shared() {
                    if let Some(block) = store.embeddings_shared(id) {
                        out.insert(format!("columns:{id}"), Arc::as_ptr(block) as usize);
                    }
                }
            }
        }
    }
}

/// The session's shared tuple embedder (constructed/trained once).
#[derive(Debug)]
pub(crate) enum SessionEmbedder {
    Model(DustModel),
    Encoder(TupleEncoder),
}

impl SessionEmbedder {
    /// The embedder `kind` asks for over `lake`: the pre-trained encoder,
    /// or a DUST model trained by the identical deterministic recipe
    /// `DustPipeline::run` performs per query.
    pub(crate) fn from_config(kind: &TupleEmbedderKind, lake: &DataLake) -> Self {
        match kind {
            TupleEmbedderKind::Pretrained(backbone) => {
                SessionEmbedder::Encoder(TupleEncoder::new(*backbone))
            }
            TupleEmbedderKind::FineTuned {
                backbone,
                config,
                training_pairs,
            } => SessionEmbedder::Model(crate::pipeline::train_dust_model(
                lake,
                *backbone,
                config,
                *training_pairs,
            )),
        }
    }

    fn embed_tuple(&self, tuple: &Tuple) -> Vector {
        match self {
            SessionEmbedder::Model(m) => m.embed_tuple(tuple),
            SessionEmbedder::Encoder(e) => e.embed_tuple(tuple),
        }
    }

    /// Dimensionality of the tuple embeddings this embedder produces.
    pub(crate) fn dim(&self) -> usize {
        match self {
            SessionEmbedder::Model(m) => m.dim(),
            SessionEmbedder::Encoder(e) => e.dim(),
        }
    }
}

/// One immutable generation of resident state. Readers pin a snapshot
/// (cheap `Arc` clone) and serve from it; mutations build the *next*
/// snapshot off to the side and publish it atomically. Nothing in here is
/// ever written after publication — the lazily-built column side included:
/// its `OnceLock` initializes at most once, off every lock.
#[derive(Debug)]
pub(crate) struct SessionSnapshot {
    /// Number of successful mutations between [`LakeSession`] construction
    /// and this snapshot.
    pub(crate) generation: u64,
    pub(crate) lake: DataLake,
    pub(crate) embedder: Arc<SessionEmbedder>,
    pub(crate) search: Arc<SearchStructures>,
    /// One block per lake table; a mutation inserts or drops one `Arc` and
    /// shares every other block with the previous generation.
    pub(crate) tuples: TupleBlocks,
    /// The column side, derived from `lake` on the first column read of
    /// this generation — its only origin, so it is bit-identical to a
    /// fresh session's.
    columns: OnceLock<ColumnSide>,
}

impl SessionSnapshot {
    /// The column side, built on first use (off every session lock —
    /// concurrent first readers of the same generation may wait on each
    /// other here, but never on a mutation, and never block tuple reads).
    fn columns(&self, encoder: &ColumnEncoder) -> &ColumnSide {
        // dust-lint: lock(columns-once)
        self.columns.get_or_init(|| {
            let mut columns: Vec<&Column> = Vec::new();
            let mut refs = Vec::new();
            for table in self.lake.tables() {
                for column in table.columns() {
                    columns.push(column);
                    refs.push((table.name().to_string(), column.name().to_string()));
                }
            }
            ColumnSide {
                corpus: ColumnEncoder::build_corpus(columns.iter().copied()),
                store: EmbeddingStore::from_vectors(&encoder.embed_columns(&columns)),
                refs,
            }
        })
    }
}

/// A ranked lake tuple returned by [`LakeSession::similar_tuples`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTuple {
    /// Owning lake table.
    pub table: TableId,
    /// Row inside the owning table.
    pub row: usize,
    /// Maximum cosine similarity to any query tuple.
    pub score: f64,
}

/// A ranked lake column returned by [`LakeSession::similar_columns`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankedColumn {
    /// Owning lake table.
    pub table: TableId,
    /// Column header.
    pub column: String,
    /// Cosine similarity to the probe column.
    pub score: f64,
}

/// Size and shape of a session's resident state (for logs and the `serve`
/// binary's startup banner).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Number of lake tables embedded.
    pub tables: usize,
    /// Total resident tuple embeddings.
    pub tuples: usize,
    /// Total lake columns.
    pub columns: usize,
    /// Tuple embedding dimensionality.
    pub tuple_dim: usize,
    /// Wall-clock seconds spent building the session.
    pub build_secs: f64,
}

/// A resident lake session: construct once, serve many queries
/// concurrently, mutate incrementally — queries never block on an
/// in-flight mutation (see the module docs for the snapshot and
/// delta/rebuild contracts).
#[derive(Debug)]
pub struct LakeSession {
    pub(crate) config: PipelineConfig,
    pub(crate) aligner_encoder: ColumnEncoder,
    /// An injected ([`Self::with_model`]) embedder is not lake-derived and
    /// is therefore kept across mutations; a config-trained fine-tuned
    /// model *is* lake-derived and must be retrained (recompute fallback).
    pub(crate) model_injected: bool,
    /// The currently-published snapshot. The lock is held only for the
    /// instant of an `Arc` clone (readers) or an `Arc` swap (the one
    /// publishing mutation) — never across embedding, search, or I/O work.
    current: RwLock<Arc<SessionSnapshot>>,
    /// Serializes mutations against each other (readers never touch it).
    mutate: Mutex<()>,
    /// Previously-published snapshots, oldest first, bounded by
    /// [`Self::history_depth`]. Pushed on every publish (near-free: each
    /// retained snapshot shares all unchanged structure with its successor
    /// by `Arc`), served by [`Self::view_at`]. Starts empty on restore —
    /// history is in-memory only, never persisted.
    history: Mutex<VecDeque<Arc<SessionSnapshot>>>,
    /// Retention depth for `history` (0 = current generation only).
    /// Atomic so a restored session — whose persisted manifest carries no
    /// history depth — can be re-tuned without `&mut`.
    history_depth: AtomicUsize,
    pub(crate) build_secs: f64,
}

/// A pinned borrow of the session's lake at one generation, returned by
/// [`LakeSession::lake`]. Dereferences to [`DataLake`]; a later mutation
/// publishes a *new* snapshot and leaves this one untouched, so the
/// borrow stays valid and consistent for as long as it is held.
#[derive(Debug)]
pub struct LakeRef {
    snap: Arc<SessionSnapshot>,
}

impl Deref for LakeRef {
    type Target = DataLake;

    fn deref(&self) -> &DataLake {
        &self.snap.lake
    }
}

/// A read view pinned to one generation of a [`LakeSession`].
///
/// Every read on the parent session ([`LakeSession::query`],
/// [`LakeSession::similar_tuples`], …) internally takes a fresh view; take
/// one explicitly to run **many** reads against a single consistent
/// generation while mutations publish newer ones, or to correlate a
/// result with the exact generation that produced it
/// ([`SessionView::generation`]). A view holds only `Arc`s — it never
/// blocks mutations, and dropping it releases the pinned state.
#[derive(Debug)]
pub struct SessionView<'a> {
    session: &'a LakeSession,
    snap: Arc<SessionSnapshot>,
}

impl LakeSession {
    /// Build a session over a lake with default options. Pre-embeds every
    /// lake tuple, builds the configured search technique's
    /// candidate structures, and (for a fine-tuning configuration) trains
    /// the DUST tuple model — all exactly once.
    pub fn new(lake: DataLake, config: PipelineConfig) -> Self {
        Self::with_options(lake, config, SessionOptions::default())
    }

    /// [`Self::new`] with explicit [`SessionOptions`].
    pub fn with_options(lake: DataLake, config: PipelineConfig, options: SessionOptions) -> Self {
        let embedder = SessionEmbedder::from_config(&config.embedder, &lake);
        Self::assemble(lake, config, options, embedder, false)
    }

    /// Build a session that embeds tuples with an already-trained model
    /// (mirrors [`crate::pipeline::DustPipeline::with_model`]). The model
    /// is treated as external: mutations never retrain it.
    pub fn with_model(lake: DataLake, config: PipelineConfig, model: DustModel) -> Self {
        Self::assemble(
            lake,
            config,
            SessionOptions::default(),
            SessionEmbedder::Model(model),
            true,
        )
    }

    fn assemble(
        lake: DataLake,
        config: PipelineConfig,
        options: SessionOptions,
        embedder: SessionEmbedder,
        model_injected: bool,
    ) -> Self {
        let start = crate::clock::now();
        let aligner_encoder =
            ColumnEncoder::new(config.alignment_model, config.alignment_serialization);

        // Persistent candidate structures for the configured technique.
        // Each searcher is the same `::new()` default the one-shot pipeline
        // constructs per query, so resident results match fresh ones.
        let search = match config.search {
            SearchTechnique::Overlap => SearchStructures::Overlap {
                search: OverlapSearch::new(),
                index: InvertedValueIndex::build(&lake),
            },
            SearchTechnique::D3l => {
                let search = D3lSearch::new();
                let stats = D3lSignalStats::build(&lake, &search);
                SearchStructures::D3l {
                    search,
                    index: InvertedValueIndex::build(&lake),
                    stats,
                }
            }
            SearchTechnique::Starmie => {
                let search = StarmieSearch::new();
                let store = StarmieColumnStore::build(&lake, &search);
                SearchStructures::Starmie { search, store }
            }
        };

        let tuples = embed_lake(&lake, &embedder);

        LakeSession {
            config,
            aligner_encoder,
            model_injected,
            current: RwLock::new(Arc::new(SessionSnapshot {
                generation: 0,
                lake,
                embedder: Arc::new(embedder),
                search: Arc::new(search),
                tuples,
                columns: OnceLock::new(),
            })),
            mutate: Mutex::new(()),
            history: Mutex::new(VecDeque::new()),
            history_depth: AtomicUsize::new(options.history),
            build_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Reassemble a session from restored (snapshot-decoded) parts — the
    /// persistence layer's constructor, bypassing embedding and training.
    /// The lake's `Arc<Table>`s and the `tuples` blocks are kept as given:
    /// the store that decoded them recognises them by pointer at its next
    /// checkpoint and writes only the tables that changed since.
    /// History depth is a serving-time knob, not part of the persisted
    /// format: a restored session takes the default (callers re-tune it
    /// with [`Self::set_history_depth`]) and its ring starts empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored(
        lake: DataLake,
        config: PipelineConfig,
        aligner_encoder: ColumnEncoder,
        embedder: SessionEmbedder,
        model_injected: bool,
        search: SearchStructures,
        tuples: TupleBlocks,
        generation: u64,
        build_secs: f64,
    ) -> Self {
        LakeSession {
            config,
            aligner_encoder,
            model_injected,
            current: RwLock::new(Arc::new(SessionSnapshot {
                generation,
                lake,
                embedder: Arc::new(embedder),
                search: Arc::new(search),
                tuples,
                columns: OnceLock::new(),
            })),
            mutate: Mutex::new(()),
            history: Mutex::new(VecDeque::new()),
            history_depth: AtomicUsize::new(SessionOptions::default().history),
            build_secs,
        }
    }

    /// The currently-published snapshot (an O(1) `Arc` clone; the lock is
    /// released before this returns). Poison is recovered everywhere the
    /// pointer lock is taken: the guarded value is always a fully-formed
    /// `Arc`, so a panic elsewhere can never leave it half-written.
    fn snapshot(&self) -> Arc<SessionSnapshot> {
        // dust-lint: lock(session-current)
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Atomically publish the next generation, retaining the displaced
    /// snapshot in the bounded history ring (evicting the oldest past the
    /// configured depth). The pointer lock is released before the history
    /// lock is taken — readers are never behind both.
    fn publish(&self, next: SessionSnapshot) {
        let next = Arc::new(next);
        let prev = {
            // dust-lint: lock(session-current)
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, next)
        };
        let depth = self.history_depth.load(Ordering::Relaxed);
        // dust-lint: lock(session-history)
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        history.push_back(prev);
        while history.len() > depth {
            history.pop_front();
        }
    }

    /// Pin the current generation and return a read view over it. All
    /// reads through the view observe one consistent lake version no
    /// matter how many mutations publish in the meantime.
    pub fn view(&self) -> SessionView<'_> {
        SessionView {
            session: self,
            snap: self.snapshot(),
        }
    }

    /// Pin a **specific** generation and return a read view over it — the
    /// current generation, or any of the last [`Self::history_depth`]
    /// published ones still in the history ring. Reads through the view
    /// are bit-identical to a fresh session built over that generation's
    /// lake (pinned by `tests/session_concurrency.rs`). A generation
    /// outside the window — evicted, or never published — yields a typed
    /// [`SessionError::GenerationEvicted`] (`kind() ==
    /// "generation_evicted"`), never a panic.
    pub fn view_at(&self, generation: u64) -> Result<SessionView<'_>, SessionError> {
        let snap = self.snapshot();
        let newest = snap.generation;
        if generation == newest {
            return Ok(SessionView {
                session: self,
                snap,
            });
        }
        let oldest = {
            // dust-lint: lock(session-history)
            let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(hit) = history.iter().rev().find(|s| s.generation == generation) {
                return Ok(SessionView {
                    session: self,
                    snap: hit.clone(),
                });
            }
            history.front().map(|s| s.generation).unwrap_or(newest)
        };
        Err(SessionError::GenerationEvicted {
            requested: generation,
            oldest,
            newest,
        })
    }

    /// The configured history retention depth (how many *previous*
    /// generations [`Self::view_at`] can pin).
    pub fn history_depth(&self) -> usize {
        self.history_depth.load(Ordering::Relaxed)
    }

    /// Re-tune the history retention depth at runtime, trimming the ring
    /// immediately if shrunk. A restored session starts with the default
    /// depth and an empty ring (history is never persisted); the serving
    /// layer calls this to apply its `--history` flag.
    pub fn set_history_depth(&self, depth: usize) {
        self.history_depth.store(depth, Ordering::Relaxed);
        // dust-lint: lock(session-history)
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        while history.len() > depth {
            history.pop_front();
        }
    }

    /// The pinnable window right now: `(oldest, newest, retained)` where
    /// `oldest..=newest` are the generations [`Self::view_at`] can serve
    /// and `retained` counts the ring entries (excluding the current
    /// generation, which is always servable).
    pub fn history_window(&self) -> (u64, u64, usize) {
        let newest = self.generation();
        // dust-lint: lock(session-history)
        let history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let oldest = history.front().map(|s| s.generation).unwrap_or(newest);
        (oldest, newest, history.len())
    }

    /// The resident lake at the current generation. The returned handle
    /// dereferences to [`DataLake`] and pins its snapshot: it stays valid
    /// and self-consistent even if mutations publish newer generations
    /// while it is held.
    pub fn lake(&self) -> LakeRef {
        LakeRef {
            snap: self.snapshot(),
        }
    }

    /// The pipeline configuration this session serves.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of successful mutations ([`Self::add_table`] /
    /// [`Self::remove_table`]) applied since construction. Failed
    /// mutations leave it — and every resident structure — untouched.
    /// Every read observes exactly one generation; pin one explicitly
    /// with [`Self::view`] to correlate results with lake versions.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Persist the whole session — embeddings, candidate structures,
    /// trained model, lake — as a checksummed snapshot (plus a fresh,
    /// empty write-ahead log) in `dir`, replacing any snapshot already
    /// there. [`Self::open`] restores it bit-identically without re-paying
    /// the embed/index/train cost. To keep logging mutations durably after
    /// saving, hold a [`crate::persist::SnapshotStore`] instead.
    pub fn save(&self, dir: &std::path::Path) -> Result<(), crate::persist::PersistError> {
        crate::persist::SnapshotStore::create(dir, self).map(|_| ())
    }

    /// Restore a session from a snapshot directory written by
    /// [`Self::save`] (or by a [`crate::persist::SnapshotStore`]): load the
    /// snapshot, then replay any write-ahead-log records through the
    /// incremental mutation paths. The restored session serves results
    /// **bit-identical** to the session that was saved — and therefore to
    /// a fresh [`LakeSession::new`] over the same lake (pinned by
    /// `tests/session_recovery.rs`). A damaged snapshot or log yields a
    /// typed [`crate::persist::PersistError`], never a panic; callers fall
    /// back to rebuilding from the lake.
    pub fn open(dir: &std::path::Path) -> Result<LakeSession, crate::persist::PersistError> {
        crate::persist::SnapshotStore::open(dir).map(|(_, session, _)| session)
    }

    /// Add a table to the lake and publish the next generation built from
    /// per-table deltas instead of a rebuild: the new table's tuples are
    /// embedded into one new block — every other block is shared with the
    /// previous generation by `Arc` — and the search technique's candidate
    /// structures take the exact per-table delta. A fine-tuned session
    /// retrains its lake-derived model and re-embeds every block instead —
    /// the documented recompute fallback (see module docs). In-flight reads
    /// keep serving the previous generation throughout; they never wait.
    ///
    /// Duplicate names follow [`DataLake::add_table`]'s pinned semantics:
    /// an error, never a replace, with the session left untouched (remove
    /// first to replace). The rejection is decided **before** anything is
    /// cloned: a failed add neither bumps [`Self::generation`] nor
    /// allocates a next snapshot — the published root stays `Arc::ptr_eq`
    /// to what it was (pinned by `tests/session_sharing.rs`).
    pub fn add_table(&self, table: Table) -> Result<(), TableError> {
        // dust-lint: lock(session-mutate)
        let _mutating = self.mutate.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = self.snapshot();

        if snap.lake.table(table.name()).is_ok() {
            return Err(TableError::DuplicateTable {
                name: table.name().to_string(),
            });
        }
        let table = Arc::new(table);
        let mut lake = snap.lake.clone();
        lake.add_table_shared(table.clone())?;

        let mut search = (*snap.search).clone();
        search.add_table(&table);

        let (embedder, tuples) = if self.retrains_on_mutation() {
            self.retrained_state(&lake)
        } else {
            let mut tuples = snap.tuples.clone();
            tuples.insert(Arc::from(table.name()), embed_table(&table, &snap.embedder));
            (snap.embedder.clone(), tuples)
        };

        self.publish(SessionSnapshot {
            generation: snap.generation + 1,
            lake,
            embedder,
            search: Arc::new(search),
            tuples,
            columns: OnceLock::new(),
        });
        Ok(())
    }

    /// Remove a table from the lake and publish the next generation built
    /// from per-table deltas: the table's block is dropped — every other
    /// block is shared by `Arc` — and the candidate structures take their
    /// exact inverse. Returns the removed table
    /// (as [`DataLake::remove_table`], which also scrubs ground-truth
    /// pairs naming it); errors — leaving the session untouched — if no
    /// such table exists. Like a rejected add, a missing name is decided
    /// before anything is cloned: the published root stays `Arc::ptr_eq`
    /// to what it was. In-flight reads keep serving the previous
    /// generation throughout.
    pub fn remove_table(&self, name: &str) -> Result<Table, TableError> {
        // dust-lint: lock(session-mutate)
        let _mutating = self.mutate.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = self.snapshot();

        snap.lake.table(name)?;
        let mut lake = snap.lake.clone();
        let removed = lake.remove_table(name)?;

        let mut search = (*snap.search).clone();
        search.remove_table(&removed);

        let (embedder, tuples) = if self.retrains_on_mutation() {
            self.retrained_state(&lake)
        } else {
            let mut tuples = snap.tuples.clone();
            tuples.remove(name);
            (snap.embedder.clone(), tuples)
        };

        self.publish(SessionSnapshot {
            generation: snap.generation + 1,
            lake,
            embedder,
            search: Arc::new(search),
            tuples,
            columns: OnceLock::new(),
        });
        Ok(removed)
    }

    /// Whether mutations must fall back to retraining the tuple model: the
    /// model came from a fine-tuning config (lake-derived training set), not
    /// from [`Self::with_model`] injection.
    fn retrains_on_mutation(&self) -> bool {
        !self.model_injected && matches!(self.config.embedder, TupleEmbedderKind::FineTuned { .. })
    }

    /// The recompute fallback for lake-derived models: retrain on the
    /// mutated lake (the identical deterministic recipe a fresh session
    /// runs) and re-embed every table's block under the new model. Runs on
    /// the mutating thread, off every lock — readers of the previous
    /// generation are unaffected for the whole (expensive) rebuild.
    fn retrained_state(&self, lake: &DataLake) -> (Arc<SessionEmbedder>, TupleBlocks) {
        let embedder = SessionEmbedder::from_config(&self.config.embedder, lake);
        let tuples = embed_lake(lake, &embedder);
        (Arc::new(embedder), tuples)
    }

    /// Size/shape summary of the resident state at the current generation.
    pub fn stats(&self) -> SessionStats {
        self.view().stats()
    }

    /// Serve one query against the current generation: Algorithm 1 over
    /// the resident structures. Byte-identical to
    /// `DustPipeline::new(config).run(lake, query, k)` over that
    /// generation's lake.
    pub fn query(&self, query: &Table, k: usize) -> Result<DustResult, TableError> {
        self.view().query(query, k)
    }

    /// Serve a batch of independent queries, in parallel over the rayon
    /// shim on multi-core hosts. The whole batch runs against **one**
    /// pinned generation; `results[i]` corresponds to `queries[i]` and is
    /// identical to a sequential [`Self::query`] call at that generation.
    /// A worker that panics yields a typed
    /// [`SessionError::QueryPanicked`](crate::persist::SessionError::QueryPanicked)
    /// in its own slot — the rest of the batch, and every later request,
    /// still serves.
    pub fn query_batch(
        &self,
        queries: &[Table],
        k: usize,
    ) -> Vec<Result<DustResult, SessionError>> {
        self.view().query_batch(queries, k)
    }

    /// Rank every resident lake tuple (current generation) by its maximum
    /// cosine similarity to any query tuple and return the top `k` — the
    /// tuple-as-table serving path (Sec. 6.5's retrieval shape) answered
    /// entirely from the resident per-table blocks, with no per-query lake
    /// embedding work. Ties rank by table name, then row.
    pub fn similar_tuples(&self, query: &Table, k: usize) -> Vec<RankedTuple> {
        self.view().similar_tuples(query, k)
    }

    /// Rank every lake column (current generation) by cosine similarity to
    /// a probe column (embedded under the session's alignment encoder and
    /// lake corpus) and return the top `k` — column-level discovery. The
    /// first column read of a generation derives the corpus and the column
    /// embeddings from that generation's lake (their IDF weights depend on
    /// the whole lake) — off every lock, so concurrent tuple reads and
    /// mutations are unaffected — and results are always bit-identical to
    /// a freshly built session's.
    pub fn similar_columns(&self, probe: &Column, k: usize) -> Vec<RankedColumn> {
        self.view().similar_columns(probe, k)
    }
}

impl<'a> SessionView<'a> {
    /// The generation this view is pinned to: every read through the view
    /// reflects exactly the lake version that generation denotes.
    pub fn generation(&self) -> u64 {
        self.snap.generation
    }

    /// The pinned generation's lake.
    pub fn lake(&self) -> &DataLake {
        &self.snap.lake
    }

    /// An opaque identity for the pinned snapshot root: two views return
    /// the same value iff they pin the very same published snapshot
    /// (`Arc::ptr_eq` on the root). A failed mutation must leave the
    /// published value unchanged — same id before and after (pinned by
    /// `tests/session_sharing.rs`).
    pub fn snapshot_id(&self) -> usize {
        Arc::as_ptr(&self.snap) as usize
    }

    /// Pointer identities of every independently-shared component of the
    /// pinned snapshot, keyed by role: `lake-table:NAME` (the lake's
    /// `Arc<Table>` entries), `tuples:NAME` (tuple embedding blocks),
    /// `columns:NAME`
    /// (per-table search-store embedding blocks), `posting:VALUE`
    /// (inverted-index posting sets), plus `embedder`.
    ///
    /// Diffing the fingerprints of generations *g* and *g+1* shows exactly
    /// what a mutation cloned: every key the mutation didn't touch must map
    /// to the same pointer in both — the structural-sharing contract pinned
    /// by `tests/session_sharing.rs`.
    pub fn sharing_fingerprint(&self) -> std::collections::BTreeMap<String, usize> {
        let mut out = std::collections::BTreeMap::new();
        for (id, table) in self.snap.lake.tables_shared() {
            out.insert(format!("lake-table:{id}"), Arc::as_ptr(table) as usize);
        }
        for (name, block) in &self.snap.tuples {
            out.insert(format!("tuples:{name}"), Arc::as_ptr(block) as usize);
        }
        out.insert(
            "embedder".to_string(),
            Arc::as_ptr(&self.snap.embedder) as usize,
        );
        self.snap
            .search
            .sharing_fingerprint(&self.snap.lake, &mut out);
        out
    }

    /// The session this view was taken from.
    pub fn session(&self) -> &'a LakeSession {
        self.session
    }

    /// The pinned generation's candidate structures (persistence reads
    /// them segment by segment).
    pub(crate) fn search_structures(&self) -> &SearchStructures {
        &self.snap.search
    }

    /// The pinned generation's tuple embedder.
    pub(crate) fn session_embedder(&self) -> &SessionEmbedder {
        &self.snap.embedder
    }

    /// The pinned generation's tuple blocks, in table-name order.
    pub(crate) fn tuple_blocks(&self) -> &TupleBlocks {
        &self.snap.tuples
    }

    /// [`LakeSession::stats`] at the pinned generation.
    pub fn stats(&self) -> SessionStats {
        let blocks = &self.snap.tuples;
        SessionStats {
            tables: self.snap.lake.num_tables(),
            tuples: blocks.values().map(|b| b.len()).sum(),
            columns: self.snap.lake.tables().map(|t| t.num_columns()).sum(),
            tuple_dim: (blocks.values().find(|b| !b.is_empty())).map_or(0, |b| b.dim()),
            build_secs: self.session.build_secs,
        }
    }

    /// [`LakeSession::query`] at the pinned generation.
    pub fn query(&self, query: &Table, k: usize) -> Result<DustResult, TableError> {
        Ok(run_query(
            &self.snap.lake,
            query,
            k,
            &self.session.config,
            &self.session.aligner_encoder,
            &|lake, query| self.search_tables(lake, query),
            &|query_tuples, candidates| self.embed_tuples(query_tuples, candidates),
        ))
    }

    /// [`LakeSession::query_batch`] at the pinned generation.
    pub fn query_batch(
        &self,
        queries: &[Table],
        k: usize,
    ) -> Vec<Result<DustResult, SessionError>> {
        self.query_batch_injecting(queries, k, &|_| {})
    }

    /// [`Self::query_batch`] with a fault hook: `fault(i)` runs on the
    /// worker thread just before query `i` executes, and a panic it (or
    /// the query itself) raises is caught and surfaced as that slot's
    /// [`SessionError::QueryPanicked`](crate::persist::SessionError::QueryPanicked)
    /// — the other slots are unaffected. This is the fault-injection seam
    /// the concurrency suite drives; production callers use
    /// [`Self::query_batch`], whose hook is a no-op.
    pub fn query_batch_injecting(
        &self,
        queries: &[Table],
        k: usize,
        fault: &(dyn Fn(usize) + Sync),
    ) -> Vec<Result<DustResult, SessionError>> {
        let slots: Vec<Mutex<Option<Result<DustResult, SessionError>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        let jobs: Vec<usize> = (0..queries.len()).collect();
        jobs.into_par_iter().for_each(|i| {
            // Catch the panic *inside* the worker closure: the slot below
            // is only locked after the fallible work is done, so a panic
            // can neither poison a slot nor kill the batch. The snapshot
            // is immutable, so unwinding cannot leave broken invariants
            // behind — AssertUnwindSafe is sound here.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fault(i);
                self.query(&queries[i], k)
            }));
            let result = match outcome {
                Ok(served) => served.map_err(SessionError::from),
                Err(payload) => Err(SessionError::QueryPanicked {
                    detail: panic_detail(payload.as_ref()),
                }),
            };
            // dust-lint: lock(batch-slot)
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        // A worker that died before writing its slot (a
                        // defensive branch: catch_unwind above should make
                        // this unreachable) degrades to a per-query error,
                        // never a server-killing panic.
                        Err(SessionError::QueryPanicked {
                            detail: format!("batch worker for query {i} never reported a result"),
                        })
                    })
            })
            .collect()
    }

    /// [`LakeSession::similar_tuples`] at the pinned generation.
    pub fn similar_tuples(&self, query: &Table, k: usize) -> Vec<RankedTuple> {
        let query_embeddings: Vec<Vector> = query
            .tuples()
            .iter()
            .map(|t| self.snap.embedder.embed_tuple(t))
            .collect();
        // Packed once, so each probe's norm is computed once per request.
        let probes = EmbeddingStore::from_vectors(&query_embeddings);
        // Rank borrowed keys; only the k winners get an owned table name.
        let blocks = &self.snap.tuples;
        let rows = blocks.values().map(|b| b.len()).sum();
        let mut ranked: Vec<(f64, &str, usize)> = Vec::with_capacity(rows);
        for (table, block) in blocks {
            block.cross_distances(Distance::Cosine, 0..block.len(), &probes, |row, d| {
                let score = d.iter().map(|d| 1.0 - d).fold(f64::NEG_INFINITY, f64::max);
                ranked.push((score, table, row));
            });
        }
        ranked.sort_by(|a, b| {
            desc_nan_last(a.0, b.0)
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        ranked
            .into_iter()
            .take(k)
            .map(|(score, table, row)| RankedTuple {
                table: table.to_string(),
                row,
                score,
            })
            .collect()
    }

    /// [`LakeSession::similar_columns`] at the pinned generation.
    pub fn similar_columns(&self, probe: &Column, k: usize) -> Vec<RankedColumn> {
        let encoder = &self.session.aligner_encoder;
        let side = self.snap.columns(encoder);
        let probe = EmbeddingStore::from_vectors(&[encoder.embed_column(probe, &side.corpus)]);
        let mut ranked: Vec<(f64, &str, &str)> = Vec::with_capacity(side.refs.len());
        side.store
            .cross_distances(Distance::Cosine, 0..side.refs.len(), &probe, |i, d| {
                let (table, column) = &side.refs[i];
                ranked.push((1.0 - d[0], table, column));
            });
        ranked.sort_by(|a, b| {
            desc_nan_last(a.0, b.0)
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a.2.cmp(b.2))
        });
        ranked
            .into_iter()
            .take(k)
            .map(|(score, table, column)| RankedColumn {
                table: table.to_string(),
                column: column.to_string(),
                score,
            })
            .collect()
    }

    /// The resident `SearchTables` step (same searcher defaults as the
    /// one-shot pipeline, candidate structures read from the snapshot).
    fn search_tables(&self, lake: &DataLake, query: &Table) -> Vec<String> {
        let k = self.session.config.tables_per_query;
        let results = match &*self.snap.search {
            SearchStructures::Overlap { search, index } => {
                search.search_with_index(lake, query, k, index)
            }
            SearchStructures::D3l {
                search,
                index,
                stats,
            } => search.search_with_stats(lake, query, k, index, stats),
            SearchStructures::Starmie { search, store } => {
                search.search_with_store(lake, query, k, store)
            }
        };
        results.into_iter().map(|r| r.table).collect()
    }

    /// The resident `EmbedTuples` step: one shared model/encoder for every
    /// query.
    fn embed_tuples(
        &self,
        query_tuples: &[Tuple],
        candidates: &[Tuple],
    ) -> (Vec<Vector>, Vec<Vector>) {
        match &*self.snap.embedder {
            SessionEmbedder::Model(model) => (
                model.embed_tuples(query_tuples),
                model.embed_tuples(candidates),
            ),
            SessionEmbedder::Encoder(encoder) => (
                encoder.embed_tuples(query_tuples),
                encoder.embed_tuples(candidates),
            ),
        }
    }
}

/// Render a caught panic payload for a typed error message.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One table's tuple embeddings as an immutable block, row *i* being tuple
/// *i* — the single builder behind construction, `add_table` and the
/// fine-tuned recompute fallback.
fn embed_table(table: &Table, embedder: &SessionEmbedder) -> Arc<EmbeddingStore> {
    let rows: Vec<Vector> = table
        .tuples()
        .iter()
        .map(|t| embedder.embed_tuple(t))
        .collect();
    Arc::new(EmbeddingStore::from_vectors(&rows))
}

/// Every lake table's block, built from scratch.
fn embed_lake(lake: &DataLake, embedder: &SessionEmbedder) -> TupleBlocks {
    lake.tables()
        .map(|table| (Arc::from(table.name()), embed_table(table, embedder)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_datagen::BenchmarkConfig;

    fn tiny_lake() -> DataLake {
        BenchmarkConfig::tiny().generate().lake
    }

    #[test]
    fn tuple_blocks_partition_the_lake_by_table() {
        let lake = tiny_lake();
        let session = LakeSession::new(lake.clone(), PipelineConfig::fast());
        let view = session.view();
        let blocks = view.tuple_blocks();
        // one block per lake table, in the lake's name order...
        let names: Vec<String> = blocks.keys().map(|name| name.to_string()).collect();
        assert_eq!(names, lake.table_names());
        // ...whose row i is the table's tuple i, embedded once
        for table in lake.tables() {
            let block = &blocks[table.name()];
            assert_eq!(block.len(), table.num_rows());
            for (row, tuple) in table.tuples().iter().enumerate() {
                let embedded = view.session_embedder().embed_tuple(tuple);
                assert_eq!(
                    block.row(row),
                    embedded.as_slice(),
                    "{}:{row}",
                    table.name()
                );
            }
        }
    }

    #[test]
    fn resident_stores_cover_every_tuple_and_column() {
        let lake = tiny_lake();
        let expected_tuples: usize = lake.tables().map(|t| t.num_rows()).sum();
        let expected_columns: usize = lake.tables().map(|t| t.num_columns()).sum();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let stats = session.stats();
        assert_eq!(stats.tuples, expected_tuples);
        assert_eq!(stats.columns, expected_columns);
        assert!(stats.tuple_dim > 0);
        assert!(stats.build_secs > 0.0);
        let snap = session.snapshot();
        let side = snap.columns(&session.aligner_encoder);
        assert_eq!(side.store.len(), expected_columns);
        assert_eq!(side.refs.len(), expected_columns);
    }

    #[test]
    fn stats_and_save_never_build_the_column_side() {
        let lake = tiny_lake();
        let probe = lake.queries().next().unwrap().column(0).unwrap().clone();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let table = Table::builder("lazy_parks")
            .column("Park Name", ["Kilo Park", "Lima Park"])
            .column("Country", ["USA", "Canada"])
            .build()
            .unwrap();
        session.add_table(table).unwrap();
        let counted = session.stats().columns;
        let dir = std::env::temp_dir().join(format!("dust-lazy-columns-{}", std::process::id()));
        session.save(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            session.snapshot().columns.get().is_none(),
            "a stats probe or a checkpoint embedded the lake's columns"
        );
        // the first column read builds it, equal to a fresh session's
        let fresh = LakeSession::new(session.lake().clone(), PipelineConfig::fast());
        assert_eq!(fresh.stats().columns, counted);
        assert_eq!(
            session.similar_columns(&probe, 6),
            fresh.similar_columns(&probe, 6)
        );
        assert!(session.snapshot().columns.get().is_some());
    }

    #[test]
    fn similar_tuples_finds_an_exact_duplicate_first() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let top = session.similar_tuples(&query, 5);
        assert_eq!(top.len(), 5);
        // scores descend and stay within cosine bounds
        for pair in top.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        assert!(top[0].score <= 1.0 + 1e-9);
        // the best hit must be a genuinely similar tuple
        assert!(top[0].score > 0.5, "top score {}", top[0].score);
        // provenance resolves
        let lake = session.lake();
        let table = lake.table(&top[0].table).unwrap();
        assert!(top[0].row < table.num_rows());
        // empty k
        assert!(session.similar_tuples(&query, 0).is_empty());
    }

    #[test]
    fn similar_columns_matches_semantically_close_columns() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let probe = query.column(0).unwrap();
        let top = session.similar_columns(probe, 3);
        assert_eq!(top.len(), 3);
        for hit in &top {
            assert!(!hit.column.is_empty());
            assert!(session.lake().table(&hit.table).is_ok());
        }
        assert!(top[0].score >= top[1].score);
    }

    #[test]
    fn query_serves_from_resident_structures() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let result = session.query(&query, 4).unwrap();
        assert_eq!(result.len(), 4);
        assert!(result.is_complete());
        assert!(!result.retrieved_tables.is_empty());
    }

    #[test]
    fn batch_results_align_with_their_queries() {
        let lake = tiny_lake();
        let queries: Vec<Table> = lake
            .query_names()
            .iter()
            .take(2)
            .map(|n| lake.query(n).unwrap().clone())
            .collect();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let batch = session.query_batch(&queries, 3);
        assert_eq!(batch.len(), queries.len());
        for (query, result) in queries.iter().zip(&batch) {
            let sequential = session.query(query, 3).unwrap();
            let batched = result.as_ref().unwrap();
            assert_eq!(batched.tuples, sequential.tuples);
            assert_eq!(batched.retrieved_tables, sequential.retrieved_tables);
        }
        assert!(session.query_batch(&[], 3).is_empty());
    }

    #[test]
    fn a_panicking_batch_worker_degrades_to_a_typed_error() {
        let lake = tiny_lake();
        let queries: Vec<Table> = lake
            .query_names()
            .iter()
            .take(2)
            .map(|n| lake.query(n).unwrap().clone())
            .collect();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let view = session.view();
        let batch = view.query_batch_injecting(&queries, 3, &|i| {
            if i == 0 {
                panic!("injected fault in worker {i}");
            }
        });
        assert_eq!(batch.len(), 2);
        let err = batch[0].as_ref().unwrap_err();
        assert_eq!(err.kind(), "panic");
        assert!(err.to_string().contains("injected fault"));
        // the sibling slot served normally...
        let healthy = batch[1].as_ref().unwrap();
        let sequential = session.query(&queries[1], 3).unwrap();
        assert_eq!(healthy.tuples, sequential.tuples);
        // ...and the session is not poisoned: later requests still serve.
        let again = session.query_batch(&queries, 3);
        assert!(again.iter().all(|r| r.is_ok()));
        assert_eq!(session.stats().tables, session.lake().num_tables());
    }

    #[test]
    fn single_table_session_still_serves() {
        let mut lake = DataLake::new("micro");
        lake.add_table(
            Table::builder("parks")
                .column("Park Name", ["River Park", "Hyde Park"])
                .column("Country", ["USA", "UK"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let query = Table::builder("q")
            .column("Park Name", ["River Park"])
            .column("Country", ["USA"])
            .build()
            .unwrap();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let result = session.query(&query, 1).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples[0].headers(), query.headers());
    }

    #[test]
    fn add_table_inserts_one_block_and_shares_the_rest() {
        let lake = tiny_lake();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let before = session.stats();
        let before_view = session.view();
        assert_eq!(session.generation(), 0);
        let table = Table::builder("new_parks")
            .column("Park Name", ["Delta Park", "Gamma Park"])
            .column("Country", ["USA", "USA"])
            .build()
            .unwrap();
        session.add_table(table.clone()).unwrap();
        assert_eq!(session.generation(), 1);
        let after = session.stats();
        assert_eq!(after.tables, before.tables + 1);
        assert_eq!(after.tuples, before.tuples + 2);
        assert_eq!(after.columns, before.columns + 2);
        // one new block; every other block is the previous allocation
        let after_view = session.view();
        let (old, new) = (before_view.tuple_blocks(), after_view.tuple_blocks());
        assert_eq!(new.len(), old.len() + 1);
        assert_eq!(new["new_parks"].len(), 2);
        for (name, block) in old {
            assert!(Arc::ptr_eq(block, &new[name]), "block {name} was copied");
        }
        // the new rows serve immediately
        let top = session.similar_tuples(&table, 2);
        assert_eq!(top[0].table, "new_parks");
    }

    #[test]
    fn a_view_keeps_serving_its_pinned_generation_across_mutations() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        let pinned = session.view();
        assert_eq!(pinned.generation(), 0);
        let before = pinned.query(&query, 3).unwrap();
        let before_tuples = pinned.stats().tuples;

        // mutate underneath the pinned view
        let table = Table::builder("gen_probe")
            .column("Park Name", ["Pin Park"])
            .column("Country", ["USA"])
            .build()
            .unwrap();
        session.add_table(table).unwrap();
        assert_eq!(session.generation(), 1);

        // the view still observes generation 0, bit-identically
        assert_eq!(pinned.generation(), 0);
        assert!(pinned.lake().table("gen_probe").is_err());
        assert_eq!(pinned.stats().tuples, before_tuples);
        let replay = pinned.query(&query, 3).unwrap();
        assert_eq!(replay.tuples, before.tuples);
        assert_eq!(replay.retrieved_tables, before.retrieved_tables);
        // while the session-level read path sees generation 1
        assert!(session.lake().table("gen_probe").is_ok());
    }

    #[test]
    fn duplicate_add_fails_and_leaves_the_session_untouched() {
        let lake = tiny_lake();
        let existing = lake.table_names()[0].clone();
        let session = LakeSession::new(lake.clone(), PipelineConfig::fast());
        let before = session.stats();
        let dup = Table::builder(existing.as_str())
            .column("x", ["1", "2"])
            .build()
            .unwrap();
        let err = session.add_table(dup);
        assert_eq!(
            err,
            Err(TableError::DuplicateTable {
                name: existing.clone()
            })
        );
        assert_eq!(session.generation(), 0, "failed mutations do not count");
        assert_eq!(session.stats(), before);
        // the resident table kept its original contents
        assert_eq!(
            session.lake().table(&existing).unwrap(),
            lake.table(&existing).unwrap()
        );
    }

    #[test]
    fn remove_table_drops_its_block_down_to_an_empty_lake() {
        let lake = tiny_lake();
        let session = LakeSession::new(lake.clone(), PipelineConfig::fast());
        let names = lake.table_names();
        let total: usize = lake.tables().map(|t| t.num_rows()).sum();
        let first_rows = lake.table(&names[0]).unwrap().num_rows();
        let removed = session.remove_table(&names[0]).unwrap();
        assert_eq!(removed.name(), names[0]);
        assert_eq!(session.generation(), 1);
        assert!(session.lake().table(&names[0]).is_err());
        let stats = session.stats();
        assert_eq!(stats.tables, names.len() - 1);
        assert_eq!(stats.tuples, total - first_rows);
        assert!(!session
            .view()
            .tuple_blocks()
            .contains_key(names[0].as_str()));
        // a removed table's tuples never appear again
        for hit in session.similar_tuples(&removed, 1000) {
            assert_ne!(hit.table, names[0]);
        }
        // removing a missing table errors and changes nothing
        let before = session.stats();
        assert!(session.remove_table(&names[0]).is_err());
        assert_eq!(session.generation(), 1);
        assert_eq!(session.stats(), before);
        // empty the lake
        for name in &names[1..] {
            session.remove_table(name).unwrap();
        }
        let stats = session.stats();
        assert_eq!(stats.tables, 0);
        assert_eq!(stats.tuples, 0);
        assert_eq!(stats.columns, 0);
        assert!(session.similar_tuples(&removed, 5).is_empty());
        // the emptied session accepts new tables again
        session.add_table(removed.clone()).unwrap();
        assert_eq!(session.stats().tuples, removed.num_rows());
        assert_eq!(session.generation(), names.len() as u64 + 1);
    }

    #[test]
    fn generation_counts_only_successful_mutations() {
        let lake = tiny_lake();
        let name = lake.table_names()[0].clone();
        let session = LakeSession::new(lake, PipelineConfig::fast());
        assert_eq!(session.generation(), 0);
        let removed = session.remove_table(&name).unwrap();
        assert_eq!(session.generation(), 1);
        assert!(session.remove_table(&name).is_err());
        assert_eq!(session.generation(), 1);
        session.add_table(removed).unwrap();
        assert_eq!(session.generation(), 2);
    }
}
