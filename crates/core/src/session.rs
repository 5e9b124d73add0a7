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
//! * **one immutable block per lake table** — table *t*'s tuples embedded
//!   once as one [`EmbeddingStore`] whose row *i* is tuple *i* of *t* (its
//!   own provenance) and, under D3L and Starmie, the embedding of each of
//!   its columns that the technique scores it by; shared by `Arc` exactly
//!   like the lake's `Arc<Table>`;
//! * **one inverted index** — under Overlap and D3L, the
//!   [`InvertedValueIndex`] that shortlists candidates, built at session
//!   construction;
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
//!   never stalls a `query`, `similar_tuples`, or `stats` call;
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
//!   poison, see [`crate::sync`]) and the rest of the batch still serves.
//!
//! ## Mutating the lake
//!
//! A slowly-changing lake must not pay a full session rebuild per added or
//! dropped table. [`LakeSession::add_table`] and
//! [`LakeSession::remove_table`] apply **per-table deltas** instead:
//!
//! * an add builds only the new table's block and inserts its `Arc`; a
//!   remove drops the table's `Arc`. Every other block is the previous
//!   generation's allocation. A block is a function of its table alone —
//!   Starmie blends a column only with its own table's centroid, and D3L's
//!   column embeddings carry no lake-wide aggregate — so a delta answers
//!   exactly as a fresh build;
//! * the [`InvertedValueIndex`] takes the exact per-table delta: its
//!   postings are sorted lists of integer column references (a table's
//!   slot is the only thing a delta can number differently from a fresh
//!   build, and no answer reads it);
//! * a fine-tuned session retrains its (lake-derived, deterministically
//!   seeded) model once per mutation — and once per recovery, which runs
//!   the same `prepare` over the whole write-ahead log — and re-embeds
//!   every table's tuples: the documented recompute fallback, as training
//!   is a function of the whole lake. Column embeddings are carried over.
//!   An *injected* model ([`LakeSession::with_model`]) is kept.
//!
//! The headline guarantee, enforced by `tests/session_mutation.rs` rather
//! than prose: after **any** mutation sequence, `query` and
//! `similar_tuples` results are bit-identical to a fresh
//! [`LakeSession::new`] on the mutated lake.
//!
//! [`DustPipeline::run`]: crate::pipeline::DustPipeline
//! [`DustPipeline`]: crate::pipeline::DustPipeline
//! [`SessionError::QueryPanicked`]: crate::persist::SessionError::QueryPanicked

use crate::config::{PipelineConfig, SearchTechnique, TupleEmbedderKind};
use crate::persist::{SessionError, WalOp};
use crate::pipeline::run_query;
use crate::result::DustResult;
use crate::sync::{Before, LockToken, OrderedMutex, OrderedRwLock, SessionMutate, SessionState};
use dust_embed::{
    desc_nan_last, ColumnEncoder, Distance, DustModel, EmbeddingStore, TupleEncoder, Vector,
};
use dust_search::{D3lSearch, InvertedValueIndex, OverlapSearch, StarmieSearch, TableUnionSearch};
use dust_table::{DataLake, Table, TableError, TableId, Tuple};
use rayon::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

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

/// One lake table's derived state, immutable once built: its tuple
/// embeddings (row *i* is tuple *i* of the table) and, under D3L and
/// Starmie, one embedding per column in column order — what the technique
/// scores the table by. `columns` is `None` under Overlap.
#[derive(Debug)]
pub(crate) struct TableBlock {
    pub(crate) tuples: EmbeddingStore,
    pub(crate) columns: Option<Vec<Vector>>,
}

/// Every lake table's block, keyed by table name. The keys are `Arc<str>`,
/// so cloning the map for the next generation bumps refcounts instead of
/// allocating a string per table.
pub(crate) type TableBlocks = BTreeMap<Arc<str>, Arc<TableBlock>>;

/// The configured technique's searcher: the same `::new()` default the
/// one-shot pipeline constructs per query, so resident results match fresh
/// ones. What it reads of the lake lives in each snapshot: the inverted
/// index (Overlap, D3L) and every table's column embeddings, in the table's
/// block (D3L, Starmie).
#[derive(Debug)]
pub(crate) enum Searcher {
    Overlap(OverlapSearch),
    D3l(D3lSearch),
    Starmie(StarmieSearch),
}

impl Searcher {
    pub(crate) fn new(technique: SearchTechnique) -> Self {
        match technique {
            SearchTechnique::Overlap => Searcher::Overlap(OverlapSearch::new()),
            SearchTechnique::D3l => Searcher::D3l(D3lSearch::new()),
            SearchTechnique::Starmie => Searcher::Starmie(StarmieSearch::new()),
        }
    }

    /// Whether the technique shortlists through a resident inverted index.
    pub(crate) fn has_index(&self) -> bool {
        !matches!(self, Searcher::Starmie(_))
    }

    /// The dimension of the column embeddings each table's block holds, or
    /// `None` when it holds none (Overlap).
    pub(crate) fn column_dim(&self) -> Option<usize> {
        match self {
            Searcher::Overlap(_) => None,
            Searcher::D3l(search) => Some(search.column_dim()),
            Searcher::Starmie(search) => Some(search.column_dim()),
        }
    }

    /// The column embeddings a table's block holds: `None` under Overlap.
    fn embed_columns(&self, table: &Table) -> Option<Vec<Vector>> {
        match self {
            Searcher::Overlap(_) => None,
            Searcher::D3l(search) => Some(search.column_embeddings(table)),
            Searcher::Starmie(search) => Some(search.contextual_column_embeddings(table)),
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
/// ever written after publication.
#[derive(Debug)]
pub(crate) struct SessionSnapshot {
    /// Number of successful mutations between [`LakeSession`] construction
    /// and this snapshot.
    pub(crate) generation: u64,
    pub(crate) lake: DataLake,
    pub(crate) embedder: Arc<SessionEmbedder>,
    /// The inverted index, under Overlap and D3L.
    pub(crate) index: Option<Arc<InvertedValueIndex>>,
    /// One block per lake table; a mutation inserts or drops one `Arc` and
    /// shares every other block with the previous generation.
    pub(crate) blocks: TableBlocks,
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
    searcher: Searcher,
    /// An injected ([`Self::with_model`]) embedder is not lake-derived and
    /// is therefore kept across mutations; a config-trained fine-tuned
    /// model *is* lake-derived and must be retrained (recompute fallback).
    pub(crate) model_injected: bool,
    /// Serializes mutations against each other (readers never touch it).
    writer: OrderedMutex<SessionMutate, ()>,
    /// The published generation and the retained ones before it. The lock
    /// is held only for an `Arc` clone (readers) or the publishing swap —
    /// never across embedding, search, or I/O work.
    state: OrderedRwLock<SessionState, Published>,
    pub(crate) build_secs: f64,
}

/// What [`LakeSession::view_at`] can pin: the current snapshot and the
/// history ring behind it, under one lock so a publish swaps and retains in
/// one step — a generation never leaves `current` before it is in `history`.
#[derive(Debug)]
struct Published {
    current: Arc<SessionSnapshot>,
    /// Previously-published snapshots, oldest first, at most `depth` (near-
    /// free: each shares all unchanged structure with its successor by
    /// `Arc`). Starts empty on restore — history is never persisted.
    history: VecDeque<Arc<SessionSnapshot>>,
    /// Retention depth for `history` (0 = current generation only).
    depth: usize,
}

impl Published {
    /// Evict past `depth`, oldest first. The caller drops the evicted
    /// snapshots after releasing the lock.
    #[must_use]
    fn trim(&mut self) -> Vec<Arc<SessionSnapshot>> {
        let excess = self.history.len().saturating_sub(self.depth);
        self.history.drain(..excess).collect()
    }
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
    /// Build a session over a lake with default options. Builds every lake
    /// table's block (its tuples and, under D3L and Starmie, its columns
    /// embedded), the inverted index (Overlap, D3L) and (for a fine-tuning
    /// configuration) trains the DUST tuple model — all exactly once.
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
        let searcher = Searcher::new(config.search);
        let index = searcher
            .has_index()
            .then(|| Arc::new(InvertedValueIndex::build(&lake)));
        let blocks = embed_lake(&lake, &embedder, &searcher, &TableBlocks::new());
        let snapshot = SessionSnapshot {
            generation: 0,
            lake,
            embedder: Arc::new(embedder),
            index,
            blocks,
        };
        let build_secs = start.elapsed().as_secs_f64();
        Self::from_snapshot(
            config,
            model_injected,
            searcher,
            snapshot,
            options.history,
            build_secs,
        )
    }

    /// A session publishing `snapshot`, with an empty history ring of
    /// `history` generations — the one constructor behind [`Self::new`]
    /// and the persistence layer's restore, which passes decoded parts
    /// and bypasses embedding and training. The lake's `Arc<Table>`s and
    /// the blocks are kept as given: the store that decoded them recognises
    /// them by pointer at its next checkpoint and writes only the tables
    /// that changed since.
    pub(crate) fn from_snapshot(
        config: PipelineConfig,
        model_injected: bool,
        searcher: Searcher,
        snapshot: SessionSnapshot,
        history: usize,
        build_secs: f64,
    ) -> Self {
        LakeSession {
            aligner_encoder: ColumnEncoder::new(
                config.alignment_model,
                config.alignment_serialization,
            ),
            config,
            model_injected,
            searcher,
            writer: OrderedMutex::new(()),
            state: OrderedRwLock::new(Published {
                current: Arc::new(snapshot),
                history: VecDeque::new(),
                depth: history,
            }),
            build_secs,
        }
    }

    /// The currently-published snapshot (an O(1) `Arc` clone; the lock is
    /// released before this returns).
    fn snapshot<M: Before<SessionState>>(
        &self,
        token: &mut LockToken<'_, M>,
    ) -> Arc<SessionSnapshot> {
        self.state.read(token).0.current.clone()
    }

    /// Atomically publish the next generation, retaining the displaced
    /// snapshot in the bounded history ring (evicting the oldest past the
    /// configured depth) under the same guard.
    fn publish(&self, token: &mut LockToken<'_, SessionMutate>, next: SessionSnapshot) {
        let evicted = {
            let (mut state, _) = self.state.write(token);
            let prev = std::mem::replace(&mut state.current, Arc::new(next));
            state.history.push_back(prev);
            state.trim()
        };
        drop(evicted);
    }

    /// Pin the current generation and return a read view over it. All
    /// reads through the view observe one consistent lake version no
    /// matter how many mutations publish in the meantime.
    pub fn view(&self) -> SessionView<'_> {
        SessionView {
            session: self,
            snap: self.snapshot(&mut LockToken::root()),
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
        let mut root = LockToken::root();
        let (state, _) = self.state.read(&mut root);
        let newest = state.current.generation;
        let mut pinnable = std::iter::once(&state.current).chain(state.history.iter().rev());
        match pinnable.find(|s| s.generation == generation) {
            Some(snap) => Ok(SessionView {
                session: self,
                snap: snap.clone(),
            }),
            None => Err(SessionError::GenerationEvicted {
                requested: generation,
                oldest: state.history.front().map_or(newest, |s| s.generation),
                newest,
            }),
        }
    }

    /// The configured history retention depth (how many *previous*
    /// generations [`Self::view_at`] can pin).
    pub fn history_depth(&self) -> usize {
        self.state.read(&mut LockToken::root()).0.depth
    }

    /// Re-tune the history retention depth at runtime, trimming the ring
    /// immediately if shrunk. A restored session starts with the default
    /// depth and an empty ring (history is never persisted); the serving
    /// layer calls this to apply its `--history` flag.
    pub fn set_history_depth(&self, depth: usize) {
        let evicted = {
            let mut root = LockToken::root();
            let (mut state, _) = self.state.write(&mut root);
            state.depth = depth;
            state.trim()
        };
        drop(evicted);
    }

    /// The pinnable window right now: `(oldest, newest, retained)` where
    /// `oldest..=newest` are the generations [`Self::view_at`] can serve
    /// and `retained` counts the ring entries (excluding the current
    /// generation, which is always servable).
    pub fn history_window(&self) -> (u64, u64, usize) {
        let mut root = LockToken::root();
        let (state, _) = self.state.read(&mut root);
        let newest = state.current.generation;
        let oldest = state.history.front().map_or(newest, |s| s.generation);
        (oldest, newest, state.history.len())
    }

    /// The resident lake at the current generation. The returned handle
    /// dereferences to [`DataLake`] and pins its snapshot: it stays valid
    /// and self-consistent even if mutations publish newer generations
    /// while it is held.
    pub fn lake(&self) -> LakeRef {
        LakeRef {
            snap: self.snapshot(&mut LockToken::root()),
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
        self.snapshot(&mut LockToken::root()).generation
    }

    /// Persist the whole session — table blocks, inverted index, trained
    /// model, lake — as a checksummed snapshot (plus a fresh,
    /// empty write-ahead log) in `dir`, replacing any snapshot already
    /// there. [`Self::open`] restores it bit-identically without re-paying
    /// the embed/index/train cost. To keep logging mutations durably after
    /// saving, hold a [`crate::persist::SnapshotStore`] instead.
    pub fn save(&self, dir: &std::path::Path) -> Result<(), crate::persist::PersistError> {
        crate::persist::SnapshotStore::create(dir, self).map(|_| ())
    }

    /// Restore a session from a snapshot directory written by
    /// [`Self::save`] (or by a [`crate::persist::SnapshotStore`]): load the
    /// snapshot, then apply every write-ahead-log record as one prepared
    /// generation through the mutation path. The restored session serves results
    /// **bit-identical** to the session that was saved — and therefore to
    /// a fresh [`LakeSession::new`] over the same lake (pinned by
    /// `tests/session_recovery.rs`). A damaged snapshot or log yields a
    /// typed [`crate::persist::PersistError`], never a panic; callers fall
    /// back to rebuilding from the lake.
    pub fn open(dir: &std::path::Path) -> Result<LakeSession, crate::persist::PersistError> {
        crate::persist::SnapshotStore::open(dir).map(|(_, session, _)| session)
    }

    /// Add a table to the lake and publish the next generation built from
    /// per-table deltas instead of a rebuild: the new table gets one new
    /// block — every other block is shared with the previous generation by
    /// `Arc` — and the inverted index takes the exact per-table delta. A
    /// fine-tuned session retrains its lake-derived model once and re-embeds
    /// every table's tuples instead — the recompute fallback of `prepare`,
    /// which WAL replay runs too. In-flight reads keep serving the previous
    /// generation throughout; they never wait.
    ///
    /// Duplicate names follow [`DataLake::add_table`]'s pinned semantics:
    /// an error, never a replace, with the session left untouched (remove
    /// first to replace). The rejection is decided **before** anything is
    /// cloned: a failed add neither bumps [`Self::generation`] nor
    /// allocates a next snapshot — the published root stays `Arc::ptr_eq`
    /// to what it was (pinned by `tests/session_sharing.rs`).
    pub fn add_table(&self, table: Table) -> Result<(), TableError> {
        self.mutate(WalOp::AddTable(Arc::new(table)), |_, _| Ok(()))
            .map(drop)
    }

    /// Remove a table from the lake and publish the next generation built
    /// from per-table deltas: the table's block is dropped — every other
    /// block is shared by `Arc` — and the inverted index takes its exact
    /// inverse (a fine-tuned session retrains, as [`Self::add_table`] does).
    /// Returns the removed table (as [`DataLake::remove_table`], which also
    /// scrubs ground-truth pairs naming it); errors — leaving the session
    /// untouched — if no such table exists. Like a rejected add, a missing
    /// name is decided before anything is cloned: the published root stays
    /// `Arc::ptr_eq` to what it was. In-flight reads keep serving the
    /// previous generation throughout.
    pub fn remove_table(&self, name: &str) -> Result<Table, TableError> {
        self.mutate(WalOp::RemoveTable(name.into()), |_, _| Ok(()))?
            .ok_or_else(|| TableError::TableNotFound { name: name.into() })
    }

    /// Apply one mutation and publish it only once `log` has made it
    /// durable: under the mutation lock, an op the lake rejects (a
    /// duplicate add, a missing remove) fails before anything is cloned;
    /// otherwise the next snapshot is prepared off to the side, `log(&op,
    /// generation + 1)` runs, and the snapshot is published only if it
    /// returns `Ok`. A failed log leaves the session exactly as it was —
    /// the published root stays `Arc::ptr_eq` — so no reader ever sees a
    /// generation a crash could erase, and the next logged generation is
    /// still the log's next sequence number. Returns the removed table of a
    /// remove (`None` for an add). [`Self::add_table`] and
    /// [`Self::remove_table`] are this with a log that does nothing;
    /// [`SnapshotStore::log_op`](crate::persist::SnapshotStore::log_op) is
    /// the WAL's log step.
    ///
    /// `log` runs under the mutation lock, outside the lock order's types:
    /// it must not call back into this session. A mutation from it
    /// deadlocks.
    pub fn mutate<E: From<TableError>>(
        &self,
        op: WalOp,
        log: impl FnOnce(&WalOp, u64) -> Result<(), E>,
    ) -> Result<Option<Table>, E> {
        let mut root = LockToken::root();
        let (_mutating, mut token) = self.writer.lock(&mut root);
        let snap = self.snapshot(&mut token);
        match &op {
            WalOp::AddTable(table) if snap.lake.table(table.name()).is_ok() => {
                return Err(E::from(TableError::DuplicateTable {
                    name: table.name().to_string(),
                }));
            }
            WalOp::AddTable(_) => {}
            WalOp::RemoveTable(name) => {
                snap.lake.table(name)?;
            }
        }
        let ops = std::slice::from_ref(&op);
        let (next, mut removed) = self.prepare(&mut token, &snap, ops).map_err(|(_, e)| e)?;
        log(&op, next.generation)?;
        self.publish(&mut token, next);
        Ok(removed.pop())
    }

    /// This freshly loaded session with `ops` (the WAL records after its
    /// snapshot) applied as one generation in place of the loaded one, so
    /// the history ring stays empty. An error names the failed op's position.
    pub(crate) fn replay(mut self, ops: Vec<WalOp>) -> Result<LakeSession, (usize, TableError)> {
        if !ops.is_empty() {
            let next = {
                let mut root = LockToken::root();
                let (_mutating, mut token) = self.writer.lock(&mut root);
                let snap = self.snapshot(&mut token);
                self.prepare(&mut token, &snap, &ops)?.0
            };
            self.state.get_mut().current = Arc::new(next);
        }
        Ok(self)
    }

    /// The snapshot `ops.len()` generations after `snap`, built off to the side, and the
    /// tables the ops removed — the one mutation path, run under the mutation lock. Each op
    /// applies its lake and index delta in order; an add embeds one block, a remove drops
    /// one. A lake-derived model (not [`Self::with_model`]'s) is instead retrained once on
    /// the final lake, exactly as a fresh session trains, re-embedding every tuple and
    /// carrying column embeddings over.
    fn prepare(
        &self,
        _mutating: &mut LockToken<'_, SessionMutate>,
        snap: &SessionSnapshot,
        ops: &[WalOp],
    ) -> Result<(SessionSnapshot, Vec<Table>), (usize, TableError)> {
        let retrains = !self.model_injected
            && matches!(self.config.embedder, TupleEmbedderKind::FineTuned { .. });
        let mut lake = snap.lake.clone();
        let mut index = snap.index.as_deref().cloned();
        let mut blocks = snap.blocks.clone();
        let mut removed = Vec::new();
        let generation = snap.generation + ops.len() as u64;
        for (at, op) in ops.iter().enumerate() {
            match op {
                WalOp::AddTable(table) => {
                    lake.add_table_shared(table.clone()).map_err(|e| (at, e))?;
                    if let Some(index) = &mut index {
                        index.add_table(table);
                    }
                    if !retrains {
                        let block = embed_table(table, &snap.embedder, &self.searcher, None);
                        blocks.insert(Arc::from(table.name()), block);
                    }
                }
                WalOp::RemoveTable(name) => {
                    let table = lake.remove_table(name).map_err(|e| (at, e))?;
                    if let Some(index) = &mut index {
                        index.remove_table(&table);
                    }
                    // a re-added table of this name must not carry its columns
                    blocks.remove(name.as_str());
                    removed.push(table);
                }
            }
        }
        let (embedder, blocks) = if retrains {
            let embedder = SessionEmbedder::from_config(&self.config.embedder, &lake);
            let blocks = embed_lake(&lake, &embedder, &self.searcher, &blocks);
            (Arc::new(embedder), blocks)
        } else {
            (snap.embedder.clone(), blocks)
        };
        let next = SessionSnapshot {
            generation,
            lake,
            embedder,
            index: index.map(Arc::new),
            blocks,
        };
        Ok((next, removed))
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
    /// embedding work. Ties rank by table name, then row. A query with no
    /// tuples is similar to nothing: the answer is empty.
    pub fn similar_tuples(&self, query: &Table, k: usize) -> Vec<RankedTuple> {
        self.view().similar_tuples(query, k)
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
    /// `Arc<Table>` entries), `block:NAME` (each table's block: its tuple
    /// embeddings and, under D3L and Starmie, its column embeddings),
    /// `posting:VALUE` (inverted-index posting sets), plus `embedder`.
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
        for (name, block) in &self.snap.blocks {
            out.insert(format!("block:{name}"), Arc::as_ptr(block) as usize);
        }
        out.insert(
            "embedder".to_string(),
            Arc::as_ptr(&self.snap.embedder) as usize,
        );
        for (value, columns) in self.snap.index.iter().flat_map(|i| i.postings_shared()) {
            out.insert(format!("posting:{value}"), columns.as_ptr() as usize);
        }
        out
    }

    /// The session this view was taken from.
    pub fn session(&self) -> &'a LakeSession {
        self.session
    }

    /// The pinned generation's inverted index (persistence writes it to
    /// the search segment).
    pub(crate) fn index(&self) -> Option<&InvertedValueIndex> {
        self.snap.index.as_deref()
    }

    /// The pinned generation's tuple embedder.
    pub(crate) fn session_embedder(&self) -> &SessionEmbedder {
        &self.snap.embedder
    }

    /// The pinned generation's table blocks, in table-name order.
    pub(crate) fn blocks(&self) -> &TableBlocks {
        &self.snap.blocks
    }

    /// [`LakeSession::stats`] at the pinned generation.
    pub fn stats(&self) -> SessionStats {
        let mut tuples = self.snap.blocks.values().map(|b| &b.tuples);
        SessionStats {
            tables: self.snap.lake.num_tables(),
            tuples: tuples.clone().map(|t| t.len()).sum(),
            columns: self.snap.lake.tables().map(|t| t.num_columns()).sum(),
            tuple_dim: tuples.find(|t| !t.is_empty()).map_or(0, |t| t.dim()),
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
        let slots: Vec<OnceLock<Result<DustResult, SessionError>>> =
            queries.iter().map(|_| OnceLock::new()).collect();
        let jobs: Vec<usize> = (0..queries.len()).collect();
        jobs.into_par_iter().for_each(|i| {
            // Catch the panic *inside* the worker closure: the slot below
            // is only written after the fallible work is done, so a panic
            // cannot kill the batch. The snapshot
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
            // each slot has exactly one writer: job i
            let _ = slots[i].set(result);
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner().unwrap_or_else(|| {
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
        // with no probe every score would be the fold's −∞ seed
        if query.num_rows() == 0 {
            return Vec::new();
        }
        let query_embeddings: Vec<Vector> = query
            .tuples()
            .iter()
            .map(|t| self.snap.embedder.embed_tuple(t))
            .collect();
        // Packed once, so each probe's norm is computed once per request.
        let probes = EmbeddingStore::from_vectors(&query_embeddings);
        // Rank borrowed keys; only the k winners get an owned table name.
        let blocks = &self.snap.blocks;
        let rows = blocks.values().map(|b| b.tuples.len()).sum();
        let mut ranked: Vec<(f64, &str, usize)> = Vec::with_capacity(rows);
        for (table, block) in blocks {
            let tuples = &block.tuples;
            tuples.cross_distances(Distance::Cosine, 0..tuples.len(), &probes, |row, d| {
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

    /// The resident `SearchTables` step (same searcher defaults as the
    /// one-shot pipeline; the index and every table's column embeddings
    /// read from the snapshot).
    fn search_tables(&self, lake: &DataLake, query: &Table) -> Vec<String> {
        let k = self.session.config.tables_per_query;
        let columns = |name: &str| self.snap.blocks.get(name)?.columns.as_deref();
        let index = self.index();
        let results = match (&self.session.searcher, index) {
            (Searcher::Overlap(search), Some(index)) => {
                search.search_with_index(lake, query, k, index)
            }
            (Searcher::Overlap(search), None) => search.search(lake, query, k),
            (Searcher::D3l(search), _) => search.search_resident(lake, query, k, index, columns),
            (Searcher::Starmie(search), _) => search.search_resident(lake, query, k, columns),
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

/// One table's block — the single builder behind construction,
/// `add_table` and the fine-tuned recompute fallback: its tuples embedded by
/// `embedder`, row *i* being tuple *i*, and the column embeddings of
/// `carried` (a previous block of the same table: they do not depend on the
/// tuple model) or, without one, embedded by `searcher`.
fn embed_table(
    table: &Table,
    embedder: &SessionEmbedder,
    searcher: &Searcher,
    carried: Option<&TableBlock>,
) -> Arc<TableBlock> {
    let rows: Vec<Vector> = table
        .tuples()
        .iter()
        .map(|t| embedder.embed_tuple(t))
        .collect();
    Arc::new(TableBlock {
        tuples: EmbeddingStore::from_vectors(&rows),
        columns: match carried {
            Some(block) => block.columns.clone(),
            None => searcher.embed_columns(table),
        },
    })
}

/// Every lake table's block, each carrying the column embeddings of its
/// block in `previous`, if it has one.
fn embed_lake(
    lake: &DataLake,
    embedder: &SessionEmbedder,
    searcher: &Searcher,
    previous: &TableBlocks,
) -> TableBlocks {
    lake.tables()
        .map(|table| {
            let carried = previous.get(table.name()).map(|block| &**block);
            let block = embed_table(table, embedder, searcher, carried);
            (Arc::from(table.name()), block)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_datagen::BenchmarkConfig;

    fn tiny_lake() -> DataLake {
        BenchmarkConfig::tiny().generate().lake
    }

    const TECHNIQUES: [SearchTechnique; 3] = [
        SearchTechnique::Overlap,
        SearchTechnique::D3l,
        SearchTechnique::Starmie,
    ];

    /// What a table's block must hold for its columns under `technique`.
    fn expected_columns(technique: SearchTechnique, table: &Table) -> Option<Vec<Vector>> {
        match technique {
            SearchTechnique::Overlap => None,
            SearchTechnique::D3l => Some(D3lSearch::new().column_embeddings(table)),
            SearchTechnique::Starmie => {
                Some(StarmieSearch::new().contextual_column_embeddings(table))
            }
        }
    }

    #[test]
    fn tuple_blocks_partition_the_lake_by_table() {
        let lake = tiny_lake();
        for technique in TECHNIQUES {
            let config = PipelineConfig {
                search: technique,
                ..PipelineConfig::fast()
            };
            let session = LakeSession::new(lake.clone(), config);
            let view = session.view();
            let blocks = view.blocks();
            // one block per lake table, in the lake's name order...
            let names: Vec<String> = blocks.keys().map(|name| name.to_string()).collect();
            assert_eq!(names, lake.table_names());
            // ...whose row i is the table's tuple i, embedded once, and
            // whose columns are what the technique scores the table by
            for table in lake.tables() {
                let block = &blocks[table.name()];
                assert_eq!(block.tuples.len(), table.num_rows());
                for (row, tuple) in table.tuples().iter().enumerate() {
                    let embedded = view.session_embedder().embed_tuple(tuple);
                    assert_eq!(
                        block.tuples.row(row),
                        embedded.as_slice(),
                        "{}:{row}",
                        table.name()
                    );
                }
                let expected = expected_columns(technique, table);
                assert_eq!(block.columns, expected, "{technique:?} {}", table.name());
                let dim = block.columns.iter().flatten().map(Vector::dim);
                let want = Searcher::new(technique).column_dim();
                assert!(dim.into_iter().all(|d| Some(d) == want));
            }
        }
    }

    #[test]
    fn resident_stores_cover_every_tuple_and_column() {
        let lake = tiny_lake();
        let expected_tuples: usize = lake.tables().map(|t| t.num_rows()).sum();
        let expected_columns: usize = lake.tables().map(|t| t.num_columns()).sum();
        let config = PipelineConfig {
            search: SearchTechnique::Starmie,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::new(lake, config);
        let stats = session.stats();
        assert_eq!(stats.tuples, expected_tuples);
        assert_eq!(stats.columns, expected_columns);
        assert!(stats.tuple_dim > 0);
        assert!(stats.build_secs > 0.0);
        let view = session.view();
        let columns = view.blocks().values().flat_map(|b| b.columns.iter());
        assert_eq!(columns.map(Vec::len).sum::<usize>(), expected_columns);
    }

    /// A retrain re-embeds every table's tuples under the new model and
    /// carries each block's column embeddings over unchanged.
    #[test]
    fn a_retrain_carries_every_tables_column_embeddings_over() {
        let config = PipelineConfig {
            search: SearchTechnique::Starmie,
            embedder: TupleEmbedderKind::FineTuned {
                backbone: dust_embed::PretrainedModel::Bert,
                config: dust_embed::FineTuneConfig {
                    hidden_dim: 16,
                    output_dim: 8,
                    max_epochs: 2,
                    patience: 1,
                    ..dust_embed::FineTuneConfig::default()
                },
                training_pairs: 40,
            },
            ..PipelineConfig::fast()
        };
        let session = LakeSession::new(tiny_lake(), config);
        let before = session.view();
        let added = Table::builder("retrained_parks")
            .column("Park Name", ["Kilo Park", "Lima Park"])
            .column("Country", ["USA", "Canada"])
            .build()
            .unwrap();
        session.add_table(added.clone()).unwrap();
        let after = session.view();
        assert!(!Arc::ptr_eq(&before.snap.embedder, &after.snap.embedder));
        for (name, block) in before.blocks() {
            let retrained = &after.blocks()[name];
            assert!(!Arc::ptr_eq(block, retrained), "{name} was not re-embedded");
            assert_eq!(retrained.columns, block.columns, "{name}");
        }
        let new_block = &after.blocks()["retrained_parks"];
        let technique = SearchTechnique::Starmie;
        assert_eq!(new_block.columns, expected_columns(technique, &added));
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
        let (old, new) = (before_view.blocks(), after_view.blocks());
        assert_eq!(new.len(), old.len() + 1);
        assert_eq!(new["new_parks"].tuples.len(), 2);
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
        assert!(!session.view().blocks().contains_key(names[0].as_str()));
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
