//! Hierarchical agglomerative clustering.
//!
//! Two interchangeable engines cluster the same INF-poisoned
//! [`LinkageWorkspace`](workspace::LinkageWorkspace) (a condensed `f32`
//! working copy of the shared [`PairwiseMatrix`]):
//!
//! * [`nn_chain`] — the nearest-neighbour-chain algorithm: O(n²), no
//!   priority queue, but valid only for *reducible* linkages
//!   (single/complete/average/Ward);
//! * [`generic`] — the fastcluster-style cached-nearest-neighbour
//!   algorithm: a per-row nearest-neighbour cache with a lazy min-heap and
//!   lazy invalidation, which avoids the NN-chain's repeated full-row
//!   rescans (measurably faster from ~100 points, see `BENCH_cluster.json`)
//!   and handles *every* linkage, including the non-reducible
//!   centroid/median pair.
//!
//! [`AgglomerativeAlgorithm`] selects between them; `Auto` (the default)
//! picks the expected-fastest valid engine. Both engines break distance
//! ties deterministically and produce identical flat clusterings — pinned
//! by the cross-algorithm equivalence suite in
//! `tests/cluster_equivalence.rs`.
//!
//! # Capped dendrograms and compaction
//!
//! Consumers of these dendrograms only ever cut them *coarsely*: DUST cuts
//! at `k·p` clusters, alignment model-selects over `k ∈ [min_k, n]`. A full
//! n-merge build therefore does work nobody consumes. Two mechanisms remove
//! it without changing any answer:
//!
//! * **the k-cap** (`min_clusters` of [`agglomerative_with`]) stops the
//!   engines once the merges performed are provably exactly the lowest
//!   part of the full merge tree (both engines keep merging across
//!   boundary *ties*, so the guarantee is exact): the returned partial
//!   [`Dendrogram`] yields bit-identical `cut(k)` partitions to the full
//!   build for every `k ≥ min_clusters`. The cap applies to reducible
//!   linkages; for the non-reducible centroid/median pair (whose height
//!   inversions can dip below any stopping boundary) it is ignored and a
//!   full dendrogram is built.
//! * **compaction** physically shrinks the workspace as clusters retire
//!   (rebuilt over the live slots at every halving), so late merges and
//!   scans walk a dense live prefix instead of INF-poisoned full rows —
//!   bit-for-bit identical output, much smaller resident working set at
//!   n ≫ 2000. It is on from 256 points up (`COMPACTION_THRESHOLD`).
//!
//! [`agglomerative_constrained`] is a straightforward O(n³) greedy variant
//! that honours cannot-link constraints (a pair's admissibility is one
//! lookup in a cluster-conflict matrix), used by holistic column alignment
//! where `n` is the (small) number of columns and two columns of the same
//! table must never be clustered together. It doubles as the naive
//! reference implementation the engine equivalence tests compare against;
//! [`agglomerative_constrained_from_matrix`] additionally reuses a
//! caller-held matrix and accepts the same `min_clusters` cap.

mod generic;
mod nn_chain;
mod workspace;

use crate::Assignment;
use dust_embed::{Distance, PairwiseMatrix, Vector};
use serde::{Deserialize, Serialize};
use workspace::LinkageWorkspace;

/// Linkage criterion between clusters.
///
/// All variants are maintained through Lance–Williams updates on the
/// working distance matrix. `Single`/`Complete`/`Average` are graph
/// linkages defined for any dissimilarity; `Ward`/`Centroid`/`Median` use
/// the squared-distance Lance–Williams formulas, which are Euclidean
/// geometry — following fastcluster, they are applied to whatever
/// dissimilarity the matrix holds, but are only geometrically meaningful
/// for [`Distance::Euclidean`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA) — the paper's choice.
    #[default]
    Average,
    /// Ward's minimum-variance criterion (reducible, squared formula).
    Ward,
    /// Distance between cluster centroids (UPGMC). **Not reducible**: the
    /// NN-chain algorithm is invalid, so this linkage always runs on the
    /// generic engine, and merge heights may contain inversions.
    Centroid,
    /// Distance between cluster "median" points (WPGMC). **Not reducible**
    /// — generic engine only, inversions possible.
    Median,
}

impl Linkage {
    /// Every linkage variant (test/bench sweeps).
    pub const ALL: [Linkage; 6] = [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
        Linkage::Centroid,
        Linkage::Median,
    ];

    /// Name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Linkage::Single => "single",
            Linkage::Complete => "complete",
            Linkage::Average => "average",
            Linkage::Ward => "ward",
            Linkage::Centroid => "centroid",
            Linkage::Median => "median",
        }
    }

    /// Whether the linkage is *reducible*: merging a reciprocal
    /// nearest-neighbour pair can never bring a third cluster closer than
    /// the closer of the two it replaced. Reducibility is what makes the
    /// NN-chain algorithm valid, merge heights inversion-free — and the
    /// `min_clusters` cap exact.
    pub fn is_reducible(&self) -> bool {
        !matches!(self, Linkage::Centroid | Linkage::Median)
    }

    /// Lance–Williams update: distance from cluster `k` (size `nk`) to the
    /// merge of clusters `i` (size `ni`) and `j` (size `nj`), where `d_ij`
    /// is the distance between the merged pair. The squared formulas only
    /// ever subtract multiples of the *finite* `d_ij` from sums that are
    /// infinite for poisoned slots, so `INFINITY` propagates cleanly
    /// through every variant.
    fn update(&self, d_ki: f64, d_kj: f64, d_ij: f64, ni: usize, nj: usize, nk: usize) -> f64 {
        let (fi, fj, fk) = (ni as f64, nj as f64, nk as f64);
        match self {
            Linkage::Single => d_ki.min(d_kj),
            Linkage::Complete => d_ki.max(d_kj),
            Linkage::Average => (fi * d_ki + fj * d_kj) / (fi + fj),
            Linkage::Ward => {
                let num = (fi + fk) * d_ki * d_ki + (fj + fk) * d_kj * d_kj - fk * d_ij * d_ij;
                (num / (fi + fj + fk)).max(0.0).sqrt()
            }
            Linkage::Centroid => {
                let s = fi + fj;
                let sq =
                    (fi * d_ki * d_ki + fj * d_kj * d_kj) / s - fi * fj * d_ij * d_ij / (s * s);
                sq.max(0.0).sqrt()
            }
            Linkage::Median => {
                let sq = 0.5 * d_ki * d_ki + 0.5 * d_kj * d_kj - 0.25 * d_ij * d_ij;
                sq.max(0.0).sqrt()
            }
        }
    }
}

/// Which agglomerative engine clusters the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AgglomerativeAlgorithm {
    /// Pick the expected-fastest *valid* engine: the generic engine for
    /// non-reducible linkages (where NN-chain is invalid) and for large
    /// inputs (where its cached scans win); NN-chain for small reducible
    /// problems, where it avoids the heap setup cost.
    #[default]
    Auto,
    /// Force the nearest-neighbour-chain engine. Requests for a
    /// non-reducible linkage (centroid/median) are routed to the generic
    /// engine anyway — NN-chain would silently corrupt the dendrogram.
    NnChain,
    /// Force the cached-nearest-neighbour generic engine.
    Generic,
}

/// Input size from which `Auto` prefers the generic engine for reducible
/// linkages. The generic engine already wins from ~100 points (1.2× at
/// n = 100 up to ~1.4× at n = 2000, see `BENCH_cluster.json`); below this
/// threshold both engines finish in tens of microseconds and the NN-chain
/// avoids the heap allocation.
const GENERIC_AUTO_THRESHOLD: usize = 64;

/// Input size from which the workspace compacts as clusters retire. Below
/// it the whole condensed matrix is cache-resident anyway and the copies
/// would be churn; above it the shrinking working set wins (see
/// `BENCH_cluster.json`, capped/compacting rows).
const COMPACTION_THRESHOLD: usize = 256;

impl AgglomerativeAlgorithm {
    /// Name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            AgglomerativeAlgorithm::Auto => "auto",
            AgglomerativeAlgorithm::NnChain => "nn_chain",
            AgglomerativeAlgorithm::Generic => "generic",
        }
    }

    /// The engine actually run for `linkage` on an `n`-point workspace.
    fn resolve(&self, linkage: Linkage, n: usize) -> AgglomerativeAlgorithm {
        if !linkage.is_reducible() {
            return AgglomerativeAlgorithm::Generic;
        }
        match self {
            AgglomerativeAlgorithm::Auto => {
                if n >= GENERIC_AUTO_THRESHOLD {
                    AgglomerativeAlgorithm::Generic
                } else {
                    AgglomerativeAlgorithm::NnChain
                }
            }
            resolved => *resolved,
        }
    }
}

/// One merge step of a dendrogram. Clusters are identified by id: leaves are
/// `0..n`, and the cluster created by the `i`-th merge has id `n + i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Merge {
    /// First merged cluster id (the one occupying the lower slot).
    pub left: usize,
    /// Second merged cluster id.
    pub right: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Number of leaves in the merged cluster.
    pub size: usize,
}

/// The result of hierarchical clustering: a sequence of merges over `n` leaves.
///
/// # Partial (k-capped) dendrograms
///
/// A dendrogram built with `min_clusters > 1` stops early and records the
/// smallest cut it is valid for in [`Dendrogram::min_clusters`]: the
/// engines guarantee the merges present are exactly the lowest part of the
/// full merge tree, so [`Dendrogram::cut`] is **bit-identical to the full
/// build's** for every `k ≥ min_clusters` — and **panics** for
/// `k < min_clusters`, where the answer would silently be wrong. (The
/// constrained variant's dendrograms may also be incomplete because
/// *constraints* forbade further merges; that is a property of the data,
/// not a cap, so `min_clusters` stays 1 and coarse cuts simply return more
/// clusters than requested.)
///
/// # Determinism and tie-breaking
///
/// Both engines break distance ties deterministically, lowest index wins:
/// nearest-neighbour scans return the lowest tying slot, the generic
/// engine's heap orders candidates by `(distance, row)` so the
/// lexicographically smallest `(distance, i, j)` pair merges first, the
/// NN-chain restarts at the lowest active slot (with the chain predecessor
/// winning ties, which preserves reciprocity), and a merged cluster always
/// keeps the higher of its two slots. [`Dendrogram::cut`] then applies
/// merges in ascending `(distance, cluster size, smallest contained leaf)`
/// order — a canonical key that is a function of the merge *set* alone, so
/// equal-height merges resolve identically regardless of which engine
/// produced the dendrogram or in which order it emitted them. Together
/// these rules make flat clusterings reproducible across engines and (for
/// tie-free inputs) stable under input permutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
    min_clusters: usize,
}

impl Dendrogram {
    fn new(n_leaves: usize, merges: Vec<Merge>, min_clusters: usize) -> Self {
        Dendrogram {
            n_leaves,
            merges,
            min_clusters,
        }
    }

    /// Number of leaves (input points).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merge sequence.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Smallest `k` this dendrogram can be cut into (1 for a full build).
    /// A k-capped build stops early; [`Dendrogram::cut`] is valid — and
    /// identical to the full build's — for every `k >= min_clusters`, and
    /// panics below it. Boundary ties can make the engines merge past the
    /// requested cap, so this may be *smaller* than the `min_clusters`
    /// requested from [`agglomerative_with`].
    pub fn min_clusters(&self) -> usize {
        self.min_clusters
    }

    /// Cut the dendrogram into (at most) `num_clusters` clusters.
    ///
    /// Merges are applied in ascending canonical order (see the type-level
    /// tie-breaking notes) until the requested number of clusters remains.
    /// When the dendrogram is incomplete because *constraints* stopped it
    /// (the constrained variant) the result may contain more than
    /// `num_clusters` clusters; when it is incomplete because of a k-cap,
    /// requesting a cut below [`Dendrogram::min_clusters`] panics instead
    /// of returning a silently wrong partition. Returns a dense assignment.
    pub fn cut(&self, num_clusters: usize) -> Assignment {
        let n = self.n_leaves;
        if n == 0 {
            return Vec::new();
        }
        let target = num_clusters.max(1);
        assert!(
            target >= self.min_clusters,
            "cut({target}) is below this capped dendrogram's valid range \
             (min_clusters = {}); rebuild with a smaller min_clusters",
            self.min_clusters
        );
        let mut uf = UnionFind::new(n);
        let mut remaining = n;
        for &m in &self.canonical_order() {
            if remaining <= target {
                break;
            }
            let merge = &self.merges[m];
            let li = self.leaf_of(merge.left);
            let ri = self.leaf_of(merge.right);
            if uf.union(li, ri) {
                remaining -= 1;
            }
        }
        uf.dense_assignment()
    }

    /// Merge indices in ascending `(distance, size, smallest leaf)` order.
    /// The size component keeps a nested merge after the child it contains
    /// (a parent is strictly larger); the smallest-leaf component orders
    /// disjoint equal-height merges engine-independently.
    fn canonical_order(&self) -> Vec<usize> {
        let min_leaf = self.min_leaves();
        let mut order: Vec<usize> = (0..self.merges.len()).collect();
        order.sort_by(|&a, &b| {
            let (ma, mb) = (&self.merges[a], &self.merges[b]);
            ma.distance
                .total_cmp(&mb.distance)
                .then_with(|| ma.size.cmp(&mb.size))
                .then_with(|| min_leaf[a].cmp(&min_leaf[b]))
        });
        order
    }

    /// Smallest leaf index contained in each merge's cluster (children have
    /// smaller merge indices, so one forward pass suffices).
    fn min_leaves(&self) -> Vec<usize> {
        let n = self.n_leaves;
        let mut min_leaf = vec![0usize; self.merges.len()];
        for (m, merge) in self.merges.iter().enumerate() {
            let l = if merge.left < n {
                merge.left
            } else {
                min_leaf[merge.left - n]
            };
            let r = if merge.right < n {
                merge.right
            } else {
                min_leaf[merge.right - n]
            };
            min_leaf[m] = l.min(r);
        }
        min_leaf
    }

    /// Any leaf contained in the cluster with the given id.
    fn leaf_of(&self, cluster_id: usize) -> usize {
        let mut id = cluster_id;
        while id >= self.n_leaves {
            id = self.merges[id - self.n_leaves].left;
        }
        id
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            false
        } else {
            self.parent[ra] = rb;
            true
        }
    }

    fn dense_assignment(&mut self) -> Assignment {
        let n = self.parent.len();
        let mut root_to_id = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(n);
        for i in 0..n {
            let root = self.find(i);
            let next = root_to_id.len();
            assignment.push(*root_to_id.entry(root).or_insert(next));
        }
        assignment
    }
}

/// Agglomerative clustering (unconstrained, full dendrogram, `Auto` engine
/// selection).
///
/// Builds the shared [`PairwiseMatrix`] (parallel for large inputs) and
/// clusters it. Returns a full dendrogram with `n - 1` merges (or an empty
/// dendrogram for fewer than two points).
pub fn agglomerative(points: &[Vector], distance: Distance, linkage: Linkage) -> Dendrogram {
    agglomerative_from_matrix(&PairwiseMatrix::compute(points, distance), linkage)
}

/// Agglomerative clustering over a precomputed pairwise matrix with `Auto`
/// engine selection (full dendrogram). The matrix is only read (the
/// Lance–Williams updates run on an internal `f32` working copy), so
/// callers can keep using it — e.g. for medoid selection — afterwards.
pub fn agglomerative_from_matrix(matrix: &PairwiseMatrix, linkage: Linkage) -> Dendrogram {
    agglomerative_with(matrix, linkage, AgglomerativeAlgorithm::Auto, 1)
}

/// Agglomerative clustering over a precomputed pairwise matrix with an
/// explicit engine choice and k-cap.
///
/// `min_clusters = 1` builds the full dendrogram. A larger value stops once
/// every flat clustering with at least that many clusters is determined:
/// the partial [`Dendrogram`] is bit-identical to the full one for every
/// `cut(k)` with `k ≥ min_clusters`, and cutting below
/// [`Dendrogram::min_clusters`] panics. The cap is ignored (full build) for
/// non-reducible linkages. `Auto` picks the expected-fastest valid engine;
/// an explicit [`AgglomerativeAlgorithm::NnChain`] request for a
/// non-reducible linkage (centroid/median) is routed to the generic engine,
/// where the NN-chain would be invalid. The workspace compacts from
/// 256 points up (`COMPACTION_THRESHOLD`).
pub fn agglomerative_with(
    matrix: &PairwiseMatrix,
    linkage: Linkage,
    algorithm: AgglomerativeAlgorithm,
    min_clusters: usize,
) -> Dendrogram {
    let compacting = matrix.len() >= COMPACTION_THRESHOLD;
    build(matrix, linkage, algorithm, min_clusters, compacting)
}

/// The engines' common driver; `compacting` is separate so the tests can
/// pin compacting and plain builds to each other at every size.
fn build(
    matrix: &PairwiseMatrix,
    linkage: Linkage,
    algorithm: AgglomerativeAlgorithm,
    min_clusters: usize,
    compacting: bool,
) -> Dendrogram {
    let n = matrix.len();
    if n < 2 {
        return Dendrogram::new(n, Vec::new(), 1);
    }
    // The cap's exactness argument needs future merge heights bounded below
    // by the current live minimum — reducibility. Centroid/median get a
    // full build.
    let cap = if linkage.is_reducible() {
        min_clusters.clamp(1, n)
    } else {
        1
    };
    let mut ws = LinkageWorkspace::from_matrix(matrix, compacting);
    let merges = match algorithm.resolve(linkage, n) {
        AgglomerativeAlgorithm::Generic => generic::cluster(&mut ws, linkage, cap),
        _ => nn_chain::cluster(&mut ws, linkage, cap),
    };
    // Boundary ties can push a capped run past the requested cap (or all
    // the way to a full build): every cut down to the merge count actually
    // reached is valid.
    let min_clusters = if cap > 1 && merges.len() < n - 1 {
        n - merges.len()
    } else {
        1
    };
    Dendrogram::new(n, merges, min_clusters)
}

/// Constrained agglomerative clustering with cannot-link constraints.
///
/// Builds the pairwise matrix internally and produces the full
/// (constraint-limited) dendrogram; see
/// [`agglomerative_constrained_from_matrix`] for the matrix-reusing,
/// k-cappable variant this delegates to.
pub fn agglomerative_constrained(
    points: &[Vector],
    distance: Distance,
    linkage: Linkage,
    cannot_link: &[(usize, usize)],
) -> Dendrogram {
    agglomerative_constrained_from_matrix(
        &PairwiseMatrix::compute(points, distance),
        linkage,
        cannot_link,
        1,
    )
}

/// Constrained agglomerative clustering over a precomputed pairwise matrix.
///
/// `cannot_link` lists pairs of leaf indices that must never end up in the
/// same cluster (pairs naming a leaf `≥ n`, or one leaf twice, constrain
/// nothing); merges that would violate a constraint are skipped. The
/// resulting dendrogram may therefore be incomplete (fewer than `n - 1`
/// merges) even without a cap. Intended for small `n` (column alignment),
/// complexity O(n³): every round greedily merges the closest admissible
/// pair (lexicographic `(distance, i, j)` tie-break) and applies the same
/// Lance–Williams updates as the fast engines — without constraints it is
/// their naive reference implementation. Admissibility is one lookup in an
/// `n × n` conflict matrix over cluster slots, seeded from `cannot_link`
/// and OR-folded on every merge, so the list is read once.
///
/// `min_clusters` is the same k-cap as [`agglomerative_with`]'s:
/// since the greedy loop merges admissible pairs in ascending order (the
/// admissible submatrix is monotone for reducible linkages — constraints
/// only ever *remove* candidate pairs), it can stop once enough merges are
/// done and the next admissible pair is strictly farther than every merge
/// performed. Ignored for non-reducible linkages.
pub fn agglomerative_constrained_from_matrix(
    matrix: &PairwiseMatrix,
    linkage: Linkage,
    cannot_link: &[(usize, usize)],
    min_clusters: usize,
) -> Dendrogram {
    let n = matrix.len();
    if n < 2 {
        return Dendrogram::new(n, Vec::new(), 1);
    }
    let cap = if linkage.is_reducible() {
        min_clusters.clamp(1, n)
    } else {
        1
    };
    // Compaction is skipped here: the conflict matrix is indexed by slot and
    // n is small (table columns) by contract.
    let mut ws = LinkageWorkspace::from_matrix(matrix, false);
    // conflict[i * n + j]: some leaf of slot i's cluster cannot link with
    // some leaf of slot j's (the diagonal is never read)
    let mut conflict = vec![false; n * n];
    for &(x, y) in cannot_link {
        if x < n && y < n {
            conflict[x * n + y] = true;
            conflict[y * n + x] = true;
        }
    }
    let mut merges = Vec::new();
    let mut max_height = f64::NEG_INFINITY;
    let mut capped_stop = false;

    loop {
        // find the closest admissible pair of active clusters
        let mut best: Option<(usize, usize, f32)> = None;
        let active: Vec<usize> = ws.active_slots().collect();
        for (ai, &i) in active.iter().enumerate() {
            for &j in active.iter().skip(ai + 1) {
                if conflict[i * n + j] {
                    continue;
                }
                let d = ws.get32(i, j);
                if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, d)) = best else { break };
        // Capped stop, same strict-boundary rule as the fast engines.
        if cap > 1 && merges.len() + cap >= n && d as f64 > max_height {
            capped_stop = true;
            break;
        }
        // `i < j`: the merged cluster keeps slot `j` (the workspace's
        // keep-the-higher-slot convention)
        let merge = ws.merge(i, j, linkage, |_, _| {});
        max_height = max_height.max(merge.distance);
        merges.push(merge);
        // A ∪ B conflicts with C iff A or B does: fold row/column i into j.
        for k in 0..n {
            if conflict[i * n + k] {
                conflict[j * n + k] = true;
                conflict[k * n + j] = true;
            }
        }
    }

    let min_clusters = if capped_stop { n - merges.len() } else { 1 };
    Dendrogram::new(n, merges, min_clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num_clusters;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_blobs() -> Vec<Vector> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Vector::new(vec![i as f32 * 0.01, 0.0]));
        }
        for i in 0..10 {
            pts.push(Vector::new(vec![10.0 + i as f32 * 0.01, 5.0]));
        }
        pts
    }

    #[test]
    fn two_well_separated_blobs_are_recovered_by_both_engines() {
        let pts = two_blobs();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        for linkage in Linkage::ALL {
            for algorithm in [
                AgglomerativeAlgorithm::Auto,
                AgglomerativeAlgorithm::NnChain,
                AgglomerativeAlgorithm::Generic,
            ] {
                let dendro = agglomerative_with(&matrix, linkage, algorithm, 1);
                assert_eq!(dendro.merges().len(), pts.len() - 1);
                assert_eq!(dendro.min_clusters(), 1);
                let assignment = dendro.cut(2);
                assert_eq!(num_clusters(&assignment), 2, "{linkage:?}/{algorithm:?}");
                // first ten points together, last ten together
                assert!(assignment[..10].iter().all(|&c| c == assignment[0]));
                assert!(assignment[10..].iter().all(|&c| c == assignment[10]));
                assert_ne!(assignment[0], assignment[10]);
            }
        }
    }

    #[test]
    fn cut_to_one_cluster_and_to_n_clusters() {
        let pts = two_blobs();
        let dendro = agglomerative(&pts, Distance::Euclidean, Linkage::Average);
        assert_eq!(num_clusters(&dendro.cut(1)), 1);
        let all = dendro.cut(pts.len());
        assert_eq!(num_clusters(&all), pts.len());
    }

    #[test]
    fn capped_build_stops_early_and_matches_full_cuts() {
        let pts = two_blobs();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        for algorithm in [
            AgglomerativeAlgorithm::NnChain,
            AgglomerativeAlgorithm::Generic,
        ] {
            let full = agglomerative_with(&matrix, Linkage::Average, algorithm, 1);
            let capped = agglomerative_with(&matrix, Linkage::Average, algorithm, 4);
            assert!(capped.merges().len() < full.merges().len());
            assert!(capped.min_clusters() <= 4);
            for k in 4..=pts.len() {
                assert_eq!(capped.cut(k), full.cut(k), "{algorithm:?} cut({k})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "below this capped dendrogram")]
    fn cutting_a_capped_dendrogram_below_its_cap_panics() {
        let pts = two_blobs();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        let capped = agglomerative_with(
            &matrix,
            Linkage::Average,
            AgglomerativeAlgorithm::Generic,
            4,
        );
        assert!(capped.min_clusters() > 1);
        let _ = capped.cut(capped.min_clusters() - 1);
    }

    #[test]
    fn non_reducible_linkages_ignore_the_cap() {
        let pts = two_blobs();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        for linkage in [Linkage::Centroid, Linkage::Median] {
            let capped = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 5);
            assert_eq!(capped.merges().len(), pts.len() - 1);
            assert_eq!(capped.min_clusters(), 1);
        }
    }

    #[test]
    fn trivial_inputs() {
        let dendro = agglomerative(&[], Distance::Euclidean, Linkage::Average);
        assert_eq!(dendro.n_leaves(), 0);
        assert!(dendro.cut(3).is_empty());
        let one = agglomerative(
            &[Vector::new(vec![1.0])],
            Distance::Euclidean,
            Linkage::Average,
        );
        assert_eq!(one.cut(1), vec![0]);
    }

    #[test]
    fn merge_distances_are_nondecreasing_for_average_linkage() {
        let pts = two_blobs();
        let dendro = agglomerative(&pts, Distance::Euclidean, Linkage::Average);
        // Average linkage is reducible, so NN-chain produces merges that can
        // be sorted into a monotone sequence; verify sorted monotonicity.
        let mut dists: Vec<f64> = dendro.merges().iter().map(|m| m.distance).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        assert!(dists.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn constrained_clustering_respects_cannot_link() {
        // four nearly identical points; 0-1 and 2-3 must not merge
        let pts = vec![
            Vector::new(vec![0.0, 0.0]),
            Vector::new(vec![0.01, 0.0]),
            Vector::new(vec![0.02, 0.0]),
            Vector::new(vec![0.03, 0.0]),
        ];
        let constraints = vec![(0, 1), (2, 3)];
        let dendro =
            agglomerative_constrained(&pts, Distance::Euclidean, Linkage::Average, &constraints);
        for k in 1..=4 {
            let assignment = dendro.cut(k);
            assert_ne!(
                assignment[0], assignment[1],
                "constraint 0-1 violated at k={k}"
            );
            assert_ne!(
                assignment[2], assignment[3],
                "constraint 2-3 violated at k={k}"
            );
        }
    }

    #[test]
    fn constrained_clustering_without_constraints_matches_full_merge() {
        let pts = two_blobs();
        let dendro = agglomerative_constrained(&pts, Distance::Euclidean, Linkage::Average, &[]);
        assert_eq!(dendro.merges().len(), pts.len() - 1);
        let assignment = dendro.cut(2);
        assert_eq!(num_clusters(&assignment), 2);
        assert_ne!(assignment[0], assignment[10]);
    }

    #[test]
    fn capped_constrained_clustering_matches_full_in_range() {
        let pts = two_blobs();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        let constraints = vec![(0, 10), (3, 15)];
        let full =
            agglomerative_constrained_from_matrix(&matrix, Linkage::Average, &constraints, 1);
        let capped =
            agglomerative_constrained_from_matrix(&matrix, Linkage::Average, &constraints, 5);
        assert!(capped.merges().len() <= full.merges().len());
        assert!(capped.min_clusters() <= 5);
        for k in 5..=pts.len() {
            assert_eq!(capped.cut(k), full.cut(k), "constrained cut({k})");
        }
    }

    #[test]
    fn both_engines_match_naive_on_small_inputs() {
        // On small inputs each engine's result (cut to k) should agree with
        // the naive constrained implementation without constraints.
        let pts: Vec<Vector> = (0..12)
            .map(|i| {
                Vector::new(vec![
                    (i % 4) as f32 * 3.0 + (i as f32) * 0.01,
                    (i / 4) as f32 * 5.0,
                ])
            })
            .collect();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let naive = agglomerative_constrained(&pts, Distance::Euclidean, linkage, &[]).cut(3);
            for algorithm in [
                AgglomerativeAlgorithm::NnChain,
                AgglomerativeAlgorithm::Generic,
            ] {
                let fast = agglomerative_with(&matrix, linkage, algorithm, 1).cut(3);
                // compare partitions up to relabelling
                assert_eq!(
                    partition_signature(&fast),
                    partition_signature(&naive),
                    "{linkage:?}/{algorithm:?}"
                );
            }
        }
    }

    fn partition_signature(assignment: &[usize]) -> Vec<Vec<usize>> {
        let mut groups = crate::clusters_from_assignment(assignment);
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort();
        groups
    }

    #[test]
    fn non_reducible_linkages_always_run_on_the_generic_engine() {
        let pts = two_blobs();
        let matrix = PairwiseMatrix::compute(&pts, Distance::Euclidean);
        for linkage in [Linkage::Centroid, Linkage::Median] {
            assert!(!linkage.is_reducible());
            let forced = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 1);
            // NnChain and Auto requests are both routed to the generic engine
            for algorithm in [
                AgglomerativeAlgorithm::Auto,
                AgglomerativeAlgorithm::NnChain,
            ] {
                let routed = agglomerative_with(&matrix, linkage, algorithm, 1);
                assert_eq!(routed, forced, "{linkage:?}/{algorithm:?}");
            }
        }
    }

    #[test]
    fn auto_resolution_prefers_the_valid_and_fast_engine() {
        use AgglomerativeAlgorithm::*;
        assert_eq!(Auto.resolve(Linkage::Average, 10), NnChain);
        assert_eq!(
            Auto.resolve(Linkage::Average, GENERIC_AUTO_THRESHOLD),
            Generic
        );
        assert_eq!(Auto.resolve(Linkage::Centroid, 10), Generic);
        assert_eq!(NnChain.resolve(Linkage::Median, 10), Generic);
        assert_eq!(NnChain.resolve(Linkage::Single, 100_000), NnChain);
        assert_eq!(Generic.resolve(Linkage::Ward, 3), Generic);
    }

    #[test]
    fn linkage_and_algorithm_names() {
        let names: Vec<&str> = Linkage::ALL.iter().map(Linkage::name).collect();
        assert_eq!(
            names,
            ["single", "complete", "average", "ward", "centroid", "median"]
        );
        assert_eq!(AgglomerativeAlgorithm::Auto.name(), "auto");
        assert_eq!(AgglomerativeAlgorithm::NnChain.name(), "nn_chain");
        assert_eq!(AgglomerativeAlgorithm::Generic.name(), "generic");
    }

    // -----------------------------------------------------------------------
    // Compaction: `agglomerative_with` compacts by size, so only the private
    // driver can run both modes on one input.
    // -----------------------------------------------------------------------

    const ENGINES: [AgglomerativeAlgorithm; 2] = [
        AgglomerativeAlgorithm::NnChain,
        AgglomerativeAlgorithm::Generic,
    ];

    fn points_strategy() -> impl Strategy<Value = Vec<Vector>> {
        prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 2), 2..64)
            .prop_map(|rows| rows.into_iter().map(Vector::new).collect())
    }

    fn distance_strategy() -> impl Strategy<Value = Distance> {
        prop_oneof![
            Just(Distance::Euclidean),
            Just(Distance::Cosine),
            Just(Distance::Manhattan),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Compacting == non-compacting, bit for bit: the whole dendrogram
        /// (merge pairs, f64 heights, sizes, min_clusters) is identical with
        /// the workspace physically shrinking and with it never shrinking —
        /// both engines, all six linkages, capped and full. Sizes above
        /// ~16 points genuinely compact (the workspace halves at live <= n/2).
        #[test]
        fn compacting_is_bit_for_bit_identical(
            points in points_strategy(),
            distance in distance_strategy(),
            k_min in 1usize..24,
        ) {
            let matrix = PairwiseMatrix::compute(&points, distance);
            for linkage in Linkage::ALL {
                for algorithm in ENGINES {
                    let plain = build(&matrix, linkage, algorithm, k_min, false);
                    let compacted = build(&matrix, linkage, algorithm, k_min, true);
                    prop_assert_eq!(
                        &plain, &compacted,
                        "{:?}/{:?}: compaction changed the dendrogram (cap {})",
                        linkage, algorithm, k_min
                    );
                }
            }
        }
    }

    /// A deterministic larger case (n = 300, above the compaction
    /// threshold): several halvings actually fire in the public entry
    /// point's capped build, and it still reproduces the full
    /// non-compacting build's cuts exactly.
    #[test]
    fn large_capped_compacting_run_matches_plain_full_build() {
        let mut rng = StdRng::seed_from_u64(0xCAB);
        let n = 300;
        assert!(n >= COMPACTION_THRESHOLD);
        let points: Vec<Vector> = (0..n)
            .map(|_| Vector::new(vec![rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]))
            .collect();
        let matrix = PairwiseMatrix::compute(&points, Distance::Euclidean);
        for algorithm in ENGINES {
            for linkage in [Linkage::Average, Linkage::Ward] {
                let full_plain = build(&matrix, linkage, algorithm, 1, false);
                let capped_compacting = agglomerative_with(&matrix, linkage, algorithm, 20);
                assert!(
                    capped_compacting.merges().len() < full_plain.merges().len(),
                    "{linkage:?}/{algorithm:?}: cap did not shorten the build"
                );
                assert_eq!(
                    capped_compacting.merges(),
                    &full_plain.merges()[..capped_compacting.merges().len()],
                    "{linkage:?}/{algorithm:?}: capped+compacting is not a bit-for-bit prefix"
                );
                for k in [20usize, 25, 40, 100, 299] {
                    assert_eq!(
                        capped_compacting.cut(k),
                        full_plain.cut(k),
                        "{linkage:?}/{algorithm:?}: cut({k})"
                    );
                }
            }
        }
    }
}
