//! The shared mutable working state of both agglomerative engines.
//!
//! [`LinkageWorkspace`] holds a condensed `f32` copy of the pairwise matrix
//! (seeded with one memcpy from [`PairwiseMatrix::condensed_data`]) plus the
//! per-slot cluster bookkeeping (active flag, size, dendrogram cluster id).
//! Retired cluster slots are *poisoned* with `f32::INFINITY`, so
//! nearest-neighbour scans need no per-element activity test — the first
//! pass is a pure min-reduction the compiler can vectorize over the
//! contiguous half of each row. Poison survives every Lance–Williams
//! update: min/max/average keep `INFINITY` infinite, and the squared
//! formulas (Ward/centroid/median) only ever subtract a *finite* merge
//! distance from an infinite sum. This is a copy of matrix data, not a
//! second distance implementation — no distances are computed here.
//!
//! # Compaction
//!
//! In **compacting** mode the workspace additionally *physically shrinks*
//! as slots retire: whenever at most half the slots are still live, the
//! condensed matrix is rebuilt over the live slots only (in ascending slot
//! order, values copied verbatim — nothing is recomputed), so every later
//! merge pass and nearest-neighbour scan walks a dense live prefix instead
//! of an INF-poisoned full row. The halving threshold makes the total
//! copy cost a geometric series (< n²/3 extra element moves) while keeping
//! the resident working set proportional to the square of the *live*
//! cluster count — the difference between streaming a 200 MB matrix per
//! merge and an L3-resident one at n ≈ 10000. Because the live order is
//! preserved and values move verbatim, compacting runs are bit-for-bit
//! identical to non-compacting runs (pinned by the tests in `mod.rs`);
//! engines only need to renumber their slot references through the remap
//! returned by [`LinkageWorkspace::maybe_compact`].
//!
//! Both engines merge through [`LinkageWorkspace::merge`], which applies the
//! Lance–Williams update, retires the lower slot (the merged cluster always
//! keeps the **higher** slot index — part of the deterministic tie-breaking
//! contract, see [`Dendrogram`](super::Dendrogram), and the reason the
//! generic engine's post-merge rescans stay short), and emits the
//! [`Merge`] record.

use super::{Linkage, Merge};
use dust_embed::PairwiseMatrix;

/// Below this slot capacity compaction is never attempted: the whole
/// workspace already fits comfortably in cache and the copy would be churn.
const MIN_COMPACT_STRIDE: usize = 16;

pub(super) struct LinkageWorkspace {
    /// Number of leaves (input points). Fixed for the workspace's lifetime;
    /// dendrogram cluster ids are `n_leaves + merge_index`.
    n_leaves: usize,
    /// Current slot capacity: the condensed layout is over `stride` slots.
    /// Equal to `n_leaves` until a compaction shrinks it.
    stride: usize,
    /// Number of live (unretired) slots; `live <= stride`.
    live: usize,
    compacting: bool,
    data: Vec<f32>,
    active: Vec<bool>,
    size: Vec<usize>,
    cluster_id: Vec<usize>,
    merges_made: usize,
}

impl LinkageWorkspace {
    pub(super) fn from_matrix(matrix: &PairwiseMatrix, compacting: bool) -> Self {
        let n = matrix.len();
        LinkageWorkspace {
            n_leaves: n,
            stride: n,
            live: n,
            compacting,
            data: matrix.condensed_data().to_vec(),
            active: vec![true; n],
            size: vec![1; n],
            cluster_id: (0..n).collect(),
            merges_made: 0,
        }
    }

    /// Number of leaves (input points).
    pub(super) fn len(&self) -> usize {
        self.n_leaves
    }

    /// Whether slot `i` still holds a live cluster.
    #[inline]
    pub(super) fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Lowest-index active slot (chain restarts — lowest index wins).
    pub(super) fn first_active(&self) -> Option<usize> {
        (0..self.stride).find(|&i| self.active[i])
    }

    /// Active slot indices in ascending order.
    pub(super) fn active_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.stride).filter(|&i| self.active[i])
    }

    /// Current working distance between slots `i` and `j` (`INFINITY` when
    /// either slot is retired).
    #[inline]
    pub(super) fn get32(&self, i: usize, j: usize) -> f32 {
        self.data[self.index(i, j)]
    }

    /// Smallest working distance over all live cluster pairs (`INFINITY`
    /// when fewer than two clusters remain) — the capped NN-chain's stop
    /// test. Every live pair `(i, j)` with `i < j` sits in live row `i`'s
    /// contiguous tail, so scanning only the live rows (O(live · stride)
    /// rather than the O(stride²) whole-matrix reduction) sees every live
    /// pair; retired columns inside those tails hold poison and cannot
    /// win. The test only runs once at most `min_clusters` rows are live,
    /// which keeps it cheap even without compaction.
    pub(super) fn min_active_distance(&self) -> f64 {
        let mut min = f32::INFINITY;
        for i in 0..self.stride {
            if !self.active[i] || i + 1 >= self.stride {
                continue;
            }
            let start = self.row_start(i);
            min = min.min(tail_min(&self.data[start..start + (self.stride - 1 - i)]));
        }
        min as f64
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j, "no diagonal entries in the condensed workspace");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        a * self.stride - a * (a + 1) / 2 + (b - a - 1)
    }

    #[inline]
    fn row_start(&self, i: usize) -> usize {
        i * self.stride - i * (i + 1) / 2
    }

    /// Nearest neighbour of `i` over the whole row: the smallest-index `j`
    /// attaining the row minimum, except that `prev` wins whenever it ties
    /// the minimum (the NN-chain's reciprocity rule). Retired slots hold
    /// `INFINITY` and can never win. Two passes: a branch-free
    /// min-reduction, then a short argmin lookup.
    pub(super) fn nearest(&self, i: usize, prev: Option<usize>) -> (usize, f64) {
        let n = self.stride;
        let mut min = f32::INFINITY;
        // strided column part (j < i), incremental condensed offsets
        if i > 0 {
            let mut idx = i - 1; // (0, i)
            for j in 0..i {
                min = min.min(self.data[idx]);
                idx += n - j - 2;
            }
        }
        // contiguous row part (j > i) — vectorizable 8-lane min-reduction
        if i + 1 < n {
            let start = self.row_start(i);
            min = min.min(tail_min(&self.data[start..start + (n - 1 - i)]));
        }
        debug_assert!(min.is_finite(), "no active neighbour for slot {i}");
        if let Some(p) = prev {
            if self.data[self.index(i, p)] <= min {
                return (p, min as f64);
            }
        }
        if i > 0 {
            let mut idx = i - 1;
            for j in 0..i {
                if self.data[idx] <= min {
                    return (j, min as f64);
                }
                idx += n - j - 2;
            }
        }
        let start = self.row_start(i);
        let offset = self.data[start..start + (n - 1 - i)]
            .iter()
            .position(|&d| d <= min)
            .expect("row minimum must exist");
        (i + 1 + offset, min as f64)
    }

    /// Nearest neighbour of `i` among higher-index slots only (`j > i`) —
    /// the generic engine's per-row cache entry. Returns the smallest-index
    /// `j` attaining the tail minimum, or `None` when every higher slot is
    /// retired (the row's live pairs then belong to lower-index rows).
    /// Contiguous scan: one vectorizable min-reduction plus a position
    /// lookup.
    pub(super) fn nearest_in_tail(&self, i: usize) -> Option<(usize, f32)> {
        if i + 1 >= self.stride {
            return None;
        }
        let start = self.row_start(i);
        let slice = &self.data[start..start + (self.stride - 1 - i)];
        let min = tail_min(slice);
        if !min.is_finite() {
            return None;
        }
        let offset = slice
            .iter()
            .position(|&d| d <= min)
            .expect("finite minimum must exist");
        Some((i + 1 + offset, min))
    }

    /// In compacting mode, physically shrink the workspace once at most half
    /// the slots are live: rebuild the condensed matrix over the live slots
    /// in ascending order (values copied verbatim), renumber the
    /// bookkeeping, and return the slot remap (`remap[old] = new`, or
    /// `usize::MAX` for retired slots) so engines can renumber their own
    /// state. Returns `None` when no compaction happened. Order
    /// preservation is what keeps compacting runs bit-for-bit identical to
    /// non-compacting ones: every tie-break in either engine depends only
    /// on the *relative* order of live slots.
    pub(super) fn maybe_compact(&mut self) -> Option<Vec<usize>> {
        if !self.compacting || self.stride < MIN_COMPACT_STRIDE || self.live * 2 > self.stride {
            return None;
        }
        let live_slots: Vec<usize> = (0..self.stride).filter(|&i| self.active[i]).collect();
        let m = live_slots.len();
        debug_assert_eq!(m, self.live);
        let mut new_data = vec![f32::INFINITY; m * m.saturating_sub(1) / 2];
        let mut out = 0usize;
        for (p, &i) in live_slots.iter().enumerate() {
            let row = self.row_start(i);
            for &j in &live_slots[p + 1..] {
                new_data[out] = self.data[row + j - i - 1];
                out += 1;
            }
        }
        let mut remap = vec![usize::MAX; self.stride];
        for (p, &i) in live_slots.iter().enumerate() {
            // p <= i (ascending live order), so the forward in-place copy
            // never clobbers an unread source entry
            remap[i] = p;
            self.size[p] = self.size[i];
            self.cluster_id[p] = self.cluster_id[i];
        }
        self.size.truncate(m);
        self.cluster_id.truncate(m);
        self.active.clear();
        self.active.resize(m, true);
        self.data = new_data;
        self.stride = m;
        Some(remap)
    }

    /// Merge the clusters in slots `a` and `b`: rewrite `d(k, hi)` for every
    /// other slot via the Lance–Williams update for `linkage`, poison slot
    /// `lo`, and return the dendrogram [`Merge`] record. The merged cluster
    /// keeps the **higher** slot (`hi = max(a, b)`, fastcluster's
    /// convention): fresh clusters drift toward high slots, whose condensed
    /// row tails are short — which is what keeps the generic engine's
    /// mandatory post-merge rescan cheap.
    ///
    /// `on_update(k, d)` is invoked with every rewritten distance (poisoned
    /// slots see `INFINITY` in and out) — the generic engine uses it to
    /// adopt cache decreases without re-reading the matrix; the NN-chain
    /// passes a no-op, which the optimizer erases.
    ///
    /// The pass is the shared O(stride)-per-merge hot loop of both engines,
    /// so it is split into three stride-incremental sections (`k < lo`,
    /// `lo < k < hi`, `k > hi` — no per-element index multiplication) with
    /// the `lo`-column poisoning fused in, and the Lance–Williams formula
    /// is monomorphized per linkage outside the loops.
    pub(super) fn merge(
        &mut self,
        a: usize,
        b: usize,
        linkage: Linkage,
        on_update: impl FnMut(usize, f32),
    ) -> Merge {
        debug_assert!(a != b && self.active[a] && self.active[b]);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let d_ij = self.data[self.index(lo, hi)] as f64;
        let (ni, nj) = (self.size[lo], self.size[hi]);
        match linkage {
            Linkage::Single => self.merge_loops(lo, hi, |ki, kj, _| ki.min(kj), on_update),
            Linkage::Complete => self.merge_loops(lo, hi, |ki, kj, _| ki.max(kj), on_update),
            Linkage::Average => {
                let (fi, fj) = (ni as f64, nj as f64);
                let inv = 1.0 / (fi + fj);
                self.merge_loops(lo, hi, |ki, kj, _| (fi * ki + fj * kj) * inv, on_update)
            }
            _ => self.merge_loops(
                lo,
                hi,
                |ki, kj, nk| linkage.update(ki, kj, d_ij, ni, nj, nk),
                on_update,
            ),
        }
        // the merged pair's own entry
        let pair_idx = self.row_start(lo) + hi - lo - 1;
        self.data[pair_idx] = f32::INFINITY;
        let merge = Merge {
            left: self.cluster_id[lo],
            right: self.cluster_id[hi],
            distance: d_ij,
            size: ni + nj,
        };
        self.active[lo] = false;
        self.live -= 1;
        self.size[hi] = ni + nj;
        self.cluster_id[hi] = self.n_leaves + self.merges_made;
        self.merges_made += 1;
        merge
    }

    /// The three stride-incremental Lance–Williams sections of [`merge`]:
    /// rewrite `(k, hi)` with `update(d_k_lo, d_k_hi, size[k])` and poison
    /// `(k, lo)`, for every `k` other than `lo`/`hi`.
    ///
    /// Condensed offsets: `index(k, x)` for `k < x` advances by
    /// `stride − k − 2` per step of `k` (strided); for `k > x` the entries
    /// are contiguous in row `x`.
    fn merge_loops(
        &mut self,
        lo: usize,
        hi: usize,
        update: impl Fn(f64, f64, usize) -> f64,
        mut on_update: impl FnMut(usize, f32),
    ) {
        let n = self.stride;
        // k < lo: both (k, lo) and (k, hi) strided with the same step
        let mut ilo = lo.wrapping_sub(1); // index(0, lo)
        let mut ihi = hi - 1; // index(0, hi)
        for k in 0..lo {
            let d = update(self.data[ilo] as f64, self.data[ihi] as f64, self.size[k]) as f32;
            self.data[ihi] = d;
            self.data[ilo] = f32::INFINITY;
            on_update(k, d);
            let stride = n - k - 2;
            ilo += stride;
            ihi += stride;
        }
        // lo < k < hi: (lo, k) contiguous in row lo, (k, hi) strided
        let row_lo = self.row_start(lo);
        let mut ihi = if lo + 1 < hi {
            self.index(lo + 1, hi)
        } else {
            0
        };
        for k in lo + 1..hi {
            let ilo = row_lo + k - lo - 1;
            let d = update(self.data[ilo] as f64, self.data[ihi] as f64, self.size[k]) as f32;
            self.data[ihi] = d;
            self.data[ilo] = f32::INFINITY;
            on_update(k, d);
            ihi += n - k - 2;
        }
        // k > hi: both (lo, k) and (hi, k) contiguous in their rows
        let row_hi = self.row_start(hi);
        for k in hi + 1..n {
            let ilo = row_lo + k - lo - 1;
            let ihi = row_hi + k - hi - 1;
            let d = update(self.data[ilo] as f64, self.data[ihi] as f64, self.size[k]) as f32;
            self.data[ihi] = d;
            self.data[ilo] = f32::INFINITY;
            on_update(k, d);
        }
    }
}

/// Branch-free minimum of a contiguous slice: explicit 8-lane reduction so
/// the compiler emits vector min instructions.
#[inline]
fn tail_min(slice: &[f32]) -> f32 {
    let mut lanes = [f32::INFINITY; 8];
    let mut chunks = slice.chunks_exact(8);
    for chunk in chunks.by_ref() {
        for l in 0..8 {
            lanes[l] = lanes[l].min(chunk[l]);
        }
    }
    let lane_min = lanes.iter().fold(f32::INFINITY, |m, &d| m.min(d));
    chunks.remainder().iter().fold(lane_min, |m, &d| m.min(d))
}
