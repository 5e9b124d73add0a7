//! Contiguous embedding storage with cached norms — the shared substrate of
//! every distance computation in the workspace.
//!
//! [`EmbeddingStore`] packs a set of equal-dimension vectors into one
//! row-major `f32` buffer and caches each row's L2 norm at construction.
//! The cosine hot path then needs **no per-call norm work**: a distance is
//! one dot product and two multiplies by cached inverse norms.
//!
//! ## One kernel: the register tile
//!
//! Every distance in the workspace is accumulated by one loop
//! (`accumulate`; the metrics — cosine's dot product, squared Euclidean,
//! Manhattan — differ only in the step they fold with), const-generic over
//! a tile of `R` left rows × `C` right rows. A tile loads each chunk of its
//! `R + C` rows once and feeds all `R · C` pairs from it, where a per-pair
//! loop reloads both rows for every pair. Each pair keeps its own unrolled
//! lanes (which the compiler vectorizes), its own tail sum and its own
//! reduction tree, in the same order whatever `R` and `C` are, so a
//! distance is the same bits whether it was computed alone
//! ([`EmbeddingStore::distance`], the `1 × 1` tile), as one of many
//! ([`EmbeddingStore::cross_distances`]) or inside a
//! [`crate::PairwiseMatrix`] build — results never depend on which path
//! or which tile produced them (property-tested bit for bit). The lanes
//! reorder the floating-point sums relative to the reference
//! [`Distance::between`] path; results stay within 1e-6 of it
//! (property-tested), zero-vector convention included.
//!
//! A store is immutable once built: a resident lake keeps one store per
//! table and replaces the whole store (an `Arc`) when the table changes.

use crate::distance::Distance;
use crate::vector::Vector;
use std::array;
use std::ops::Range;

/// A set of equal-dimension vectors in one contiguous row-major buffer,
/// with per-row L2 norms cached at construction.
#[derive(Debug, Clone, Default)]
pub struct EmbeddingStore {
    n: usize,
    dim: usize,
    data: Vec<f32>,
    norms: Vec<f32>,
    /// `1 / norm` per row in `f64` (0.0 encodes a zero/sub-threshold norm,
    /// which makes the cosine kernel's zero-vector convention branch-free).
    inv_norms: Vec<f64>,
}

impl EmbeddingStore {
    /// Pack `vectors` into a store. Panics if dimensions disagree.
    pub fn from_vectors(vectors: &[Vector]) -> Self {
        let n = vectors.len();
        let dim = vectors.first().map(Vector::dim).unwrap_or(0);
        let mut data = Vec::with_capacity(n * dim);
        let mut norms = Vec::with_capacity(n);
        let mut inv_norms = Vec::with_capacity(n);
        for v in vectors {
            assert_eq!(v.dim(), dim, "dimension mismatch in embedding store");
            data.extend_from_slice(v.as_slice());
            // Same accumulation as `Vector::norm` so cached values match
            // what the reference path computes per call.
            let norm = v.as_slice().iter().map(|c| c * c).sum::<f32>().sqrt();
            norms.push(norm);
            inv_norms.push(inverse_norm(norm));
        }
        EmbeddingStore {
            n,
            dim,
            data,
            norms,
            inv_norms,
        }
    }

    /// Reassemble a store from the raw parts [`Self::raw_parts`] captured
    /// verbatim (row-major `data`, per-row `norms` and `inv_norms` — e.g.
    /// by a snapshot writer). Because the cached norms round-trip as-is
    /// instead of being recomputed, every distance computed through the
    /// restored store is bit-identical to the original. Panics if the
    /// buffer lengths disagree.
    pub fn from_raw_parts(
        dim: usize,
        data: Vec<f32>,
        norms: Vec<f32>,
        inv_norms: Vec<f64>,
    ) -> Self {
        let n = norms.len();
        assert_eq!(inv_norms.len(), n, "norm buffers disagree on row count");
        assert_eq!(data.len(), n * dim, "data buffer is not n × dim");
        EmbeddingStore {
            n,
            dim,
            data,
            norms,
            inv_norms,
        }
    }

    /// The store's buffers as [`Self::from_raw_parts`] takes them:
    /// row-major data, per-row norms and per-row inverse norms.
    pub fn raw_parts(&self) -> (&[f32], &[f32], &[f64]) {
        (&self.data, &self.norms, &self.inv_norms)
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the store holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the stored vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Distance between rows `i` and `j` under `metric`, using the cached
    /// (inverse) norms — no per-call norm work. Within 1e-6 of
    /// [`Distance::between`] on the same vectors.
    pub fn distance(&self, metric: Distance, i: usize, j: usize) -> f64 {
        tile(metric, self, [i], self, [j])[0][0]
    }

    /// Distance between row `i` of `self` and row `j` of `other`.
    pub fn cross_distance(
        &self,
        metric: Distance,
        i: usize,
        other: &EmbeddingStore,
        j: usize,
    ) -> f64 {
        tile(metric, self, [i], other, [j])[0][0]
    }

    /// Distances from many rows of `self` to **every** row of `other`:
    /// `visit(i, d)` runs once per `i` in `rows`, in order, with
    /// `d[j] == self.cross_distance(metric, i, other, j)` bit for bit. Rows
    /// are taken [`TILE_ROWS`] at a time so each is loaded once per
    /// [`TILE_COLS`] rows of `other` instead of once per pair. To measure
    /// against loose vectors (probes, a mean, centroids), pack them into a
    /// store once and pass it as `other`: their norms are then computed
    /// once, not once per pair.
    pub fn cross_distances(
        &self,
        metric: Distance,
        rows: impl IntoIterator<Item = usize>,
        other: &EmbeddingStore,
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        let width = other.len();
        let mut rows = rows.into_iter();
        let mut out = vec![0.0f64; TILE_ROWS * width];
        loop {
            let mut block = [0usize; TILE_ROWS];
            let mut taken = 0;
            for (slot, i) in block.iter_mut().zip(rows.by_ref()) {
                *slot = i;
                taken += 1;
            }
            if taken == TILE_ROWS {
                self.block(
                    metric,
                    block,
                    other,
                    0..width,
                    |j| j,
                    |r, j, d| out[r * width + j] = d,
                );
            } else {
                for (r, &i) in block[..taken].iter().enumerate() {
                    self.block(
                        metric,
                        [i],
                        other,
                        0..width,
                        |j| j,
                        |_, j, d| out[r * width + j] = d,
                    );
                }
            }
            for (r, &i) in block[..taken].iter().enumerate() {
                visit(i, &out[r * width..(r + 1) * width]);
            }
            if taken < TILE_ROWS {
                return;
            }
        }
    }

    /// `emit(r, j, d)` for each of the `R` given rows of `self` and each
    /// `j` in `cols`, where `d` is the distance from row `rows[r]` to row
    /// `col_at(j)` of `other`: full [`TILE_COLS`]-wide tiles, then single
    /// columns. The one driver behind [`Self::cross_distances`] and the
    /// [`crate::PairwiseMatrix`] build.
    pub(crate) fn block<const R: usize>(
        &self,
        metric: Distance,
        rows: [usize; R],
        other: &EmbeddingStore,
        cols: Range<usize>,
        col_at: impl Fn(usize) -> usize,
        mut emit: impl FnMut(usize, usize, f64),
    ) {
        let mut j = cols.start;
        while j + TILE_COLS <= cols.end {
            let at: [usize; TILE_COLS] = array::from_fn(|c| col_at(j + c));
            let d = tile(metric, self, rows, other, at);
            for (r, row) in d.iter().enumerate() {
                for (c, &d) in row.iter().enumerate() {
                    emit(r, j + c, d);
                }
            }
            j += TILE_COLS;
        }
        for j in j..cols.end {
            let d = tile(metric, self, rows, other, [col_at(j)]);
            for (r, row) in d.iter().enumerate() {
                emit(r, j, row[0]);
            }
        }
    }

    /// Maximum cosine similarity between any row and `v` (the re-ranking
    /// kernel of tuple search). `f64::NEG_INFINITY` for an empty store.
    pub fn max_cosine_similarity(&self, v: &Vector) -> f64 {
        let inv_nv = inverse_norm(v.norm());
        (0..self.n)
            .map(|i| {
                let dot = dot_tile(self.dim, [self.row(i)], [v.as_slice()])[0][0];
                cosine_similarity(dot, self.inv_norms[i], inv_nv)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Shape of the register tile the batch paths use: [`TILE_ROWS`] left rows
/// × [`TILE_COLS`] right rows per accumulation pass. Any shape gives the
/// same bits (see the module docs), so this is purely a speed choice; the
/// sweep behind it is recorded in `crates/bench/benches/distance_kernels.rs`.
pub(crate) const TILE_ROWS: usize = 2;
/// See [`TILE_ROWS`].
pub(crate) const TILE_COLS: usize = 2;

/// The accumulation loop — the only one in the workspace. For each of the
/// `R × C` pairs of an `a` row with a `b` row (all `dim` components long)
/// it folds the whole `L`-component chunks of the two rows, in order, into
/// `L` lanes of the pair's own: `lane[l] = step(lane[l], x[l], y[l])`.
/// Each row chunk is loaded once and serves every pair it is part of; the
/// lanes are independent, so the compiler vectorizes them (the reference
/// path's strictly sequential sum cannot be). The `dim % L` trailing
/// components and the reduction of the lanes are the caller's.
///
/// Never inlined: the optimizer then sees this loop alone, whatever the
/// caller does with the lanes afterwards. (Inlined, the shape of the
/// caller's reduction tree decides how the vectorizer groups the lanes
/// *inside* the loop, and a shuffle per load makes it 2–4× slower.) One
/// call per `R · C` pairs costs nothing next to the loop.
#[inline(never)]
fn accumulate<T: Copy + Default, const L: usize, const R: usize, const C: usize>(
    dim: usize,
    a: [&[f32]; R],
    b: [&[f32]; C],
    step: impl Fn(T, f32, f32) -> T,
) -> [[[T; L]; C]; R] {
    // Every row cut to the same explicit chunk count: no bounds check in
    // the loop.
    let chunks = dim / L;
    let a = a.map(|row| &row[..dim].as_chunks::<L>().0[..chunks]);
    let b = b.map(|row| &row[..dim].as_chunks::<L>().0[..chunks]);
    let mut lanes = [[[T::default(); L]; C]; R];
    for k in 0..chunks {
        let ca: [[f32; L]; R] = array::from_fn(|r| a[r][k]);
        let cb: [[f32; L]; C] = array::from_fn(|c| b[c][k]);
        for r in 0..R {
            for c in 0..C {
                for l in 0..L {
                    lanes[r][c][l] = step(lanes[r][c][l], ca[r][l], cb[c][l]);
                }
            }
        }
    }
    lanes
}

/// What [`accumulate`] leaves of two rows: their last `dim % L` components,
/// paired up.
#[inline]
fn tails<'a, const L: usize>(
    dim: usize,
    x: &'a [f32],
    y: &'a [f32],
) -> impl Iterator<Item = (&'a f32, &'a f32)> {
    let done = dim - dim % L;
    x[done..dim].iter().zip(&y[done..dim])
}

/// `R × C` dot products: eight `f32` lanes per pair.
#[inline]
fn dot_tile<const R: usize, const C: usize>(
    dim: usize,
    a: [&[f32]; R],
    b: [&[f32]; C],
) -> [[f32; C]; R] {
    let lanes = accumulate::<f32, 8, R, C>(dim, a, b, |sum, x, y| sum + x * y);
    array::from_fn(|r| {
        array::from_fn(|c| {
            let lanes = lanes[r][c];
            let tail: f32 = tails::<8>(dim, a[r], b[c]).map(|(x, y)| x * y).sum();
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
                + tail
        })
    })
}

/// `R × C` squared-Euclidean accumulations: four `f64` lanes per pair.
#[inline]
fn squared_diff_tile<const R: usize, const C: usize>(
    dim: usize,
    a: [&[f32]; R],
    b: [&[f32]; C],
) -> [[f64; C]; R] {
    let lanes = accumulate::<f64, 4, R, C>(dim, a, b, |sum, x, y| {
        let d = (x - y) as f64;
        sum + d * d
    });
    array::from_fn(|r| {
        array::from_fn(|c| {
            let lanes = lanes[r][c];
            let tail: f64 = tails::<4>(dim, a[r], b[c])
                .map(|(x, y)| ((x - y) as f64).powi(2))
                .sum();
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
        })
    })
}

/// `R × C` absolute-difference accumulations: four `f64` lanes per pair.
#[inline]
fn abs_diff_tile<const R: usize, const C: usize>(
    dim: usize,
    a: [&[f32]; R],
    b: [&[f32]; C],
) -> [[f64; C]; R] {
    let lanes = accumulate::<f64, 4, R, C>(dim, a, b, |sum, x, y| sum + ((x - y) as f64).abs());
    array::from_fn(|r| {
        array::from_fn(|c| {
            let lanes = lanes[r][c];
            let tail: f64 = tails::<4>(dim, a[r], b[c])
                .map(|(x, y)| ((x - y) as f64).abs())
                .sum();
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
        })
    })
}

/// `1 / norm`, with the reference path's `< 1e-12` zero-norm convention
/// encoded as 0.0 (so `dot · inv_a · inv_b` is 0 — similarity 0 — without
/// a branch in the kernel).
#[inline]
pub(crate) fn inverse_norm(norm: f32) -> f64 {
    let norm = norm as f64;
    if norm < 1e-12 {
        0.0
    } else {
        1.0 / norm
    }
}

#[inline]
fn cosine_similarity(dot: f32, inv_na: f64, inv_nb: f64) -> f64 {
    (dot as f64 * (inv_na * inv_nb)).clamp(-1.0, 1.0)
}

/// The shared distance kernel: distances between rows `rows` of `a` and
/// rows `cols` of `b`, one accumulation pass over all `R + C` rows (the
/// cosine path is a dot product and two multiplies by cached inverse
/// norms — zero per-call norm work and no division). Within 1e-6 of the
/// reference [`Distance::between`] path, and the same bits for a pair
/// whatever tile it is computed in (see the module docs).
#[inline]
fn tile<const R: usize, const C: usize>(
    metric: Distance,
    a: &EmbeddingStore,
    rows: [usize; R],
    b: &EmbeddingStore,
    cols: [usize; C],
) -> [[f64; C]; R] {
    assert_eq!(a.dim, b.dim, "dimension mismatch in distance");
    let (left, right) = (rows.map(|i| a.row(i)), cols.map(|j| b.row(j)));
    match metric {
        Distance::Cosine => {
            let dots = dot_tile(a.dim, left, right);
            array::from_fn(|r| {
                array::from_fn(|c| {
                    let (inv_na, inv_nb) = (a.inv_norms[rows[r]], b.inv_norms[cols[c]]);
                    1.0 - cosine_similarity(dots[r][c], inv_na, inv_nb)
                })
            })
        }
        Distance::Euclidean => squared_diff_tile(a.dim, left, right).map(|row| row.map(f64::sqrt)),
        Distance::Manhattan => abs_diff_tile(a.dim, left, right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors() -> Vec<Vector> {
        vec![
            Vector::new(vec![1.0, 2.0, 2.0]),
            Vector::new(vec![-3.0, 0.5, 0.25]),
            Vector::new(vec![0.0, 0.0, 0.0]),
            Vector::new(vec![4.0, -4.0, 1.0]),
        ]
    }

    #[test]
    fn rows_and_norms_match_the_vectors() {
        let vs = vectors();
        let store = EmbeddingStore::from_vectors(&vs);
        assert_eq!(store.len(), 4);
        assert_eq!(store.dim(), 3);
        assert!(!store.is_empty());
        let (_, norms, _) = store.raw_parts();
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(store.row(i), v.as_slice());
            assert_eq!(norms[i], v.norm());
        }
    }

    #[test]
    fn cached_distance_matches_the_reference_path() {
        let vs = vectors();
        let store = EmbeddingStore::from_vectors(&vs);
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            for i in 0..vs.len() {
                for j in 0..vs.len() {
                    let cached = store.distance(metric, i, j);
                    let reference = metric.between(&vs[i], &vs[j]);
                    assert!(
                        (cached - reference).abs() <= 1e-6,
                        "{metric:?} {i},{j}: {cached} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_store_and_external_vector_distances_agree() {
        let vs = vectors();
        let (left, right) = vs.split_at(2);
        let ls = EmbeddingStore::from_vectors(left);
        let rs = EmbeddingStore::from_vectors(right);
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            for (i, lv) in left.iter().enumerate() {
                for (j, rv) in right.iter().enumerate() {
                    let reference = metric.between(lv, rv);
                    let cross = ls.cross_distance(metric, i, &rs, j);
                    // A loose vector packed into a store of its own gets
                    // the norm `Vector::norm` computes, so every entry
                    // point computes the identical value; all are within
                    // 1e-6 of the reference path.
                    let packed = EmbeddingStore::from_vectors(std::slice::from_ref(rv));
                    assert_eq!(
                        cross.to_bits(),
                        ls.cross_distance(metric, i, &packed, 0).to_bits()
                    );
                    assert!((cross - reference).abs() <= 1e-6, "{metric:?} {i},{j}");
                }
            }
        }
    }

    #[test]
    fn cross_distances_visit_the_given_rows_in_order() {
        // 11 rows × 6 columns: two full row blocks plus a remainder, one
        // full column tile plus a remainder.
        let vs: Vec<Vector> = (0..11)
            .map(|i| Vector::new((0..9).map(|c| ((i * 9 + c) as f32 * 0.37).sin()).collect()))
            .collect();
        let left = EmbeddingStore::from_vectors(&vs);
        let right = EmbeddingStore::from_vectors(&vs[3..9]);
        let rows = [7usize, 0, 3, 3, 10, 1, 9, 2, 8, 4, 6];
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            let mut visited = Vec::new();
            left.cross_distances(metric, rows, &right, |i, d| {
                assert_eq!(d.len(), right.len());
                for (j, d) in d.iter().enumerate() {
                    let single = left.cross_distance(metric, i, &right, j);
                    assert_eq!(d.to_bits(), single.to_bits(), "{metric:?} {i},{j}");
                }
                visited.push(i);
            });
            assert_eq!(visited, rows);
        }
        // nothing to measure against: every row is still visited
        let mut visited = 0;
        left.cross_distances(
            Distance::Cosine,
            0..vs.len(),
            &EmbeddingStore::default(),
            |_, d| {
                assert!(d.is_empty());
                visited += 1;
            },
        );
        assert_eq!(visited, vs.len());
    }

    #[test]
    fn max_cosine_similarity_matches_a_scan() {
        let vs = vectors();
        let store = EmbeddingStore::from_vectors(&vs);
        let probe = Vector::new(vec![1.0, 1.0, 0.0]);
        let expected = vs
            .iter()
            .map(|v| crate::distance::cosine_similarity(v, &probe))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((store.max_cosine_similarity(&probe) - expected).abs() <= 1e-6);
        assert_eq!(
            EmbeddingStore::from_vectors(&[]).max_cosine_similarity(&probe),
            f64::NEG_INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mixed_dimensions_panic() {
        let _ =
            EmbeddingStore::from_vectors(&[Vector::new(vec![1.0]), Vector::new(vec![1.0, 2.0])]);
    }

    #[test]
    fn empty_store() {
        let store = EmbeddingStore::from_vectors(&[]);
        assert!(store.is_empty());
        assert_eq!(store.dim(), 0);
    }

    #[test]
    fn raw_parts_round_trip_bit_for_bit() {
        let built = EmbeddingStore::from_vectors(&vectors());
        let (data, norms, inv_norms) = built.raw_parts();
        let restored = EmbeddingStore::from_raw_parts(
            built.dim(),
            data.to_vec(),
            norms.to_vec(),
            inv_norms.to_vec(),
        );
        assert_eq!(restored.len(), built.len());
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            for i in 0..built.len() {
                for j in 0..built.len() {
                    assert_eq!(
                        restored.distance(metric, i, j).to_bits(),
                        built.distance(metric, i, j).to_bits()
                    );
                }
            }
        }
    }
}
