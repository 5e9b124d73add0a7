//! The constrained clustering's conflict matrix against the member-list
//! scan it replaced.
//!
//! [`NaiveConstrained`] keeps the member list of every cluster slot and, for
//! every candidate pair of every round, scans the whole cannot-link list for
//! a constraint with one end in each cluster — the definition of
//! admissibility. Everything else is the same greedy loop: the closest
//! admissible pair under the lexicographic `(distance, i, j)` tie-break, the
//! workspace's Lance–Williams arithmetic (`f64` over `f32` working
//! distances, stored back as `f32`), keep-the-higher-slot merges, and the
//! capped-stop rule. The library's O(1) conflict lookup must reproduce its
//! merges — pair, size and `distance.to_bits()` — and `min_clusters()`
//! exactly, for every linkage and every cap.

use dust_cluster::{agglomerative_constrained_from_matrix, Linkage};
use dust_embed::{Distance, PairwiseMatrix, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One merge as compared: `(left, right, size, distance bits)`.
type MergeKey = (usize, usize, usize, u64);

/// The member-list reference implementation of
/// `agglomerative_constrained_from_matrix`.
struct NaiveConstrained {
    n: usize,
    /// Dense `n × n` working distances (`f32`, like the workspace).
    d: Vec<f32>,
    active: Vec<bool>,
    size: Vec<usize>,
    cluster_id: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl NaiveConstrained {
    fn run(
        matrix: &PairwiseMatrix,
        linkage: Linkage,
        cannot_link: &[(usize, usize)],
        min_clusters: usize,
    ) -> (Vec<MergeKey>, usize) {
        let n = matrix.len();
        if n < 2 {
            return (Vec::new(), 1);
        }
        let cap = if linkage.is_reducible() {
            min_clusters.clamp(1, n)
        } else {
            1
        };
        let mut d = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d[i * n + j] = matrix.get(i, j) as f32;
                }
            }
        }
        let mut state = NaiveConstrained {
            n,
            d,
            active: vec![true; n],
            size: vec![1; n],
            cluster_id: (0..n).collect(),
            members: (0..n).map(|i| vec![i]).collect(),
        };
        let conflicts = |a: &[usize], b: &[usize]| -> bool {
            cannot_link.iter().any(|&(x, y)| {
                (a.contains(&x) && b.contains(&y)) || (a.contains(&y) && b.contains(&x))
            })
        };
        let mut merges = Vec::new();
        let mut max_height = f64::NEG_INFINITY;
        loop {
            let mut best: Option<(usize, usize, f32)> = None;
            let active: Vec<usize> = (0..n).filter(|&i| state.active[i]).collect();
            for (ai, &i) in active.iter().enumerate() {
                for &j in active.iter().skip(ai + 1) {
                    if conflicts(&state.members[i], &state.members[j]) {
                        continue;
                    }
                    let dij = state.d[i * n + j];
                    if best.map(|(_, _, bd)| dij < bd).unwrap_or(true) {
                        best = Some((i, j, dij));
                    }
                }
            }
            let Some((i, j, dij)) = best else {
                return (merges, 1);
            };
            if cap > 1 && merges.len() + cap >= n && dij as f64 > max_height {
                let min_clusters = n - merges.len();
                return (merges, min_clusters);
            }
            let merge = state.merge(i, j, linkage, merges.len());
            max_height = max_height.max(f64::from_bits(merge.3));
            merges.push(merge);
        }
    }

    /// Merge slot `lo` into slot `hi` (`lo < hi`) with the workspace's
    /// Lance–Williams arithmetic.
    fn merge(&mut self, lo: usize, hi: usize, linkage: Linkage, merges_made: usize) -> MergeKey {
        let n = self.n;
        let d_ij = self.d[lo * n + hi] as f64;
        let (fi, fj) = (self.size[lo] as f64, self.size[hi] as f64);
        for k in 0..n {
            if k == lo || k == hi || !self.active[k] {
                continue;
            }
            let (ki, kj, fk) = (
                self.d[k * n + lo] as f64,
                self.d[k * n + hi] as f64,
                self.size[k] as f64,
            );
            let updated = match linkage {
                Linkage::Single => ki.min(kj),
                Linkage::Complete => ki.max(kj),
                Linkage::Average => (fi * ki + fj * kj) * (1.0 / (fi + fj)),
                Linkage::Ward => {
                    let num = (fi + fk) * ki * ki + (fj + fk) * kj * kj - fk * d_ij * d_ij;
                    (num / (fi + fj + fk)).max(0.0).sqrt()
                }
                Linkage::Centroid => {
                    let s = fi + fj;
                    let sq = (fi * ki * ki + fj * kj * kj) / s - fi * fj * d_ij * d_ij / (s * s);
                    sq.max(0.0).sqrt()
                }
                Linkage::Median => {
                    let sq = 0.5 * ki * ki + 0.5 * kj * kj - 0.25 * d_ij * d_ij;
                    sq.max(0.0).sqrt()
                }
            } as f32;
            self.d[k * n + hi] = updated;
            self.d[hi * n + k] = updated;
        }
        let key = (
            self.cluster_id[lo],
            self.cluster_id[hi],
            self.size[lo] + self.size[hi],
            d_ij.to_bits(),
        );
        self.active[lo] = false;
        self.size[hi] += self.size[lo];
        self.cluster_id[hi] = n + merges_made;
        let moved = std::mem::take(&mut self.members[lo]);
        self.members[hi].extend(moved);
        key
    }
}

/// A random matrix over `n` leaves: a small integer grid with repeated
/// points (zero distances and exact ties), integer-valued pair distances
/// (ties without geometry), or continuous random distances.
fn random_matrix(rng: &mut StdRng, n: usize) -> PairwiseMatrix {
    match rng.gen_range(0..3) {
        0 => {
            let points: Vec<Vector> = (0..n)
                .map(|_| Vector::new(vec![rng.gen_range(0..3) as f32, rng.gen_range(0..2) as f32]))
                .collect();
            let distance =
                [Distance::Euclidean, Distance::Manhattan, Distance::Cosine][rng.gen_range(0..3)];
            PairwiseMatrix::compute(&points, distance)
        }
        1 => {
            let values: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0..4) as f64).collect();
            PairwiseMatrix::from_fn(n, |i, j| values[i * n + j])
        }
        _ => {
            let values: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..10.0)).collect();
            PairwiseMatrix::from_fn(n, |i, j| values[i * n + j])
        }
    }
}

/// Same-owner cliques — every pair of leaves sharing an owner, the shape
/// holistic alignment builds (no two columns of one table together).
fn owner_cliques(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let owners: Vec<usize> = (0..n)
        .map(|_| rng.gen_range(0..n.div_ceil(2).max(1)))
        .collect();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if owners[i] == owners[j] {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Random constraints: cliques, arbitrary pairs in either orientation,
/// duplicated pairs, `(x, x)` self-pairs and indices past the last leaf —
/// mixed per case.
fn random_constraints(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut pairs = if rng.gen_range(0..2) == 0 {
        owner_cliques(rng, n)
    } else {
        Vec::new()
    };
    let arbitrary = rng.gen_range(0..2 * n + 1);
    for _ in 0..arbitrary {
        pairs.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    if rng.gen_range(0..2) == 0 && !pairs.is_empty() {
        let dup = pairs[rng.gen_range(0..pairs.len())];
        pairs.push(dup);
        pairs.push((dup.1, dup.0));
    }
    if rng.gen_range(0..2) == 0 {
        let x = rng.gen_range(0..n);
        pairs.push((x, x));
    }
    if rng.gen_range(0..2) == 0 {
        pairs.push((rng.gen_range(0..n), n + rng.gen_range(0..3)));
        pairs.push((n + rng.gen_range(0..3), rng.gen_range(0..n)));
    }
    pairs
}

fn library(
    matrix: &PairwiseMatrix,
    linkage: Linkage,
    cannot_link: &[(usize, usize)],
    cap: usize,
) -> (Vec<MergeKey>, usize) {
    let dendrogram = agglomerative_constrained_from_matrix(matrix, linkage, cannot_link, cap);
    let merges = dendrogram
        .merges()
        .iter()
        .map(|m| (m.left, m.right, m.size, m.distance.to_bits()))
        .collect();
    (merges, dendrogram.min_clusters())
}

fn check_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..15);
    let matrix = random_matrix(&mut rng, n);
    let cannot_link = random_constraints(&mut rng, n.max(1));
    for linkage in Linkage::ALL {
        for cap in 1..=n.max(1) {
            assert_eq!(
                library(&matrix, linkage, &cannot_link, cap),
                NaiveConstrained::run(&matrix, linkage, &cannot_link, cap),
                "seed {seed}: n = {n}, {linkage:?}, cap {cap}, cannot_link {cannot_link:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn conflict_matrix_matches_the_member_list_scan(seed in 0u64..u64::MAX) {
        check_case(seed);
    }
}

/// The alignment shape at its real size: ~36 columns from ~9 tables, every
/// same-table pair constrained, on Euclidean distances between random unit
/// vectors — with the cap the aligner passes (its widest table).
#[test]
fn conflict_matrix_matches_the_member_list_scan_on_the_alignment_shape() {
    let mut rng = StdRng::seed_from_u64(36);
    for _ in 0..4 {
        let widths: Vec<usize> = (0..9).map(|_| rng.gen_range(2..7)).collect();
        let mut owners = Vec::new();
        for (t, &w) in widths.iter().enumerate() {
            owners.extend(std::iter::repeat_n(t, w));
        }
        let n = owners.len();
        let points: Vec<Vector> = (0..n)
            .map(|_| {
                let mut v = Vector::new((0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
                v.normalize();
                v
            })
            .collect();
        let matrix = PairwiseMatrix::compute(&points, Distance::Euclidean);
        let mut cannot_link = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if owners[i] == owners[j] {
                    cannot_link.push((i, j));
                }
            }
        }
        let widest = *widths.iter().max().unwrap();
        for cap in [1, widest] {
            assert_eq!(
                library(&matrix, Linkage::Average, &cannot_link, cap),
                NaiveConstrained::run(&matrix, Linkage::Average, &cannot_link, cap),
                "n = {n}, cap {cap}"
            );
        }
    }
}
