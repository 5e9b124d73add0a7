//! Cross-algorithm equivalence suite: the NN-chain and cached-NN "generic"
//! agglomerative engines must produce the same flat clusterings, and both
//! must match the naive O(n³) greedy reference.
//!
//! Three layers, from exact to approximate:
//!
//! 1. **Generic ≡ naive greedy, bit for bit.** The generic engine is a
//!    cached/lazy implementation of exactly the greedy rule "merge the
//!    lexicographically smallest `(distance, i, j)` pair" — so against the
//!    naive reference (the constrained variant with no constraints) its
//!    entire merge sequence, heights included, must be *identical*, for
//!    every linkage including the non-reducible centroid/median pair.
//! 2. **Generic ≡ NN-chain up to merge order.** For reducible linkages the
//!    NN-chain visits the same merge *tree* but discovers merges along
//!    chains, interleaving subtree formation differently; heights are
//!    compared as sorted multisets (approximately — a different interleaving
//!    reorders the f32 roundings of the Lance–Williams updates) and `cut(k)`
//!    partitions must agree exactly, for every `k`, up to label permutation.
//! 3. **Dendrogram invariants** — merge count, monotone heights for
//!    reducible linkages, and shuffle-stability of assignments.
//!
//! Compacting ≡ plain builds, bit for bit, is pinned in the crate's own
//! tests (`agglomerative::tests`): the public entry point decides
//! compaction by size, so only the private driver can run both modes on
//! the same input.
//!
//! Tie handling: deliberately tied inputs (duplicate points, all-equal
//! distances, equidistant grids) are pinned by the deterministic tests at
//! the bottom. Random cases additionally guard against *near*-ties: when
//! two merge heights differ by less than the f32 noise floor of the
//! Lance–Williams pipeline, the ascending merge order itself is ambiguous
//! and partition comparison is skipped for that case (the height multiset
//! is still checked). Exact nonzero ties between unrelated random pairs
//! are likewise skipped — adversarial tie chains can make any two valid
//! tie-breaking rules pick genuinely different (equally correct) trees.

use dust_cluster::{
    agglomerative_constrained, agglomerative_with, clusters_from_assignment,
    AgglomerativeAlgorithm, Dendrogram, Linkage,
};
use dust_embed::{Distance, PairwiseMatrix, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REDUCIBLE: [Linkage; 4] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
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

/// Partition of point indices induced by an assignment, in canonical form
/// (label-permutation invariant).
fn signature(assignment: &[usize]) -> Vec<Vec<usize>> {
    let mut groups = clusters_from_assignment(assignment);
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

fn sorted_heights(dendro: &Dendrogram) -> Vec<f64> {
    let mut h: Vec<f64> = dendro.merges().iter().map(|m| m.distance).collect();
    h.sort_by(|a, b| a.total_cmp(b));
    h
}

/// Absolute-plus-relative tolerance for comparing merge heights computed
/// through differently-ordered f32 Lance–Williams updates.
fn height_tol(h: f64) -> f64 {
    1e-4 * (1.0 + h.abs())
}

/// True when some pair of adjacent sorted heights is too close to order
/// reliably: either within f32 noise of each other without being equal, or
/// exactly equal but nonzero (an accidental tie between unrelated pairs —
/// zero-height ties come from duplicate points and are merge-order safe).
fn ambiguous_merge_order(heights: &[f64]) -> bool {
    heights.windows(2).any(|w| {
        let (a, b) = (w[0], w[1]);
        (b - a < height_tol(b) && a != b) || (a == b && a != 0.0)
    })
}

/// Core cross-engine check; returns whether the cut comparison ran (i.e.
/// the case was unambiguous).
fn check_engines_agree(points: &[Vector], distance: Distance, linkage: Linkage) -> bool {
    let matrix = PairwiseMatrix::compute(points, distance);
    let chain = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::NnChain, 1);
    let generic = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 1);
    let n = points.len();
    assert_eq!(
        chain.merges().len(),
        n - 1,
        "{linkage:?}: chain merge count"
    );
    assert_eq!(
        generic.merges().len(),
        n - 1,
        "{linkage:?}: generic merge count"
    );
    let hc = sorted_heights(&chain);
    let hg = sorted_heights(&generic);
    for (a, b) in hc.iter().zip(&hg) {
        assert!(
            (a - b).abs() <= height_tol(*a),
            "{linkage:?}: height multisets differ: {a} vs {b}"
        );
    }
    if ambiguous_merge_order(&hc) || ambiguous_merge_order(&hg) {
        return false;
    }
    for k in 1..=n {
        assert_eq!(
            signature(&chain.cut(k)),
            signature(&generic.cut(k)),
            "{linkage:?}: cut({k}) diverged on {n} points"
        );
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Layer 2: generic ≡ NN-chain on random point sets (with occasional
    /// duplicated points) for every reducible linkage: identical cut(k)
    /// partitions for all k, and matching merge-height multisets.
    /// 256 cases × 4 linkages ≥ 1000 engine comparisons.
    #[test]
    fn generic_and_nn_chain_produce_identical_cuts(
        points in points_strategy(),
        distance in distance_strategy(),
        dup in prop::collection::vec(0usize..64, 0..6),
    ) {
        // splice in duplicate points (exact zero-distance ties)
        let mut points = points;
        for &d in &dup {
            let src = points[d % points.len()].clone();
            points.push(src);
        }
        for linkage in REDUCIBLE {
            check_engines_agree(&points, distance, linkage);
        }
    }

    /// Layer 1: the generic engine implements exactly the naive greedy
    /// merge rule — its merge sequence (pairs, heights, sizes) is bitwise
    /// identical to the O(n³) reference for *every* linkage, including the
    /// non-reducible centroid/median pair and under exact ties.
    #[test]
    fn generic_matches_naive_greedy_exactly(
        points in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 2), 2..24)
            .prop_map(|rows| rows.into_iter().map(Vector::new).collect::<Vec<_>>()),
        distance in distance_strategy(),
    ) {
        let matrix = PairwiseMatrix::compute(&points, distance);
        for linkage in Linkage::ALL {
            let naive = agglomerative_constrained(&points, distance, linkage, &[]);
            let generic = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 1);
            prop_assert_eq!(
                generic.merges(), naive.merges(),
                "{:?}: generic diverged from the greedy reference", linkage
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dendrogram invariants: n-1 merges; the generic (greedy) engine emits
    /// nondecreasing heights for reducible linkages (no inversions).
    #[test]
    fn reducible_linkages_have_monotone_merge_heights(
        points in points_strategy(),
        distance in distance_strategy(),
    ) {
        let matrix = PairwiseMatrix::compute(&points, distance);
        for linkage in REDUCIBLE {
            let dendro = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 1);
            prop_assert_eq!(dendro.merges().len(), points.len() - 1);
            for w in dendro.merges().windows(2) {
                prop_assert!(
                    w[1].distance >= w[0].distance - 1e-9 * (1.0 + w[0].distance.abs()),
                    "{:?}: inversion {} -> {}", linkage, w[0].distance, w[1].distance
                );
            }
        }
    }

    /// Shuffle-stability (PR 1's GMC pattern, extended to clustering): for
    /// tie-free inputs, permuting the points permutes the assignment and
    /// nothing else — on either engine.
    #[test]
    fn assignments_are_stable_under_input_shuffle(
        points in points_strategy(),
        distance in distance_strategy(),
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let matrix = PairwiseMatrix::compute(&points, distance);
        // tie-free guard: every pairwise f32 distance distinct
        let mut values: Vec<u32> = matrix.condensed_data().iter().map(|d| d.to_bits()).collect();
        values.sort_unstable();
        values.dedup();
        let tie_free = values.len() == matrix.condensed_data().len();
        let n = points.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Vector> = perm.iter().map(|&p| points[p].clone()).collect();
        let shuffled_matrix = PairwiseMatrix::compute(&shuffled, distance);
        for linkage in REDUCIBLE.into_iter().filter(|_| tie_free) {
            for algorithm in [AgglomerativeAlgorithm::NnChain, AgglomerativeAlgorithm::Generic] {
                let base = agglomerative_with(&matrix, linkage, algorithm, 1);
                if ambiguous_merge_order(&sorted_heights(&base)) {
                    continue;
                }
                let moved = agglomerative_with(&shuffled_matrix, linkage, algorithm, 1);
                let base_cut = base.cut(k);
                let moved_cut = moved.cut(k);
                // map the shuffled assignment back to original indices
                let mut mapped = vec![0usize; n];
                for (i, &p) in perm.iter().enumerate() {
                    mapped[p] = moved_cut[i];
                }
                prop_assert_eq!(
                    signature(&base_cut), signature(&mapped),
                    "{:?}/{:?}: cut({}) changed under shuffle", linkage, algorithm, k
                );
            }
        }
    }
}

/// The near-tie carve-out must stay a carve-out: on a fixed stream of
/// random cases the overwhelming majority must be unambiguous and get the
/// full cut-equivalence treatment.
#[test]
fn most_random_cases_are_unambiguous() {
    let mut rng = StdRng::seed_from_u64(0xD05);
    let mut full_checks = 0usize;
    const CASES: usize = 100;
    for _ in 0..CASES {
        let n = rng.gen_range(2..64);
        let points: Vec<Vector> = (0..n)
            .map(|_| Vector::new(vec![rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]))
            .collect();
        if check_engines_agree(&points, Distance::Euclidean, Linkage::Average) {
            full_checks += 1;
        }
    }
    assert!(
        full_checks * 10 >= CASES * 9,
        "only {full_checks}/{CASES} random cases ran the full cut comparison"
    );
}

// ---------------------------------------------------------------------------
// Deliberate ties: the deterministic lowest-index-wins contract makes both
// engines produce the same clusterings even when every choice is a tie.
// ---------------------------------------------------------------------------

fn assert_cuts_identical(points: &[Vector], distance: Distance, linkages: &[Linkage]) {
    let matrix = PairwiseMatrix::compute(points, distance);
    let n = points.len();
    for &linkage in linkages {
        let chain = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::NnChain, 1);
        let generic = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 1);
        for k in 1..=n {
            assert_eq!(
                signature(&chain.cut(k)),
                signature(&generic.cut(k)),
                "{linkage:?}: tied cut({k}) diverged on {n} points"
            );
        }
    }
}

#[test]
fn all_equal_distances_are_tie_broken_identically() {
    // scaled standard basis vectors: every pairwise Euclidean distance is
    // exactly s·√2, every cosine distance exactly 1 — all decisions are ties
    for n in 2..=12 {
        let points: Vec<Vector> = (0..n)
            .map(|i| {
                let mut row = vec![0.0f32; n];
                row[i] = 3.0;
                Vector::new(row)
            })
            .collect();
        assert_cuts_identical(&points, Distance::Euclidean, &REDUCIBLE);
        assert_cuts_identical(&points, Distance::Cosine, &REDUCIBLE);
    }
}

#[test]
fn identical_points_are_tie_broken_identically() {
    // n copies of one point: the whole matrix is zeros
    for n in 2..=10 {
        let points: Vec<Vector> = (0..n).map(|_| Vector::new(vec![1.5, -2.5])).collect();
        assert_cuts_identical(&points, Distance::Euclidean, &REDUCIBLE);
        let matrix = PairwiseMatrix::compute(&points, Distance::Euclidean);
        let dendro = agglomerative_with(
            &matrix,
            Linkage::Average,
            AgglomerativeAlgorithm::Generic,
            1,
        );
        assert!(dendro.merges().iter().all(|m| m.distance == 0.0));
    }
}

#[test]
fn duplicate_groups_are_tie_broken_identically() {
    // two duplicate groups plus singletons: zero-height ties inside groups,
    // exact cross ties between the copies and every outside point
    let mut points = Vec::new();
    for _ in 0..3 {
        points.push(Vector::new(vec![0.0, 0.0]));
    }
    for _ in 0..3 {
        points.push(Vector::new(vec![7.0, 1.0]));
    }
    points.push(Vector::new(vec![-4.0, 2.0]));
    points.push(Vector::new(vec![3.0, -6.0]));
    assert_cuts_identical(&points, Distance::Euclidean, &REDUCIBLE);
    assert_cuts_identical(&points, Distance::Manhattan, &REDUCIBLE);
}

#[test]
fn equidistant_grid_is_tie_broken_identically() {
    // collinear equidistant points: d(i, i+1) ties everywhere
    for n in [4usize, 7, 12] {
        let points: Vec<Vector> = (0..n).map(|i| Vector::new(vec![i as f32, 0.0])).collect();
        assert_cuts_identical(&points, Distance::Euclidean, &REDUCIBLE);
    }
}

#[test]
fn non_reducible_linkages_match_the_greedy_reference_on_ties() {
    // centroid/median only run on the generic engine; pin them to the naive
    // greedy reference under heavy ties
    let mut points: Vec<Vector> = (0..6)
        .map(|i| {
            let mut row = vec![0.0f32; 6];
            row[i] = 2.0;
            Vector::new(row)
        })
        .collect();
    points.push(points[0].clone());
    let matrix = PairwiseMatrix::compute(&points, Distance::Euclidean);
    for linkage in [Linkage::Centroid, Linkage::Median] {
        let naive = agglomerative_constrained(&points, Distance::Euclidean, linkage, &[]);
        let generic = agglomerative_with(&matrix, linkage, AgglomerativeAlgorithm::Generic, 1);
        assert_eq!(generic.merges(), naive.merges(), "{linkage:?}");
    }
}

// ---------------------------------------------------------------------------
// k-capped partial builds: a capped run is a bit-for-bit prefix of the full
// run, and every in-range cut is identical to the full dendrogram's —
// including under deliberate ties, where the strict-boundary stop rule
// keeps the engines merging rather than guessing.
// ---------------------------------------------------------------------------

/// Capped vs full for one engine: prefix property plus exact cut equality
/// for every `k >= capped.min_clusters()`.
fn check_capped_matches_full(
    points: &[Vector],
    distance: Distance,
    linkage: Linkage,
    algorithm: AgglomerativeAlgorithm,
    k_min: usize,
) {
    let matrix = PairwiseMatrix::compute(points, distance);
    let full = agglomerative_with(&matrix, linkage, algorithm, 1);
    let capped = agglomerative_with(&matrix, linkage, algorithm, k_min);
    let n = points.len();
    assert_eq!(
        capped.merges(),
        &full.merges()[..capped.merges().len()],
        "{linkage:?}/{algorithm:?}: capped run is not a prefix of the full run"
    );
    assert!(
        capped.min_clusters() <= k_min.max(1).min(n),
        "{linkage:?}/{algorithm:?}: min_clusters {} exceeds requested cap {k_min}",
        capped.min_clusters()
    );
    for k in capped.min_clusters()..=n {
        assert_eq!(
            capped.cut(k),
            full.cut(k),
            "{linkage:?}/{algorithm:?}: capped cut({k}) diverged (cap {k_min}, n {n})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capped == full on random point sets (with occasional duplicated
    /// points — exact zero-distance ties) for both engines and every
    /// reducible linkage, across random caps.
    #[test]
    fn capped_cuts_match_full_dendrogram_cuts(
        points in points_strategy(),
        distance in distance_strategy(),
        dup in prop::collection::vec(0usize..64, 0..4),
        k_min in 2usize..32,
    ) {
        let mut points = points;
        for &d in &dup {
            let src = points[d % points.len()].clone();
            points.push(src);
        }
        let k_min = k_min.min(points.len());
        for linkage in REDUCIBLE {
            for algorithm in [AgglomerativeAlgorithm::NnChain, AgglomerativeAlgorithm::Generic] {
                check_capped_matches_full(&points, distance, linkage, algorithm, k_min);
            }
        }
    }

}

#[test]
fn capped_tie_families_match_full() {
    // All-equal distances: every stop boundary is tied, so capped builds
    // degenerate to full builds — and must still agree cut for cut.
    for n in 2..=12 {
        let basis: Vec<Vector> = (0..n)
            .map(|i| {
                let mut row = vec![0.0f32; n];
                row[i] = 3.0;
                Vector::new(row)
            })
            .collect();
        for algorithm in [
            AgglomerativeAlgorithm::NnChain,
            AgglomerativeAlgorithm::Generic,
        ] {
            for linkage in REDUCIBLE {
                for k_min in [2usize, 3, n.div_ceil(2), n] {
                    check_capped_matches_full(
                        &basis,
                        Distance::Euclidean,
                        linkage,
                        algorithm,
                        k_min,
                    );
                }
            }
        }
    }
    // Duplicate groups and an equidistant grid: zero-height and exact
    // nonzero cross ties at the cap boundary.
    let mut dups = Vec::new();
    for _ in 0..3 {
        dups.push(Vector::new(vec![0.0, 0.0]));
    }
    for _ in 0..3 {
        dups.push(Vector::new(vec![7.0, 1.0]));
    }
    dups.push(Vector::new(vec![-4.0, 2.0]));
    dups.push(Vector::new(vec![3.0, -6.0]));
    let grid: Vec<Vector> = (0..12).map(|i| Vector::new(vec![i as f32, 0.0])).collect();
    for points in [&dups, &grid] {
        for algorithm in [
            AgglomerativeAlgorithm::NnChain,
            AgglomerativeAlgorithm::Generic,
        ] {
            for linkage in REDUCIBLE {
                for k_min in [2usize, 4, 6] {
                    check_capped_matches_full(
                        points,
                        Distance::Euclidean,
                        linkage,
                        algorithm,
                        k_min,
                    );
                }
            }
        }
    }
}
