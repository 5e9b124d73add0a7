//! Determinism and cache-equivalence tests for the diversifiers.
//!
//! * GMC's selection must not depend on the order candidates are presented
//!   in (the historical tie-break bug compared against a stale position
//!   slot and let the best score drift downward inside the tie band).
//! * Every diversifier must return the same selection whether distances are
//!   served lazily from the store kernel or from a pre-forced pairwise
//!   matrix — the caches are transparent.
//! * The same holds for the query side: the distances DUST asks for medoid
//!   by medoid are the bits the per-candidate query columns hold, so its
//!   selection cannot depend on whether anything built those columns first.

use dust_diversify::{
    CltDiversifier, DiversificationInput, Diversifier, DustConfig, DustDiversifier, GmcDiversifier,
    GneDiversifier, MaxMinDiversifier, SwapDiversifier,
};
use dust_embed::{Distance, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Clustered random embeddings with distinct pairwise distances.
fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    (0..n)
        .map(|_| {
            let c = &centroids[rng.gen_range(0..centroids.len())];
            Vector::new(c.iter().map(|x| x + rng.gen_range(-0.4f32..0.4)).collect())
        })
        .collect()
}

/// A deterministic permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

#[test]
fn gmc_selection_is_stable_under_input_shuffling() {
    let query = embeddings(10, 16, 1);
    let candidates = embeddings(120, 16, 2);
    let k = 12;
    let gmc = GmcDiversifier::new();

    let base_input = DiversificationInput::new(&query, &candidates, Distance::Cosine);
    let base: Vec<usize> = gmc.select(&base_input, k);
    assert_eq!(base.len(), k);

    for shuffle_seed in 0..10u64 {
        // perm[p] = original index now sitting at position p
        let perm = permutation(candidates.len(), 0xC0FFEE ^ shuffle_seed);
        let shuffled: Vec<Vector> = perm.iter().map(|&i| candidates[i].clone()).collect();
        let input = DiversificationInput::new(&query, &shuffled, Distance::Cosine);
        let selection: Vec<usize> = gmc.select(&input, k).into_iter().map(|p| perm[p]).collect();
        assert_eq!(
            selection, base,
            "GMC selection changed under shuffle seed {shuffle_seed}"
        );
    }
}

#[test]
fn gmc_breaks_exact_ties_toward_the_smallest_index() {
    // Four identical candidates: every score is exactly tied in every
    // round, so the selection must be the canonical smallest-index prefix.
    let query = vec![Vector::new(vec![0.0, 0.0])];
    let candidates = vec![Vector::new(vec![1.0, 1.0]); 4];
    let input = DiversificationInput::new(&query, &candidates, Distance::Euclidean);
    assert_eq!(GmcDiversifier::new().select(&input, 2), vec![0, 1]);
}

#[test]
fn all_diversifiers_are_unchanged_by_forcing_the_pairwise_cache() {
    let query = embeddings(8, 12, 7);
    let candidates = embeddings(150, 12, 8);
    let k = 10;
    let algorithms: Vec<Box<dyn Diversifier>> = vec![
        Box::new(DustDiversifier::new()),
        Box::new(GmcDiversifier::new()),
        Box::new(GneDiversifier::new()),
        Box::new(CltDiversifier::new()),
        Box::new(MaxMinDiversifier::new()),
        Box::new(SwapDiversifier::new()),
    ];
    for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
        let lazy_input = DiversificationInput::new(&query, &candidates, metric);
        let forced_input = DiversificationInput::new(&query, &candidates, metric);
        let _ = forced_input.pairwise();
        for algorithm in &algorithms {
            assert_eq!(
                algorithm.select(&lazy_input, k),
                algorithm.select(&forced_input, k),
                "{} changed its selection when the matrix was pre-built ({metric:?})",
                algorithm.name()
            );
        }
    }
}

/// Query/candidate sets that stress the query side: a plain one, one with
/// no query tuples and one with a NaN query tuple (the cases
/// `nan_scores.rs` covers for DUST's re-ranking).
fn query_side_cases() -> Vec<(&'static str, Vec<Vector>, Vec<Vector>)> {
    let (query, candidates) = (embeddings(9, 12, 21), embeddings(90, 12, 22));
    let mut nan_query = query.clone();
    nan_query[3].as_mut_slice()[5] = f32::NAN;
    vec![
        ("plain", query, candidates.clone()),
        ("empty query", Vec::new(), candidates.clone()),
        ("NaN query tuple", nan_query, candidates),
    ]
}

#[test]
fn query_distances_are_the_query_columns_bit_for_bit() {
    let mut cases = query_side_cases();
    // a NaN candidate too (not a DUST case: clustering rejects NaN distances)
    let (_, query, mut candidates) = cases[0].clone();
    candidates[17].as_mut_slice()[0] = f32::NAN;
    cases.push(("NaN candidate", query, candidates));
    for (case, query, candidates) in cases {
        for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
            let columns = DiversificationInput::new(&query, &candidates, metric);
            let rows = DiversificationInput::new(&query, &candidates, metric);
            for i in 0..candidates.len() {
                // `rows` never builds its columns: one row of kernel calls
                let (min, avg) = rows.query_distances(i);
                assert_eq!(
                    (min.to_bits(), avg.to_bits()),
                    (
                        columns.min_distance_to_query(i).to_bits(),
                        columns.avg_distance_to_query(i).to_bits()
                    ),
                    "{case}, {metric:?}, candidate {i}"
                );
                // ... and once they are built, the same call is a lookup
                let (min, avg) = columns.query_distances(i);
                assert_eq!(min.to_bits(), columns.min_distance_to_query(i).to_bits());
                assert_eq!(avg.to_bits(), columns.avg_distance_to_query(i).to_bits());
            }
        }
    }
}

#[test]
fn dust_is_unchanged_by_forcing_the_query_columns_or_the_matrix() {
    let k = 7;
    // pruning off (clusters off the shared full matrix) and on (a subset matrix)
    for prune_to in [None, Some(40)] {
        let dust = DustDiversifier::with_config(DustConfig {
            prune_to,
            ..DustConfig::default()
        });
        for (case, query, candidates) in query_side_cases() {
            for metric in [Distance::Cosine, Distance::Euclidean, Distance::Manhattan] {
                let fresh = DiversificationInput::new(&query, &candidates, metric);
                let lazy = dust.select(&fresh, k);
                assert_eq!(lazy.len(), k);
                for (force_columns, force_matrix) in [(true, false), (false, true), (true, true)] {
                    let forced = DiversificationInput::new(&query, &candidates, metric);
                    if force_columns {
                        let _ = forced.min_distance_to_query(0);
                    }
                    if force_matrix {
                        let _ = forced.pairwise();
                    }
                    assert_eq!(
                        dust.select(&forced, k),
                        lazy,
                        "{case}, {metric:?}, prune_to {prune_to:?}: columns forced \
                         {force_columns}, matrix forced {force_matrix}"
                    );
                }
            }
        }
    }
}
