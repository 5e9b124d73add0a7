//! k-means clustering with k-means++ seeding.
//!
//! Not part of the DUST algorithm itself, but used as an ablation
//! alternative to hierarchical clustering in the benchmarks and as a speed
//! reference.

use crate::Assignment;
use dust_embed::{Distance, EmbeddingStore, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of running k-means.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster assignment per input point.
    pub assignment: Assignment,
    /// Final centroids (length = number of clusters actually produced).
    pub centroids: Vec<Vector>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
}

/// Run k-means with k-means++ initialization.
///
/// `k` is clamped to the number of points. Distances used for assignment are
/// squared Euclidean regardless of `distance`, which is only used for the
/// seeding probabilities (this mirrors the common practice of clustering
/// normalized embeddings with Euclidean k-means).
pub fn kmeans(
    points: &[Vector],
    k: usize,
    max_iterations: usize,
    seed: u64,
    distance: Distance,
) -> KMeansResult {
    let n = points.len();
    if n == 0 || k == 0 {
        return KMeansResult {
            assignment: vec![],
            centroids: vec![],
            iterations: 0,
            inertia: 0.0,
        };
    }
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    // The store caches per-point norms, so the k-means++ seeding distances
    // (cosine by default) skip the per-call norm of the point side.
    let store = EmbeddingStore::from_vectors(points);
    let mut centroids = plus_plus_init(points, &store, k, &mut rng, distance);
    let mut assignment = vec![0usize; n];
    let mut iterations = 0usize;

    for it in 0..max_iterations.max(1) {
        iterations = it + 1;
        // assignment step
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = squared_euclidean(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // update step
        let dim = points[0].dim();
        let mut sums = vec![Vector::zeros(dim); k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            sums[assignment[i]].add_assign(p);
            counts[assignment[i]] += 1;
        }
        for (c, count) in counts.iter().enumerate() {
            if *count > 0 {
                let mut mean = sums[c].clone();
                mean.scale(1.0 / *count as f32);
                centroids[c] = mean;
            }
        }
        if !changed && it > 0 {
            break;
        }
    }

    let inertia = points
        .iter()
        .enumerate()
        .map(|(i, p)| squared_euclidean(p, &centroids[assignment[i]]))
        .sum();

    // densify cluster ids (empty clusters can appear)
    let mut remap = std::collections::HashMap::new();
    let mut dense = Vec::with_capacity(n);
    for &c in &assignment {
        let next = remap.len();
        dense.push(*remap.entry(c).or_insert(next));
    }
    let kept_centroids: Vec<Vector> = {
        let mut pairs: Vec<(usize, usize)> = remap.iter().map(|(&c, &d)| (d, c)).collect();
        pairs.sort_unstable();
        pairs
            .into_iter()
            .map(|(_, c)| centroids[c].clone())
            .collect()
    };

    KMeansResult {
        assignment: dense,
        centroids: kept_centroids,
        iterations,
        inertia,
    }
}

fn squared_euclidean(a: &Vector, b: &Vector) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum()
}

fn plus_plus_init(
    points: &[Vector],
    store: &EmbeddingStore,
    k: usize,
    rng: &mut StdRng,
    distance: Distance,
) -> Vec<Vector> {
    let n = points.len();
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..n)].clone());
    // squared distance from each point to its nearest centroid so far
    let mut weights = vec![f64::INFINITY; n];
    while centroids.len() < k {
        let newest = EmbeddingStore::from_vectors(&centroids[centroids.len() - 1..]);
        store.cross_distances(distance, 0..n, &newest, |i, d| {
            weights[i] = weights[i].min(d[0].powi(2));
        });
        let total: f64 = weights.iter().sum();
        if total <= 1e-15 {
            // all points identical to existing centroids; duplicate one
            centroids.push(points[rng.gen_range(0..n)].clone());
            continue;
        }
        let mut target = rng.gen::<f64>() * total;
        let mut chosen = n - 1;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen].clone());
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num_clusters;

    fn blobs() -> Vec<Vector> {
        let mut pts = Vec::new();
        for i in 0..15 {
            pts.push(Vector::new(vec![(i % 5) as f32 * 0.1, 0.0]));
        }
        for i in 0..15 {
            pts.push(Vector::new(vec![8.0 + (i % 5) as f32 * 0.1, 9.0]));
        }
        pts
    }

    #[test]
    fn recovers_two_blobs() {
        let pts = blobs();
        let result = kmeans(&pts, 2, 50, 13, Distance::Euclidean);
        assert_eq!(num_clusters(&result.assignment), 2);
        assert!(result.assignment[..15]
            .iter()
            .all(|&c| c == result.assignment[0]));
        assert!(result.assignment[15..]
            .iter()
            .all(|&c| c == result.assignment[15]));
        assert!(result.inertia < 10.0);
        assert!(result.iterations >= 1);
    }

    #[test]
    fn k_clamped_to_number_of_points() {
        let pts = vec![Vector::new(vec![0.0]), Vector::new(vec![1.0])];
        let result = kmeans(&pts, 10, 10, 1, Distance::Euclidean);
        assert!(num_clusters(&result.assignment) <= 2);
    }

    #[test]
    fn empty_input() {
        let result = kmeans(&[], 3, 10, 1, Distance::Euclidean);
        assert!(result.assignment.is_empty());
        assert!(result.centroids.is_empty());
    }

    #[test]
    fn identical_points_produce_single_effective_cluster() {
        let pts = vec![Vector::new(vec![2.0, 2.0]); 6];
        let result = kmeans(&pts, 3, 10, 5, Distance::Euclidean);
        assert_eq!(result.assignment.len(), 6);
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blobs();
        let a = kmeans(&pts, 2, 50, 99, Distance::Euclidean);
        let b = kmeans(&pts, 2, 50, 99, Distance::Euclidean);
        assert_eq!(a.assignment, b.assignment);
    }
}
