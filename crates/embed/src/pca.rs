//! Principal component analysis via power iteration with deflation.
//!
//! Used to regenerate Fig. 2 (2-D projection of table vs tuple embeddings)
//! and to compute spread statistics of embedding clouds.

use crate::vector::Vector;

/// Result of a PCA fit: the mean and the top principal axes.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vector,
    components: Vec<Vector>,
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit `k` principal components to the data (rows are observations).
    ///
    /// Returns `None` when `data` is empty. `k` is clamped to the data
    /// dimensionality.
    pub fn fit(data: &[Vector], k: usize) -> Option<Pca> {
        let n = data.len();
        if n == 0 {
            return None;
        }
        let dim = data[0].dim();
        let k = k.min(dim);
        let mean = Vector::mean(data.iter()).expect("non-empty data");
        let centered: Vec<Vec<f64>> = data
            .iter()
            .map(|v| {
                v.as_slice()
                    .iter()
                    .zip(mean.as_slice())
                    .map(|(a, m)| (*a - *m) as f64)
                    .collect()
            })
            .collect();

        let mut components = Vec::with_capacity(k);
        let mut explained = Vec::with_capacity(k);
        // Working copy that gets deflated after each extracted component.
        let mut work = centered;
        for comp_idx in 0..k {
            let (axis, variance) = dominant_axis(&work, dim, comp_idx as u64);
            if variance <= 1e-12 {
                break;
            }
            // Deflate: remove the projection on the found axis.
            for row in &mut work {
                let proj: f64 = row.iter().zip(&axis).map(|(a, b)| a * b).sum();
                for (r, a) in row.iter_mut().zip(&axis) {
                    *r -= proj * a;
                }
            }
            components.push(Vector::new(axis.iter().map(|v| *v as f32).collect()));
            explained.push(variance);
        }
        Some(Pca {
            mean,
            components,
            explained_variance: explained,
        })
    }

    /// Variance explained by each extracted component (descending).
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Project a vector onto the principal axes.
    pub fn transform(&self, v: &Vector) -> Vec<f64> {
        let centered: Vec<f64> = v
            .as_slice()
            .iter()
            .zip(self.mean.as_slice())
            .map(|(a, m)| (*a - *m) as f64)
            .collect();
        self.components
            .iter()
            .map(|axis| {
                centered
                    .iter()
                    .zip(axis.as_slice())
                    .map(|(a, b)| a * (*b as f64))
                    .sum()
            })
            .collect()
    }

    /// Project a batch of vectors.
    pub fn transform_all(&self, data: &[Vector]) -> Vec<Vec<f64>> {
        data.iter().map(|v| self.transform(v)).collect()
    }
}

/// Power iteration for the dominant axis of centered data; returns the unit
/// axis and the variance along it.
fn dominant_axis(centered: &[Vec<f64>], dim: usize, seed: u64) -> (Vec<f64>, f64) {
    let n = centered.len();
    // Deterministic pseudo-random start vector.
    let mut axis: Vec<f64> = (0..dim)
        .map(|i| {
            let x = crate::hashing::splitmix64(seed.wrapping_mul(31).wrapping_add(i as u64 + 1));
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    normalize(&mut axis);
    let mut variance = 0.0;
    for _ in 0..100 {
        // v <- C * axis, computed as sum_i x_i (x_i . axis) / n
        let mut next = vec![0.0; dim];
        for row in centered {
            let proj: f64 = row.iter().zip(&axis).map(|(a, b)| a * b).sum();
            for (nx, r) in next.iter_mut().zip(row) {
                *nx += proj * r;
            }
        }
        for nx in &mut next {
            *nx /= n as f64;
        }
        let norm = normalize(&mut next);
        let delta: f64 = next
            .iter()
            .zip(&axis)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        axis = next;
        variance = norm;
        if delta < 1e-10 {
            break;
        }
    }
    (axis, variance)
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-15 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Vec<Vector> {
        // points along the direction (1, 2) plus tiny noise in (2, -1)
        (0..50)
            .map(|i| {
                let t = i as f32 / 10.0;
                let noise = ((i % 5) as f32 - 2.0) * 0.01;
                Vector::new(vec![t + 2.0 * noise, 2.0 * t - noise])
            })
            .collect()
    }

    #[test]
    fn first_component_captures_dominant_direction() {
        let pca = Pca::fit(&line_data(), 2).unwrap();
        assert!(!pca.explained_variance().is_empty());
        let axis = &pca.explained_variance();
        assert!(axis[0] > 1.0);
        if axis.len() > 1 {
            assert!(axis[0] > axis[1] * 10.0, "dominant axis should dominate");
        }
    }

    #[test]
    fn transform_separates_far_points() {
        let data = line_data();
        let pca = Pca::fit(&data, 2).unwrap();
        let p0 = pca.transform(&data[0]);
        let p_last = pca.transform(&data[49]);
        assert!((p0[0] - p_last[0]).abs() > 1.0);
        assert_eq!(pca.transform_all(&data).len(), 50);
    }

    #[test]
    fn empty_data_returns_none() {
        assert!(Pca::fit(&[], 2).is_none());
    }

    #[test]
    fn constant_data_has_no_variance() {
        let data = vec![Vector::new(vec![1.0, 1.0]); 10];
        let pca = Pca::fit(&data, 2).unwrap();
        assert_eq!(pca.explained_variance().len(), 0);
    }

    #[test]
    fn k_is_clamped_to_dimension() {
        let data = line_data();
        let pca = Pca::fit(&data, 10).unwrap();
        assert!(pca.explained_variance().len() <= 2);
    }
}
