//! Dense vector type and elementary linear algebra used across the
//! embedding, clustering, and diversification crates.

use serde::{Deserialize, Serialize};

/// A dense embedding vector (`f32` components).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vector(pub Vec<f32>);

impl Vector {
    /// Create a vector from components.
    pub fn new(components: Vec<f32>) -> Self {
        Vector(components)
    }

    /// A zero vector of the given dimensionality.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Borrow the components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable access to the components.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Dot product. Panics if dimensions differ.
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in dot product");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Add another vector in place.
    pub fn add_assign(&mut self, other: &Vector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in add");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Subtract another vector in place.
    pub fn sub_assign(&mut self, other: &Vector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in sub");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a -= b;
        }
    }

    /// Subtract another vector, returning a new vector.
    pub fn sub(&self, other: &Vector) -> Vector {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Scale in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.0 {
            *v *= factor;
        }
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f32) -> Vector {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// L2-normalize in place (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 1e-12 {
            self.scale(1.0 / n);
        }
    }

    /// Returns an L2-normalized copy.
    pub fn normalized(&self) -> Vector {
        let mut out = self.clone();
        out.normalize();
        out
    }

    /// Element-wise mean of a non-empty set of vectors.
    ///
    /// Returns `None` when `vectors` is empty. Dimensions must agree.
    pub fn mean<'a>(vectors: impl IntoIterator<Item = &'a Vector>) -> Option<Vector> {
        let mut iter = vectors.into_iter();
        let first = iter.next()?;
        let mut acc = first.clone();
        let mut count = 1usize;
        for v in iter {
            acc.add_assign(v);
            count += 1;
        }
        acc.scale(1.0 / count as f32);
        Some(acc)
    }

    /// True when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector(v)
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;
    fn index(&self, idx: usize) -> &f32 {
        &self.0[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = Vector::new(vec![1.0, 2.0, 2.0]);
        let b = Vector::new(vec![2.0, 0.0, 1.0]);
        assert_eq!(a.dot(&b), 4.0);
        assert_eq!(a.norm(), 3.0);
    }

    #[test]
    fn normalization_produces_unit_vectors() {
        let mut v = Vector::new(vec![3.0, 4.0]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        // zero vector stays zero
        let mut z = Vector::zeros(4);
        z.normalize();
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn mean_of_vectors() {
        let a = Vector::new(vec![1.0, 3.0]);
        let b = Vector::new(vec![3.0, 5.0]);
        let m = Vector::mean([&a, &b]).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 4.0]);
        assert!(Vector::mean(std::iter::empty()).is_none());
    }

    #[test]
    fn add_sub_scale() {
        let mut a = Vector::new(vec![1.0, 1.0]);
        let b = Vector::new(vec![2.0, 3.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        let d = a.sub(&b);
        assert_eq!(d.as_slice(), &[1.0, 1.0]);
        assert_eq!(a.scaled(0.5).as_slice(), &[1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dot_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn finiteness_check() {
        assert!(Vector::new(vec![1.0, 2.0]).is_finite());
        assert!(!Vector::new(vec![f32::NAN]).is_finite());
    }
}
