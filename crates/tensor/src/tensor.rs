//! A dense `f32` NCHW tensor: the feature-map carrier for the whole
//! reproduction.

use crate::shape::Shape4;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Dense 4-D `f32` tensor in NCHW layout.
///
/// # Examples
///
/// ```
/// use ringcnn_tensor::prelude::*;
/// let mut t = Tensor::zeros(Shape4::new(1, 2, 3, 3));
/// *t.at_mut(0, 1, 2, 2) = 5.0;
/// assert_eq!(t.at(0, 1, 2, 2), 5.0);
/// assert_eq!(t.shape().len(), 18);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape4) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: Shape4, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer does not match shape {shape}"
        );
        Self { shape, data }
    }

    /// Uniform random tensor in `[lo, hi)` from a deterministic seed.
    pub fn random_uniform(shape: Shape4, lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Self { shape, data }
    }

    /// Gaussian random tensor (Box–Muller) with the given std deviation.
    pub fn random_normal(shape: Shape4, std: f32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(shape.len());
        while data.len() < shape.len() {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f32::consts::PI * u2).sin_cos();
            data.push(r * c * std);
            if data.len() < shape.len() {
                data.push(r * s * std);
            }
        }
        Self { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Immutable view of the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.shape.index(n, c, y, x)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, y: usize, x: usize) -> &mut f32 {
        let i = self.shape.index(n, c, y, x);
        &mut self.data[i]
    }

    /// One channel plane of one batch item as a slice.
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = self.shape.index(n, c, 0, 0);
        &self.data[start..start + self.shape.plane()]
    }

    /// Mutable channel plane.
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let start = self.shape.index(n, c, 0, 0);
        let len = self.shape.plane();
        &mut self.data[start..start + len]
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise in-place subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Applies a function to every element.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Maximum absolute value (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Mean squared error against another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, rhs: &Tensor) -> f64 {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        let sum: f64 = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| {
                let d = f64::from(a - b);
                d * d
            })
            .sum();
        sum / self.data.len().max(1) as f64
    }

    /// Extracts a single batch item as a new tensor with `n = 1`.
    pub fn batch_item(&self, n: usize) -> Tensor {
        let s = self.shape;
        let one = Shape4::new(1, s.c, s.h, s.w);
        let start = s.index(n, 0, 0, 0);
        Tensor::from_vec(one, self.data[start..start + one.len()].to_vec())
    }

    /// Concatenates tensors along the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes disagree beyond the batch dim.
    pub fn stack_batches(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let s0 = items[0].shape;
        let total: usize = items.iter().map(|t| t.shape.n).sum();
        let mut out = Tensor::zeros(Shape4::new(total, s0.c, s0.h, s0.w));
        let mut off = 0;
        for t in items {
            assert_eq!((t.shape.c, t.shape.h, t.shape.w), (s0.c, s0.h, s0.w));
            out.data[off..off + t.data.len()].copy_from_slice(&t.data);
            off += t.data.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_accessors() {
        let mut t = Tensor::zeros(Shape4::new(1, 2, 2, 2));
        assert_eq!(t.mean(), 0.0);
        *t.at_mut(0, 1, 1, 1) = 2.0;
        assert_eq!(t.at(0, 1, 1, 1), 2.0);
        assert_eq!(t.max_abs(), 2.0);
    }

    #[test]
    fn random_is_deterministic() {
        let s = Shape4::new(1, 1, 4, 4);
        let a = Tensor::random_uniform(s, -1.0, 1.0, 42);
        let b = Tensor::random_uniform(s, -1.0, 1.0, 42);
        assert_eq!(a, b);
        let c = Tensor::random_uniform(s, -1.0, 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_has_roughly_right_std() {
        let t = Tensor::random_normal(Shape4::new(1, 1, 64, 64), 2.0, 1);
        let mean = t.mean();
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4096.0;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.2, "std {}", var.sqrt());
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let t = Tensor::random_uniform(Shape4::new(1, 3, 5, 5), 0.0, 1.0, 9);
        assert_eq!(t.mse(&t), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let s = Shape4::new(1, 1, 2, 2);
        let mut a = Tensor::from_vec(s, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(s, vec![0.5, 0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5, 4.5]);
        a.sub_assign(&b);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        a.map_inplace(|v| v - 1.0);
        assert_eq!(a.as_slice(), &[1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn batch_stack_and_extract_roundtrip() {
        let a = Tensor::random_uniform(Shape4::new(1, 2, 3, 3), 0.0, 1.0, 1);
        let b = Tensor::random_uniform(Shape4::new(1, 2, 3, 3), 0.0, 1.0, 2);
        let stacked = Tensor::stack_batches(&[a.clone(), b.clone()]);
        assert_eq!(stacked.shape().n, 2);
        assert_eq!(stacked.batch_item(0), a);
        assert_eq!(stacked.batch_item(1), b);
    }

    #[test]
    fn plane_views() {
        let mut t = Tensor::zeros(Shape4::new(1, 2, 2, 2));
        t.plane_mut(0, 1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.plane(0, 1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.plane(0, 0), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]);
    }
}
