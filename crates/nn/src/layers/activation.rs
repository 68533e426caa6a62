//! Activation layers: component-wise ReLU and the tuple-wise directional
//! ReLU (`fH` / `fO4`) applied across channel groups.

use crate::layer::{forward_whole, Layer};
use crate::runtime::TileHalo;
use ringcnn_algebra::relu::{DirectionalRelu, Nonlinearity};
use ringcnn_algebra::ring::Ring;
use ringcnn_tensor::shape::Shape4;
use ringcnn_tensor::tensor::Tensor as T;
use std::borrow::Cow;

/// Plain component-wise ReLU on every element (real networks and the
/// `fcw` rings).
#[derive(Default)]
pub struct Relu {
    cached_input: Option<T>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self { cached_input: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".into()
    }

    fn forward_train(&mut self, input: &T) -> T {
        // The cache is the one copy of the input; the output is computed
        // from it, not cloned and overwritten.
        let cached = self.cached_input.insert(input.clone());
        let out = cached.as_slice().iter().map(|v| v.max(0.0)).collect();
        T::from_vec(cached.shape(), out)
    }

    fn forward_infer(&self, input: &T) -> T {
        forward_whole(self, input)
    }

    fn forward_step(&self, input: Cow<'_, T>, _: &mut TileHalo, _: usize) -> (T, bool) {
        // In place on a tensor the chain gives up; a borrowed one is
        // copied here, once.
        let mut x = input.into_owned();
        x.map_inplace(|v| v.max(0.0));
        (x, false)
    }

    fn backward(&mut self, dout: &T) -> T {
        let input = self
            .cached_input
            .take()
            .expect("backward without training forward");
        let mut d = dout.clone();
        for (g, x) in d.as_mut_slice().iter_mut().zip(input.as_slice()) {
            if *x <= 0.0 {
                *g = 0.0;
            }
        }
        d
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Tuple-wise directional ReLU: channels are grouped into `n`-tuples and
/// `f(y) = U·fcw(V·y)` is applied to each tuple at every pixel (§III-E).
///
/// The `n` planes of a tuple are contiguous in NCHW, so all three passes
/// hand them whole to the plane forms of [`DirectionalRelu`] — `fH` a
/// butterfly over rows, `fO4` and the training passes a plane-wise
/// mat-vec — instead of gathering one tuple per pixel; per pixel the
/// arithmetic and its order are the per-tuple oracle's, so outputs and
/// gradients are bit-identical to it.
pub struct DirectionalReluLayer {
    f: DirectionalRelu,
    n: usize,
    cached_hidden: Option<T>,
}

impl DirectionalReluLayer {
    /// Creates a directional ReLU from an explicit instance.
    pub fn new(f: DirectionalRelu) -> Self {
        let n = f.n();
        Self {
            f,
            n,
            cached_hidden: None,
        }
    }

    /// `fH` over `n`-tuples.
    pub fn fh(n: usize) -> Self {
        Self::new(DirectionalRelu::fh(n))
    }

    /// `fO4` over 4-tuples.
    pub fn fo4() -> Self {
        Self::new(DirectionalRelu::fo4())
    }

    /// Tuple length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Elements of one tuple of channels — `n` planes, contiguous in
    /// NCHW: what the plane forms of [`DirectionalRelu`] take and the
    /// chunk size that walks a tensor tuple by tuple (1 for a tensor
    /// without elements, which has no chunks).
    ///
    /// # Panics
    ///
    /// Panics if the channel count is not a multiple of `n`.
    fn tuple_len(&self, s: Shape4) -> usize {
        let (c, n) = (s.c, self.n);
        assert_eq!(c % n, 0, "channels {c} not a multiple of tuple size {n}");
        (n * s.plane()).max(1)
    }
}

impl Layer for DirectionalReluLayer {
    fn name(&self) -> String {
        format!("drelu[n={}]", self.n)
    }

    fn forward_train(&mut self, input: &T) -> T {
        let len = self.tuple_len(input.shape());
        let mut out = input.clone();
        let mut hidden = T::zeros(input.shape());
        let tuples = out.as_mut_slice().chunks_mut(len);
        for (y, h) in tuples.zip(hidden.as_mut_slice().chunks_mut(len)) {
            self.f.forward_planes_with_hidden(y, h);
        }
        self.cached_hidden = Some(hidden);
        out
    }

    fn forward_infer(&self, input: &T) -> T {
        forward_whole(self, input)
    }

    fn forward_step(&self, input: Cow<'_, T>, _: &mut TileHalo, _: usize) -> (T, bool) {
        let mut x = input.into_owned();
        let len = self.tuple_len(x.shape());
        for y in x.as_mut_slice().chunks_mut(len) {
            self.f.forward_planes(y);
        }
        (x, false)
    }

    fn backward(&mut self, dout: &T) -> T {
        let hidden = self
            .cached_hidden
            .take()
            .expect("backward without training forward");
        let len = self.tuple_len(dout.shape());
        let mut din = dout.clone();
        let tuples = din.as_mut_slice().chunks_mut(len);
        for (d, h) in tuples.zip(hidden.as_slice().chunks(len)) {
            self.f.backward_planes(h, d);
        }
        din
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds the activation layer matching a ring + non-linearity choice
/// (the `f` box of Fig. 5(b)).
///
/// # Panics
///
/// Panics when `DirectionalO4` is requested for `n ≠ 4`.
pub fn activation_for(ring: &Ring, nl: Nonlinearity) -> Option<Box<dyn Layer>> {
    match nl {
        Nonlinearity::None => None,
        Nonlinearity::ComponentWise => Some(Box::new(Relu::new())),
        Nonlinearity::DirectionalH => Some(Box::new(DirectionalReluLayer::fh(ring.n()))),
        Nonlinearity::DirectionalO4 => {
            assert_eq!(ring.n(), 4, "fO4 requires 4-tuples");
            Some(Box::new(DirectionalReluLayer::fo4()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_and_fd;
    use ringcnn_algebra::ring::RingKind;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = T::from_vec(Shape4::new(1, 1, 1, 4), vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let d = r.backward(&T::full(Shape4::new(1, 1, 1, 4), 1.0));
        assert_eq!(d.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn drelu_mixes_channels_within_tuple_only() {
        let mut l = DirectionalReluLayer::fh(2);
        let x = T::from_vec(
            Shape4::new(1, 4, 1, 1),
            vec![1.0, -3.0, /* tuple 2 */ 0.5, 0.25],
        );
        let y = l.forward(&x, false);
        // Tuple 0: H(1,-3) = (-2, 4) → (0,4) → H → (4,-4)
        assert_eq!(y.at(0, 0, 0, 0), 4.0);
        assert_eq!(y.at(0, 1, 0, 0), -4.0);
        // Tuple 1: H(0.5,0.25) = (0.75, 0.25) → same → H → (1.0, 0.5)
        assert!((y.at(0, 2, 0, 0) - 1.0).abs() < 1e-6);
        assert!((y.at(0, 3, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn drelu_gradcheck() {
        let mut l = DirectionalReluLayer::fh(4);
        let x = T::random_uniform(Shape4::new(1, 4, 2, 2), -1.0, 1.0, 31);
        let dout = T::random_uniform(Shape4::new(1, 4, 2, 2), -1.0, 1.0, 32);
        for at in [[0, 0, 0, 1], [0, 2, 1, 0], [0, 3, 1, 1]] {
            let (an, fd) = input_gradient_and_fd(&mut l, (&x, &dout), at, 1e-3);
            assert!((fd - an).abs() < 2e-2, "{at:?}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn activation_factory() {
        let ring = Ring::from_kind(RingKind::Ri(4));
        assert!(activation_for(&ring, Nonlinearity::None).is_none());
        assert_eq!(
            activation_for(&ring, Nonlinearity::ComponentWise)
                .unwrap()
                .name(),
            "relu"
        );
        assert_eq!(
            activation_for(&ring, Nonlinearity::DirectionalH)
                .unwrap()
                .name(),
            "drelu[n=4]"
        );
    }
}
