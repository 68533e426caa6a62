//! The Fig. 10 ablation between `(RI, fH)` and `RH`.
//!
//! `RH` and `(RI, fH)` share Hadamard structure but differ in two ways
//! (§VI-A): (1) `(RI, fH)` multiplies raw weights while `RH` effectively
//! trains on transformed weights `g̃ = H·g`; (2) `RH` applies transforms
//! around *every* convolution while `(RI, fH)` mixes only at
//! non-linearities. `RH` can imitate `(RI, fH)` by making up these
//! differences step by step:
//!
//! 1. `RH` — the baseline ring with component-wise ReLU.
//! 2. `RH, train on g̃` — the equivalent form `Tz ∘ (RI conv) ∘ Tx` with
//!    the transformed weights as the trained parameters.
//! 3. `+ structure modification` — drop the now-redundant back-to-back
//!    transforms between consecutive convolutions, which is exactly
//!    `(RI, fH)`.

use ringcnn_algebra::mat::Mat;
use ringcnn_algebra::ring::RingKind;
use ringcnn_algebra::transforms::hadamard;
use ringcnn_nn::layer::Layer;
use ringcnn_nn::layers::ring_conv::RingConv2d;
use ringcnn_nn::layers::shuffle::PixelShuffle;
use ringcnn_nn::layers::structure::{Residual, Sequential};
use ringcnn_nn::models::ernet::ErNetConfig;
use ringcnn_nn::prelude::Algebra;
use ringcnn_tensor::tensor::Tensor;

/// The three Fig. 10 variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig10Variant {
    /// Plain `RH` with component-wise ReLU.
    Rh,
    /// `RH` re-parameterized on transformed weights `g̃`.
    RhTrainedOnTransformed,
    /// Structure-modified imitation — identical to `(RI, fH)`.
    RiFh,
}

impl Fig10Variant {
    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Fig10Variant::Rh => "RH",
            Fig10Variant::RhTrainedOnTransformed => "RH (train on g~)",
            Fig10Variant::RiFh => "(RI,fH)",
        }
    }

    /// All three in presentation order.
    pub fn all() -> [Fig10Variant; 3] {
        [
            Fig10Variant::Rh,
            Fig10Variant::RhTrainedOnTransformed,
            Fig10Variant::RiFh,
        ]
    }
}

/// A fixed (non-trainable) per-tuple channel mix — the explicit `Tx`/`Tz`
/// boxes of the equivalent-form model in Fig. 10(a).
pub struct TupleMix {
    m: Mat,
    m32: Vec<f32>,
    mt32: Vec<f32>,
    n: usize,
}

impl TupleMix {
    /// Creates a mix layer applying `m` to every channel `n`-tuple.
    pub fn new(m: Mat) -> Self {
        let n = m.rows();
        assert_eq!(m.cols(), n, "mix matrix must be square");
        let m32: Vec<f32> = m.as_slice().iter().map(|v| *v as f32).collect();
        let mt: Vec<f32> = m
            .transposed()
            .as_slice()
            .iter()
            .map(|v| *v as f32)
            .collect();
        Self {
            m,
            m32,
            mt32: mt,
            n,
        }
    }

    /// The Hadamard data transform `Tx = H`.
    pub fn hadamard_forward(n: usize) -> Self {
        Self::new(hadamard(n))
    }

    /// The Hadamard reconstruction transform `Tz = H/n`.
    pub fn hadamard_inverse(n: usize) -> Self {
        Self::new(hadamard(n).scaled(1.0 / n as f64))
    }

    /// The mixing matrix.
    pub fn matrix(&self) -> &Mat {
        &self.m
    }

    fn apply(&self, x: &Tensor, mat: &[f32]) -> Tensor {
        let s = x.shape();
        assert_eq!(
            s.c % self.n,
            0,
            "channels must group into {}-tuples",
            self.n
        );
        let tuples = s.c / self.n;
        let mut out = x.clone();
        let mut buf = vec![0.0f32; self.n];
        for b in 0..s.n {
            for t in 0..tuples {
                for p in 0..s.plane() {
                    for l in 0..self.n {
                        buf[l] = x.plane(b, t * self.n + l)[p];
                    }
                    for i in 0..self.n {
                        let row = &mat[i * self.n..(i + 1) * self.n];
                        let mut acc = 0.0f32;
                        for (a, b2) in row.iter().zip(&buf) {
                            acc += a * b2;
                        }
                        out.plane_mut(b, t * self.n + i)[p] = acc;
                    }
                }
            }
        }
        out
    }
}

impl Layer for TupleMix {
    fn name(&self) -> String {
        format!("tuple_mix[n={}]", self.n)
    }

    fn forward_infer(&self, input: &Tensor) -> Tensor {
        self.apply(input, &self.m32)
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        self.apply(dout, &self.mt32)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds the SR4ERNet-shaped model for one Fig. 10 variant.
pub fn fig10_model(variant: Fig10Variant, n: usize, cfg: ErNetConfig, seed: u64) -> Sequential {
    match variant {
        Fig10Variant::Rh => {
            ringcnn_nn::models::ernet::sr4_ernet(&Algebra::with_fcw(RingKind::Rh(n)), cfg, 1, seed)
        }
        Fig10Variant::RiFh => {
            ringcnn_nn::models::ernet::sr4_ernet(&Algebra::ri_fh(n), cfg, 1, seed)
        }
        Fig10Variant::RhTrainedOnTransformed => sr4_equivalent_form(n, cfg, seed),
    }
}

/// The equivalent-form model: every ring convolution becomes
/// `Tz ∘ RI-conv(g̃) ∘ Tx` with explicit fixed transforms, so training
/// operates on the transformed weights.
fn sr4_equivalent_form(n: usize, cfg: ErNetConfig, seed: u64) -> Sequential {
    let real = Algebra::real();
    let conv = |ci: usize, co: usize, k: usize, s: u64| -> Box<dyn Layer> {
        if ci % n != 0 || co % n != 0 {
            return real.conv(ci, co, k, s);
        }
        let ri = ringcnn_algebra::ring::Ring::from_kind(RingKind::Ri(n));
        let chain = Sequential::new()
            .with(Box::new(TupleMix::hadamard_forward(n)))
            .with(Box::new(RingConv2d::new(ri, ci, co, k, s)))
            .with(Box::new(TupleMix::hadamard_inverse(n)));
        Box::new(chain)
    };
    let act = || -> Option<Box<dyn Layer>> {
        Some(Box::new(ringcnn_nn::layers::activation::Relu::new()))
    };
    let c = cfg.width;
    let ermodule = |s: u64| -> Box<dyn Layer> {
        let pumped = c * cfg.r;
        let mut body = Sequential::new()
            .with(conv(c, pumped, 3, s))
            .with_opt(act());
        for i in 0..cfg.n_extra {
            body = body
                .with(conv(pumped, pumped, 3, s + 1000 + i as u64))
                .with_opt(act());
        }
        body = body.with(conv(pumped, c, 3, s + 1));
        Box::new(Residual::new(body))
    };
    let mut trunk = Sequential::new();
    for i in 0..cfg.b {
        trunk = trunk.with(ermodule(seed + 10 * (i as u64 + 1)));
    }
    trunk = trunk.with(conv(c, c, 3, seed + 3));
    Sequential::new()
        .with(conv(1, c, 3, seed))
        .with_opt(act())
        .with(Box::new(Residual::new(trunk)))
        .with(conv(c, 4 * c, 3, seed + 4))
        .with(Box::new(PixelShuffle::new(2)))
        .with_opt(act())
        .with(conv(c, 4 * c, 3, seed + 5))
        .with(Box::new(PixelShuffle::new(2)))
        .with_opt(act())
        .with(conv(c, 1, 3, seed + 6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_tensor::prelude::*;

    #[test]
    fn tuple_mix_roundtrip() {
        // H then H/n is the identity.
        let mut fwd = TupleMix::hadamard_forward(4);
        let mut inv = TupleMix::hadamard_inverse(4);
        let x = Tensor::random_uniform(Shape4::new(1, 8, 3, 3), -1.0, 1.0, 1);
        let y = inv.forward(&fwd.forward(&x, false), false);
        assert!(x.mse(&y) < 1e-10);
    }

    #[test]
    fn equivalent_form_matches_rh_function_at_init_weights() {
        // A single sandwich conv with weights g̃ = H·g computes the same
        // function as the RH conv with weights g.
        use ringcnn_algebra::ring::Ring;
        let n = 2usize;
        let rh = Ring::from_kind(RingKind::Rh(n));
        let mut rh_conv = RingConv2d::new(rh, 2, 2, 1, 9);
        // Build the sandwich with transformed weights.
        let ri = Ring::from_kind(RingKind::Ri(n));
        let mut ri_conv = RingConv2d::new(ri, 2, 2, 1, 9);
        let h = hadamard(n);
        let g = [
            f64::from(rh_conv.ring_weights()[0]),
            f64::from(rh_conv.ring_weights()[1]),
        ];
        let gt = h.matvec(&g);
        ri_conv.ring_weights_mut()[0] = gt[0] as f32;
        ri_conv.ring_weights_mut()[1] = gt[1] as f32;
        let mut sandwich = Sequential::new()
            .with(Box::new(TupleMix::hadamard_forward(n)))
            .with(Box::new(ri_conv))
            .with(Box::new(TupleMix::hadamard_inverse(n)));
        let x = Tensor::random_uniform(Shape4::new(1, 2, 3, 3), -1.0, 1.0, 4);
        let a = rh_conv.forward(&x, false);
        let b = sandwich.forward(&x, false);
        assert!(a.mse(&b) < 1e-10, "mse {}", a.mse(&b));
    }

    #[test]
    fn all_variants_build_and_run() {
        for v in Fig10Variant::all() {
            let mut m = fig10_model(v, 2, ErNetConfig::tiny(), 5);
            let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 2);
            let y = m.forward(&x, false);
            assert_eq!(y.shape(), Shape4::new(1, 1, 16, 16), "{}", v.label());
        }
    }

    #[test]
    fn variants_backprop() {
        let mut m = fig10_model(
            Fig10Variant::RhTrainedOnTransformed,
            2,
            ErNetConfig::tiny(),
            5,
        );
        let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 2);
        let y = m.forward(&x, true);
        let _ = m.backward(&y);
    }
}
