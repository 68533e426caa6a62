//! Ring convolution (RCONV, eq. (11)): a `K×K` convolution whose weights
//! and features are ring `n`-tuples.
//!
//! Real channels are grouped into tuples of `n` consecutive channels.
//! Training follows §IV-B: the layer is lowered onto its isomorphic
//! real-valued convolution `G` (eq. (4)) so Backprop flows as usual, and
//! the weight gradient is contracted back onto the `n` ring components.
//! This reuses the heavily-tested real conv kernels and is exactly
//! equivalent to ring-domain backprop (property-tested against the
//! ring-form gradients of §IV-B). The layer itself is the one
//! [`ConvLayer`]; this module is its ring lowering.

use crate::layers::conv::{he_normal, ConvLayer, Lowering};
use crate::layers::fast_ring_conv::FastRingConv;
use ringcnn_algebra::ring::Ring;
use ringcnn_tensor::prelude::*;
use std::borrow::Cow;

/// The ring lowering: ring weights expanded onto the isomorphic real
/// convolution (eq. (4)/Fig. 5), and the one lowering with a
/// transform-domain plan.
pub struct RingLowering {
    ring: Ring,
    ci_t: usize,
    co_t: usize,
    k: usize,
    /// Ring weights `[co_t][ci_t][ky][kx][component]`, flat.
    weights: Vec<f32>,
}

impl RingLowering {
    /// Every ring tap in storage order: the index of its component 0
    /// and its `[co_t, ci_t, ky, kx]`.
    fn taps(&self) -> impl Iterator<Item = (usize, [usize; 4])> + '_ {
        let (n, k, ci_t) = (self.ring.n(), self.k, self.ci_t);
        let at = move |t: usize| [t / (k * k) / ci_t, t / (k * k) % ci_t, t / k % k, t % k];
        (0..self.weights.len() / n).map(move |t| (t * n, at(t)))
    }
}

impl Lowering for RingLowering {
    fn name(&self) -> String {
        let (co, ci, k) = self.shape();
        format!("rconv{k}x{k}[{}]({ci}->{co})", self.ring.kind())
    }

    fn shape(&self) -> (usize, usize, usize) {
        let n = self.ring.n();
        (self.co_t * n, self.ci_t * n, self.k)
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    fn lowered(&self) -> Cow<'_, ConvWeights> {
        let (n, (co, ci, k)) = (self.ring.n(), self.shape());
        let mut w = ConvWeights::zeros(co, ci, k);
        // `G(g)` is `diag(g)` or `S_ij·g[P_ij]`, written entry by entry
        // (exact in `f32`, as `Ring::expand_weights_f32` is).
        let sign_perm = self.ring.sign_perm();
        for (base, [cot, cit, ky, kx]) in self.taps() {
            let g = &self.weights[base..base + n];
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let idx = w.index(cot * n + i, cit * n + j, ky, kx);
                w.data[idx] = match sign_perm {
                    Some(sp) => f32::from(sp.sign(i, j)) * g[sp.perm(i, j)],
                    None if i == j => g[i],
                    None => continue,
                };
            }
        }
        Cow::Owned(w)
    }

    fn contract(&self, dw: &ConvWeights, grads: &mut [f32]) {
        // Through the indexing-tensor terms.
        let n = self.ring.n();
        for (base, [cot, cit, ky, kx]) in self.taps() {
            for t in self.ring.terms() {
                let (i, k, j) = (t.i as usize, t.k as usize, t.j as usize);
                let real = dw.data[dw.index(cot * n + i, cit * n + j, ky, kx)];
                grads[base + k] += t.c * real;
            }
        }
    }

    fn mults_per_pixel(&self) -> f64 {
        // Fast-algorithm real multiplications (eq. (12)): m per ring MAC.
        (self.co_t * self.ci_t * self.k * self.k * self.ring.fast().m()) as f64
    }

    fn transform(&self, bias: &[f32]) -> Option<FastRingConv> {
        let (ring, w) = (&self.ring, &self.weights);
        Some(FastRingConv::new(
            ring, w, self.ci_t, self.co_t, self.k, bias,
        ))
    }

    fn tuple(&self) -> (usize, bool) {
        (self.ring.n(), self.ring.is_diagonal())
    }
}

/// `K×K` ring convolution over `n`-tuple channels.
///
/// Weight layout: `[co_t][ci_t][ky][kx][component]`, flat `f32`.
///
/// # Examples
///
/// ```
/// use ringcnn_nn::layers::ring_conv::RingConv2d;
/// use ringcnn_nn::layer::Layer;
/// use ringcnn_algebra::ring::{Ring, RingKind};
/// use ringcnn_tensor::prelude::*;
/// let ring = Ring::from_kind(RingKind::Ri(2));
/// let mut rconv = RingConv2d::new(ring, 4, 8, 3, 1); // 4 -> 8 real channels
/// let x = Tensor::zeros(Shape4::new(1, 4, 6, 6));
/// assert_eq!(rconv.forward(&x, false).shape().c, 8);
/// ```
pub type RingConv2d = ConvLayer<RingLowering>;

impl RingConv2d {
    /// Creates a He-initialized ring convolution.
    ///
    /// `ci`/`co` are *real* channel counts and must be divisible by the
    /// ring dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` or `co` is not a multiple of `ring.n()`.
    pub fn new(ring: Ring, ci: usize, co: usize, k: usize, seed: u64) -> Self {
        let n = ring.n();
        assert_eq!(
            ci % n,
            0,
            "input channels {ci} not a multiple of ring dimension {n}"
        );
        assert_eq!(
            co % n,
            0,
            "output channels {co} not a multiple of ring dimension {n}"
        );
        let (ci_t, co_t) = (ci / n, co / n);
        // Fan-in per real output channel of the expanded conv is ci·k²;
        // each ring weight appears in n expanded positions, so the same
        // He std applies directly to the ring components.
        Self::over(RingLowering {
            weights: he_normal(co_t * ci_t * k * k * n, ci * k * k, seed),
            ring,
            ci_t,
            co_t,
            k,
        })
    }

    /// The ring algebra of this layer.
    pub fn ring(&self) -> &Ring {
        &self.lowering().ring
    }

    /// Tuple-channel counts `(ci_t, co_t)`.
    pub fn tuple_channels(&self) -> (usize, usize) {
        (self.lowering().ci_t, self.lowering().co_t)
    }

    /// Flat ring-weight access (`[co_t][ci_t][ky][kx][component]`).
    pub fn ring_weights(&self) -> &[f32] {
        &self.lowering().weights
    }

    /// Mutable flat ring-weight access (resets the inference kernel).
    pub fn ring_weights_mut(&mut self) -> &mut [f32] {
        &mut self.lowering_mut().weights
    }

    /// Expands the ring weights onto the isomorphic real convolution
    /// weights (`co_t·n × ci_t·n × k × k`), eq. (4)/Fig. 5.
    pub fn expand_real_weights(&self) -> ConvWeights {
        self.lowering().lowered().into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ConvBackend;
    use crate::layer::input_gradient_and_fd;
    use crate::layer::Layer;
    use ringcnn_algebra::ring::RingKind;
    use ringcnn_tensor::tensor::Tensor as T;

    fn ringconv(kind: RingKind, ci: usize, co: usize) -> RingConv2d {
        RingConv2d::new(Ring::from_kind(kind), ci, co, 3, 11)
    }

    #[test]
    fn ri1_matches_real_conv_shape() {
        let mut rc = ringconv(RingKind::Ri(1), 3, 5);
        let x = T::random_uniform(Shape4::new(1, 3, 4, 4), -1.0, 1.0, 1);
        assert_eq!(rc.forward(&x, false).shape().c, 5);
        assert_eq!(rc.num_params(), 5 * 3 * 9 + 5);
    }

    #[test]
    fn weight_count_reduced_by_n() {
        // DoF reduction: n-times fewer weights than the real conv.
        let mut real = ringconv(RingKind::Ri(1), 8, 8);
        let mut ring4 = ringconv(RingKind::Ri(4), 8, 8);
        let real_w = real.num_params() - 8; // minus bias
        let ring_w = ring4.num_params() - 8;
        assert_eq!(real_w, 4 * ring_w);
    }

    #[test]
    fn forward_matches_manual_ring_mac() {
        // For RH2, check one output pixel against a direct ring-domain
        // computation of eq. (11).
        let ring = Ring::from_kind(RingKind::Rh(2));
        let mut rc = RingConv2d::new(ring.clone(), 2, 2, 1, 3);
        let x = T::random_uniform(Shape4::new(1, 2, 2, 2), -1.0, 1.0, 4);
        let y = rc.forward(&x, false);
        // One tuple in, one tuple out, 1x1 kernel.
        let g = [rc.ring_weights()[0], rc.ring_weights()[1]];
        for py in 0..2 {
            for px in 0..2 {
                let xv = [x.at(0, 0, py, px), x.at(0, 1, py, px)];
                let mut z = [rc.bias()[0], rc.bias()[1]];
                ring.mac_f32(&g, &xv, &mut z);
                assert!((y.at(0, 0, py, px) - z[0]).abs() < 1e-5);
                assert!((y.at(0, 1, py, px) - z[1]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradcheck_ring_weights() {
        for kind in [
            RingKind::Ri(2),
            RingKind::Rh(2),
            RingKind::Complex,
            RingKind::Rh4I,
        ] {
            let mut rc = ringconv(kind, 4, 4);
            let x = T::random_uniform(Shape4::new(1, 4, 4, 4), -1.0, 1.0, 5);
            let dout = T::random_uniform(Shape4::new(1, 4, 4, 4), -1.0, 1.0, 6);
            let _ = rc.forward(&x, true);
            let _dx = rc.backward(&dout);
            let mut grads = Vec::new();
            rc.visit_params(&mut |g| grads.push(g.grads.to_vec()));
            let dw = &grads[0];
            let eps = 1e-2f32;
            for probe in [0usize, 7, 13] {
                let loss = |delta: f32, rc: &mut RingConv2d| -> f32 {
                    rc.ring_weights_mut()[probe] += delta;
                    let y = rc.forward(&x, false);
                    rc.ring_weights_mut()[probe] -= delta;
                    y.as_slice()
                        .iter()
                        .zip(dout.as_slice())
                        .map(|(a, b)| a * b)
                        .sum()
                };
                let fd = (loss(eps, &mut rc) - loss(-eps, &mut rc)) / (2.0 * eps);
                assert!(
                    (fd - dw[probe]).abs() < 3e-2,
                    "{kind:?} w[{probe}]: fd {fd} vs analytic {}",
                    dw[probe]
                );
            }
        }
    }

    #[test]
    fn gradcheck_input() {
        let mut rc = ringconv(RingKind::Ri(4), 4, 4);
        let x = T::random_uniform(Shape4::new(1, 4, 3, 3), -1.0, 1.0, 8);
        let dout = T::random_uniform(Shape4::new(1, 4, 3, 3), -1.0, 1.0, 9);
        let (an, fd) = input_gradient_and_fd(&mut rc, (&x, &dout), [0, 2, 1, 1], 1e-2);
        assert!((fd - an).abs() < 1e-2);
    }

    #[test]
    fn ring_form_input_gradient_equivalence() {
        // §IV-B: for symmetric-G rings, ∇x = g·∇z. Check on a 1×1 rconv
        // with a single tuple: backward dx equals ring product g·dz.
        let ring = Ring::from_kind(RingKind::Rh(4));
        let mut rc = RingConv2d::new(ring.clone(), 4, 4, 1, 21);
        let x = T::random_uniform(Shape4::new(1, 4, 1, 1), -1.0, 1.0, 22);
        let dz = T::random_uniform(Shape4::new(1, 4, 1, 1), -1.0, 1.0, 23);
        let _ = rc.forward(&x, true);
        let dx = rc.backward(&dz);
        let g: Vec<f64> = (0..4).map(|c| f64::from(rc.ring_weights()[c])).collect();
        let dzv: Vec<f64> = (0..4).map(|c| f64::from(dz.at(0, c, 0, 0))).collect();
        let want = ring.grad_input_ring_form(&g, &dzv);
        for c in 0..4 {
            assert!(
                (f64::from(dx.at(0, c, 0, 0)) - want[c]).abs() < 1e-5,
                "component {c}"
            );
        }
    }

    #[test]
    fn backends_agree_and_plan_tracks_weight_edits() {
        let mut rc = ringconv(RingKind::Rh(4), 8, 8);
        let x = T::random_uniform(Shape4::new(1, 8, 5, 5), -1.0, 1.0, 31);
        let naive = rc.forward(&x, false);
        rc.set_backend(ConvBackend::Im2col);
        assert!(naive.mse(&rc.forward(&x, false)) < 1e-12);
        rc.set_backend(ConvBackend::Transform);
        assert!(naive.mse(&rc.forward(&x, false)) < 1e-10);
        // Mutating a weight must invalidate the cached plan: the
        // transform output has to follow the naive output, not go stale.
        rc.ring_weights_mut()[0] += 0.5;
        rc.set_backend(ConvBackend::Naive);
        let naive2 = rc.forward(&x, false);
        assert!(
            naive2.mse(&naive) > 1e-8,
            "weight edit must change the output"
        );
        rc.set_backend(ConvBackend::Transform);
        assert!(
            naive2.mse(&rc.forward(&x, false)) < 1e-10,
            "stale plan after weight edit"
        );
    }

    #[test]
    fn mults_per_pixel_uses_fast_algorithm() {
        let rc = ringconv(RingKind::Ri(4), 8, 8);
        // 2 tuples in/out × 9 taps × m=4 = 144; expanded real would be 576.
        assert_eq!(rc.mults_per_pixel(), 144.0);
        let rc = ringconv(RingKind::Rh4I, 8, 8);
        assert_eq!(rc.mults_per_pixel(), 180.0); // m = 5
    }
}
