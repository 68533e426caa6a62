//! Ring convolution (RCONV, eq. (11)): a `K×K` convolution whose weights
//! and features are ring `n`-tuples.
//!
//! Real channels are grouped into tuples of `n` consecutive channels.
//! Training follows §IV-B: the layer is lowered onto its isomorphic
//! real-valued convolution `G` (eq. (4)) so Backprop flows as usual, and
//! the weight gradient is contracted back onto the `n` ring components.
//! This reuses the heavily-tested real conv kernels and is exactly
//! equivalent to ring-domain backprop (property-tested against the
//! ring-form gradients of §IV-B).

use crate::backend::ConvBackend;
use crate::init::he_std;
use crate::layer::{Layer, ParamGroup};
use crate::layers::fast_ring_conv::FastRingConv;
use crate::runtime::TileHalo;
use ringcnn_algebra::ring::Ring;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tensor::Tensor as T;
use std::sync::OnceLock;

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
pub struct RingConv2d {
    ring: Ring,
    ci_t: usize,
    co_t: usize,
    k: usize,
    /// Ring weights, length `co_t·ci_t·k²·n`.
    weights: Vec<f32>,
    dweights: Vec<f32>,
    /// Real bias (one per real output channel, i.e. the bias tuple
    /// components laid out flat).
    bias: Vec<f32>,
    dbias: Vec<f32>,
    cached_input: Option<T>,
    /// Inference kernel selection; training always lowers naively.
    backend: ConvBackend,
    /// The one inference kernel, chosen from `backend`: built by the
    /// first `forward_infer`, reset by every `&mut` path to the weights,
    /// the bias or the backend.
    kernel: OnceLock<RingKernel>,
}

/// The weight side of a ring convolution in the form each backend runs
/// — a fact fixed once per weight set, like `Tg` in eq. (12).
enum RingKernel {
    /// The isomorphic real-weight expansion (eq. (4)), for the
    /// reference kernel.
    Naive(ConvWeights),
    /// The streaming engine's plan of that expansion.
    Engine(PackedWeights<f32>),
    /// The transform-domain plan: weights already through `Tg`.
    Transform(FastRingConv),
}

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
        let std = he_std(ci * k * k);
        let len = co_t * ci_t * k * k * n;
        let init = T::random_normal(Shape4::new(1, 1, 1, len), std, seed);
        Self {
            ring,
            ci_t,
            co_t,
            k,
            weights: init.as_slice().to_vec(),
            dweights: vec![0.0; len],
            bias: vec![0.0; co],
            dbias: vec![0.0; co],
            cached_input: None,
            backend: ConvBackend::Naive,
            kernel: OnceLock::new(),
        }
    }

    /// The kernel of the active backend, built on first use.
    fn kernel(&self) -> &RingKernel {
        self.kernel.get_or_init(|| match self.backend {
            ConvBackend::Naive => RingKernel::Naive(self.expand_real_weights()),
            ConvBackend::Im2col => RingKernel::Engine(self.expand_real_weights().packed()),
            ConvBackend::Transform => RingKernel::Transform(FastRingConv::new(
                &self.ring,
                &self.weights,
                self.ci_t,
                self.co_t,
                self.k,
                &self.bias,
            )),
        })
    }

    /// The active inference backend.
    pub fn backend(&self) -> ConvBackend {
        self.backend
    }

    /// Selects the inference kernel: naive isomorphic expansion, im2col
    /// expansion, or the transform-domain [`FastRingConv`] engine.
    /// Training forwards/backwards always use the naive lowering.
    pub fn set_backend(&mut self, backend: ConvBackend) {
        self.backend = backend;
        self.kernel.take();
    }

    /// The ring algebra of this layer.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Kernel size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Real input channel count.
    pub fn ci(&self) -> usize {
        self.ci_t * self.ring.n()
    }

    /// Real output channel count.
    pub fn co(&self) -> usize {
        self.co_t * self.ring.n()
    }

    /// Tuple-channel counts `(ci_t, co_t)`.
    pub fn tuple_channels(&self) -> (usize, usize) {
        (self.ci_t, self.co_t)
    }

    /// Flat ring-weight access (`[co_t][ci_t][ky][kx][component]`).
    pub fn ring_weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable flat ring-weight access (resets the inference kernel).
    pub fn ring_weights_mut(&mut self) -> &mut [f32] {
        self.kernel.take();
        &mut self.weights
    }

    /// Bias (per real output channel).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias access (resets the inference kernel: the transform
    /// plan carries the bias).
    pub fn bias_mut(&mut self) -> &mut [f32] {
        self.kernel.take();
        &mut self.bias
    }

    /// Flat index of ring weight `(co_t, ci_t, ky, kx, component)`.
    #[inline]
    pub fn windex(&self, cot: usize, cit: usize, ky: usize, kx: usize, comp: usize) -> usize {
        let n = self.ring.n();
        ((((cot * self.ci_t) + cit) * self.k + ky) * self.k + kx) * n + comp
    }

    /// Expands the ring weights onto the isomorphic real convolution
    /// weights (`co_t·n × ci_t·n × k × k`), eq. (4)/Fig. 5.
    pub fn expand_real_weights(&self) -> ConvWeights {
        let n = self.ring.n();
        let (ci, co) = (self.ci(), self.co());
        let mut w = ConvWeights::zeros(co, ci, self.k);
        let mut tuple = vec![0.0f32; n];
        for cot in 0..self.co_t {
            for cit in 0..self.ci_t {
                for ky in 0..self.k {
                    for kx in 0..self.k {
                        let base = self.windex(cot, cit, ky, kx, 0);
                        tuple.copy_from_slice(&self.weights[base..base + n]);
                        let g = self.ring.expand_weights_f32(&tuple);
                        for i in 0..n {
                            for j in 0..n {
                                let idx = w.index(cot * n + i, cit * n + j, ky, kx);
                                w.data[idx] = g[i * n + j];
                            }
                        }
                    }
                }
            }
        }
        w
    }

    /// Contracts a real weight gradient back onto ring components via the
    /// indexing-tensor terms (the adjoint of [`Self::expand_real_weights`]).
    fn contract_weight_grad(&mut self, dw: &ConvWeights) {
        let n = self.ring.n();
        let terms: Vec<_> = self.ring.terms().to_vec();
        for cot in 0..self.co_t {
            for cit in 0..self.ci_t {
                for ky in 0..self.k {
                    for kx in 0..self.k {
                        let base = self.windex(cot, cit, ky, kx, 0);
                        for t in &terms {
                            let (i, k, j) = (t.i as usize, t.k as usize, t.j as usize);
                            let real = dw.data[dw.index(cot * n + i, cit * n + j, ky, kx)];
                            self.dweights[base + k] += t.c * real;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for RingConv2d {
    fn name(&self) -> String {
        format!(
            "rconv{k}x{k}[{ring}]({ci}->{co})",
            k = self.k,
            ring = self.ring.kind(),
            ci = self.ci(),
            co = self.co()
        )
    }

    fn forward_train(&mut self, input: &T) -> T {
        assert_eq!(
            input.shape().c,
            self.ci(),
            "channel mismatch in {}",
            self.name()
        );
        // Training lowers onto the naive isomorphic expansion so the
        // forward pass matches `backward` exactly; weights are about
        // to change, so reset the inference kernel.
        self.cached_input = Some(input.clone());
        self.kernel.take();
        conv2d_forward(input, &self.expand_real_weights(), &self.bias)
    }

    fn forward_infer(&self, input: &T) -> T {
        assert_eq!(
            input.shape().c,
            self.ci(),
            "channel mismatch in {}",
            self.name()
        );
        match self.kernel() {
            RingKernel::Naive(w) => conv2d_forward(input, w, &self.bias),
            RingKernel::Engine(w) => conv2d_forward_packed(input, self.k, w, &self.bias, 1, [0; 4]),
            RingKernel::Transform(plan) => plan.forward(input),
        }
    }

    fn forward_tile(&self, input: &T, r: usize, tile: &mut TileHalo) -> Option<T> {
        let mut cut = || tile.conv(self.k / 2, r);
        match self.kernel() {
            RingKernel::Engine(w) => Some(conv2d_forward_packed(
                input,
                self.k,
                w,
                &self.bias,
                r,
                cut(),
            )),
            RingKernel::Transform(plan) if r == 1 => Some(plan.forward_region(input, cut())),
            _ => None,
        }
    }

    fn prepare_inference(&mut self) {
        self.kernel();
    }

    fn kernel_radius(&self) -> usize {
        self.k / 2
    }

    fn backward(&mut self, dout: &T) -> T {
        let input = self
            .cached_input
            .take()
            .expect("backward without training forward");
        let w = self.expand_real_weights();
        let (dw, db) = conv2d_backward_weight(&input, dout, self.k);
        self.contract_weight_grad(&dw);
        for (acc, g) in self.dbias.iter_mut().zip(&db) {
            *acc += g;
        }
        conv2d_backward_input(dout, &w)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamGroup<'_>)) {
        // Visitors (optimizers, quantizers) may mutate the parameters.
        self.kernel.take();
        visitor(ParamGroup {
            values: &mut self.weights,
            grads: &mut self.dweights,
        });
        visitor(ParamGroup {
            values: &mut self.bias,
            grads: &mut self.dbias,
        });
    }

    fn mults_per_pixel(&self) -> f64 {
        // Fast-algorithm real multiplications (eq. (12)): m per ring MAC.
        (self.co_t * self.ci_t * self.k * self.k) as f64 * self.ring.fast().m() as f64
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        assert_eq!(
            in_channels,
            self.ci(),
            "channel mismatch in {}",
            self.name()
        );
        self.co()
    }

    fn set_conv_backend(&mut self, backend: ConvBackend) {
        self.set_backend(backend);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_algebra::ring::RingKind;

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
        let _ = rc.forward(&x, true);
        let dx = rc.backward(&dout);
        let eps = 1e-2f32;
        let mut xp = x.clone();
        *xp.at_mut(0, 2, 1, 1) += eps;
        let mut xm = x.clone();
        *xm.at_mut(0, 2, 1, 1) -= eps;
        let f = |t: &T, rc: &mut RingConv2d| -> f32 {
            rc.forward(t, false)
                .as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let fd = (f(&xp, &mut rc) - f(&xm, &mut rc)) / (2.0 * eps);
        assert!((fd - dx.at(0, 2, 1, 1)).abs() < 1e-2);
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
