//! The transform-domain fast ring convolution engine — an execution plan
//! for FRCONV (eq. (12)) built once per weight set and reused across
//! forward passes.
//!
//! ```text
//! g̃ = Tg·g   (once, at plan construction)
//! x̃ = Tx·x   (once per input tuple)
//! z̃ = Σ g̃ ∘ x̃  (m component-wise real convolutions)
//! z  = Tz·z̃  (once per output tuple)
//! ```
//!
//! Each transformed component `r ∈ 0..m` is an ordinary dense real
//! convolution with `ci_t` input and `co_t` output channels, executed on
//! the im2col kernel; the transforms are plane-wise axpy passes, through
//! one `x̃` and one `z̃` component of scratch a call, reused by all `m`
//! components (3 allocations with the output, not `1 + 2m`). Total
//! cost: `m` real multiplications per ring MAC instead of the `n²` of
//! the naive isomorphic expansion — the paper's eq. (6)–(8) speedup,
//! realized on the inference hot path instead of only in the per-tuple
//! reference implementation (`ringcnn::frconv`).

use ringcnn_algebra::ring::Ring;
use ringcnn_tensor::im2col::conv_streaming_f32;
use ringcnn_tensor::prelude::*;

/// A ready-to-run transform-domain plan for one ring convolution layer.
///
/// Construct with [`FastRingConv::new`] from the layer's ring weights
/// (`[co_t][ci_t][ky][kx][component]` layout, as stored by
/// [`crate::layers::ring_conv::RingConv2d`]); the filter transform is
/// applied once here, so repeated [`FastRingConv::forward`] calls only
/// pay the data/reconstruction transforms and the `m` component convs.
pub struct FastRingConv {
    n: usize,
    m: usize,
    ci_t: usize,
    co_t: usize,
    k: usize,
    /// Data transform `Tx`, row-major `m × n`, as `f32`.
    tx: Vec<f32>,
    /// Reconstruction transform `Tz`, row-major `n × m`, as `f32`.
    tz: Vec<f32>,
    /// Pre-transformed weights `g̃`: one dense `co_t × ci_t × k × k`
    /// real convolution per transformed component, already planned for
    /// the streaming engine.
    comp_weights: Vec<PackedWeights<f32>>,
    /// Bias per real output channel (`co_t·n` entries).
    bias: Vec<f32>,
}

impl FastRingConv {
    /// Builds the plan: applies `Tg` to every weight tuple (in `f64`,
    /// once) and captures `Tx`/`Tz` as `f32` coefficient tables.
    ///
    /// # Panics
    ///
    /// Panics if `ring_weights.len() != co_t·ci_t·k²·n` or
    /// `bias.len() != co_t·n`.
    pub fn new(
        ring: &Ring,
        ring_weights: &[f32],
        ci_t: usize,
        co_t: usize,
        k: usize,
        bias: &[f32],
    ) -> Self {
        let n = ring.n();
        let m = ring.fast().m();
        assert_eq!(
            ring_weights.len(),
            co_t * ci_t * k * k * n,
            "ring weight length mismatch"
        );
        assert_eq!(bias.len(), co_t * n, "bias length mismatch");
        let (tgm, txm, tzm) = (ring.fast().tg(), ring.fast().tx(), ring.fast().tz());

        let mut tx = vec![0.0f32; m * n];
        for r in 0..m {
            for l in 0..n {
                tx[r * n + l] = txm[(r, l)] as f32;
            }
        }
        let mut tz = vec![0.0f32; n * m];
        for l in 0..n {
            for r in 0..m {
                tz[l * m + r] = tzm[(l, r)] as f32;
            }
        }

        // Filter transform: the weight layout enumerates (co_t, ci_t, ky,
        // kx) in exactly the ConvWeights order, so tap index == flat
        // ConvWeights index.
        let taps = co_t * ci_t * k * k;
        let mut comp_weights = vec![ConvWeights::zeros(co_t, ci_t, k); m];
        for tap in 0..taps {
            let g = &ring_weights[tap * n..(tap + 1) * n];
            for (r, cw) in comp_weights.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for (l, gv) in g.iter().enumerate() {
                    acc += tgm[(r, l)] * f64::from(*gv);
                }
                cw.data[tap] = acc as f32;
            }
        }

        Self {
            n,
            m,
            ci_t,
            co_t,
            k,
            tx,
            tz,
            comp_weights: comp_weights.iter().map(ConvWeights::packed).collect(),
            bias: bias.to_vec(),
        }
    }

    /// Number of real multiplications per ring MAC (`m`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Real multiplications per output pixel (`co_t·ci_t·k²·m`) — the
    /// quantity the fast algorithm minimizes, cf. eq. (12).
    pub fn mults_per_pixel(&self) -> f64 {
        (self.co_t * self.ci_t * self.k * self.k * self.m) as f64
    }

    /// Runs the plan on an `[N, ci_t·n, H, W]` input: all of
    /// [`FastRingConv::forward_region`].
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_region(input, [0; 4])
    }

    /// Runs the plan over the region [`Window::inset`] by `cut` of an
    /// `[N, ci_t·n, H, W]` input. Besides the output the call allocates
    /// its scratch once — component `r` of `x̃` (`ci_t` whole planes:
    /// taps reach beyond the region) and of `z̃` (`co_t` regions) for one
    /// batch item — and every component of every item rewrites both
    /// whole.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count is not `ci_t·n`.
    pub fn forward_region(&self, input: &Tensor, cut: [usize; 4]) -> Tensor {
        let s = input.shape();
        assert_eq!(s.c, self.ci_t * self.n, "input channels mismatch");
        let region = Window::inset(s.h, s.w, cut);
        let out_shape = Shape4::new(s.n, self.co_t * self.n, region.h, region.w);
        let mut out = Tensor::zeros(out_shape);
        let plane = s.plane().max(1);
        let mut xt = vec![0.0f32; self.ci_t * s.plane()];
        let mut zt = vec![0.0f32; self.co_t * out_shape.plane()];

        for b in 0..s.n {
            for r in 0..self.m {
                // Data transform: component r of x̃ for every input tuple,
                // as plane-wise axpy passes (coefficients are mostly 0/±1).
                // The first term is added to 0.0, not to what the previous
                // component left behind: the bits of accumulating into a
                // zeroed plane, without zeroing one.
                for (ct, dst) in xt.chunks_mut(plane).enumerate() {
                    let mut first = true;
                    for l in 0..self.n {
                        let c = self.tx[r * self.n + l];
                        if c == 0.0 {
                            continue;
                        }
                        for (d, v) in dst.iter_mut().zip(input.plane(b, ct * self.n + l)) {
                            let acc = if first { 0.0 } else { *d };
                            *d = acc + if c == 1.0 { *v } else { c * *v };
                        }
                        first = false;
                    }
                    if first {
                        dst.fill(0.0);
                    }
                }

                // One component-wise real convolution in the transformed
                // domain, on the streaming im2col engine.
                let x = ConvInput::new(&xt, self.ci_t, s.h, s.w, region);
                conv_streaming_f32(&x, self.k, &self.comp_weights[r], &[], &mut zt);

                // Reconstruction: scatter component r of z̃ through Tz.
                for (cot, src) in zt.chunks(out_shape.plane().max(1)).enumerate() {
                    for l in 0..self.n {
                        let c = self.tz[l * self.m + r];
                        if c == 0.0 {
                            continue;
                        }
                        let dst = out.plane_mut(b, cot * self.n + l);
                        for (d, v) in dst.iter_mut().zip(src) {
                            *d += c * *v;
                        }
                    }
                }
            }
        }

        // Bias, once per real output channel.
        for b in 0..s.n {
            for (c, bv) in self.bias.iter().enumerate() {
                if *bv != 0.0 {
                    for v in out.plane_mut(b, c) {
                        *v += bv;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::ring_conv::RingConv2d;
    use ringcnn_algebra::ring::RingKind;

    #[test]
    fn plan_matches_naive_lowering() {
        for kind in [
            RingKind::Rh(2),
            RingKind::Complex,
            RingKind::Rh(4),
            RingKind::Rh4I,
        ] {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let mut layer = RingConv2d::new(ring.clone(), 2 * n, 2 * n, 3, 17);
            for (i, b) in layer.bias_mut().iter_mut().enumerate() {
                *b = 0.03 * i as f32 - 0.05;
            }
            let x = Tensor::random_uniform(Shape4::new(2, 2 * n, 5, 4), -1.0, 1.0, 18);
            let reference = layer.forward(&x, false);
            let plan = FastRingConv::new(&ring, layer.ring_weights(), 2, 2, 3, layer.bias());
            let fast = plan.forward(&x);
            let mse = reference.mse(&fast);
            assert!(mse < 1e-10, "{kind:?}: plan deviates, mse {mse}");
        }
    }

    #[test]
    fn mult_count_uses_fast_algorithm() {
        let ring = Ring::from_kind(RingKind::Rh(4));
        let plan = FastRingConv::new(&ring, &vec![0.0; 2 * 2 * 9 * 4], 2, 2, 3, &[0.0; 8]);
        assert_eq!(plan.m(), 4);
        assert_eq!(plan.mults_per_pixel(), 144.0);
    }

    #[test]
    #[should_panic(expected = "ring weight length mismatch")]
    fn rejects_bad_weight_length() {
        let ring = Ring::from_kind(RingKind::Rh(2));
        let _ = FastRingConv::new(&ring, &[0.0; 7], 1, 1, 1, &[0.0; 2]);
    }
}
