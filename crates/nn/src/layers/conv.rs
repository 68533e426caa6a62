//! Real-valued convolution layer (the baseline arithmetic of Fig. 5(a)).

use crate::backend::ConvBackend;
use crate::init::he_std;
use crate::layer::{Layer, ParamGroup};
use crate::runtime::TileHalo;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tensor::Tensor as T;
use std::sync::OnceLock;

/// `K×K` real convolution with bias and zero padding ("same" output size).
///
/// # Examples
///
/// ```
/// use ringcnn_nn::layers::conv::Conv2d;
/// use ringcnn_nn::layer::Layer;
/// use ringcnn_tensor::prelude::*;
/// let mut conv = Conv2d::new(3, 8, 3, 1);
/// let x = Tensor::zeros(Shape4::new(1, 3, 6, 6));
/// let y = conv.forward(&x, false);
/// assert_eq!(y.shape().c, 8);
/// ```
pub struct Conv2d {
    weights: ConvWeights,
    bias: Vec<f32>,
    dweights: ConvWeights,
    dbias: Vec<f32>,
    cached_input: Option<T>,
    /// Mask for pruned weights (1 = keep); `None` when dense.
    mask: Option<Vec<f32>>,
    /// Forward kernel selection; both kernels are bit-for-bit identical.
    backend: ConvBackend,
    /// The streaming engine's plan of `weights`: built by the first
    /// engine forward, reset by every `&mut` path to the weights. (The
    /// naive kernel reads `weights` directly and never fills it.)
    plan: OnceLock<PackedWeights<f32>>,
}

impl Conv2d {
    /// Creates a He-initialized convolution (`seed` controls the init).
    pub fn new(ci: usize, co: usize, k: usize, seed: u64) -> Self {
        let std = he_std(ci * k * k);
        let init = T::random_normal(Shape4::new(1, 1, 1, co * ci * k * k), std, seed);
        let mut weights = ConvWeights::zeros(co, ci, k);
        weights.data.copy_from_slice(init.as_slice());
        Self {
            dweights: ConvWeights::zeros(co, ci, k),
            dbias: vec![0.0; co],
            bias: vec![0.0; co],
            weights,
            cached_input: None,
            mask: None,
            backend: ConvBackend::Naive,
            plan: OnceLock::new(),
        }
    }

    /// The active convolution backend.
    pub fn backend(&self) -> ConvBackend {
        self.backend
    }

    /// Selects the forward kernel ([`ConvBackend::Transform`] degenerates
    /// to im2col for a real convolution: the real field's transforms are
    /// identities). Both kernels produce bit-identical outputs.
    pub fn set_backend(&mut self, backend: ConvBackend) {
        self.backend = backend;
    }

    /// Input channel count.
    pub fn ci(&self) -> usize {
        self.weights.ci
    }

    /// Output channel count.
    pub fn co(&self) -> usize {
        self.weights.co
    }

    /// Kernel size.
    pub fn k(&self) -> usize {
        self.weights.k
    }

    /// Immutable weight access.
    pub fn weights(&self) -> &ConvWeights {
        &self.weights
    }

    /// Mutable weight access (used by quantization and pruning; resets
    /// the weight plan).
    pub fn weights_mut(&mut self) -> &mut ConvWeights {
        self.plan.take();
        &mut self.weights
    }

    /// Bias access.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Installs a pruning mask (1 = keep, 0 = pruned). The mask is applied
    /// to the weights immediately and re-applied after every backward pass
    /// so pruned weights stay zero during fine-tuning.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the weight count.
    pub fn set_mask(&mut self, mask: Vec<f32>) {
        assert_eq!(mask.len(), self.weights.data.len(), "mask length mismatch");
        self.plan.take();
        for (w, m) in self.weights.data.iter_mut().zip(&mask) {
            *w *= m;
        }
        self.mask = Some(mask);
    }

    /// The engine's weight plan, planned on first use.
    fn plan(&self) -> &PackedWeights<f32> {
        self.plan.get_or_init(|| self.weights.packed())
    }

    /// The installed pruning mask, if any.
    pub fn mask(&self) -> Option<&[f32]> {
        self.mask.as_deref()
    }

    /// Fraction of non-zero weights (1.0 when dense).
    pub fn density(&self) -> f64 {
        match &self.mask {
            None => 1.0,
            Some(m) => m.iter().filter(|v| **v != 0.0).count() as f64 / m.len() as f64,
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv{k}x{k}({ci}->{co})",
            k = self.weights.k,
            ci = self.weights.ci,
            co = self.weights.co
        )
    }

    fn forward_train(&mut self, input: &T) -> T {
        // Training always flows through the naive reference kernel
        // (same contract as RingConv2d; backward uses it too); the
        // weights are about to change, so reset the plan.
        self.cached_input = Some(input.clone());
        self.plan.take();
        conv2d_forward(input, &self.weights, &self.bias)
    }

    fn forward_infer(&self, input: &T) -> T {
        let engine = self.forward_tile(input, 1, &mut TileHalo::whole());
        engine.unwrap_or_else(|| conv2d_forward(input, &self.weights, &self.bias))
    }

    fn forward_tile(&self, input: &T, r: usize, tile: &mut TileHalo) -> Option<T> {
        (self.backend != ConvBackend::Naive).then(|| {
            let (k, cut) = (self.weights.k, tile.conv(self.weights.k / 2, r));
            conv2d_forward_packed(input, k, self.plan(), &self.bias, r, cut)
        })
    }

    fn prepare_inference(&mut self) {
        if self.backend != ConvBackend::Naive {
            self.plan();
        }
    }

    fn kernel_radius(&self) -> usize {
        self.weights.k / 2
    }

    fn backward(&mut self, dout: &T) -> T {
        let input = self
            .cached_input
            .take()
            .expect("backward without training forward");
        let (mut dw, db) = conv2d_backward_weight(&input, dout, self.weights.k);
        if let Some(mask) = &self.mask {
            for (g, m) in dw.data.iter_mut().zip(mask) {
                *g *= m;
            }
        }
        for (acc, g) in self.dweights.data.iter_mut().zip(&dw.data) {
            *acc += g;
        }
        for (acc, g) in self.dbias.iter_mut().zip(&db) {
            *acc += g;
        }
        conv2d_backward_input(dout, &self.weights)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamGroup<'_>)) {
        // Visitors (optimizers, quantizers) may mutate the parameters.
        self.plan.take();
        visitor(ParamGroup {
            values: &mut self.weights.data,
            grads: &mut self.dweights.data,
        });
        visitor(ParamGroup {
            values: &mut self.bias,
            grads: &mut self.dbias,
        });
    }

    fn mults_per_pixel(&self) -> f64 {
        // Effective multiplications honour pruning density.
        (self.weights.co * self.weights.ci * self.weights.k * self.weights.k) as f64
            * self.density()
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        assert_eq!(
            in_channels,
            self.weights.ci,
            "channel mismatch in {}",
            self.name()
        );
        self.weights.co
    }

    fn set_conv_backend(&mut self, backend: ConvBackend) {
        self.set_backend(backend);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Depth-wise `K×K` convolution (one filter per channel) followed
/// conceptually by nothing — used as the DWC baseline of Fig. 1.
pub struct DepthwiseConv2d {
    k: usize,
    channels: usize,
    weights: Vec<f32>,
    dweights: Vec<f32>,
    bias: Vec<f32>,
    dbias: Vec<f32>,
    cached_input: Option<T>,
    backend: ConvBackend,
    /// The one inference kernel, chosen from `backend`: built by the
    /// first `forward_infer`, reset by every `&mut` path to the weights
    /// or the backend.
    kernel: OnceLock<DepthwiseKernel>,
}

/// The block-diagonal lowering of the per-channel filters — simple, and
/// it reuses the tested dense kernels — in the form each backend runs.
enum DepthwiseKernel {
    /// The lowering itself, for the reference kernel.
    Naive(ConvWeights),
    /// The streaming engine's plan of it.
    Engine(PackedWeights<f32>),
}

impl DepthwiseConv2d {
    /// Creates a He-initialized depth-wise convolution.
    pub fn new(channels: usize, k: usize, seed: u64) -> Self {
        let std = he_std(k * k);
        let init = T::random_normal(Shape4::new(1, 1, 1, channels * k * k), std, seed);
        Self {
            k,
            channels,
            weights: init.as_slice().to_vec(),
            dweights: vec![0.0; channels * k * k],
            bias: vec![0.0; channels],
            dbias: vec![0.0; channels],
            cached_input: None,
            backend: ConvBackend::Naive,
            kernel: OnceLock::new(),
        }
    }

    /// Builds the block-diagonal lowering of the per-channel filters.
    fn block_diagonal_weights(&self) -> ConvWeights {
        let mut w = ConvWeights::zeros(self.channels, self.channels, self.k);
        for c in 0..self.channels {
            for t in 0..self.k * self.k {
                let idx = w.index(c, c, t / self.k, t % self.k);
                w.data[idx] = self.weights[c * self.k * self.k + t];
            }
        }
        w
    }

    /// The kernel of the active backend, built on first use.
    fn kernel(&self) -> &DepthwiseKernel {
        self.kernel.get_or_init(|| {
            let lowered = self.block_diagonal_weights();
            match self.backend {
                ConvBackend::Naive => DepthwiseKernel::Naive(lowered),
                _ => DepthwiseKernel::Engine(lowered.packed()),
            }
        })
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> String {
        format!("dwconv{k}x{k}({c})", k = self.k, c = self.channels)
    }

    fn forward_train(&mut self, input: &T) -> T {
        assert_eq!(input.shape().c, self.channels, "channel mismatch");
        self.cached_input = Some(input.clone());
        self.kernel.take();
        conv2d_forward(input, &self.block_diagonal_weights(), &self.bias)
    }

    fn forward_infer(&self, input: &T) -> T {
        assert_eq!(input.shape().c, self.channels, "channel mismatch");
        match self.kernel() {
            DepthwiseKernel::Naive(w) => conv2d_forward(input, w, &self.bias),
            DepthwiseKernel::Engine(plan) => {
                conv2d_forward_packed(input, self.k, plan, &self.bias, 1, [0; 4])
            }
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
        let w = self.block_diagonal_weights();
        let (dw, db) = conv2d_backward_weight(&input, dout, self.k);
        for c in 0..self.channels {
            for t in 0..self.k * self.k {
                self.dweights[c * self.k * self.k + t] +=
                    dw.data[dw.index(c, c, t / self.k, t % self.k)];
            }
            self.dbias[c] += db[c];
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
        (self.channels * self.k * self.k) as f64
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        assert_eq!(in_channels, self.channels);
        self.channels
    }

    fn set_conv_backend(&mut self, backend: ConvBackend) {
        self.backend = backend;
        self.kernel.take();
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_gradcheck() {
        let mut conv = Conv2d::new(2, 3, 3, 42);
        let x = T::random_uniform(Shape4::new(1, 2, 5, 5), -1.0, 1.0, 1);
        let dout = T::random_uniform(Shape4::new(1, 3, 5, 5), -1.0, 1.0, 2);
        let _ = conv.forward(&x, true);
        let dx = conv.backward(&dout);
        // Finite differences on one input element.
        let eps = 1e-2;
        let mut xp = x.clone();
        *xp.at_mut(0, 1, 2, 2) += eps;
        let mut xm = x.clone();
        *xm.at_mut(0, 1, 2, 2) -= eps;
        let dot = |t: &T| -> f32 {
            conv2d_forward(t, conv.weights(), conv.bias())
                .as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let fd = (dot(&xp) - dot(&xm)) / (2.0 * eps);
        assert!((fd - dx.at(0, 1, 2, 2)).abs() < 1e-2);
    }

    #[test]
    fn mask_freezes_pruned_weights() {
        let mut conv = Conv2d::new(1, 1, 3, 7);
        let mut mask = vec![1.0f32; 9];
        mask[4] = 0.0;
        conv.set_mask(mask);
        assert_eq!(conv.weights().data[4], 0.0);
        assert!((conv.density() - 8.0 / 9.0).abs() < 1e-12);
        let x = T::random_uniform(Shape4::new(1, 1, 4, 4), -1.0, 1.0, 3);
        let _ = conv.forward(&x, true);
        let dout = T::random_uniform(Shape4::new(1, 1, 4, 4), -1.0, 1.0, 4);
        let _ = conv.backward(&dout);
        let mut grads = Vec::new();
        conv.visit_params(&mut |g| grads.push(g.grads.to_vec()));
        assert_eq!(grads[0][4], 0.0, "pruned weight must receive zero gradient");
    }

    #[test]
    fn depthwise_matches_per_channel_conv() {
        let mut dw = DepthwiseConv2d::new(2, 3, 5);
        let x = T::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 6);
        let y = dw.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
        // Output channel 0 must be independent of input channel 1.
        let mut x2 = x.clone();
        for v in x2.plane_mut(0, 1) {
            *v += 10.0;
        }
        let y2 = dw.forward(&x2, false);
        assert_eq!(y.plane(0, 0), y2.plane(0, 0));
        assert_ne!(y.plane(0, 1), y2.plane(0, 1));
    }

    /// The im2col lowering of a one-item batch under the reference
    /// kernel: row-major pack, then the matrix-level oracle.
    fn reference_lowering(x: &T, w: &ConvWeights, bias: &[f32]) -> Vec<f32> {
        let (rows, plane) = (w.ci * w.k * w.k, x.shape().plane());
        let col = im2col_pack(x, 0, w.k);
        ringcnn_tensor::gemm::reference(&col, plane, rows, w.co, &w.data, bias).concat()
    }

    #[test]
    fn backends_are_bit_identical_under_reference_kernel() {
        let x = T::random_uniform(Shape4::new(1, 3, 6, 5), -1.0, 1.0, 12);
        let mut conv = Conv2d::new(3, 4, 3, 13);
        let naive = conv.forward(&x, false);
        let exact = reference_lowering(&x, conv.weights(), conv.bias());
        assert_eq!(exact, naive.as_slice());
        for backend in [ConvBackend::Im2col, ConvBackend::Transform] {
            conv.set_backend(backend);
            // The blocked GEMM tiles reassociate f32 adds: tolerance.
            for (a, b) in conv
                .forward(&x, false)
                .as_slice()
                .iter()
                .zip(naive.as_slice())
            {
                assert!((a - b).abs() <= 1e-4, "{backend}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn depthwise_backends_are_bit_identical_under_reference_kernel() {
        let x = T::random_uniform(Shape4::new(1, 3, 5, 4), -1.0, 1.0, 14);
        let mut dw = DepthwiseConv2d::new(3, 3, 15);
        let naive = dw.forward(&x, false);
        let exact = reference_lowering(&x, &dw.block_diagonal_weights(), &dw.bias);
        assert_eq!(exact, naive.as_slice());
        dw.set_conv_backend(ConvBackend::Im2col);
        for (a, b) in dw
            .forward(&x, false)
            .as_slice()
            .iter()
            .zip(naive.as_slice())
        {
            assert!((a - b).abs() <= 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn mults_per_pixel_counts() {
        let mut conv = Conv2d::new(4, 8, 3, 1);
        assert_eq!(conv.mults_per_pixel(), (8 * 4 * 9) as f64);
        assert_eq!(conv.num_params(), 8 * 4 * 9 + 8);
        let dw = DepthwiseConv2d::new(8, 3, 1);
        assert_eq!(dw.mults_per_pixel(), 72.0);
    }
}
