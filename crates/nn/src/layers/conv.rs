//! The convolution layer: one body, [`ConvLayer`], over the weight
//! lowering that tells its three types apart.
//!
//! The paper runs and trains every ring convolution as its isomorphic
//! real convolution (eq. (4), §IV-B); the real-field convolution (the
//! baseline arithmetic of Fig. 5(a)) and the depth-wise baseline of
//! Fig. 1 are two more zero/sharing patterns of that same real weight
//! matrix. So a convolution layer is its parameters in their own form
//! plus a [`Lowering`] onto real [`ConvWeights`] — the identity (with a
//! pruning mask) for [`Conv2d`], block-diagonal for [`DepthwiseConv2d`],
//! the eq. (4) expansion for `RingConv2d` — and everything else (bias,
//! gradients, backend, the inference kernel and every reset of it, the
//! [`Layer`] implementation) is written once, here.

use crate::backend::ConvBackend;
use crate::init::he_std;
use crate::layer::{Layer, Node, ParamGroup};
use crate::layers::fast_ring_conv::FastRingConv;
use crate::layers::shuffle::cropped;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tensor::Tensor as T;
use std::borrow::Cow;
use std::sync::OnceLock;

/// What a convolution type is beyond the shared body: its parameters and
/// how they lower onto the real convolution the kernels run.
pub trait Lowering: Send + Sync + 'static {
    /// Layer descriptor (e.g. `conv3x3(16->32)`).
    fn name(&self) -> String;

    /// `(co, ci, k)` of the real convolution.
    fn shape(&self) -> (usize, usize, usize);

    /// The stored parameters, flat, as optimizers and model files see
    /// them.
    fn params_mut(&mut self) -> &mut [f32];

    /// The real convolution weights the parameters stand for.
    fn lowered(&self) -> Cow<'_, ConvWeights>;

    /// The adjoint of [`Lowering::lowered`]: accumulates the gradient
    /// `dw` of the real weights onto `grads`, the gradient of the
    /// parameters.
    fn contract(&self, dw: &ConvWeights, grads: &mut [f32]);

    /// Real multiplications per output pixel under the type's fast
    /// algorithm.
    fn mults_per_pixel(&self) -> f64;

    /// The transform-domain plan, for a lowering that has one.
    fn transform(&self, _bias: &[f32]) -> Option<FastRingConv> {
        None
    }

    /// `(n, is_diagonal)` of the ring whose convolution this is: `(1,
    /// true)` for the real field and the (block-diagonal) depth-wise one.
    fn tuple(&self) -> (usize, bool) {
        (1, true)
    }
}

/// Any convolution layer, whatever its lowering ([`Node::Conv`],
/// [`Layer::as_conv_mut`]).
pub trait AnyConv {
    /// The lowering — read [`Lowering::lowered`] for the real weights
    /// (`co`, `ci`, `k` inside) — and the bias per real output channel.
    fn parts(&self) -> (&dyn Lowering, &[f32]);

    /// The stored parameters, flat (resets the inference kernel).
    fn params_mut(&mut self) -> &mut [f32];

    /// Whether the inference kernel writes through a pixel shuffle behind
    /// it: the streaming engine's does (its depth-to-space sink).
    fn fuses_shuffle(&self) -> bool;

    /// The inference forward without `cut` rows and columns on the top,
    /// left, bottom and right of the "same" output, written through the
    /// pixel shuffle of factor `shuffle` (1 unless
    /// [`AnyConv::fuses_shuffle`]).
    fn forward_region(&self, input: &Tensor, cut: [usize; 4], shuffle: usize) -> Tensor;
}

/// The weight side of a convolution in the form its backend runs — a
/// fact fixed once per parameter set, like `Tg` in eq. (12).
enum Kernel {
    /// The lowering itself, for the reference kernel.
    Naive(ConvWeights),
    /// The streaming engine's plan of the lowering.
    Engine(PackedWeights<f32>),
    /// The transform-domain plan: weights already through `Tg`.
    Transform(FastRingConv),
}

/// `K×K` convolution with bias and zero padding ("same" output size)
/// over the weight lowering `L`: [`Conv2d`], [`DepthwiseConv2d`] and
/// `RingConv2d` are this one layer.
pub struct ConvLayer<L: Lowering> {
    lowering: L,
    /// Gradient of the parameters, as stored.
    dweights: Vec<f32>,
    /// Real bias, one per real output channel.
    bias: Vec<f32>,
    dbias: Vec<f32>,
    cached_input: Option<T>,
    /// Inference kernel selection; training always lowers naively.
    backend: ConvBackend,
    /// The one inference kernel, chosen from `backend`: built by the
    /// first `forward_infer`, reset by [`ConvLayer::touched`].
    kernel: OnceLock<Kernel>,
}

/// `len` He-initialized values for a layer of the given fan-in.
pub(crate) fn he_normal(len: usize, fan_in: usize, seed: u64) -> Vec<f32> {
    let init = T::random_normal(Shape4::new(1, 1, 1, len), he_std(fan_in), seed);
    init.as_slice().to_vec()
}

impl<L: Lowering> ConvLayer<L> {
    /// The layer over `lowering`: zero bias, naive backend.
    pub(crate) fn over(mut lowering: L) -> Self {
        let (co, ..) = lowering.shape();
        Self {
            dweights: vec![0.0; lowering.params_mut().len()],
            bias: vec![0.0; co],
            dbias: vec![0.0; co],
            cached_input: None,
            backend: ConvBackend::Naive,
            kernel: OnceLock::new(),
            lowering,
        }
    }

    /// The layer with its inference kernel reset: every `&mut` path to
    /// what the kernel is derived from — parameters, bias, backend —
    /// goes through here, so a kernel can never go stale.
    fn touched(&mut self) -> &mut Self {
        self.kernel.take();
        self
    }

    /// The kernel of the active backend, built on first use. Only a ring
    /// lowering offers a transform plan; for the others
    /// [`ConvBackend::Transform`] degenerates to the engine (their
    /// transforms are identities).
    fn kernel(&self) -> &Kernel {
        self.kernel.get_or_init(|| {
            let transform = (self.backend == ConvBackend::Transform)
                .then(|| self.lowering.transform(&self.bias))
                .flatten();
            match (transform, self.backend) {
                (Some(plan), _) => Kernel::Transform(plan),
                (None, ConvBackend::Naive) => Kernel::Naive(self.lowering.lowered().into_owned()),
                (None, _) => Kernel::Engine(self.lowering.lowered().packed()),
            }
        })
    }

    /// The parameters in the type's own form.
    pub(crate) fn lowering(&self) -> &L {
        &self.lowering
    }

    /// Mutable [`ConvLayer::lowering`] (resets the inference kernel).
    pub(crate) fn lowering_mut(&mut self) -> &mut L {
        &mut self.touched().lowering
    }

    /// The active inference backend.
    pub fn backend(&self) -> ConvBackend {
        self.backend
    }

    /// Selects the inference kernel: the naive reference loop over the
    /// lowering, the streaming im2col engine, or (ring convolutions) the
    /// transform-domain [`FastRingConv`] engine. Training forwards and
    /// backwards always use the naive lowering.
    pub fn set_backend(&mut self, backend: ConvBackend) {
        self.touched().backend = backend;
    }

    /// Real input channel count.
    pub fn ci(&self) -> usize {
        self.lowering.shape().1
    }

    /// Real output channel count.
    pub fn co(&self) -> usize {
        self.lowering.shape().0
    }

    /// Kernel size.
    pub fn k(&self) -> usize {
        self.lowering.shape().2
    }

    /// Bias (per real output channel).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias access (resets the inference kernel: the transform
    /// plan carries the bias).
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.touched().bias
    }

    fn check_channels(&self, c: usize) {
        assert_eq!(c, self.ci(), "channel mismatch in {}", self.name());
    }
}

impl<L: Lowering> AnyConv for ConvLayer<L> {
    fn parts(&self) -> (&dyn Lowering, &[f32]) {
        (&self.lowering, &self.bias)
    }

    fn params_mut(&mut self) -> &mut [f32] {
        self.lowering_mut().params_mut()
    }

    fn fuses_shuffle(&self) -> bool {
        matches!(self.kernel(), Kernel::Engine(_))
    }

    fn forward_region(&self, input: &T, cut: [usize; 4], shuffle: usize) -> T {
        self.check_channels(input.shape().c);
        let (k, bias) = (self.k(), &self.bias);
        match self.kernel() {
            // The reference loop computes the whole "same" output.
            Kernel::Naive(w) => {
                let out = conv2d_forward(input, w, bias);
                if cut == [0; 4] {
                    return out;
                }
                let (s, data) = cropped(out.as_slice(), out.shape(), cut);
                T::from_vec(s, data)
            }
            Kernel::Engine(plan) => conv2d_forward_packed(input, k, plan, bias, shuffle, cut),
            // The transform engine reconstructs whole tuples per pixel.
            Kernel::Transform(plan) => plan.forward_region(input, cut),
        }
    }
}

impl<L: Lowering> Layer for ConvLayer<L> {
    fn name(&self) -> String {
        self.lowering.name()
    }

    fn describe(&self) -> Node<'_> {
        Node::Conv(self)
    }

    fn forward_train(&mut self, input: &T) -> T {
        // Training always flows through the naive reference kernel over
        // the lowering, so the forward pass matches `backward` exactly;
        // the parameters are about to change.
        self.check_channels(input.shape().c);
        self.touched().cached_input = Some(input.clone());
        conv2d_forward(input, &self.lowering.lowered(), &self.bias)
    }

    fn forward_infer(&self, input: &T) -> T {
        self.forward_region(input, [0; 4], 1)
    }

    fn prepare_inference(&mut self) {
        self.kernel();
    }

    fn backward(&mut self, dout: &T) -> T {
        let input = self
            .cached_input
            .take()
            .expect("backward without training forward");
        let (dw, db) = conv2d_backward_weight(&input, dout, self.k());
        self.lowering.contract(&dw, &mut self.dweights);
        for (acc, g) in self.dbias.iter_mut().zip(&db) {
            *acc += g;
        }
        conv2d_backward_input(dout, &self.lowering.lowered())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamGroup<'_>)) {
        // Visitors (optimizers, quantizers) may mutate the parameters.
        let this = self.touched();
        visitor(ParamGroup {
            values: this.lowering.params_mut(),
            grads: &mut this.dweights,
        });
        visitor(ParamGroup {
            values: &mut this.bias,
            grads: &mut this.dbias,
        });
    }

    fn set_conv_backend(&mut self, backend: ConvBackend) {
        self.set_backend(backend);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_conv_mut(&mut self) -> Option<&mut dyn AnyConv> {
        Some(self)
    }
}

/// The real-field lowering: the parameters are the real weights, less
/// what a pruning mask removed.
pub struct RealLowering {
    weights: ConvWeights,
    /// Mask for pruned weights (1 = keep); `None` when dense.
    mask: Option<Vec<f32>>,
}

impl Lowering for RealLowering {
    fn name(&self) -> String {
        let ConvWeights { co, ci, k, .. } = self.weights;
        format!("conv{k}x{k}({ci}->{co})")
    }

    fn shape(&self) -> (usize, usize, usize) {
        (self.weights.co, self.weights.ci, self.weights.k)
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.weights.data
    }

    fn lowered(&self) -> Cow<'_, ConvWeights> {
        Cow::Borrowed(&self.weights)
    }

    fn contract(&self, dw: &ConvWeights, grads: &mut [f32]) {
        // Pruned weights receive no gradient and stay zero.
        for (i, (acc, g)) in grads.iter_mut().zip(&dw.data).enumerate() {
            *acc += g * self.mask.as_ref().map_or(1.0, |mask| mask[i]);
        }
    }

    fn mults_per_pixel(&self) -> f64 {
        // Effective multiplications honour pruning density.
        self.weights.len() as f64 * self.density()
    }
}

impl RealLowering {
    fn density(&self) -> f64 {
        match &self.mask {
            None => 1.0,
            Some(m) => m.iter().filter(|v| **v != 0.0).count() as f64 / m.len() as f64,
        }
    }
}

/// `K×K` real convolution with bias and zero padding ("same" output
/// size) — the baseline arithmetic of Fig. 5(a).
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
pub type Conv2d = ConvLayer<RealLowering>;

impl Conv2d {
    /// Creates a He-initialized convolution (`seed` controls the init).
    pub fn new(ci: usize, co: usize, k: usize, seed: u64) -> Self {
        let mut weights = ConvWeights::zeros(co, ci, k);
        weights.data = he_normal(co * ci * k * k, ci * k * k, seed);
        Self::over(RealLowering {
            weights,
            mask: None,
        })
    }

    /// Immutable weight access.
    pub fn weights(&self) -> &ConvWeights {
        &self.lowering.weights
    }

    /// Mutable weight access (used by quantization and pruning; resets
    /// the inference kernel).
    pub fn weights_mut(&mut self) -> &mut ConvWeights {
        &mut self.lowering_mut().weights
    }

    /// Installs a pruning mask (1 = keep, 0 = pruned). The mask is applied
    /// to the weights immediately and to every weight gradient, so pruned
    /// weights stay zero during fine-tuning.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the weight count.
    pub fn set_mask(&mut self, mask: Vec<f32>) {
        let real = self.lowering_mut();
        assert_eq!(mask.len(), real.weights.data.len(), "mask length mismatch");
        for (w, m) in real.weights.data.iter_mut().zip(&mask) {
            *w *= m;
        }
        real.mask = Some(mask);
    }

    /// The installed pruning mask, if any.
    pub fn mask(&self) -> Option<&[f32]> {
        self.lowering.mask.as_deref()
    }

    /// Fraction of non-zero weights (1.0 when dense).
    pub fn density(&self) -> f64 {
        self.lowering.density()
    }
}

/// The depth-wise lowering: one `K×K` filter per channel, block-diagonal
/// in the real weight matrix.
pub struct DepthwiseLowering {
    k: usize,
    channels: usize,
    /// `[channel][ky][kx]`, flat.
    weights: Vec<f32>,
}

impl DepthwiseLowering {
    /// Where parameter `i` sits on the diagonal of the real weights.
    fn diagonal(&self, i: usize) -> usize {
        let taps = self.k * self.k;
        (i / taps * self.channels + i / taps) * taps + i % taps
    }
}

impl Lowering for DepthwiseLowering {
    fn name(&self) -> String {
        format!("dwconv{k}x{k}({c})", k = self.k, c = self.channels)
    }

    fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.channels, self.k)
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    fn lowered(&self) -> Cow<'_, ConvWeights> {
        let mut w = ConvWeights::zeros(self.channels, self.channels, self.k);
        for (i, v) in self.weights.iter().enumerate() {
            w.data[self.diagonal(i)] = *v;
        }
        Cow::Owned(w)
    }

    fn contract(&self, dw: &ConvWeights, grads: &mut [f32]) {
        for (i, g) in grads.iter_mut().enumerate() {
            *g += dw.data[self.diagonal(i)];
        }
    }

    fn mults_per_pixel(&self) -> f64 {
        self.weights.len() as f64
    }
}

/// Depth-wise `K×K` convolution (one filter per channel) — the DWC
/// baseline of Fig. 1.
pub type DepthwiseConv2d = ConvLayer<DepthwiseLowering>;

impl DepthwiseConv2d {
    /// Creates a He-initialized depth-wise convolution.
    pub fn new(channels: usize, k: usize, seed: u64) -> Self {
        Self::over(DepthwiseLowering {
            k,
            channels,
            weights: he_normal(channels * k * k, k * k, seed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_and_fd;

    #[test]
    fn conv_gradcheck() {
        let mut conv = Conv2d::new(2, 3, 3, 42);
        let x = T::random_uniform(Shape4::new(1, 2, 5, 5), -1.0, 1.0, 1);
        let dout = T::random_uniform(Shape4::new(1, 3, 5, 5), -1.0, 1.0, 2);
        let (an, fd) = input_gradient_and_fd(&mut conv, (&x, &dout), [0, 1, 2, 2], 1e-2);
        assert!((fd - an).abs() < 1e-2);
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

    /// Under the naive backend a one-item batch is, bit for bit, the
    /// im2col lowering of the layer's real weights run through the
    /// matrix-level oracle (row-major pack, then `gemm::reference`);
    /// every other backend stays within the tolerance of the blocked
    /// GEMM tiles, which reassociate `f32` adds.
    fn assert_backends_agree<L: Lowering>(mut layer: ConvLayer<L>, x: &T) {
        let naive = layer.forward(x, false);
        let w = layer.lowering().lowered().into_owned();
        let (rows, plane) = (w.ci * w.k * w.k, x.shape().plane());
        let col = im2col_pack(x, 0, w.k);
        let exact = ringcnn_tensor::gemm::reference(&col, plane, rows, w.co, &w.data, layer.bias());
        assert_eq!(exact.concat(), naive.as_slice());
        for backend in [ConvBackend::Im2col, ConvBackend::Transform] {
            layer.set_backend(backend);
            let fast = layer.forward(x, false);
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!((a - b).abs() <= 1e-4, "{backend}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backends_are_bit_identical_under_reference_kernel() {
        let x = T::random_uniform(Shape4::new(1, 3, 6, 5), -1.0, 1.0, 12);
        assert_backends_agree(Conv2d::new(3, 4, 3, 13), &x);
    }

    #[test]
    fn depthwise_backends_are_bit_identical_under_reference_kernel() {
        let x = T::random_uniform(Shape4::new(1, 3, 5, 4), -1.0, 1.0, 14);
        assert_backends_agree(DepthwiseConv2d::new(3, 3, 15), &x);
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
