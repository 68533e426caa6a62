//! Bit-accurate quantized inference of RingCNN models (§IV-C).
//!
//! A float model ([`Sequential`] of convolutions, activations, shuffles,
//! residual blocks) is calibrated on sample data and lowered onto an
//! integer pipeline:
//!
//! - weights quantized to 8-bit with a per-layer Q-format;
//! - features quantized to 8-bit with per-layer Q-formats — or, for
//!   models with the directional ReLU, **component-wise Q-formats** (one
//!   per tuple component, the paper's fix for the diverging per-component
//!   dynamic ranges);
//! - convolution accumulators kept wide and fed to the directional-ReLU
//!   unit **on the fly** (Fig. 8), avoiding the intermediate quantization
//!   of MAC-based execution — the ablation mode
//!   [`DReluMode::MacBased`] reproduces the conventional pipeline and its
//!   PSNR penalty.
//!
//! The pipeline runs in the width its tables allow. There is one integer
//! chain, generic over the type its tensors are stored in ([`Tier`]):
//! [`QuantizedModel::forward_q`] and [`execute_layer`] on a [`QTensor`]
//! are the `i64` interchange tier the simulator and the two
//! `*_reference` oracles speak, and [`QuantizedModel::forward`] runs the
//! same stages in `i32` lanes — 16-bit multiplies in the conv engine —
//! whenever the load-time overflow proof of
//! [`QuantizedModel::prepare_inference`] shows that no integer of the
//! chain can reach `2^31`, whatever the input ([`Lanes`],
//! [`LaneProof`]), on 8-bit planes when every format that reaches memory
//! has at most 8 bits ([`Storage`]). A conv that keeps its accumulator
//! and the directional ReLU behind it are one step of the chain in every
//! tier: the unit runs on each column chunk's accumulators inside the
//! conv engine (the paper's on-the-fly execution, literally), so only
//! requantized features are ever stored. Nothing selects tier, storage
//! or fusion; all compute the same integers.

use crate::qformat::{requant_shift, QFormat, QFormatError};
use crate::qtensor::{expand_formats, group_max_abs, QTensor, QTensorOf, Store, BLOCK};
use ringcnn_algebra::transforms::{fwht_i64, fwht_planes};
use ringcnn_nn::layer::Layer;
use ringcnn_nn::layers::activation::{DirectionalReluLayer, Relu};
use ringcnn_nn::layers::shuffle::{
    cropped, shuffle_into, unshuffle_into, PixelShuffle, PixelUnshuffle,
};
use ringcnn_nn::layers::structure::{Residual, Sequential};
use ringcnn_nn::layers::upsample::{upsample_region, UpsampleResidual};
use ringcnn_nn::runtime::{InferenceModel, ModelTopo, TileHalo, TopoBuilder};
use ringcnn_tensor::gemm::{ChunkEpilogue, Lane, PackedWeights, RequantChannel, RequantPlan};
use ringcnn_tensor::im2col::{conv_streaming_i32, conv_streaming_i64, ConvInput};
use ringcnn_tensor::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::OnceLock;

#[path = "proof.rs"]
mod proof;
use proof::validate_format;
pub use proof::{LaneProof, ProofStage, StageKind};

/// Why a calibration pass failed to produce a quantized model.
#[derive(Clone, Debug, PartialEq)]
pub enum CalibrationError {
    /// An observed dynamic range was NaN/∞ (divergent activations or
    /// weights); `context` names the offending stage.
    NonFinite {
        /// Which range fit failed (input, weights, layer output, …).
        context: String,
        /// The underlying format error.
        source: QFormatError,
    },
    /// The model contains a layer type outside the supported imaging set
    /// (conv / ring conv / ReLU / directional ReLU / shuffle / residual).
    UnsupportedLayer(String),
    /// The calibration batch is empty.
    EmptyCalibration,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::NonFinite { context, source } => {
                write!(f, "non-finite dynamic range at {context}: {source}")
            }
            CalibrationError::UnsupportedLayer(name) => {
                write!(f, "unsupported layer in quantized pipeline: {name}")
            }
            CalibrationError::EmptyCalibration => write!(f, "calibration batch is empty"),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// [`QFormat::try_fit`] with calibration-error context.
fn fit_ctx(max_abs: f64, bits: u32, context: &str) -> Result<QFormat, CalibrationError> {
    QFormat::try_fit(max_abs, bits).map_err(|source| CalibrationError::NonFinite {
        context: context.into(),
        source,
    })
}

/// Quantization options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantOptions {
    /// Weight bits (paper: 8).
    pub weight_bits: u32,
    /// Feature bits (paper: 8).
    pub feature_bits: u32,
    /// Component-wise feature Q-formats (one per tuple component) instead
    /// of a single per-layer format (§IV-C).
    pub component_wise: bool,
    /// On-the-fly directional ReLU on full-precision accumulators
    /// (Fig. 8) instead of the MAC-based path with intermediate
    /// quantization.
    pub on_the_fly_drelu: bool,
}

impl Default for QuantOptions {
    fn default() -> Self {
        Self {
            weight_bits: 8,
            feature_bits: 8,
            component_wise: true,
            on_the_fly_drelu: true,
        }
    }
}

/// Directional-ReLU execution mode in the integer pipeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DReluMode {
    /// Fig. 8: align accumulator components (left shifts), butterfly
    /// Hadamard, ReLU, butterfly Hadamard, requantize once to the output
    /// component formats.
    OnTheFly,
    /// Conventional MAC execution: the transform operates on requantized
    /// 8-bit features, adding two extra quantization points (`mid` after
    /// the first transform).
    MacBased {
        /// Format after the first Hadamard transform.
        mid: QFormat,
    },
}

/// One quantized layer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum QLayer {
    /// Integer convolution (possibly the expansion of a ring conv).
    Conv(QConv),
    /// Component-wise ReLU on 8-bit features.
    Relu,
    /// Directional ReLU over `n`-tuples.
    DRelu(QDRelu),
    /// Depth-to-space.
    Shuffle(usize),
    /// Space-to-depth.
    Unshuffle(usize),
    /// Skip connection with saturating aligned addition.
    Residual(Box<QResidual>),
    /// SR global skip: body output plus bicubic-upsampled input (the
    /// skip path runs in a dedicated fixed-point interpolator modeled by
    /// quantizing the bicubic result at the output format).
    UpsampleResidual(Box<QUpsampleResidual>),
}

/// Quantized bicubic-skip wrapper.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QUpsampleResidual {
    body: Vec<QLayer>,
    factor: usize,
    out_formats: Vec<QFormat>,
}

/// Quantized convolution: expanded real weights in 8-bit, wide
/// accumulator, optional output requantization.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QConv {
    co: usize,
    ci: usize,
    k: usize,
    weights: Vec<i64>,
    w_format: QFormat,
    /// Bias at the accumulator scale of each output channel.
    bias: Vec<i64>,
    /// `Some(formats)`: requantize the accumulator to 8-bit features.
    /// `None`: hand the accumulator straight to a directional ReLU.
    requant: Option<Vec<QFormat>>,
    /// When the incoming features carry mixed per-channel formats that
    /// this (dense) convolution would combine in one accumulator, they
    /// are first aligned to this single format — the hardware's format
    /// aligner in front of dense stages.
    align_input: Option<QFormat>,
    /// The run-time kernels derived from the frozen weights; never
    /// stored, never compared (boxed: a `QLayer` stays a few words).
    #[serde(skip)]
    plan: Derived<Box<ConvPlans>>,
}

/// The run-time kernels of a [`QConv`], each built once, on first use:
/// [`QuantizedModel::prepare_inference`] asks for the plan of the tier
/// the model runs in, and the other tier's is built if anything ever
/// runs the conv there (`execute_layer` on a model that runs in `i32`).
#[derive(Clone, Debug, Default)]
struct ConvPlans {
    /// `support[co·ci_n + ci]`: whether any tap of `(co, ci)` is
    /// non-zero, i.e. whether input channel `ci`'s scale reaches output
    /// channel `co`'s accumulator.
    support: OnceLock<Vec<bool>>,
    /// The streaming engine's plans of the integer weights: for `i64`
    /// lanes, and as 16-bit operands for `i32` lanes.
    wide: OnceLock<PackedWeights<i64>>,
    narrow: OnceLock<PackedWeights<i16>>,
}

/// State derived from the tables beside it (a conv's kernels, a model's
/// lane proof). Equal to every other `Derived`: a prepared and an
/// unprepared model over the same tables are the same model.
#[derive(Clone, Debug, Default)]
struct Derived<T>(T);

impl<T> PartialEq for Derived<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A value the load-time proof bounds, in the type it was proven into.
fn narrow<W, N: TryFrom<W>>(v: W) -> N {
    let fits = N::try_from(v).ok();
    fits.expect("the i32 tier runs what the load-time proof admitted")
}

/// The streaming convolution over one store (`conv_streaming_i64`'s
/// shape).
type ConvStreaming<S> = fn(
    &ConvInput<'_, S>,
    usize,
    &PackedWeights<<S as Tier>::Weight>,
    &[<S as Store>::Lane],
    (
        Option<&RequantPlan>,
        Option<ChunkEpilogue<'_, <S as Store>::Lane>>,
    ),
    &mut [S],
);

/// A store the chain runs on: [`Store`] plus its tier's entry to the conv
/// engine. `i64`, `i32` and `i8` are all there is.
pub trait Tier: Store {
    /// What the engine's weight packs hold in this tier.
    #[doc(hidden)]
    type Weight;

    /// The streaming convolution over this store.
    #[doc(hidden)]
    const CONV_STREAMING: ConvStreaming<Self>;

    /// This tier's plan of `c`'s weights, built on first use.
    #[doc(hidden)]
    fn packed(c: &QConv) -> &PackedWeights<Self::Weight>;
}

impl Tier for i64 {
    type Weight = i64;
    const CONV_STREAMING: ConvStreaming<i64> = conv_streaming_i64;

    fn packed(c: &QConv) -> &PackedWeights<i64> {
        let plan = || PackedWeights::<i64>::new(c.co, c.ci * c.k * c.k, &c.weights);
        c.plan.0.wide.get_or_init(plan)
    }
}

/// The `i32` lanes' plan of `c`: its weights as 16-bit operands.
fn packed_narrow(c: &QConv) -> &PackedWeights<i16> {
    let plan = || {
        let weights: Vec<i16> = c.weights.iter().map(|w| narrow(*w)).collect();
        PackedWeights::<i16>::new(c.co, c.ci * c.k * c.k, &weights)
    };
    c.plan.0.narrow.get_or_init(plan)
}

impl Tier for i32 {
    type Weight = i16;
    const CONV_STREAMING: ConvStreaming<i32> = conv_streaming_i32::<i32>;

    fn packed(c: &QConv) -> &PackedWeights<i16> {
        packed_narrow(c)
    }
}

impl Tier for i8 {
    type Weight = i16;
    const CONV_STREAMING: ConvStreaming<i8> = conv_streaming_i32::<i8>;

    fn packed(c: &QConv) -> &PackedWeights<i16> {
        packed_narrow(c)
    }
}

/// Quantized directional ReLU.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QDRelu {
    n: usize,
    mode: DReluMode,
    /// Output component formats (expanded per channel at run time).
    out_formats: Vec<QFormat>,
}

/// Quantized residual block.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QResidual {
    body: Vec<QLayer>,
    out_formats: Vec<QFormat>,
}

impl QConv {
    /// Output channels.
    pub fn co(&self) -> usize {
        self.co
    }

    /// Input channels.
    pub fn ci(&self) -> usize {
        self.ci
    }

    /// Kernel size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Quantized (expanded real) weights, `[co][ci][ky][kx]`.
    pub fn weights(&self) -> &[i64] {
        &self.weights
    }

    /// Weight Q-format.
    pub fn w_format(&self) -> QFormat {
        self.w_format
    }

    /// Output requantization formats (`None` = accumulator pass-through).
    pub fn requant(&self) -> Option<&[QFormat]> {
        self.requant.as_deref()
    }

    /// Input alignment format, if any.
    pub fn align_input(&self) -> Option<QFormat> {
        self.align_input
    }

    /// Integer bias of channel `co` at the given accumulator frac.
    pub fn bias_int(&self, co: usize, acc_frac: i32) -> i64 {
        bias_at(self, co, acc_frac)
    }

    /// [`tap_support`], derived once.
    fn support(&self) -> &[bool] {
        self.plan.0.support.get_or_init(|| tap_support(self))
    }
}

impl QDRelu {
    /// A directional ReLU over `n`-tuples with the given output
    /// component formats (cycled over the channels) — what calibration
    /// emits, for harnesses that exercise the unit on its own.
    pub fn new(n: usize, mode: DReluMode, out_formats: Vec<QFormat>) -> Self {
        Self {
            n,
            mode,
            out_formats,
        }
    }

    /// Tuple size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Execution mode.
    pub fn mode(&self) -> &DReluMode {
        &self.mode
    }

    /// Output component formats.
    pub fn out_formats(&self) -> &[QFormat] {
        &self.out_formats
    }
}

impl QResidual {
    /// Body layers.
    pub fn body(&self) -> &[QLayer] {
        &self.body
    }

    /// Output formats.
    pub fn out_formats(&self) -> &[QFormat] {
        &self.out_formats
    }
}

impl QUpsampleResidual {
    /// Body layers.
    pub fn body(&self) -> &[QLayer] {
        &self.body
    }

    /// Upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Output formats.
    pub fn out_formats(&self) -> &[QFormat] {
        &self.out_formats
    }
}

/// Executes a single quantized layer (public for the accelerator
/// simulator, which cross-checks its own datapath against this
/// reference). On a [`QTensor`] this is the `i64` interchange tier,
/// exact for every tensor; on a `QTensorOf<i32>` or `QTensorOf<i8>` it is
/// the stage a model proven into [`Lanes::I32`] runs on that store,
/// exact for what the proof covers (an `i8` store holds no accumulator:
/// there a conv without a requantizer runs only inside the chain, as one
/// step with its directional ReLU) — there for `tests/quant_backend.rs`
/// to hold it to the `i64` tier.
pub fn execute_layer<S: Tier>(layer: &QLayer, q: QTensorOf<S>) -> QTensorOf<S> {
    run_layer(layer, Cow::Owned(q), &mut TileHalo::whole())
}

/// The integer lanes a model runs in, decided by the load-time proof of
/// [`QuantizedModel::prepare_inference`] from the model's tables alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lanes {
    /// 32-bit lanes: whatever the input, no integer of the chain reaches
    /// `2^31` and every conv multiplies 16-bit operands (`|v| ≤ 32767`).
    I32,
    /// 64-bit lanes, the interchange tier: everything else, and a model
    /// nothing has prepared yet.
    I64,
}

/// What the tensors between the steps of a model are stored in, decided
/// with its [`Lanes`] by the same load-time proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// 8-bit planes: the model runs in [`Lanes::I32`] and every format
    /// that reaches memory — the input, requantized conv outputs and
    /// aligned inputs, directional-ReLU, residual and upsample-residual
    /// outputs (a shuffle keeps one of these) — has at most 8 bits.
    I8,
    /// Planes as wide as the lane.
    Lane,
}

/// A fully quantized model: integer layers plus the input image format.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantizedModel {
    input_format: QFormat,
    layers: Vec<QLayer>,
    opts: QuantOptions,
    /// What [`QuantizedModel::prepare_inference`] proved; never stored,
    /// never compared.
    #[serde(skip)]
    proof: Derived<Option<LaneProof>>,
}

impl QuantizedModel {
    /// Calibrates `model` on `calibration` inputs and lowers it to the
    /// integer pipeline.
    ///
    /// # Panics
    ///
    /// Panics on any [`CalibrationError`] — unsupported layer types or
    /// non-finite dynamic ranges. Use [`QuantizedModel::try_quantize`]
    /// (or `ringcnn_quant::calibrate`) when the calibration data is not
    /// known-good.
    pub fn quantize(model: &mut Sequential, calibration: &Tensor, opts: QuantOptions) -> Self {
        Self::try_quantize(model, calibration, opts)
            .unwrap_or_else(|e| panic!("quantization failed: {e}"))
    }

    /// Fallible calibration: every way the pass can fail — a divergent
    /// activation range (NaN/∞), an unsupported layer, an empty batch —
    /// surfaces as a [`CalibrationError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// See [`CalibrationError`].
    pub fn try_quantize(
        model: &mut Sequential,
        calibration: &Tensor,
        opts: QuantOptions,
    ) -> Result<Self, CalibrationError> {
        if calibration.shape().is_empty() {
            return Err(CalibrationError::EmptyCalibration);
        }
        let input_format = fit_ctx(
            group_max_abs(calibration, 1)[0],
            opts.feature_bits,
            "calibration input",
        )?;
        // Everything that outlives calibration — the float model's
        // kernels, the integer weight tables — is built before the first
        // activation exists: the walk below allocates nothing that stays.
        Layer::prepare_inference(model);
        let mut convs = lower_weights(model, &opts)?;
        let x = Cow::Borrowed(calibration);
        let (layers, _out, _groups) =
            build_chain_grouped(model.layers_mut(), x, &opts, 1, &mut convs)?;
        let mut quantized = Self {
            input_format,
            layers,
            opts,
            proof: Derived(None),
        };
        quantized.prepare_inference();
        Ok(quantized)
    }

    /// Decides the lanes the model runs in and plans every convolution's
    /// weights for that tier of the streaming engine (idempotent). A
    /// freshly quantized or loaded model is already prepared; a bare
    /// deserialized one runs in [`Lanes::I64`] until this runs
    /// (`BatchRunner::new` calls it), planning each conv on first use.
    ///
    /// The decision is a proof from the tables alone: the walk of
    /// [`QuantizedModel::validate`], over the chain's own input channel
    /// count, carries beside every channel's format the largest
    /// magnitude any input can drive it to — a format's rail for
    /// features and requantized outputs, `|bias| + Σ_ci (Σ_taps
    /// |w|)·bound[ci]` for a conv accumulator, per tuple of a
    /// directional ReLU the sum `S` of its aligned components through
    /// the first butterfly and `n·S` through the second (`n` rails of
    /// `mid` in the MAC-based mode), the sum of its aligned operands for
    /// a residual add. [`Lanes::I32`] iff all of them stay below `2^31`
    /// and every conv's operands fit 16 bits: the `i32` chain then
    /// computes, integer for integer, what the `i64` chain does. The same
    /// walk sees every format that reaches memory — a conv that keeps
    /// its accumulator runs as one step with the directional ReLU behind
    /// it, so no accumulator does — and settles the [`Storage`].
    pub fn prepare_inference(&mut self) {
        fn plan<S: Tier>(layers: &[QLayer]) {
            for layer in layers {
                match layer {
                    QLayer::Conv(c) => {
                        c.support();
                        S::packed(c);
                    }
                    QLayer::Residual(res) => plan::<S>(&res.body),
                    QLayer::UpsampleResidual(ur) => plan::<S>(&ur.body),
                    _ => {}
                }
            }
        }
        if self.proof.0.is_none() {
            let proven = validate_format(self.input_format, "input format").and_then(|()| {
                let c = chain_input_channels(&self.layers)
                    .filter(|c| *c > 0)
                    .ok_or("no convolution fixes the channel count")?;
                LaneProof::of(self.input_format, c, &self.layers)
            });
            self.proof.0 = Some(proven.unwrap_or_else(|e| LaneProof::invalid(&e)));
        }
        match self.lanes() {
            Lanes::I32 => plan::<i32>(&self.layers),
            Lanes::I64 => plan::<i64>(&self.layers),
        }
    }

    /// The lanes [`QuantizedModel::forward`] runs in ([`Lanes::I64`]
    /// until [`QuantizedModel::prepare_inference`] has run).
    pub fn lanes(&self) -> Lanes {
        self.proof.0.as_ref().map_or(Lanes::I64, |p| p.lanes)
    }

    /// What the load-time proof found — the tier, the storage, every
    /// stage's worst-case magnitude and the stage that sets the largest;
    /// `None` before [`QuantizedModel::prepare_inference`].
    pub fn lane_proof(&self) -> Option<&LaneProof> {
        self.proof.0.as_ref()
    }

    /// Bit-accurate integer inference; input is quantized with the
    /// calibrated image format — straight into the store the model was
    /// proven into — and the output dequantized to floats.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_tile(input, &mut TileHalo::whole())
    }

    /// Integer-in/integer-out inference on the `i64` interchange tier
    /// (used by the accelerator simulator for bit-exact cross-checking,
    /// and the oracle the `i32` tier is held to).
    pub fn forward_q(&self, input: QTensor) -> QTensor {
        run_chain(&self.layers, Cow::Owned(input), &mut TileHalo::whole())
    }

    /// The calibrated input format.
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// The quantized layers (read-only view for the simulator).
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Quantization options used.
    pub fn options(&self) -> QuantOptions {
        self.opts
    }

    /// Output channel count given the input channel count.
    pub fn out_channels(&self, in_channels: usize) -> usize {
        qlayers_out_channels(&self.layers, in_channels)
    }

    /// Spatial topology of the integer pipeline — the same walk as the
    /// float runtime's `model_topology`, so a quantized model tiles on
    /// the same `BatchRunner` with the same halo/granularity math.
    pub fn topology(&self) -> ModelTopo {
        let mut walk = TopoBuilder::new();
        qlayers_topo(&mut walk, &self.layers);
        walk.finish()
    }

    /// Structural validation for untrusted pipelines (deserialized model
    /// files): channel chains must be consistent, shuffles divisible,
    /// every conv accumulator fed one scale (or an aligner in front),
    /// tuple sizes powers of two, stored Q-formats within the serving
    /// bounds (2–16 bits, |frac| ≤ 64 — everything the ≤16-bit
    /// calibration flow produces), weights within their declared
    /// format's range, biases finite and bounded, per-channel tap counts
    /// bounded, and every accumulator-keeping conv immediately followed
    /// by its directional ReLU. Together with the saturating
    /// requantizers, the bias rail in `bias_at`, and the pre-butterfly
    /// clamp in the directional ReLU, these bounds keep every `i64`
    /// addition in the pipeline below overflow: a pipeline that passes
    /// cannot panic or wrap at inference time on a shape-valid input.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self, channels_io: usize) -> Result<(), String> {
        if channels_io == 0 {
            return Err("channels_io must be at least 1".into());
        }
        validate_format(self.input_format, "input format")?;
        LaneProof::of(self.input_format, channels_io, &self.layers).map(drop)
    }
}

impl InferenceModel for QuantizedModel {
    /// Plans the conv weights (see [`QuantizedModel::prepare_inference`]).
    /// `QuantizedModel` is plain owned data, hence `Send + Sync`, and
    /// `forward` never mutates — the contract's concurrency requirements
    /// hold trivially.
    fn prepare_inference(&mut self) {
        QuantizedModel::prepare_inference(self);
    }

    /// [`QuantizedModel::forward`] of one tile: the integer chain
    /// consumes the halo exactly as the float one does.
    fn forward_tile(&self, input: &Tensor, tile: &mut TileHalo) -> Tensor {
        fn run<S: Tier>(qm: &QuantizedModel, input: &Tensor, tile: &mut TileHalo) -> Tensor {
            let formats = vec![qm.input_format; input.shape().c];
            let q = QTensorOf::<S>::quantize(input, formats);
            run_chain(&qm.layers, Cow::Owned(q), tile).dequantize()
        }
        match self.lane_proof().map(|p| (p.lanes, p.storage())) {
            Some((Lanes::I32, Storage::I8)) => run::<i8>(self, input, tile),
            Some((Lanes::I32, Storage::Lane)) => run::<i32>(self, input, tile),
            _ => run::<i64>(self, input, tile),
        }
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        QuantizedModel::out_channels(self, in_channels)
    }

    fn topology(&mut self) -> ModelTopo {
        QuantizedModel::topology(self)
    }
}

fn qlayers_out_channels(layers: &[QLayer], mut c: usize) -> usize {
    for l in layers {
        c = match l {
            QLayer::Conv(conv) => conv.co,
            QLayer::Relu | QLayer::DRelu(_) => c,
            QLayer::Shuffle(r) => c / (r * r),
            QLayer::Unshuffle(r) => c * r * r,
            QLayer::Residual(res) => qlayers_out_channels(&res.body, c),
            QLayer::UpsampleResidual(ur) => qlayers_out_channels(&ur.body, c),
        };
    }
    c
}

fn qlayers_topo(walk: &mut TopoBuilder, layers: &[QLayer]) {
    for l in layers {
        match l {
            QLayer::Conv(c) => walk.add_radius_here((c.k / 2) as f64),
            QLayer::Relu | QLayer::DRelu(_) => {}
            QLayer::Shuffle(r) => walk.apply_scale((*r, 1)),
            QLayer::Unshuffle(r) => walk.apply_scale((1, *r)),
            // The skip path is pointwise; only the body reads neighbors.
            QLayer::Residual(res) => qlayers_topo(walk, &res.body),
            QLayer::UpsampleResidual(ur) => {
                // Bicubic skip reaches 2 source pixels (same accounting
                // as the float walk); the body carries the scale change.
                walk.add_radius_here(2.0);
                qlayers_topo(walk, &ur.body);
            }
        }
    }
}

/// The channel count a chain's first convolution fixes for its input,
/// through the shuffles and skip wrappers in front of it.
fn chain_input_channels(layers: &[QLayer]) -> Option<usize> {
    // Channels here = input channels · mul / div.
    let (mut mul, mut div) = (1, 1);
    for l in layers {
        let here = match l {
            QLayer::Conv(c) => Some(c.ci),
            QLayer::Residual(res) => chain_input_channels(&res.body),
            QLayer::UpsampleResidual(ur) => chain_input_channels(&ur.body),
            _ => None,
        };
        match (here, l) {
            (Some(c), _) => return (c * div).checked_div(mul),
            (None, QLayer::Shuffle(r)) => div *= r * r,
            (None, QLayer::Unshuffle(r)) => mul *= r * r,
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// Builder: walk the float model, collect ranges, emit QLayers.
// ---------------------------------------------------------------------

/// Sentinel for "per-channel formats with no tuple grouping" (after a
/// pixel shuffle of grouped features).
const UNGROUPED: usize = usize::MAX;

/// Lowers `layers` while running them on `x`, the chain's activation: a
/// borrowed input (the calibration batch, a skip's tensor) is read by
/// the first layer, never copied, and every element-wise layer works in
/// place on the tensor the walk gives up. `convs` holds what
/// [`lower_weights`] made of the chain's convolutions, in walk order;
/// the walk adds the formats the activations decide.
fn build_chain_grouped(
    layers: &mut [Box<dyn Layer>],
    mut x: Cow<'_, Tensor>,
    opts: &QuantOptions,
    mut cur_groups: usize,
    convs: &mut VecDeque<QConv>,
) -> Result<(Vec<QLayer>, Tensor, usize), CalibrationError> {
    // Every leaf runs as the one step the float chain takes: in place on
    // the tensor the walk gives up.
    let step = |l: &dyn Layer, x| l.forward_step(x, &mut TileHalo::whole(), 1).0;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < layers.len() {
        // Peek: conv followed by a directional ReLU in on-the-fly mode
        // keeps its accumulator.
        let next = layers.get_mut(i + 1);
        let next_is_drelu = next.is_some_and(|l| l.as_any_mut().is::<DirectionalReluLayer>());
        let keep_acc = next_is_drelu && opts.on_the_fly_drelu;
        let layer = layers[i].as_mut();

        if let Some((n, diagonal)) = layer.as_conv_mut().and_then(|conv| conv.parts().0.tuple()) {
            // The real field is the ring with `n = 1`: one group in, one
            // group out, whether or not the accumulator is kept.
            let groups = if opts.component_wise { n } else { 1 };
            // A diagonal ring keeps components separate, so grouped input
            // formats of matching period stay consistent; anything else
            // mixes components in one accumulator and needs alignment.
            let compatible = cur_groups == 1 || (diagonal && cur_groups == n);
            let align = if compatible {
                None
            } else {
                Some(fit_ctx(
                    group_max_abs(&x, 1)[0],
                    opts.feature_bits,
                    "conv input alignment",
                )?)
            };
            let y = layer.forward_infer(&x);
            let mut q = convs.pop_front().expect("one lowered conv per conv");
            (q.requant, q.align_input) = (conv_requant(&y, groups, keep_acc, opts)?, align);
            out.push(QLayer::Conv(q));
            x = Cow::Owned(y);
            cur_groups = if keep_acc { 1 } else { groups };
        } else if layer.as_any_mut().is::<Relu>() {
            x = Cow::Owned(step(layer, x));
            out.push(QLayer::Relu);
        } else if let Some(dr) = layer.as_any_mut().downcast_mut::<DirectionalReluLayer>() {
            let n = dr.n();
            // The post-first-transform range, taken before `x` is given up.
            let mid_max = (!opts.on_the_fly_drelu).then(|| hadamard_intermediate_max(&x, n));
            let y = step(dr, x);
            let groups = if opts.component_wise { n } else { 1 };
            let out_formats: Vec<QFormat> = group_max_abs(&y, groups)
                .iter()
                .map(|m| fit_ctx(*m, opts.feature_bits, "directional ReLU output"))
                .collect::<Result<_, _>>()?;
            let mode = match mid_max {
                None => DReluMode::OnTheFly,
                Some(mid_max) => DReluMode::MacBased {
                    mid: fit_ctx(mid_max, opts.feature_bits, "Hadamard intermediate")?,
                },
            };
            out.push(QLayer::DRelu(QDRelu {
                n,
                mode,
                out_formats,
            }));
            x = Cow::Owned(y);
            cur_groups = groups;
        } else if let Some(ps) = layer.as_any_mut().downcast_mut::<PixelShuffle>() {
            let r = ps.spatial_scale().0;
            out.push(QLayer::Shuffle(r));
            x = Cow::Owned(step(ps, x));
            cur_groups = if cur_groups == 1 { 1 } else { UNGROUPED };
        } else if let Some(pu) = layer.as_any_mut().downcast_mut::<PixelUnshuffle>() {
            let r = pu.spatial_scale().1;
            out.push(QLayer::Unshuffle(r));
            x = Cow::Owned(step(pu, x));
            cur_groups = if cur_groups == 1 { 1 } else { UNGROUPED };
        } else if let Some(ur) = layer.as_any_mut().downcast_mut::<UpsampleResidual>() {
            let factor = ur.factor();
            let body = ur.body_mut().layers_mut();
            let (body, body_out, _g) =
                build_chain_grouped(body, Cow::Borrowed(&x), opts, cur_groups, convs)?;
            let mut sum = body_out;
            sum.add_assign(&ringcnn_imaging::degrade::upsample(&x, factor));
            let f = fit_ctx(
                group_max_abs(&sum, 1)[0],
                opts.feature_bits,
                "upsample-residual output",
            )?;
            out.push(QLayer::UpsampleResidual(Box::new(QUpsampleResidual {
                body,
                factor,
                out_formats: vec![f],
            })));
            x = Cow::Owned(sum);
            cur_groups = 1;
        } else if let Some(res) = layer.as_any_mut().downcast_mut::<Residual>() {
            let body = res.body_mut().layers_mut();
            let (body, body_out, _g) =
                build_chain_grouped(body, Cow::Borrowed(&x), opts, cur_groups, convs)?;
            let mut sum = body_out;
            sum.add_assign(&x);
            let f = fit_ctx(
                group_max_abs(&sum, 1)[0],
                opts.feature_bits,
                "residual output",
            )?;
            out.push(QLayer::Residual(Box::new(QResidual {
                body,
                out_formats: vec![f],
            })));
            x = Cow::Owned(sum);
            cur_groups = 1;
        } else {
            return Err(CalibrationError::UnsupportedLayer(layer.name()));
        }
        i += 1;
    }
    Ok((out, x.into_owned(), cur_groups))
}

/// Lowers what the weights alone decide — the integer weight table, its
/// format, the bias — of every ring or real convolution of `model`, in
/// the order [`build_chain_grouped`] meets them (the leaf walk is the
/// execution order), before calibration runs an activation. The tables
/// outlive the activations by the life of the model; allocated among
/// them, one that lands above a transient tensor pins the heap there and
/// megabytes of holes stay resident below it
/// (`frame_dn_ri4fh_q8/peak_rss_mb` read 11.3 or 14.6 MiB by that luck).
fn lower_weights(
    model: &mut Sequential,
    opts: &QuantOptions,
) -> Result<VecDeque<QConv>, CalibrationError> {
    let mut convs = Vec::new();
    model.for_each_layer_mut(&mut |layer| {
        let conv = layer.as_conv_mut().map(|conv| conv.parts());
        let ring = conv.filter(|(lowering, _)| lowering.tuple().is_some());
        convs.extend(ring.map(|(lowering, bias)| lower_conv(&lowering.lowered(), bias, opts)));
    });
    convs.into_iter().collect()
}

/// One convolution's weights, lowered: no output requantization and no
/// input alignment yet (the activation walk decides both).
fn lower_conv(
    float_weights: &ConvWeights,
    bias: &[f32],
    opts: &QuantOptions,
) -> Result<QConv, CalibrationError> {
    let ConvWeights { co, ci, k, data } = float_weights;
    let wmax = data.iter().fold(0.0f64, |m, v| m.max(f64::from(v.abs())));
    let w_format = fit_ctx(wmax, opts.weight_bits, "conv weights")?;
    let weights: Vec<i64> = data
        .iter()
        .map(|v| w_format.quantize(f64::from(*v)))
        .collect();
    Ok(QConv {
        co: *co,
        ci: *ci,
        k: *k,
        weights,
        w_format,
        // Bias is stored as raw f64 bits because its fixed-point scale
        // depends on the run-time accumulator format; see `bias_at`.
        bias: bias
            .iter()
            .map(|b| f64::from(*b).to_bits() as i64)
            .collect(),
        requant: None,
        align_input: None,
        plan: Derived::default(),
    })
}

/// A conv's output requantization from its calibrated float output:
/// one format per component group, expanded per channel — or none, for
/// an accumulator handed straight to a directional ReLU.
fn conv_requant(
    float_out: &Tensor,
    groups: usize,
    keep_acc: bool,
    opts: &QuantOptions,
) -> Result<Option<Vec<QFormat>>, CalibrationError> {
    if keep_acc {
        return Ok(None);
    }
    let formats: Vec<QFormat> = group_max_abs(float_out, groups)
        .iter()
        .map(|m| fit_ctx(*m, opts.feature_bits, "conv output"))
        .collect::<Result<_, _>>()?;
    Ok(Some(expand_formats(&formats, float_out.shape().c)))
}

/// The largest `|H·y|` component over every tuple of `x` — the range
/// the MAC-based mode's `mid` format must hold — from one row butterfly
/// per tuple over a copy (`x` is still needed).
fn hadamard_intermediate_max(x: &Tensor, n: usize) -> f64 {
    let (mut hx, plane) = (x.clone(), x.shape().plane());
    for tuple in hx.as_mut_slice().chunks_mut((n * plane).max(1)) {
        fwht_planes(tuple, n, plane, plane);
    }
    f64::from(hx.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs())))
}

// ---------------------------------------------------------------------
// Integer execution.
// ---------------------------------------------------------------------

/// Runs a chain on an input it may own: every stage that can work in
/// place does, and a borrowed input (a residual body reading the skip's
/// tensor) is copied only by a stage that has to write to it. `tile` is
/// the float chain's state, moved the same way: a convolution writes
/// only what the rest of the chain reads, a skip is added over that
/// region. A convolution that keeps its accumulator and the directional
/// ReLU behind it (every such conv of a validated chain has one) are one
/// step: the unit runs on each column chunk's accumulators inside the
/// engine, and no accumulator is stored. One body per stage from here
/// down, generic over the store.
fn run_chain<S: Tier>(
    mut layers: &[QLayer],
    mut q: Cow<'_, QTensorOf<S>>,
    tile: &mut TileHalo,
) -> QTensorOf<S> {
    while let [layer, rest @ ..] = layers {
        (q, layers) = match (layer, rest) {
            (QLayer::Conv(c), [QLayer::DRelu(d), rest @ ..]) if c.requant.is_none() => {
                let cut = tile.conv(c.k / 2, 1);
                (Cow::Owned(run_conv(c, Some(d), &q, cut)), rest)
            }
            _ => (Cow::Owned(run_layer(layer, q, tile)), rest),
        };
    }
    q.into_owned()
}

fn run_layer<S: Tier>(
    layer: &QLayer,
    q: Cow<'_, QTensorOf<S>>,
    tile: &mut TileHalo,
) -> QTensorOf<S> {
    match layer {
        QLayer::Conv(c) => run_conv(c, None, &q, tile.conv(c.k / 2, 1)),
        QLayer::Relu => {
            let (s, mut data, formats) = q.into_owned().into_raw();
            data.iter_mut().for_each(|v| *v = (*v).max(S::default()));
            QTensorOf::from_raw(s, data, formats)
        }
        QLayer::DRelu(d) => run_drelu(d, q.into_owned()),
        QLayer::Shuffle(r) => {
            tile.leaf(0, (*r, 1));
            run_shuffle(q.into_owned(), *r)
        }
        QLayer::Unshuffle(r) => {
            // A margin trimmed off the `r`-grid loses the rows and
            // columns that fill no whole coarse pixel.
            let cut = tile.margin.map(|m| m % r);
            tile.leaf(0, (1, *r));
            if cut == [0; 4] {
                return run_unshuffle(&q, *r);
            }
            let (s, data) = cropped(q.data(), q.shape(), cut);
            run_unshuffle(&QTensorOf::from_raw(s, data, q.formats().to_vec()), *r)
        }
        QLayer::Residual(res) => {
            let [top, left, ..] = tile.margin;
            let mut out = run_chain(&res.body, Cow::Borrowed(&*q), tile);
            let at = (top - tile.margin[0], left - tile.margin[1]);
            out.add_window_saturating(&q, at, expand_formats(&res.out_formats, q.shape().c));
            out
        }
        QLayer::UpsampleResidual(ur) => {
            tile.leaf(2, (1, 1));
            let [top, left, ..] = tile.margin.map(|m| m * ur.factor);
            let mut out = run_chain(&ur.body, Cow::Borrowed(&*q), tile);
            // Fixed-point interpolator: bicubic on the dequantized input,
            // re-quantized at the output format (deterministic).
            let (h, w) = (out.shape().h, out.shape().w);
            let region = (top - tile.margin[0], left - tile.margin[1], h, w);
            let (skip_f, y0, x0) = upsample_region(&q.dequantize(), ur.factor, region);
            let formats = expand_formats(&ur.out_formats, out.shape().c);
            let skip = QTensorOf::quantize(&skip_f, formats.clone());
            out.add_window_saturating(&skip, (y0, x0), formats);
            out
        }
    }
}

/// Which `(co, ci)` pairs have a non-zero tap, `[co][ci]` row-major.
fn tap_support(c: &QConv) -> Vec<bool> {
    c.weights
        .chunks((c.k * c.k).max(1))
        .map(|taps| taps.iter().any(|w| *w != 0))
        .collect()
}

/// Resolves the accumulator frac of every output channel from the
/// (aligned) input `formats` over the conv's tap `support`.
///
/// # Errors
///
/// An output channel whose taps combine different scales: component-wise
/// formats require component-aligned rings or an aligner in front.
fn conv_acc_fracs(c: &QConv, formats: &[QFormat], support: &[bool]) -> Result<Vec<i32>, String> {
    // An all-zero filter reaches no input; any scale works.
    let mut acc_frac = vec![c.w_format.frac + formats[0].frac; c.co];
    for (co, acc) in acc_frac.iter_mut().enumerate() {
        let mut fracs = (0..c.ci)
            .filter(|ci| support[co * c.ci + ci])
            .map(|ci| c.w_format.frac + formats[ci].frac);
        if let Some(first) = fracs.next() {
            *acc = first;
            if let Some(other) = fracs.find(|f| *f != first) {
                return Err(format!(
                    "inconsistent accumulator scale for output channel {co} \
                     (fracs {first} and {other}): component-wise formats require \
                     component-aligned rings or an input aligner"
                ));
            }
        }
    }
    Ok(acc_frac)
}

/// The run-time backstop of [`QuantizedModel::validate`]'s scale check.
fn resolve_acc_fracs(c: &QConv, formats: &[QFormat], support: &[bool]) -> Vec<i32> {
    conv_acc_fracs(c, formats, support).unwrap_or_else(|e| panic!("{e}"))
}

/// A conv's output formats: its requant table, or the kept accumulator.
fn conv_out_formats(c: &QConv, acc_frac: &[i32]) -> Vec<QFormat> {
    match &c.requant {
        Some(fmts) => fmts.clone(),
        None => acc_frac
            .iter()
            .map(|f| QFormat { bits: 32, frac: *f })
            .collect(),
    }
}

/// Aligns mixed per-channel input formats when the conv demands it.
fn align_conv_input<S: Store>(c: &QConv, q: &QTensorOf<S>) -> Option<QTensorOf<S>> {
    c.align_input.map(|f| q.requantized(vec![f; q.shape().c]))
}

/// The production integer convolution: every batch item streams through
/// the store's `ringcnn_tensor::im2col::conv_streaming_*` — im2col packed
/// per column chunk inside the register-blocked integer GEMM, the
/// per-channel requantization **fused into the kernel epilogue**
/// (un-rescaled wide accumulators never reach memory), outputs written
/// in place. With `fh`, the directional ReLU behind an accumulator-
/// keeping conv, the engine hands every column chunk's accumulators to
/// the unit before it writes them ([`DReluStages::run`], the one body
/// [`run_drelu`] runs over a stored tensor): the output is that of
/// `run_conv(c, None, …)` followed by `run_drelu(fh, …)`, integer for
/// integer, and the accumulator tensor between them never exists. The
/// weight plan and tap support are built once (`prepare_inference`, or
/// the first call). Integer accumulation is order-independent, the AVX2
/// paths guard their operand requirements, and the fused epilogue
/// applies the same [`requant_shift`] + saturation, so in `i64` lanes
/// this is **bit-identical** to [`run_conv_reference`] (then
/// [`run_drelu_reference`]) at any thread count and on every kernel
/// backend, and in `i32` lanes too wherever the load-time proof bounds
/// the accumulators — the equivalence suite in `tests/quant_backend.rs`
/// asserts both.
fn run_conv<S: Tier>(
    c: &QConv,
    fh: Option<&QDRelu>,
    q: &QTensorOf<S>,
    cut: [usize; 4],
) -> QTensorOf<S> {
    let aligned = align_conv_input(c, q);
    let q = aligned.as_ref().unwrap_or(q);
    let s = q.shape();
    assert_eq!(s.c, c.ci, "quantized conv channel mismatch");
    let acc_frac = resolve_acc_fracs(c, q.formats(), c.support());
    let bias: Vec<S::Lane> = (0..c.co)
        .map(|co| narrow(bias_at(c, co, acc_frac[co])))
        .collect();
    let requant = c.requant.as_ref().map(|fmts| requant_plan(fmts, &acc_frac));
    let mut formats = conv_out_formats(c, &acc_frac);
    let stages = fh.map(|d| DReluStages::new(d, &mut formats));
    let unit = stages
        .as_ref()
        .map(|fh| |block: &mut [S::Lane], stride: usize, cw: usize| fh.run(0, block, stride, cw));
    let fused = unit.as_ref().map(|unit| unit as ChunkEpilogue<'_, S::Lane>);
    let region = Window::inset(s.h, s.w, cut);
    let out_shape = Shape4::new(s.n, c.co, region.h, region.w);
    let mut data = vec![S::default(); out_shape.len()];
    let (item_in, item_out) = (s.c * s.plane(), c.co * out_shape.plane());
    for b in 0..s.n {
        let planes = &q.data()[b * item_in..(b + 1) * item_in];
        S::CONV_STREAMING(
            &ConvInput::new(planes, s.c, s.h, s.w, region),
            c.k,
            S::packed(c),
            &bias,
            (requant.as_ref(), fused),
            &mut data[b * item_out..(b + 1) * item_out],
        );
    }
    QTensorOf::from_raw(out_shape, data, formats)
}

/// Builds the fused-epilogue requant plan: shift each channel from its
/// accumulator frac to the output format and clamp at the output
/// bitwidth rails — exactly what [`QTensor::requantized`] does after
/// the fact, with the same shift function (the unfused path
/// [`run_conv_reference`] still takes).
fn requant_plan(fmts: &[QFormat], acc_frac: &[i32]) -> RequantPlan {
    let channels = fmts.iter().zip(acc_frac);
    RequantPlan {
        channels: channels.map(|(f, af)| f.requantizer(*af)).collect(),
    }
}

/// The scalar quadruple-loop reference datapath (§IV-C), kept as the
/// bit-exactness oracle for the im2col production kernel and for the
/// accelerator simulator's MAC-order cross-checks. Public so the
/// equivalence suite and `ringcnn-esim` can call it directly.
pub fn run_conv_reference(c: &QConv, q: &QTensor) -> QTensor {
    let aligned = align_conv_input(c, q);
    let q = aligned.as_ref().unwrap_or(q);
    let s = q.shape();
    assert_eq!(s.c, c.ci, "quantized conv channel mismatch");
    let acc_frac = resolve_acc_fracs(c, q.formats(), &tap_support(c));
    let pad = (c.k / 2) as isize;
    let (h, w) = (s.h as isize, s.w as isize);
    let out_shape = s.with_channels(c.co);
    let mut data = vec![0i64; out_shape.len()];
    for b in 0..s.n {
        for co in 0..c.co {
            let bias = bias_at(c, co, acc_frac[co]);
            let base = out_shape.index(b, co, 0, 0);
            for v in data[base..base + out_shape.plane()].iter_mut() {
                *v = bias;
            }
            for ci in 0..c.ci {
                let in_plane = q.plane(b, ci);
                for ky in 0..c.k {
                    for kx in 0..c.k {
                        let wv = c.weights[((co * c.ci + ci) * c.k + ky) * c.k + kx];
                        if wv == 0 {
                            continue;
                        }
                        let dy = ky as isize - pad;
                        let dx = kx as isize - pad;
                        let y0 = 0.max(-dy);
                        let y1 = h.min(h - dy);
                        let x0 = 0.max(-dx);
                        let x1 = w.min(w - dx);
                        for y in y0..y1 {
                            let row_o = base + (y * w) as usize;
                            let row_i = (y + dy) * w + dx;
                            for x in x0..x1 {
                                data[row_o + x as usize] += wv * in_plane[(row_i + x) as usize];
                            }
                        }
                    }
                }
            }
        }
    }
    finish_conv(c, out_shape, data, &acc_frac)
}

/// Shared conv epilogue: wrap the wide accumulator in its formats and
/// apply the output requantization, if any.
fn finish_conv(c: &QConv, out_shape: Shape4, data: Vec<i64>, acc_frac: &[i32]) -> QTensor {
    let formats: Vec<QFormat> = acc_frac
        .iter()
        .map(|f| QFormat { bits: 32, frac: *f })
        .collect();
    let acc = QTensor::from_raw(out_shape, data, formats);
    match &c.requant {
        Some(fmts) => acc.requantized(fmts.clone()),
        None => acc,
    }
}

/// Bias values are stored as f64 bits (scale depends on the run-time
/// accumulator frac); decode and quantize here. The result is railed at
/// ±2^55 — far beyond any calibrated model (validated biases are ≤ 1e9
/// at fracs ≤ 128), but it keeps the subsequent tap accumulation (at
/// most `MAX_TAPS` products of ≤16-bit operands, < 2^51) inside `i64`
/// even for an adversarially extreme format combination.
fn bias_at(c: &QConv, co: usize, acc_frac: i32) -> i64 {
    const BIAS_RAIL: i64 = 1 << 55;
    let raw = f64::from_bits(c.bias[co] as u64);
    // `as i64` saturates the float; the clamp tightens it to the rail.
    ((raw * 2.0f64.powi(acc_frac)).round() as i64).clamp(-BIAS_RAIL, BIAS_RAIL)
}

/// The rail aligned tuple values are clamped to so an unnormalized
/// `n`-point Hadamard butterfly (±1 entries: magnitude growth ≤ n) cannot
/// overflow `i64`: `i64::MAX >> (log2 n + 1)` — ≥ 2^58 for every Table-I
/// tuple size, far above the ≤ 2^56 any validated conv accumulator can
/// reach, so calibrated models are bit-exactly unaffected; only
/// adversarially extreme format spreads (whose shifts already saturated
/// at the `i64` rails) get pulled down instead of wrapping the butterfly.
fn fwht_rail(n: usize) -> i64 {
    i64::MAX >> (n.trailing_zeros() + 1)
}

fn clamp_for_fwht(y: &mut [i64], n: usize) {
    let rail = fwht_rail(n);
    for v in y.iter_mut() {
        *v = (*v).clamp(-rail, rail);
    }
}

/// The per-channel constants of a directional ReLU (Fig. 8) over the
/// channels in front of it: both modes are one sequence of whole-row
/// passes whose constants are fixed per tuple — align each component to
/// the finest frac and clamp to the butterfly rail, butterfly, ReLU
/// (fused with the second clamp on the fly, with the saturating
/// requantization to `mid` in the MAC-based mode), butterfly, requantize
/// each component to its output format.
struct DReluStages {
    n: usize,
    /// Per channel: Fig. 8's left-shifters with s_i = max frac − frac_i,
    /// saturating instead of wrapping on pathological format spreads.
    align: Vec<RequantChannel>,
    /// Per tuple, between the butterflies: the ReLU, fused on the fly
    /// with the second clamp and in the MAC-based mode with extra
    /// quantization point #1, the saturating requantization to `mid`.
    relu: Vec<RequantChannel>,
    /// Per channel: to the output component format.
    out: Vec<RequantChannel>,
}

impl DReluStages {
    /// The unit `d` behind channels in `formats`, which become its
    /// output formats.
    fn new(d: &QDRelu, formats: &mut Vec<QFormat>) -> Self {
        let (n, c) = (d.n, formats.len());
        assert_eq!(c % n, 0, "channels not a multiple of tuple size");
        assert!(n <= BLOCK, "tuple size {n} exceeds the block of {BLOCK}");
        let (out_formats, rail) = (expand_formats(&d.out_formats, c), fwht_rail(n));
        let shift = |from_frac, to_frac, qmin, qmax| RequantChannel {
            from_frac,
            to_frac,
            qmin,
            qmax,
        };
        let (mut align, mut relu, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for (fin, fout) in formats.chunks(n).zip(out_formats.chunks(n)) {
            let max_frac = fin.iter().map(|f| f.frac).max().expect("n > 0");
            let (mid_frac, mid_max) = match &d.mode {
                DReluMode::OnTheFly => (max_frac, rail),
                DReluMode::MacBased { mid } => (mid.frac, mid.rails().1),
            };
            align.extend(fin.iter().map(|f| shift(f.frac, max_frac, -rail, rail)));
            relu.push(shift(max_frac, mid_frac, 0, mid_max));
            out.extend(fout.iter().map(|f| f.requantizer(mid_frac)));
        }
        *formats = out_formats;
        Self {
            n,
            align,
            relu,
            out,
        }
    }

    /// The unit on `len` pixels of the consecutive channels `block`
    /// holds `stride` apart, tuple `t0` first: per pixel the sequence of
    /// [`run_drelu_reference`], so the two are **bit-identical**
    /// (`tests/quant_backend.rs` asserts it in both modes, at the rails).
    /// In `i32` lanes the butterfly rail is wider than the lane, so the
    /// clamp is at the lane's own rails (`apply_lane` saturates a
    /// requantizer's rails into the lane) — which the load-time proof
    /// keeps `n·S`, and with it every partial sum of both butterflies,
    /// below.
    fn run<L: Lane>(&self, t0: usize, block: &mut [L], stride: usize, len: usize) {
        let n = self.n;
        for (t, tuple) in (t0..).zip(block.chunks_mut(n * stride)) {
            // One pass of `stage(l)` over row `l` of the tuple, each l.
            let rows = |tuple: &mut [L], stage: &dyn Fn(usize) -> RequantChannel| {
                for l in 0..n {
                    stage(l).apply_lane(&mut tuple[l * stride..l * stride + len]);
                }
            };
            rows(tuple, &|l| self.align[t * n + l]);
            fwht_planes(tuple, n, stride, len);
            rows(tuple, &|_| self.relu[t]);
            fwht_planes(tuple, n, stride, len);
            rows(tuple, &|l| self.out[t * n + l]);
        }
    }
}

/// The directional ReLU over a stored tensor (behind a shuffle, or a
/// conv that requantized: the MAC-based ablation), in place on the `n`
/// contiguous planes of each tuple, a block of pixels (L1-sized) at a
/// time, in the store's lane.
fn run_drelu<S: Store>(d: &QDRelu, q: QTensorOf<S>) -> QTensorOf<S> {
    let (s, mut data, mut formats) = q.into_raw();
    let stages = DReluStages::new(d, &mut formats);
    let (n, plane) = (d.n, s.plane());
    for (t, tuple) in data.chunks_mut((n * plane).max(1)).enumerate() {
        // `BLOCK / n` pixels a row: 16 KiB of `i64`.
        for p0 in (0..plane).step_by(BLOCK / n) {
            let len = (BLOCK / n).min(plane - p0);
            S::in_lane(&mut tuple[p0..], n, plane, len, |block, stride| {
                stages.run(t % (s.c / n), block, stride, len);
            });
        }
    }
    QTensorOf::from_raw(s, data, formats)
}

/// The per-pixel directional ReLU — gather one `n`-tuple across `n`
/// planes, run each mode's sequence on it with [`requant_shift`],
/// `fwht_i64` and [`QFormat::saturate`], scatter it back — kept as the
/// integer oracle beside [`run_conv_reference`]: the equivalence suite
/// compares the plane-wise production path ([`execute_layer`]) with it bit
/// for bit. Tests only; nothing in the pipeline calls it.
pub fn run_drelu_reference(d: &QDRelu, q: &QTensor) -> QTensor {
    let s = q.shape();
    let n = d.n;
    assert_eq!(s.c % n, 0, "channels not a multiple of tuple size");
    let tuples = s.c / n;
    let out_formats = expand_formats(&d.out_formats, s.c);
    let mut out = vec![0i64; s.len()];
    let mut y = vec![0i64; n];
    match &d.mode {
        DReluMode::OnTheFly => {
            for b in 0..s.n {
                for t in 0..tuples {
                    // Align components to the finest (max) frac: Fig. 8's
                    // left-shifters with s_i = max frac − frac_i.
                    let max_frac = (0..n).map(|l| q.format_of(t * n + l).frac).max().unwrap();
                    for p in 0..s.plane() {
                        for l in 0..n {
                            // Fig. 8's left-shifters, saturating instead
                            // of wrapping on pathological format spreads.
                            let f = q.format_of(t * n + l).frac;
                            y[l] = requant_shift(q.plane(b, t * n + l)[p], f, max_frac);
                        }
                        clamp_for_fwht(&mut y, n);
                        fwht_i64(&mut y);
                        for v in y.iter_mut() {
                            *v = (*v).max(0);
                        }
                        clamp_for_fwht(&mut y, n);
                        fwht_i64(&mut y);
                        for l in 0..n {
                            let fo = out_formats[t * n + l];
                            let v = requant_shift(y[l], max_frac, fo.frac);
                            out[s.index(b, t * n + l, 0, 0) + p] = fo.saturate(v);
                        }
                    }
                }
            }
        }
        DReluMode::MacBased { mid } => {
            // Conventional pipeline: the input is already 8-bit (the conv
            // requantized); transform, requantize to 8-bit `mid`, ReLU,
            // transform, requantize to the output formats.
            for b in 0..s.n {
                for t in 0..tuples {
                    let max_frac = (0..n).map(|l| q.format_of(t * n + l).frac).max().unwrap();
                    for p in 0..s.plane() {
                        for l in 0..n {
                            // Fig. 8's left-shifters, saturating instead
                            // of wrapping on pathological format spreads.
                            let f = q.format_of(t * n + l).frac;
                            y[l] = requant_shift(q.plane(b, t * n + l)[p], f, max_frac);
                        }
                        clamp_for_fwht(&mut y, n);
                        fwht_i64(&mut y);
                        for v in y.iter_mut() {
                            // Extra quantization point #1.
                            *v = mid.saturate(requant_shift(*v, max_frac, mid.frac)).max(0);
                        }
                        fwht_i64(&mut y);
                        for l in 0..n {
                            let fo = out_formats[t * n + l];
                            let v = requant_shift(y[l], mid.frac, fo.frac);
                            out[s.index(b, t * n + l, 0, 0) + p] = fo.saturate(v);
                        }
                    }
                }
            }
        }
    }
    QTensor::from_raw(s, out, out_formats)
}

/// Output formats of a shuffle: the r² source channels of one output
/// channel may have distinct formats only if a grouped format crosses
/// the shuffle — take the coarsest (the data is requantized to it).
fn shuffle_formats(formats: &[QFormat], r: usize) -> Vec<QFormat> {
    formats
        .chunks(r * r)
        .map(|src| *src.iter().min_by_key(|f| f.frac).expect("r > 0"))
        .collect()
}

/// Per-channel attributes (formats, bounds) past an unshuffle: each
/// channel's, r² times.
fn unshuffle_formats<T: Copy>(per_channel: &[T], r: usize) -> Vec<T> {
    per_channel
        .iter()
        .flat_map(|f| std::iter::repeat_n(*f, r * r))
        .collect()
}

/// Depth-to-space: every source channel is requantized (in place, `q`
/// is owned) to its output channel's format, then the planes are
/// permuted row by row.
fn run_shuffle<S: Store>(mut q: QTensorOf<S>, r: usize) -> QTensorOf<S> {
    let s = q.shape();
    assert_eq!(s.c % (r * r), 0, "channels not divisible by r²");
    let formats = shuffle_formats(q.formats(), r);
    q.requantize(unshuffle_formats(&formats, r));
    let out_shape = Shape4::new(s.n, s.c / (r * r), s.h * r, s.w * r);
    let mut data = vec![S::default(); out_shape.len()];
    shuffle_into(q.data(), s, r, &mut data);
    QTensorOf::from_raw(out_shape, data, formats)
}

fn run_unshuffle<S: Store>(q: &QTensorOf<S>, r: usize) -> QTensorOf<S> {
    let s = q.shape();
    let out_shape = Shape4::new(s.n, s.c * r * r, s.h / r, s.w / r);
    let mut data = vec![S::default(); out_shape.len()];
    unshuffle_into(q.data(), s, r, &mut data);
    QTensorOf::from_raw(out_shape, data, unshuffle_formats(q.formats(), r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_imaging::prelude::*;
    use ringcnn_nn::prelude::*;

    fn trained_tiny_denoiser(alg: &Algebra) -> (Sequential, Tensor, Tensor) {
        let set = denoising_set(DatasetProfile::Train, 12, 12, 25.0);
        let c = 8;
        let mut model = Sequential::new()
            .with(alg.conv(1, c, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(c, c, 3, 4))
            .with_opt(alg.activation())
            .with(alg.conv(c, 1, 3, 5));
        let cfg = TrainConfig {
            steps: 120,
            batch: 4,
            lr: 3e-3,
            decay_after: 0.7,
            seed: 1,
        };
        let _ = train_regression(&mut model, &set.inputs, &set.targets, &cfg);
        (model, set.inputs, set.targets)
    }

    #[test]
    fn quantized_matches_float_closely() {
        let alg = Algebra::ri_fh(4);
        let (mut model, inputs, _t) = trained_tiny_denoiser(&alg);
        let float_out = model.forward(&inputs, false);
        let qm = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
        let q_out = qm.forward(&inputs);
        let p = psnr(&float_out, &q_out);
        // 8-bit fidelity of a lightly-trained (RI4, fH) model varies with
        // the training/init stream (measured ~25–32 dB across seeds);
        // the floor flags a broken pipeline, not a lucky stream.
        assert!(
            p > 24.0,
            "quantized output should track float output, PSNR {p}"
        );
    }

    #[test]
    fn component_wise_formats_beat_single_format_for_fh() {
        // §IV-C: with the directional ReLU, per-component formats avoid
        // the saturation losses of a single Q-format.
        let alg = Algebra::ri_fh(4);
        let (mut model, inputs, targets) = trained_tiny_denoiser(&alg);
        let qm_cw = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
        let qm_single = QuantizedModel::quantize(
            &mut model,
            &inputs,
            QuantOptions {
                component_wise: false,
                ..QuantOptions::default()
            },
        );
        let p_cw = psnr(&qm_cw.forward(&inputs), &targets);
        let p_single = psnr(&qm_single.forward(&inputs), &targets);
        assert!(
            p_cw + 0.05 >= p_single,
            "component-wise ({p_cw:.2} dB) should not lose to single format ({p_single:.2} dB)"
        );
    }

    #[test]
    fn on_the_fly_beats_mac_based_drelu() {
        // The paper reports up to 0.2 dB loss for quantize-before-
        // transform; our pipeline must show the same ordering.
        let alg = Algebra::ri_fh(4);
        let (mut model, inputs, targets) = trained_tiny_denoiser(&alg);
        let otf = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
        let mac = QuantizedModel::quantize(
            &mut model,
            &inputs,
            QuantOptions {
                on_the_fly_drelu: false,
                ..QuantOptions::default()
            },
        );
        let p_otf = psnr(&otf.forward(&inputs), &targets);
        let p_mac = psnr(&mac.forward(&inputs), &targets);
        assert!(
            p_otf + 0.02 >= p_mac,
            "on-the-fly ({p_otf:.2} dB) should not lose to MAC-based ({p_mac:.2} dB)"
        );
    }

    #[test]
    fn quantized_model_handles_shuffles_and_residuals() {
        let alg = Algebra::ri_fh(2);
        let set = denoising_set(DatasetProfile::Set5, 8, 4, 15.0);
        let mut model = ringcnn_nn::models::ernet::dn_ernet_pu(
            &alg,
            ringcnn_nn::models::ernet::ErNetConfig::tiny(),
            1,
            9,
        );
        let float_out = model.forward(&set.inputs, false);
        let qm = QuantizedModel::quantize(&mut model, &set.inputs, QuantOptions::default());
        let q_out = qm.forward(&set.inputs);
        assert_eq!(q_out.shape(), float_out.shape());
        let p = psnr(&float_out, &q_out);
        assert!(p > 25.0, "PSNR float-vs-quant {p}");
    }

    #[test]
    fn integer_pipeline_is_deterministic() {
        let alg = Algebra::ri_fh(2);
        let (mut model, inputs, _t) = trained_tiny_denoiser(&alg);
        let qm = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
        let a = qm.forward(&inputs);
        let b = qm.forward(&inputs);
        assert_eq!(a, b);
    }

    #[test]
    fn im2col_conv_matches_scalar_reference_bit_for_bit() {
        // Every conv the builder emits (dense, ring-expanded, aligned,
        // accumulator-keeping) must agree with the scalar datapath on
        // every integer.
        for alg in [Algebra::real(), Algebra::ri_fh(4), Algebra::ri_fh(2)] {
            let (mut model, inputs, _t) = trained_tiny_denoiser(&alg);
            let qm = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
            let mut q = QTensor::quantize(&inputs, vec![qm.input_format(); inputs.shape().c]);
            for layer in qm.layers() {
                if let QLayer::Conv(c) = layer {
                    let fast = run_conv(c, None, &q, [0; 4]);
                    let reference = run_conv_reference(c, &q);
                    assert_eq!(fast, reference, "{}", alg.label());
                }
                q = execute_layer(layer, q);
            }
        }
    }

    #[test]
    fn real_model_quantizes_too() {
        let alg = Algebra::real();
        let (mut model, inputs, _t) = trained_tiny_denoiser(&alg);
        let float_out = model.forward(&inputs, false);
        let qm = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
        let p = psnr(&float_out, &qm.forward(&inputs));
        assert!(p > 30.0, "real-model quantization PSNR {p}");
    }
}
