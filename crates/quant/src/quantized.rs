//! Bit-accurate quantized inference of RingCNN models (§IV-C).
//!
//! A float model ([`Sequential`] of convolutions, activations, shuffles,
//! residual blocks) is calibrated on sample data and lowered onto an
//! integer pipeline. Calibration runs the model's float step program
//! once, through the one driver of `ringcnn_nn::program`, on a datapath
//! that lowers each step as it runs from the ranges it reads and writes:
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
//! Every format that reaches memory has the paper's 8 bits: calibration
//! fits no other width and [`QuantizedModel::validate`] admits no other.
//! Nor does it admit a model whose integers outgrow the eRingCNN
//! datapath: its load-time proof ([`LaneProof`]) bounds, whatever the
//! input, every conv accumulator below the engine's `ACC_BITS` and every
//! directional-ReLU butterfly below its unit's width (both from
//! `ringcnn_hw::engine`), everything else below `2^31`. So every model
//! that loads runs the one integer chain: 8-bit planes, `i32` lanes,
//! 16-bit multiplies in the conv engine — [`QuantizedModel::forward`],
//! and [`QuantizedModel::forward_q`], its `i64` [`QTensor`] door for the
//! oracle tests: the chain compiled into the step program of
//! `ringcnn_nn::program` ([`QuantizedModel::program`]) and run by its one
//! driver on this crate's datapath. A conv that keeps its accumulator and
//! the directional ReLU behind it are one step of the program: the unit
//! runs on each column chunk's accumulators inside the conv engine (the
//! paper's on-the-fly execution, literally), so only requantized features
//! are ever stored. [`execute_layer`] is the one slow oracle beside it, one
//! layer at a time on `i64` tensors, unfused: [`run_conv_reference`],
//! [`run_drelu_reference`], and the store-generic stages the chain
//! shares.

use crate::qformat::{requant_shift, QFormat, QFormatError};
use crate::qtensor::{expand_formats, group_max_abs, QTensor, QTensorOf, Store, BLOCK};
use ringcnn_algebra::transforms::{fwht_i64, fwht_planes};
use ringcnn_imaging::degrade::upsample_window;
use ringcnn_nn::layer::{Layer, Node, SkipKind};
use ringcnn_nn::layers::conv::AnyConv;
use ringcnn_nn::layers::shuffle::{cropped, shuffle_into, stacked, unshuffle_into, PixelShuffle};
use ringcnn_nn::layers::structure::Sequential;
use ringcnn_nn::program::{self, once, push_skip, Datapath, Epilogue, Op, Point, Step};
use ringcnn_nn::runtime::{Emit, InferenceModel, ModelTopo, Read};
use ringcnn_tensor::gemm::{ChunkEpilogue, PackedWeights, RequantChannel, RequantPlan};
use ringcnn_tensor::im2col::{conv_streaming_i32, ConvInput};
use ringcnn_tensor::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::ops::Range;
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
    /// The calibrated pipeline does not load: its proof found a stage
    /// that outgrows the modelled widths (see [`QuantizedModel::validate`]).
    Unloadable(String),
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
            CalibrationError::Unloadable(why) => {
                write!(f, "calibrated pipeline does not load: {why}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// The width of every weight and feature format that reaches memory —
/// the paper's 8 bits: what calibration fits and all `validate` admits.
const STORED_BITS: u32 = 8;

/// A [`STORED_BITS`] [`QFormat::try_fit`] with calibration-error context.
fn fit_ctx(max_abs: f64, context: &str) -> Result<QFormat, CalibrationError> {
    QFormat::try_fit(max_abs, STORED_BITS).map_err(|source| CalibrationError::NonFinite {
        context: context.into(),
        source,
    })
}

/// Quantization options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantOptions {
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
    weights: Vec<i8>,
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

/// The run-time kernels of a [`QConv`], each built once, on first use
/// ([`QuantizedModel::prepare_inference`] builds them ahead of it).
#[derive(Clone, Debug, Default)]
struct ConvPlans {
    /// `support[co·ci_n + ci]`: whether any tap of `(co, ci)` is
    /// non-zero, i.e. whether input channel `ci`'s scale reaches output
    /// channel `co`'s accumulator.
    support: OnceLock<Vec<bool>>,
    /// The streaming engine's plan of the integer weights, as the 16-bit
    /// operands of `i32` lanes.
    weights: OnceLock<PackedWeights<i16>>,
}

/// State derived from the tables beside it (a conv's kernels, a model's
/// proof). Equal to every other `Derived`: a prepared and an unprepared
/// model over the same tables are the same model.
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
    fits.expect("the integer chain runs what the load-time proof admitted")
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
    pub fn weights(&self) -> &[i8] {
        &self.weights
    }

    /// Weight Q-format.
    pub fn w_format(&self) -> QFormat {
        self.w_format
    }

    /// The output formats the accumulator is requantized to, or `None`
    /// for one kept for the directional ReLU behind the conv.
    pub fn requant(&self) -> Option<&[QFormat]> {
        self.requant.as_deref()
    }

    /// [`tap_support`], derived once.
    fn support(&self) -> &[bool] {
        self.plan.0.support.get_or_init(|| tap_support(self))
    }

    /// The engine's plan of the weights, derived once.
    fn packed(&self) -> &PackedWeights<i16> {
        self.plan.0.weights.get_or_init(|| {
            let weights: Vec<i16> = self.weights.iter().map(|w| i16::from(*w)).collect();
            PackedWeights::<i16>::new(self.co, self.ci * self.k * self.k, &weights)
        })
    }
}

impl QDRelu {
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

/// The one slow oracle of the integer pipeline, one layer at a time on
/// `i64` tensors, unfused: a conv through [`run_conv_reference`] (one
/// that keeps its accumulator hands the accumulator on), a directional
/// ReLU through [`run_drelu_reference`], and the ReLU, shuffles and
/// saturating skip adds through the store-generic stages the program's
/// datapath runs on `i8` planes — a skip's body through this, layer by
/// layer. What [`QuantizedModel::forward`] computes is this walk's
/// integers, bit for bit (`tests/quant_backend.rs`).
pub fn execute_layer(layer: &QLayer, q: QTensor) -> QTensor {
    let skip = |body: &[QLayer]| {
        let mut out = body.iter().fold(q.clone(), |q, l| execute_layer(l, q));
        add_skip(layer, &mut out, &q, (0, 0), (0, 0));
        out
    };
    match layer {
        QLayer::Conv(c) => run_conv_reference(c, &q),
        QLayer::DRelu(d) => run_drelu_reference(d, &q),
        QLayer::Residual(res) => skip(&res.body),
        QLayer::UpsampleResidual(ur) => skip(&ur.body),
        _ => shared_stage(layer, Cow::Owned(q), [0; 4]),
    }
}

/// A fully quantized model: integer layers plus the input image format.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantizedModel {
    input_format: QFormat,
    layers: Vec<QLayer>,
    opts: QuantOptions,
    /// The load-time proof, or why the chain does not load, derived on
    /// first use; never stored, never compared.
    #[serde(skip)]
    proof: Derived<OnceLock<Result<LaneProof, String>>>,
}

impl QuantizedModel {
    /// Calibrates `model` on `calibration` inputs and lowers it to the
    /// integer pipeline.
    ///
    /// # Panics
    ///
    /// Panics on any [`CalibrationError`] — unsupported layer types,
    /// non-finite dynamic ranges, a pipeline that does not load. Use
    /// [`QuantizedModel::try_quantize`] (or `ringcnn_quant::calibrate`)
    /// when the calibration data is not known-good.
    pub fn quantize(model: &mut Sequential, calibration: &Tensor, opts: QuantOptions) -> Self {
        Self::try_quantize(model, calibration, opts)
            .unwrap_or_else(|e| panic!("quantization failed: {e}"))
    }

    /// Fallible calibration: every way the pass can fail — a divergent
    /// activation range (NaN/∞), an unsupported layer, an empty batch, a
    /// calibrated pipeline whose integers outgrow the modelled widths —
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
        Self::calibrated(model, calibration, opts).map(|(quantized, _)| quantized)
    }

    /// [`QuantizedModel::try_quantize`], and the float output its one run
    /// of the model's step program computed.
    pub(crate) fn calibrated(
        model: &mut Sequential,
        calibration: &Tensor,
        opts: QuantOptions,
    ) -> Result<(Self, Tensor), CalibrationError> {
        if calibration.shape().is_empty() {
            return Err(CalibrationError::EmptyCalibration);
        }
        let input_format = fit_ctx(group_max_abs(calibration, 1)[0], "calibration input")?;
        // Everything that outlives calibration — the float model's
        // kernels, the integer weight tables — is built before the first
        // activation exists: the run adds only the layer list and its
        // format tables, a few kilobytes (docs/PERFORMANCE.md, "The
        // integer tier").
        Layer::prepare_inference(model);
        let program = program::compile(model);
        let lower = |step: &Step<&dyn Layer>| match step.layer.describe() {
            Node::Conv(conv) => Some(lower_conv(conv)),
            _ => None,
        };
        let convs = program
            .iter()
            .filter_map(lower)
            .collect::<Result<Vec<_>, _>>()?;
        // An opaque layer is refused before anything runs.
        if let Some(leaf) = program.iter().find(|step| matches!(step.op, Op::Leaf)) {
            return Err(CalibrationError::UnsupportedLayer(leaf.layer.name()));
        }
        let run = &Calibration {
            program: &program,
            opts,
            groups: Cell::new(1),
            convs: RefCell::new(convs.into_iter()),
            lowered: RefCell::default(),
        };
        let steps = program.iter().enumerate();
        let steps: Vec<_> = steps
            .map(|(at, s)| s.map(|layer| Calibrate { layer, at, run }))
            .collect();
        let out = once(&steps, Cow::Borrowed(calibration), [0; 4]);
        let lowered = run.lowered.take().into_iter().map(|(_, layer)| layer);
        let layers = lowered.collect::<Result<_, _>>()?;
        let mut quantized = Self {
            input_format,
            layers,
            opts,
            proof: Derived::default(),
        };
        if let Err(why) = quantized.proof() {
            return Err(CalibrationError::Unloadable(why.clone()));
        }
        quantized.prepare_inference();
        Ok((quantized, out))
    }

    /// Plans every convolution's weights for the streaming engine
    /// (idempotent; a conv nothing planned plans on first use). A freshly
    /// quantized or loaded model is already prepared.
    pub fn prepare_inference(&mut self) {
        if self.proof().is_ok() {
            for step in self.program() {
                if let QLayer::Conv(c) = step.layer {
                    c.support();
                    c.packed();
                }
            }
        }
    }

    /// What the load-time proof found — every stage's worst-case
    /// magnitude and the stage that sets the largest — derived from the
    /// tables on first use, over the chain's own input channel count;
    /// `None` for a chain that does not load ([`QuantizedModel::validate`]
    /// says why). Whatever the input, it bounds every conv accumulator
    /// below `2^(ACC_BITS − 1)`, every directional-ReLU butterfly below
    /// `2^(fh_bits(n) − 1)` (`ringcnn_hw::engine`) and everything else
    /// below `2^31`: the `i32` lanes of the chain hold every integer it
    /// computes (the bounds: `docs/PERFORMANCE.md`, "The integer tier").
    pub fn lane_proof(&self) -> Option<&LaneProof> {
        self.proof().ok()
    }

    /// [`QuantizedModel::lane_proof`], or why the chain does not load.
    fn proof(&self) -> Result<&LaneProof, &String> {
        let prove = || -> Result<LaneProof, String> {
            validate_format(self.input_format, "input format")?;
            let c = self.input_channels().filter(|c| *c > 0);
            let c = c.ok_or("no convolution fixes the channel count")?;
            LaneProof::of(self.input_format, c, &self.layers)
        };
        self.proof.0.get_or_init(prove).as_ref()
    }

    /// Bit-accurate integer inference; input is quantized with the
    /// calibrated image format straight onto the chain's 8-bit planes,
    /// and the output dequantized to floats.
    ///
    /// # Panics
    ///
    /// If the model does not load ([`QuantizedModel::validate`]).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.proof().expect("a model that loads");
        let q = QTensorOf::<i8>::quantize(input, vec![self.input_format; input.shape().c]);
        once(&self.program(), Cow::Owned(q), [0; 4]).dequantize()
    }

    /// Integer-in/integer-out inference, the door through which
    /// `tests/quant_backend.rs` and `tests/conv_alloc.rs` compare the
    /// chain with the oracle: the 8-bit features of `input` are narrowed
    /// onto the chain's planes, and its output widened back.
    ///
    /// # Panics
    ///
    /// If a value of `input` does not fit 8 bits, or the model does not
    /// load.
    pub fn forward_q(&self, input: QTensor) -> QTensor {
        self.proof().expect("a model that loads");
        let (s, data, formats) = input.into_raw();
        let narrowed = data
            .into_iter()
            .map(|v| i8::try_from(v).expect("8-bit features"));
        let q = QTensorOf::from_raw(s, narrowed.collect(), formats);
        let (s, data, formats) = once(&self.program(), Cow::Owned(q), [0; 4]).into_raw();
        QTensor::from_raw(s, data.into_iter().map(i64::from).collect(), formats)
    }

    /// The chain as the one step program the driver runs
    /// (`ringcnn_nn::program`): every layer in order, a skip's body
    /// behind it, and a conv that keeps its accumulator fused with the
    /// directional ReLU behind it ([`Epilogue::FH`]).
    pub fn program(&self) -> Vec<Step<&QLayer>> {
        compile(&self.layers)
    }

    /// The calibrated input format.
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// The quantized layers (read-only view for the simulator).
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// The channel count the first convolution fixes for the chain's
    /// input, through the shuffles in front of it (`None`: no conv, or
    /// past `usize`).
    fn input_channels(&self) -> Option<usize> {
        // Channels at a layer = input channels · mul / div.
        let (mut mul, mut div) = (1usize, 1usize);
        for Step { layer, .. } in self.program() {
            match layer {
                QLayer::Conv(c) => return c.ci.checked_mul(div)?.checked_div(mul),
                QLayer::Shuffle(r) => div = div.checked_mul(r.checked_mul(*r)?)?,
                QLayer::Unshuffle(r) => mul = mul.checked_mul(r.checked_mul(*r)?)?,
                _ => {}
            }
        }
        None
    }

    /// Spatial topology of the integer pipeline — [`ModelTopo::of`] its
    /// program, as the float runtime's `model_topology` folds its own, so
    /// a quantized model tiles on the same `BatchRunner` with the same
    /// halo/granularity math.
    pub fn topology(&self) -> ModelTopo {
        ModelTopo::of(&self.program())
    }

    /// The load rule for untrusted pipelines (deserialized model files):
    /// `channels_io` is the chain's own input channel count, and the
    /// chain passes its load-time proof — the one walk, derived once and
    /// returned ([`QuantizedModel::lane_proof`]): consistent channels,
    /// divisible shuffles, one scale per conv accumulator, power-of-two
    /// tuples, stored formats of 2–8 bits and |frac| ≤ 64, weights within
    /// their format, bounded biases and taps, a directional ReLU behind
    /// every accumulator-keeping conv, and every stage inside the widths
    /// of the modelled accelerator. A pipeline that passes cannot panic
    /// or wrap at inference time on a shape-valid input.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant. A
    /// format outside the bounds or a stage that outgrows its width names
    /// the stage: `1 fH output format: bits 9 outside 2..=8`, `0 conv:
    /// worst case 2^23.0 exceeds the 24-bit accumulator`; a channel count
    /// names both: `channels_io 3, but the chain takes 1`.
    pub fn validate(&self, channels_io: usize) -> Result<&LaneProof, String> {
        let proof = self.proof().map_err(String::clone)?;
        let chain = self.input_channels().unwrap_or_default();
        let why = || format!("channels_io {channels_io}, but the chain takes {chain}");
        (channels_io == chain).then_some(proof).ok_or_else(why)
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

    /// [`QuantizedModel::forward`].
    fn forward_infer(&self, input: &Tensor) -> Tensor {
        self.forward(input)
    }

    /// The integer chain as a line buffer: every band read is quantized
    /// onto the chain's planes, every band emitted dequantized.
    fn stream(&self, window: (Window, [usize; 4]), read: Read<'_>, emit: Emit<'_>) {
        self.proof().expect("a model that loads");
        let program = self.program();
        let band = program::band(&program, window.0.w);
        let read = |rows| {
            let x = read(rows);
            let formats = vec![self.input_format; x.shape().c];
            Cow::Owned(QTensorOf::<i8>::quantize(&x, formats))
        };
        program::stream(&program, window, band, read, |y, first| {
            emit(y.dequantize(), first);
        });
    }

    fn topology(&self) -> ModelTopo {
        QuantizedModel::topology(self)
    }
}

// ---------------------------------------------------------------------
// Calibration: run the float program, lower each step as it runs.
// ---------------------------------------------------------------------

/// Sentinel for "per-channel formats with no tuple grouping" (after a
/// pixel shuffle of grouped features).
const UNGROUPED: usize = usize::MAX;

/// One format per range of `maxes`.
fn fit_all(maxes: &[f64], context: &str) -> Result<Vec<QFormat>, CalibrationError> {
    maxes.iter().map(|m| fit_ctx(*m, context)).collect()
}

/// Step `at` of the float program as calibration runs it: it computes
/// what the float datapath computes and lowers its layer from the ranges
/// of what it read and wrote — the ranges its formats are fitted to, and
/// no others.
#[derive(Clone, Copy)]
struct Calibrate<'a> {
    layer: &'a dyn Layer,
    at: usize,
    run: &'a Calibration<'a>,
}

/// A calibration run, carried from step to step.
struct Calibration<'a> {
    program: &'a [Step<&'a dyn Layer>],
    opts: QuantOptions,
    /// How many format groups the activation carries.
    groups: Cell<usize>,
    /// What [`lower_conv`] made of the convolutions still to run.
    convs: RefCell<std::vec::IntoIter<QConv>>,
    /// What the steps run so far lowered to, by step: a skip gathers its
    /// body's, the steps behind it, when it adds.
    lowered: RefCell<Vec<(usize, Result<QLayer, CalibrationError>)>>,
}

/// A lowered layer and the format groups of the activation behind it.
type Lowered = Result<(QLayer, usize), CalibrationError>;

impl Calibrate<'_> {
    /// Appends what the step lowered to.
    fn lowered(self, lowered: Lowered) {
        let layer = lowered.map(|(layer, groups)| {
            self.run.groups.set(groups);
            layer
        });
        self.run.lowered.borrow_mut().push((self.at, layer));
    }

    /// A shuffle or an unshuffle: grouped features lose their grouping.
    fn shuffled(self, layer: QLayer) {
        let groups = self.run.groups.get();
        self.lowered(Ok((layer, if groups == 1 { 1 } else { UNGROUPED })));
    }

    /// The conv, which read `x` and wrote `y` (the shuffle it writes
    /// through, if `fused`, not run yet).
    fn fit_conv(self, x: &Tensor, y: &Tensor, fused: bool) -> Lowered {
        let Node::Conv(conv) = self.layer.describe() else {
            unreachable!("a conv step holds a convolution")
        };
        let (Calibration { program, opts, .. }, at) = (self.run, self.at);
        // A conv followed in its chain by a directional ReLU in on-the-fly
        // mode keeps its accumulator. The step behind a skip whose body
        // it ends is not in its chain.
        let ends_body =
            |(j, s): (usize, &Step<_>)| matches!(s.op, Op::Skip { body, .. } if j + body == at);
        let in_chain = !program[..at].iter().enumerate().any(ends_body);
        let drelu = matches!(program.get(at + 1), Some(Step { op: Op::DRelu, .. }));
        let keep_acc = in_chain && drelu && !fused && opts.on_the_fly_drelu;
        // A diagonal ring keeps components separate, so grouped input
        // formats of matching period stay consistent; anything else
        // mixes components in one accumulator and needs alignment. The
        // real field is the ring with `n = 1`: one group in, one out.
        let ((n, diagonal), groups) = (conv.parts().0.tuple(), self.run.groups.get());
        let q = self.run.convs.borrow_mut().next();
        let mut q = q.expect("a lowered conv per conv");
        if groups != 1 && !(diagonal && groups == n) {
            q.align_input = Some(fit_ctx(group_max_abs(x, 1)[0], "conv input alignment")?);
        }
        if keep_acc {
            return Ok((QLayer::Conv(q), 1));
        }
        let groups = if opts.component_wise { n } else { 1 };
        let formats = fit_all(&group_max_abs(y, groups), "conv output")?;
        q.requant = Some(expand_formats(&formats, q.co));
        Ok((QLayer::Conv(q), groups))
    }

    /// The directional ReLU over `n`-tuples, which wrote `y` from an
    /// input that after the first butterfly reached `mid_max`, in
    /// MAC-based mode.
    fn fit_drelu(self, n: usize, mid_max: Option<f64>, y: &Tensor) -> Lowered {
        let groups = if self.run.opts.component_wise { n } else { 1 };
        let out_formats = fit_all(&group_max_abs(y, groups), "directional ReLU output")?;
        let mode = match mid_max {
            None => DReluMode::OnTheFly,
            Some(mid_max) => DReluMode::MacBased {
                mid: fit_ctx(mid_max, "Hadamard intermediate")?,
            },
        };
        let drelu = QDRelu {
            n,
            mode,
            out_formats,
        };
        Ok((QLayer::DRelu(drelu), groups))
    }

    /// The skip, whose sum is `out`, over `body`.
    fn fit_skip(self, body: Result<Vec<QLayer>, CalibrationError>, out: &Tensor) -> Lowered {
        let (body, kind) = (body?, self.layer.describe());
        let out_formats = vec![fit_ctx(group_max_abs(out, 1)[0], "skip output")?];
        let skip = match kind {
            Node::Skip(_, SkipKind::Bicubic(factor)) => {
                let skip = QUpsampleResidual {
                    body,
                    factor,
                    out_formats,
                };
                QLayer::UpsampleResidual(Box::new(skip))
            }
            _ => QLayer::Residual(Box::new(QResidual { body, out_formats })),
        };
        Ok((skip, 1))
    }
}

impl Datapath for Calibrate<'_> {
    type Plane = Tensor;

    fn conv(self, x: &Tensor, cut: [usize; 4], epilogue: Epilogue<Self>) -> Tensor {
        // The conv's own output; a shuffle it writes through runs after.
        let y = self.layer.conv(x, cut, Epilogue::None);
        let fused = matches!(epilogue, Epilogue::Shuffle(_));
        self.lowered(self.fit_conv(x, &y, fused));
        let Epilogue::Shuffle(r) = epilogue else {
            return y;
        };
        self.shuffled(QLayer::Shuffle(r));
        PixelShuffle::apply(&y, r)
    }

    fn apply(self, x: Cow<'_, Tensor>, cut: [usize; 4]) -> Tensor {
        match self.layer.describe() {
            Node::DRelu(n) => {
                // The range after the first butterfly, taken before `x`
                // is given up.
                let mac = !self.run.opts.on_the_fly_drelu;
                let mid_max = mac.then(|| hadamard_intermediate_max(&x, n));
                let y = self.layer.apply(x, cut);
                self.lowered(self.fit_drelu(n, mid_max, &y));
                return y;
            }
            Node::Shuffle(r) => self.shuffled(QLayer::Shuffle(r)),
            Node::Unshuffle(r) => self.shuffled(QLayer::Unshuffle(r)),
            _ => self.lowered(Ok((QLayer::Relu, self.run.groups.get()))),
        }
        self.layer.apply(x, cut)
    }

    fn add_skip(self, out: &mut Tensor, x: &Tensor, at: Point, origin: Point) {
        self.layer.add_skip(out, x, at, origin);
        let mut lowered = self.run.lowered.borrow_mut();
        let start = lowered.partition_point(|(at, _)| *at < self.at);
        let body = lowered.split_off(start).into_iter().map(|(_, layer)| layer);
        let body = body.collect();
        drop(lowered);
        self.lowered(self.fit_skip(body, out));
    }

    fn stack(parts: &[(&Tensor, Range<usize>)]) -> Tensor {
        <&dyn Layer>::stack(parts)
    }

    fn shape(x: &Tensor) -> Shape4 {
        x.shape()
    }
}

/// One convolution's weights, lowered: no output requantization and no
/// input alignment yet (the calibration run decides both).
fn lower_conv(conv: &dyn AnyConv) -> Result<QConv, CalibrationError> {
    let (lowering, bias) = conv.parts();
    let ConvWeights { co, ci, k, data } = &*lowering.lowered();
    let wmax = data.iter().fold(0.0f64, |m, v| m.max(f64::from(v.abs())));
    let w_format = fit_ctx(wmax, "conv weights")?;
    let weights: Vec<i8> = data
        .iter()
        .map(|v| i8::try_from(w_format.quantize(f64::from(*v))).expect("an 8-bit format"))
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

/// The chain as one flat step program: every layer in order, a skip's
/// body behind it, and a convolution that keeps its accumulator fused
/// with the directional ReLU behind it (every such conv of a validated
/// chain has one) — the unit runs on each column chunk's accumulators
/// inside the engine, and no accumulator is stored.
fn compile(mut layers: &[QLayer]) -> Vec<Step<&QLayer>> {
    let mut program = Vec::new();
    while let [layer, rest @ ..] = layers {
        layers = rest;
        let op = match layer {
            QLayer::Conv(c) => {
                let epilogue = match rest {
                    [fh @ QLayer::DRelu(_), rest @ ..] if c.requant.is_none() => {
                        layers = rest;
                        Epilogue::FH(fh)
                    }
                    _ => Epilogue::None,
                };
                Op::Conv {
                    radius: c.k / 2,
                    epilogue,
                }
            }
            QLayer::Relu => Op::Relu,
            QLayer::DRelu(_) => Op::DRelu,
            QLayer::Shuffle(r) => Op::Shuffle(*r),
            QLayer::Unshuffle(r) => Op::Unshuffle(*r),
            QLayer::Residual(res) => {
                push_skip(&mut program, layer, SkipKind::Residual, compile(&res.body));
                continue;
            }
            QLayer::UpsampleResidual(ur) => {
                let kind = SkipKind::Bicubic(ur.factor);
                push_skip(&mut program, layer, kind, compile(&ur.body));
                continue;
            }
        };
        program.push(Step { layer, op });
    }
    program
}

/// `i8` planes in `i32` lanes: the conv on the engine (`run_conv`, with
/// the directional ReLU it fused), every other stage the store-generic
/// body the oracle ([`execute_layer`]) runs too.
impl Datapath for &QLayer {
    type Plane = QTensorOf<i8>;

    fn conv(self, x: &Self::Plane, cut: [usize; 4], epilogue: Epilogue<Self>) -> Self::Plane {
        let fh = match epilogue {
            Epilogue::FH(QLayer::DRelu(d)) => Some(d),
            _ => None,
        };
        match self {
            QLayer::Conv(c) => run_conv(c, fh, x, cut),
            _ => unreachable!("a conv step holds a conv"),
        }
    }

    fn apply(self, x: Cow<'_, Self::Plane>, cut: [usize; 4]) -> Self::Plane {
        match self {
            QLayer::DRelu(d) => run_drelu(d, x.into_owned()),
            _ => shared_stage(self, x, cut),
        }
    }

    fn add_skip(self, out: &mut Self::Plane, x: &Self::Plane, at: Point, origin: Point) {
        add_skip(self, out, x, at, origin);
    }

    fn stack(parts: &[(&Self::Plane, Range<usize>)]) -> Self::Plane {
        let views: Vec<_> = parts
            .iter()
            .map(|(q, rows)| (q.data(), q.shape(), rows.clone()))
            .collect();
        let (s, data) = stacked(&views);
        QTensorOf::from_raw(s, data, parts[0].0.formats().to_vec())
    }

    fn shape(x: &Self::Plane) -> Shape4 {
        x.shape()
    }
}

/// The stages the chain and the oracle share, one body generic over the
/// store: the ReLU and the shuffles, an unshuffle without `cut` first.
fn shared_stage<S: Store>(
    layer: &QLayer,
    q: Cow<'_, QTensorOf<S>>,
    cut: [usize; 4],
) -> QTensorOf<S> {
    match layer {
        QLayer::Relu => {
            let (s, mut data, formats) = q.into_owned().into_raw();
            data.iter_mut().for_each(|v| *v = (*v).max(S::default()));
            QTensorOf::from_raw(s, data, formats)
        }
        QLayer::Shuffle(r) => run_shuffle(q.into_owned(), *r),
        QLayer::Unshuffle(r) if cut == [0; 4] => run_unshuffle(&q, *r),
        QLayer::Unshuffle(r) => {
            let (s, data) = cropped(q.data(), q.shape(), cut);
            run_unshuffle(&QTensorOf::from_raw(s, data, q.formats().to_vec()), *r)
        }
        _ => unreachable!("each walk runs its own convs, directional ReLUs and skips"),
    }
}

/// `out +=` the saturating add of the skip `layer` of `x` over the window
/// at `at`, shared like [`shared_stage`]: `x` itself, or the fixed-point
/// interpolator — the float bicubic of the dequantized `x` (lying from
/// pixel `origin` on in its frame), re-quantized at the output format.
fn add_skip<S: Store>(
    layer: &QLayer,
    out: &mut QTensorOf<S>,
    x: &QTensorOf<S>,
    (top, left): Point,
    origin: Point,
) {
    let s = out.shape();
    match layer {
        QLayer::Residual(res) => {
            out.add_window_saturating(x, (top, left), expand_formats(&res.out_formats, s.c));
        }
        QLayer::UpsampleResidual(ur) => {
            let window = (top, left, s.h, s.w);
            let skip_f = upsample_window(&x.dequantize(), ur.factor, window, origin);
            let formats = expand_formats(&ur.out_formats, s.c);
            let skip = QTensorOf::quantize(&skip_f, formats.clone());
            out.add_assign_saturating(&skip, formats);
        }
        _ => unreachable!("only a skip adds"),
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

/// The production integer convolution: every batch item of 8-bit planes
/// streams through `ringcnn_tensor::im2col::conv_streaming_i32` — im2col
/// packed per column chunk inside the register-blocked integer GEMM, in
/// `i32` lanes over 16-bit operands, the per-channel requantization
/// **fused into the kernel epilogue** (un-rescaled wide accumulators
/// never reach memory), outputs written in place. With `fh`, the
/// directional ReLU behind an accumulator-keeping conv, the engine hands
/// every column chunk's accumulators to the unit before it writes them
/// ([`DReluStages::run`], the one body [`run_drelu`] runs over a stored
/// tensor), and the accumulator tensor never exists. The weight plan and
/// tap support are built once (`prepare_inference`, or the first call).
/// Integer accumulation is order-independent, the AVX2 paths guard their
/// operand requirements, the fused epilogue applies the same
/// [`requant_shift`] + saturation, and the load-time proof keeps every
/// accumulator inside the lane, so this is **bit-identical** to
/// [`run_conv_reference`] (then [`run_drelu_reference`]) at any thread
/// count and on every kernel backend — the equivalence suite in
/// `tests/quant_backend.rs` asserts it.
fn run_conv(c: &QConv, fh: Option<&QDRelu>, q: &QTensorOf<i8>, cut: [usize; 4]) -> QTensorOf<i8> {
    let aligned = align_conv_input(c, q);
    let q = aligned.as_ref().unwrap_or(q);
    let s = q.shape();
    assert_eq!(s.c, c.ci, "quantized conv channel mismatch");
    let acc_frac = resolve_acc_fracs(c, q.formats(), c.support());
    let bias: Vec<i32> = (0..c.co)
        .map(|co| narrow(bias_at(c, co, acc_frac[co])))
        .collect();
    let requant = c.requant.as_ref().map(|fmts| requant_plan(fmts, &acc_frac));
    let mut formats = conv_out_formats(c, &acc_frac);
    let stages = fh.map(|d| DReluStages::new(d, &mut formats));
    let unit = stages
        .as_ref()
        .map(|fh| |block: &mut [i32], stride: usize, cw: usize| fh.run(0, block, stride, cw));
    let fused = unit.as_ref().map(|unit| unit as ChunkEpilogue<'_, i32>);
    let region = Window::inset(s.h, s.w, cut);
    let out_shape = Shape4::new(s.n, c.co, region.h, region.w);
    let mut data = vec![0; out_shape.len()];
    let (item_in, item_out) = (s.c * s.plane(), c.co * out_shape.plane());
    for b in 0..s.n {
        let planes = &q.data()[b * item_in..(b + 1) * item_in];
        conv_streaming_i32(
            &ConvInput::new(planes, s.c, s.h, s.w, region),
            c.k,
            c.packed(),
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

/// The scalar quadruple-loop reference datapath (§IV-C), the conv step of
/// [`execute_layer`]: the bit-exactness oracle for the production
/// kernel.
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
                        let wv = i64::from(c.weights[((co * c.ci + ci) * c.k + ky) * c.k + kx]);
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
/// most `MAX_TAPS` products of 8-bit operands, ≤ 2^34) inside `i64`
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
    /// The butterfly rail is wider than the `i32` lane, so the clamp is at
    /// the lane's own rails (`apply_lane` saturates a requantizer's rails
    /// into the lane) — which the load-time proof keeps `n·S`, and with it
    /// every partial sum of both butterflies, below.
    fn run(&self, t0: usize, block: &mut [i32], stride: usize, len: usize) {
        let n = self.n;
        for (t, tuple) in (t0..).zip(block.chunks_mut(n * stride)) {
            // One pass of `stage(l)` over row `l` of the tuple, each l.
            let rows = |tuple: &mut [i32], stage: &dyn Fn(usize) -> RequantChannel| {
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
/// time, widened into `i32` lanes.
fn run_drelu(d: &QDRelu, q: QTensorOf<i8>) -> QTensorOf<i8> {
    let (s, mut data, mut formats) = q.into_raw();
    let stages = DReluStages::new(d, &mut formats);
    let (n, plane) = (d.n, s.plane());
    for (t, tuple) in data.chunks_mut((n * plane).max(1)).enumerate() {
        // `BLOCK / n` pixels a row: 8 KiB of `i32`.
        for p0 in (0..plane).step_by(BLOCK / n) {
            let len = (BLOCK / n).min(plane - p0);
            i8::in_lane(&mut tuple[p0..], n, plane, len, |block, stride| {
                stages.run(t % (s.c / n), block, stride, len);
            });
        }
    }
    QTensorOf::from_raw(s, data, formats)
}

/// The per-pixel directional ReLU — gather one `n`-tuple across `n`
/// planes, run each mode's sequence on it with [`requant_shift`],
/// `fwht_i64` and [`QFormat::saturate`], scatter it back — the integer
/// oracle beside [`run_conv_reference`], the directional-ReLU step of
/// [`execute_layer`]: the equivalence suite compares the plane-wise
/// production unit with it bit for bit.
pub fn run_drelu_reference(d: &QDRelu, q: &QTensor) -> QTensor {
    let s = q.shape();
    let n = d.n;
    assert_eq!(s.c % n, 0, "channels not a multiple of tuple size");
    let out_formats = expand_formats(&d.out_formats, s.c);
    let mut out = vec![0i64; s.len()];
    let mut y = vec![0i64; n];
    for b in 0..s.n {
        for t in 0..s.c / n {
            // Align components to the finest (max) frac: Fig. 8's
            // left-shifters with s_i = max frac − frac_i.
            let max_frac = (0..n).map(|l| q.format_of(t * n + l).frac).max().unwrap();
            let mid_frac = match &d.mode {
                DReluMode::OnTheFly => max_frac,
                DReluMode::MacBased { mid } => mid.frac,
            };
            for p in 0..s.plane() {
                for l in 0..n {
                    // Fig. 8's left-shifters, saturating instead of
                    // wrapping on pathological format spreads.
                    let f = q.format_of(t * n + l).frac;
                    y[l] = requant_shift(q.plane(b, t * n + l)[p], f, max_frac);
                }
                clamp_for_fwht(&mut y, n);
                fwht_i64(&mut y);
                match &d.mode {
                    DReluMode::OnTheFly => {
                        y.iter_mut().for_each(|v| *v = (*v).max(0));
                        clamp_for_fwht(&mut y, n);
                    }
                    // The conventional pipeline (the conv requantized its
                    // input to 8 bits): extra quantization point #1.
                    DReluMode::MacBased { mid } => {
                        let to_mid = |v: i64| mid.saturate(requant_shift(v, max_frac, mid.frac));
                        y.iter_mut().for_each(|v| *v = to_mid(*v).max(0));
                    }
                }
                fwht_i64(&mut y);
                for l in 0..n {
                    let fo = out_formats[t * n + l];
                    let v = requant_shift(y[l], mid_frac, fo.frac);
                    out[s.index(b, t * n + l, 0, 0) + p] = fo.saturate(v);
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

    /// Holds every step of `qm`'s chain on `i8` planes — a conv that
    /// keeps its accumulator together with its directional ReLU, any
    /// other layer on its own, a skip's body step by step and then the
    /// whole skip — to the oracle walk of the same layers; counts the
    /// fused and the single steps.
    fn steps_equal_the_oracle(qm: &QuantizedModel, x: &Tensor, what: &str) -> [usize; 2] {
        fn visit(mut rest: &[QLayer], mut q: QTensor, what: &str, seen: &mut [usize; 2]) {
            while !rest.is_empty() {
                let len = match rest {
                    [QLayer::Conv(c), QLayer::DRelu(_), ..] if c.requant.is_none() => 2,
                    _ => 1,
                };
                let (step, after) = rest.split_at(len);
                if let [QLayer::Residual(res)] = step {
                    visit(&res.body, q.clone(), what, seen);
                }
                let data = q.data().iter().map(|v| narrow(*v)).collect();
                let narrowed = QTensorOf::from_raw(q.shape(), data, q.formats().to_vec());
                let got = once(&compile(step), Cow::Owned(narrowed), [0; 4]);
                q = step.iter().fold(q, |q, l| execute_layer(l, q));
                let data = got.data().iter().map(|v| i64::from(*v)).collect();
                let got = QTensor::from_raw(got.shape(), data, got.formats().to_vec());
                assert_eq!(got, q, "{what}");
                seen[len - 1] += 1;
                rest = after;
            }
        }
        let mut seen = [0; 2];
        let q = QTensor::quantize(x, vec![qm.input_format(); x.shape().c]);
        visit(qm.layers(), q, what, &mut seen);
        seen
    }

    #[test]
    fn im2col_conv_matches_scalar_reference_bit_for_bit() {
        // Every conv the builder emits (dense, ring-expanded, aligned,
        // accumulator-keeping — one step with its directional ReLU) must
        // agree with the scalar datapath on every integer.
        for alg in [Algebra::real(), Algebra::ri_fh(4), Algebra::ri_fh(2)] {
            let (mut model, inputs, _t) = trained_tiny_denoiser(&alg);
            let qm = QuantizedModel::quantize(&mut model, &inputs, QuantOptions::default());
            steps_equal_the_oracle(&qm, &inputs, &alg.label());
        }
    }

    /// Every step of the chain on `i8` planes — dense, ring-expanded and
    /// aligned convs, accumulator-keeping convs with their directional
    /// ReLU, MAC-based directional ReLUs, ReLU, shuffles, residual bodies
    /// and their saturating adds — against the oracle, for every mode
    /// combination over the real field, RI2/RI4/RI8 with `fH` and (RH4,
    /// fcw).
    #[test]
    fn i8_steps_equal_the_oracle_layer_by_layer() {
        let mut seen = [0; 2];
        for alg in [
            Algebra::real(),
            Algebra::ri_fh(2),
            Algebra::ri_fh(4),
            Algebra::ri_fh(8),
            Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4)),
        ] {
            let tiny = ringcnn_nn::models::ernet::ErNetConfig::tiny();
            let mut float = ringcnn_nn::models::ernet::dn_ernet_pu(&alg, tiny, 1, 9);
            let x = Tensor::random_uniform(Shape4::new(2, 1, 12, 8), -0.5, 1.5, 7);
            for (on_the_fly_drelu, component_wise) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let opts = QuantOptions {
                    on_the_fly_drelu,
                    component_wise,
                };
                let qm = QuantizedModel::quantize(&mut float, &x, opts);
                let what = format!("{} with {opts:?}", alg.label());
                let [fused, single] = steps_equal_the_oracle(&qm, &x, &what);
                (seen[0], seen[1]) = (seen[0] + fused, seen[1] + single);
            }
        }
        assert!(seen.iter().all(|n| *n > 0), "{seen:?}");
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
