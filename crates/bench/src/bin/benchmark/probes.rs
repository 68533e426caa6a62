//! Layer probes of the traced pass: a leaf-by-leaf walk of the model on
//! one tile, and timings of the public functions of `tensor`, `nn` and
//! `quant` on the workload's *dominant conv shape* — the conv leaf with
//! the most multiplications in the walk, at tile + halo size. Timings
//! are medians over `calls` calls; counts are exact.

use crate::inputs::SplitMix64;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::median;
use ringcnn::algebra::ring::Ring;
use ringcnn::imaging::degrade::upsample;
use ringcnn::nn::layers::activation::{DirectionalReluLayer, Relu};
use ringcnn::nn::layers::shuffle::{PixelShuffle, PixelUnshuffle};
use ringcnn::prelude::{
    Algebra, Conv2d, ConvBackend, FastRingConv, Layer, QLayer, QuantizedModel, Residual,
    RingConv2d, Sequential, UpsampleResidual,
};
use ringcnn::quant::qtensor::{expand_formats, QTensor};
use ringcnn::quant::quantized::execute_layer;
use ringcnn::tensor::conv::ConvWeights;
use ringcnn::tensor::gemm::profile::GemmCounters;
use ringcnn::tensor::gemm::{
    active_kernel, f32_panel_width, gemm_f32_packed, gemm_i64_packed, NR_I64,
};
use ringcnn::tensor::im2col::{conv2d_forward_im2col, im2col_pack_i64, im2col_pack_panels_window};
use ringcnn::tensor::prelude::{Shape4, Tensor, Window};
use std::hint::black_box;
use std::time::Instant;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `tensor.gemm` counter rows: a `gemm::profile` delta over `ops`
/// whole frames or requests.
pub fn set_gemm_counters(values: &mut Values, delta: &GemmCounters, ops: f64) {
    values.set("tensor.gemm.tiles_per_op", delta.tiles as f64 / ops);
    values.set(
        "tensor.gemm.panel_packs_per_op",
        delta.panel_packs as f64 / ops,
    );
    values.set(
        "tensor.gemm.dispatches_per_op",
        delta.total_dispatches() as f64 / ops,
    );
    values.set(
        "tensor.gemm.panel_reuse_share",
        delta.panel_reuses as f64 / (delta.panel_packs + delta.panel_reuses).max(1) as f64,
    );
}

/// Median wall time in ms of `calls` calls of `f` (after one untimed
/// call), recorded as one `probe:<name>` span.
pub fn probe(rec: &Recorder, name: &str, calls: usize, mut f: impl FnMut()) -> f64 {
    rec.span(&format!("probe:{name}"), 0, 0, |_| {
        f();
        let times: Vec<f64> = (0..calls)
            .map(|_| {
                let t = Instant::now();
                f();
                ms_since(t)
            })
            .collect();
        median(&times)
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Conv,
    Activation,
    Shuffle,
    Other,
}

/// The conv leaf with the most multiplications, rebuilt as a standalone
/// layer with the same weights, and the activation it saw.
struct Dominant {
    mults: f64,
    input: Tensor,
    conv: DominantConv,
}

enum DominantConv {
    Ring(Box<RingConv2d>),
    Real(Box<Conv2d>),
}

struct Walk<'r> {
    rec: &'r Recorder,
    parent: u32,
    /// `(kind, ms)` per leaf in execution order; skip-connection adds
    /// count as `Other` leaves.
    leaves: Vec<(Kind, f64)>,
    /// How many of `leaves` are skip-connection adds, not model layers.
    skip_adds: usize,
    /// Filled on the first repetition only.
    dominant: Option<Dominant>,
    find_dominant: bool,
}

impl Walk<'_> {
    fn timed(&mut self, name: &str, kind: Kind, f: impl FnOnce() -> Tensor) -> Tensor {
        let t = Instant::now();
        let out = self.rec.span(name, 0, self.parent, |_| f());
        self.leaves.push((kind, ms_since(t)));
        out
    }

    fn visit(&mut self, layer: &mut dyn Layer, x: Tensor) -> Tensor {
        if let Some(seq) = layer.as_any_mut().downcast_mut::<Sequential>() {
            let mut x = x;
            for l in seq.layers_mut() {
                x = self.visit(l.as_mut(), x);
            }
            return x;
        }
        if let Some(res) = layer.as_any_mut().downcast_mut::<Residual>() {
            let mut y = self.visit(res.body_mut(), x.clone());
            self.skip_adds += 1;
            return self.timed("leaf:residual_add", Kind::Other, || {
                y.add_assign(&x);
                y
            });
        }
        if let Some(ur) = layer.as_any_mut().downcast_mut::<UpsampleResidual>() {
            let factor = ur.factor();
            let mut y = self.visit(ur.body_mut(), x.clone());
            self.skip_adds += 1;
            return self.timed("leaf:bicubic_skip_add", Kind::Other, || {
                y.add_assign(&upsample(&x, factor));
                y
            });
        }
        let any = layer.as_any_mut();
        let kind = if any.is::<RingConv2d>() || any.is::<Conv2d>() {
            Kind::Conv
        } else if any.is::<Relu>() || any.is::<DirectionalReluLayer>() {
            Kind::Activation
        } else if any.is::<PixelShuffle>() || any.is::<PixelUnshuffle>() {
            Kind::Shuffle
        } else {
            Kind::Other
        };
        let out = self.timed(&format!("leaf:{}", layer.name()), kind, || {
            layer.forward_infer(&x)
        });
        if kind == Kind::Conv && self.find_dominant {
            let mults = layer.mults_per_pixel() * out.shape().plane() as f64;
            if self.dominant.as_ref().is_none_or(|d| mults > d.mults) {
                self.dominant = Some(Dominant {
                    mults,
                    input: x,
                    conv: rebuild_conv(layer),
                });
            }
        }
        out
    }
}

/// A standalone, prepared copy of a conv leaf (same ring, weights, bias
/// and backend), so probes can call it without holding the model.
fn rebuild_conv(layer: &mut dyn Layer) -> DominantConv {
    if let Some(rc) = layer.as_any_mut().downcast_mut::<RingConv2d>() {
        let mut copy = RingConv2d::new(rc.ring().clone(), rc.ci(), rc.co(), rc.k(), 0);
        copy.ring_weights_mut().copy_from_slice(rc.ring_weights());
        copy.bias_mut().copy_from_slice(rc.bias());
        copy.set_backend(rc.backend());
        copy.prepare_inference();
        return DominantConv::Ring(Box::new(copy));
    }
    let c = layer
        .as_any_mut()
        .downcast_mut::<Conv2d>()
        .expect("a conv leaf is a RingConv2d or a Conv2d");
    let mut copy = Conv2d::new(c.ci(), c.co(), c.k(), 0);
    copy.weights_mut().data.copy_from_slice(&c.weights().data);
    copy.bias_mut().copy_from_slice(c.bias());
    copy.set_backend(c.backend());
    copy.prepare_inference();
    DominantConv::Real(Box::new(copy))
}

/// Walks `model` leaf by leaf on `tile` (descending `Sequential`,
/// `Residual` and `UpsampleResidual`), fills the `nn.model.*` rows and
/// returns the dominant conv for the shape probes. Coverage is the leaf
/// sum over the whole-model forward, both medians over `reps`
/// interleaved repetitions; the walk is a valid split of the model's
/// time only within 0.9–1.1.
fn walk_model(
    model: &mut Sequential,
    tile: &Tensor,
    reps: usize,
    rec: &Recorder,
    values: &mut Values,
) -> Dominant {
    let mut forward = Vec::new();
    let mut per_rep: Vec<Vec<(Kind, f64)>> = Vec::new();
    let mut dominant = None;
    let mut skip_adds = 0;
    black_box(model.forward_infer(tile));
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        black_box(model.forward_infer(tile));
        forward.push(ms_since(t));
        rec.span("walk", 0, 0, |id| {
            let mut walk = Walk {
                rec,
                parent: id,
                leaves: Vec::new(),
                skip_adds: 0,
                dominant: None,
                find_dominant: rep == 0,
            };
            black_box(walk.visit(model, tile.clone()));
            if rep == 0 {
                dominant = walk.dominant.take();
                skip_adds = walk.skip_adds;
            }
            per_rep.push(walk.leaves);
        });
    }
    // A walk that skips a layer is a bug in the benchmark, and the
    // structure shows it where a timing ratio on a busy host may not:
    // beside the skip-connection adds, the walk must have run exactly
    // the leaves the model's own traversal visits.
    let mut model_leaves = 0;
    model.for_each_layer_mut(&mut |_| model_leaves += 1);
    let leaves = per_rep[0].len();
    assert_eq!(
        leaves - skip_adds,
        model_leaves,
        "the layer walk missed a leaf"
    );
    let mut by_kind = [0.0f64; 4];
    for i in 0..leaves {
        let times: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
        by_kind[per_rep[0][i].0 as usize] += median(&times);
    }
    let forward_ms = median(&forward);
    let mults_per_px = ringcnn::nn::complexity::mults_per_input_pixel(model);
    values.set("nn.model.forward_ms", forward_ms);
    values.set("nn.model.conv_ms", by_kind[Kind::Conv as usize]);
    values.set("nn.model.activation_ms", by_kind[Kind::Activation as usize]);
    values.set("nn.model.shuffle_ms", by_kind[Kind::Shuffle as usize]);
    values.set("nn.model.other_ms", by_kind[Kind::Other as usize]);
    let coverage = by_kind.iter().sum::<f64>() / forward_ms;
    println!(
        "walk leaves={leaves} coverage={coverage:.3} {}",
        if (0.9..=1.1).contains(&coverage) {
            "valid"
        } else {
            "INVALID: the per-kind split is not a split of the forward time (0.9-1.1)"
        }
    );
    values.set("nn.model.walk_coverage", coverage);
    values.set("nn.model.mults_per_px", mults_per_px);
    values.set(
        "nn.model.gmults_per_s",
        mults_per_px * tile.shape().plane() as f64 / forward_ms / 1e6,
    );
    dominant.expect("every benchmark model has a conv layer")
}

/// Panel-major `[panel][row][nr]` copy of a row-major `rows × plane`
/// matrix, tail panel zero-padded: the layout the packed GEMM entries
/// take.
fn pack_panels<T: Copy + Default>(col: &[T], plane: usize, rows: usize, nr: usize) -> Vec<T> {
    let mut bp = vec![T::default(); plane.div_ceil(nr) * rows * nr];
    for (jp, panel) in bp.chunks_mut(rows * nr).enumerate() {
        let j = jp * nr;
        let w = nr.min(plane - j);
        for r in 0..rows {
            panel[r * nr..r * nr + w].copy_from_slice(&col[r * plane + j..r * plane + j + w]);
        }
    }
    bp
}

fn seeded_weights(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| (rng.next_f64() as f32 - 0.5) * 0.2)
        .collect()
}

/// Walks the float model on `tile`, then times the `tensor` and `nn`
/// public functions on the dominant conv shape.
pub fn float_probes(
    model: &mut Sequential,
    algebra: &Algebra,
    tile: &Tensor,
    calls: usize,
    rec: &Recorder,
    values: &mut Values,
) {
    let dominant = walk_model(model, tile, calls.min(15), rec, values);
    let x = &dominant.input;
    let s = x.shape();
    let plane = s.plane();

    // nn: the conv layer as the model runs it (prepared, auto backend),
    // with the paper's accounting: `m` real multiplications per ring MAC
    // against the `n²` of the isomorphic real convolution.
    let (layer, m_per_px, n2_per_px): (&dyn Layer, f64, f64) = match &dominant.conv {
        DominantConv::Ring(rc) => (
            rc.as_ref(),
            rc.mults_per_pixel(),
            (rc.ci() * rc.co() * rc.k() * rc.k()) as f64,
        ),
        DominantConv::Real(c) => (c.as_ref(), c.mults_per_pixel(), c.mults_per_pixel()),
    };
    let conv_ms = probe(rec, "RingConv2d::forward_infer", calls, || {
        black_box(layer.forward_infer(x));
    });
    values.set("nn.ring_conv.forward_ms", conv_ms);
    values.set(
        "nn.ring_conv.gmults_per_s",
        m_per_px * plane as f64 / conv_ms / 1e6,
    );
    values.set("nn.ring_conv.mults_m_per_px", m_per_px);
    values.set("nn.ring_conv.mults_n2_per_px", n2_per_px);

    // The GEMM the layer lowers to: one transformed component
    // (`ci_t → co_t`, dense weights) on the transform backend, the
    // expanded real convolution (block-sparse for a diagonal ring, so
    // the zero-skip paths see what the model gives them) otherwise.
    let (gemm_x, gemm_w) = match &dominant.conv {
        DominantConv::Ring(rc) if rc.backend() == ConvBackend::Transform => {
            let (ci_t, co_t) = rc.tuple_channels();
            let ring: &Ring = rc.ring();
            let fast = FastRingConv::new(ring, rc.ring_weights(), ci_t, co_t, rc.k(), rc.bias());
            let fast_ms = probe(rec, "FastRingConv::forward", calls, || {
                black_box(fast.forward(x));
            });
            let comp_x = Tensor::from_vec(
                Shape4::new(1, ci_t, s.h, s.w),
                x.as_slice()[..ci_t * plane].to_vec(),
            );
            let mut comp_w = ConvWeights::zeros(co_t, ci_t, rc.k());
            comp_w.data = seeded_weights(comp_w.data.len(), 11);
            let comp_ms = probe(rec, "conv2d_forward_im2col(component)", calls, || {
                black_box(conv2d_forward_im2col(&comp_x, &comp_w, &[]));
            });
            values.set("nn.fast_ring_conv.forward_ms", fast_ms);
            values.set(
                "nn.fast_ring_conv.transform_share",
                1.0 - fast.m() as f64 * comp_ms / fast_ms,
            );
            (comp_x, comp_w)
        }
        DominantConv::Ring(rc) => (x.clone(), rc.expand_real_weights()),
        DominantConv::Real(c) => (x.clone(), c.weights().clone()),
    };
    let (rows, co, k) = (gemm_w.ci * gemm_w.k * gemm_w.k, gemm_w.co, gemm_w.k);
    // Multiplications the product really needs: one per non-zero weight
    // and output pixel (the zero taps of an expanded diagonal ring are
    // skipped work, not achieved rate).
    let shape_mults = gemm_w.data.iter().filter(|v| **v != 0.0).count() * plane;
    let gmults = |n_mults: usize, ms: f64| n_mults as f64 / ms / 1e6;

    let nr = f32_panel_width(active_kernel());
    let mut bp = vec![0.0f32; plane.div_ceil(nr) * rows * nr];
    let pack_ms = probe(rec, "im2col_pack_panels_window", calls, || {
        im2col_pack_panels_window(&gemm_x, 0, k, Window::full(s.h, s.w), nr, &mut bp);
    });
    let f32_ms = probe(rec, "gemm_f32_packed", calls, || {
        black_box(gemm_f32_packed(&bp, plane, rows, co, &gemm_w.data, &[]));
    });
    // "Ideal": the same entry on a cache-resident 256×256×256 product
    // (a 1×1 im2col of a [256, 16, 16] tensor is the identity pack).
    let ideal_x = Tensor::random_uniform(Shape4::new(1, 256, 16, 16), -1.0, 1.0, 12);
    let ideal_w = seeded_weights(256 * 256, 13);
    let mut ideal_bp = vec![0.0f32; 256usize.div_ceil(nr) * 256 * nr];
    im2col_pack_panels_window(&ideal_x, 0, 1, Window::full(16, 16), nr, &mut ideal_bp);
    let ideal_ms = probe(rec, "gemm_f32_packed(256^3)", calls, || {
        black_box(gemm_f32_packed(&ideal_bp, 256, 256, 256, &ideal_w, &[]));
    });
    let shape_rate = gmults(shape_mults, f32_ms);
    let ideal_rate = gmults(256 * 256 * 256, ideal_ms);
    values.set("tensor.gemm.f32_ms", f32_ms);
    values.set("tensor.gemm.f32_gmults_per_s", shape_rate);
    values.set("tensor.gemm.f32_ideal_gmults_per_s", ideal_rate);
    values.set("tensor.gemm.f32_shape_efficiency", shape_rate / ideal_rate);

    let conv_ms = probe(rec, "conv2d_forward_im2col", calls, || {
        black_box(conv2d_forward_im2col(&gemm_x, &gemm_w, &[]));
    });
    values.set("tensor.im2col.pack_ms", pack_ms);
    values.set("tensor.im2col.conv_ms", conv_ms);
    values.set("tensor.im2col.pack_share", pack_ms / conv_ms);

    // The integer twin of the same product, on 8-bit-range operands.
    let xi: Vec<i64> = gemm_x
        .as_slice()
        .iter()
        .map(|v| (v * 127.0).round().clamp(-127.0, 127.0) as i64)
        .collect();
    let wi: Vec<i64> = gemm_w
        .data
        .iter()
        .map(|v| (v * 127.0).round().clamp(-127.0, 127.0) as i64)
        .collect();
    let mut col = Vec::new();
    let i64_pack_ms = probe(rec, "im2col_pack_i64", calls, || {
        col = im2col_pack_i64(&xi, gemm_x.shape(), 0, k);
    });
    let bpi = pack_panels(&col, plane, rows, NR_I64);
    let bias = vec![0i64; co];
    let i64_ms = probe(rec, "gemm_i64_packed", calls, || {
        black_box(gemm_i64_packed(
            &bpi, plane, rows, co, &wi, &bias, None, true,
        ));
    });
    values.set("tensor.im2col.i64_pack_ms", i64_pack_ms);
    values.set("tensor.gemm.i64_ms", i64_ms);
    values.set("tensor.gemm.i64_gmults_per_s", gmults(shape_mults, i64_ms));

    // The algebra's activation on the dominant conv's output.
    if let Some(act) = algebra.activation() {
        let y = layer.forward_infer(x);
        let act_ms = probe(rec, "activation::forward_infer", calls, || {
            black_box(act.forward_infer(&y));
        });
        values.set("nn.activation.forward_ms", act_ms);
    }
}

/// Walks `QuantizedModel::layers()` with the public `execute_layer`,
/// descending residual bodies, and fills the `quant.model.*` rows.
pub fn quant_probes(qm: &QuantizedModel, tile: &Tensor, calls: usize, values: &mut Values) {
    fn visit(layers: &[QLayer], mut q: QTensor, split: &mut Vec<(usize, f64)>) -> QTensor {
        for layer in layers {
            if let QLayer::Residual(res) = layer {
                let body = visit(res.body(), q.clone(), split);
                let t = Instant::now();
                let formats = expand_formats(res.out_formats(), q.shape().c);
                q = body.add_saturating(&q, formats);
                split.push((2, ms_since(t)));
                continue;
            }
            let bucket = match layer {
                QLayer::Conv(_) => 0,
                QLayer::DRelu(_) => 1,
                _ => 2,
            };
            let t = Instant::now();
            q = execute_layer(layer, q);
            split.push((bucket, ms_since(t)));
        }
        q
    }
    let reps = calls.clamp(1, 15);
    let mut forward = Vec::new();
    let mut per_rep: Vec<Vec<(usize, f64)>> = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        black_box(qm.forward(tile));
        forward.push(ms_since(t));
        let formats = vec![qm.input_format(); tile.shape().c];
        let mut split = Vec::new();
        black_box(visit(
            qm.layers(),
            QTensor::quantize(tile, formats),
            &mut split,
        ));
        per_rep.push(split);
    }
    let mut buckets = [0.0f64; 3];
    for i in 0..per_rep[0].len() {
        let times: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
        buckets[per_rep[0][i].0] += median(&times);
    }
    values.set("quant.model.forward_ms", median(&forward));
    values.set("quant.model.conv_ms", buckets[0]);
    values.set("quant.model.drelu_ms", buckets[1]);
    values.set("quant.model.other_ms", buckets[2]);
}
