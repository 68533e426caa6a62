//! The three frame workloads: whole frames through `BatchRunner::run`
//! (tile-parallel, pool of 2), float or 8-bit, verified against an
//! oracle computed once the pass is over.

use crate::host;
use crate::inputs;
use crate::metrics::{Outcome, Values};
use crate::probes::{self, ms_since};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted};
use crate::Sizes;
use ringcnn::imaging::metrics::psnr_from_mse;
use ringcnn::prelude::{
    build_model, Algebra, Conv2d, ConvBackend, Layer, QuantOptions, QuantizedModel, RingConv2d,
    RingKind, Scenario, Sequential, ThroughputTarget,
};
use ringcnn::tensor::prelude::{Shape4, Tensor, Window};
use ringcnn_nn::runtime::{BatchRunner, TileConfig};
use ringcnn_trace::span;
use std::hint::black_box;
use std::time::Instant;

/// Weights are part of the program's configuration, not of the seeded
/// inputs: the same model runs under every `--seed`.
pub const MODEL_SEED: u64 = 7;

/// Output-vs-oracle floors in dB: float outputs may differ from the
/// naive whole-image forward by rounding only; the 8-bit pipeline must
/// stay above the documented untrained-weights floor for `RI4`.
const FLOAT_FLOOR_DB: f64 = 100.0;
const Q8_FLOOR_DB: f64 = 12.0;
/// PSNR of a bit-identical output (zero error), so the metric stays a
/// number.
const PSNR_CAP_DB: f64 = 200.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Task {
    Denoise,
    Sr4,
}

pub struct FrameWorkload {
    pub name: &'static str,
    task: Task,
    algebra: fn() -> Algebra,
    quantized: bool,
}

pub const FRAME_WORKLOADS: &[FrameWorkload] = &[
    FrameWorkload {
        name: "frame_dn_rh4",
        task: Task::Denoise,
        algebra: || Algebra::with_fcw(RingKind::Rh(4)),
        quantized: false,
    },
    FrameWorkload {
        name: "frame_sr4_ri4fh",
        task: Task::Sr4,
        algebra: || Algebra::ri_fh(4),
        quantized: false,
    },
    FrameWorkload {
        name: "frame_dn_ri4fh_q8",
        task: Task::Denoise,
        algebra: || Algebra::ri_fh(4),
        quantized: true,
    },
];

/// PSNR in dB of an MSE on the `[0, 1]` scale, capped for a zero error.
pub fn psnr_db(mse: f64) -> f64 {
    psnr_from_mse(mse).min(PSNR_CAP_DB)
}

/// Gives every all-zero conv seeded small weights. `sr4_ernet`
/// zero-initialises its output conv so training starts at the bicubic
/// baseline; left at zero, the body would never reach the frame (the
/// oracle comparison would check bicubic interpolation only) and the
/// GEMM zero-skip paths would make that conv free, unlike any trained
/// model.
fn fill_zero_convs(model: &mut Sequential) {
    let mut rng = inputs::SplitMix64::new(MODEL_SEED);
    let mut fill = |w: &mut [f32]| {
        if w.iter().all(|v| *v == 0.0) {
            for v in w.iter_mut() {
                *v = (rng.next_f64() as f32 - 0.5) * 0.04;
            }
        }
    };
    model.for_each_layer_mut(&mut |layer| {
        if let Some(rc) = layer.as_any_mut().downcast_mut::<RingConv2d>() {
            fill(rc.ring_weights_mut());
        } else if let Some(c) = layer.as_any_mut().downcast_mut::<Conv2d>() {
            fill(&mut c.weights_mut().data);
        }
    });
}

impl FrameWorkload {
    /// The paper's HD30 model for the task (B3 R2 N0 w16).
    fn build(&self) -> Sequential {
        let scenario = match self.task {
            Task::Denoise => Scenario::Denoise {
                sigma: inputs::SIGMA,
            },
            Task::Sr4 => Scenario::Sr4,
        };
        let mut model = build_model(
            scenario,
            ThroughputTarget::Hd30,
            &(self.algebra)(),
            MODEL_SEED,
        );
        fill_zero_convs(&mut model);
        model
    }

    fn tile(&self, sizes: &Sizes) -> TileConfig {
        TileConfig::with_tile(match self.task {
            Task::Denoise => sizes.tile_dn,
            Task::Sr4 => sizes.tile_sr,
        })
    }
}

/// Everything the measured pass needs; building it is what `setup_s`
/// times.
struct Ready {
    inputs: Vec<Tensor>,
    /// The float model, prepared. The 8-bit workload keeps it as the
    /// quality reference and float twin.
    model: Sequential,
    qmodel: Option<QuantizedModel>,
    tile: TileConfig,
    calibrate_ms: f64,
    prepare_ms: f64,
}

fn set_up(w: &FrameWorkload, seed: u64, sizes: &Sizes) -> Ready {
    let clean = inputs::clean_frames(seed, sizes.frame_hw, sizes.frames);
    let inputs = match w.task {
        Task::Denoise => inputs::noisy(&clean, seed),
        Task::Sr4 => inputs::low_res(&clean),
    };
    let mut model = w.build();
    let t = Instant::now();
    // Calibration data belongs to the model like its weights do: one
    // fixed frame, so every `--seed` runs the same integer pipeline.
    let qmodel = w.quantized.then(|| {
        let clean = inputs::clean_frames(MODEL_SEED, sizes.frame_hw, 1);
        let calibration = &inputs::noisy(&clean, MODEL_SEED)[0];
        QuantizedModel::quantize(&mut model, calibration, QuantOptions::default())
    });
    let calibrate_ms = if w.quantized { ms_since(t) } else { 0.0 };
    let t = Instant::now();
    model.prepare_inference();
    let prepare_ms = ms_since(t);
    Ready {
        inputs,
        model,
        qmodel,
        tile: w.tile(sizes),
        calibrate_ms,
        prepare_ms,
    }
}

impl Ready {
    /// Runs `f` with the runner over the model the workload measures
    /// (the quantized pipeline when there is one).
    fn with_runner<R>(&mut self, f: impl FnOnce(&BatchRunner<'_>, &[Tensor]) -> R) -> R {
        let tile = self.tile;
        match &mut self.qmodel {
            Some(q) => f(&BatchRunner::new(q).with_tile(tile), &self.inputs),
            None => f(
                &BatchRunner::new(&mut self.model).with_tile(tile),
                &self.inputs,
            ),
        }
    }
}

/// Reference outputs per input frame: `expected` bounds the PSNR,
/// `exact` (8-bit only) must match bit for bit.
struct Oracle {
    expected: Vec<Tensor>,
    exact: Option<Vec<Tensor>>,
    floor_db: f64,
}

fn oracle(w: &FrameWorkload, ready: &Ready) -> Oracle {
    match &ready.qmodel {
        // Tiled integer inference must reproduce the whole-frame
        // integer forward exactly and stay close to the float model.
        Some(q) => Oracle {
            expected: ready
                .inputs
                .iter()
                .map(|x| ready.model.forward_infer(x))
                .collect(),
            exact: Some(ready.inputs.iter().map(|x| q.forward(x)).collect()),
            floor_db: Q8_FLOOR_DB,
        },
        None => {
            let mut naive = w.build();
            naive.set_conv_backend(ConvBackend::Naive);
            naive.prepare_inference();
            Oracle {
                expected: ready
                    .inputs
                    .iter()
                    .map(|x| naive.forward_infer(x))
                    .collect(),
                exact: None,
                floor_db: FLOAT_FLOOR_DB,
            }
        }
    }
}

/// Compares the first output of every frame with the oracle: returns
/// the number of mismatching frames and the median PSNR over the frames
/// (one frame whose content the fixed calibration clips — 24.6 dB among
/// seven at 32 under some seeds — must not set the whole number).
fn verify(oracle: &Oracle, firsts: &[Tensor]) -> (u64, f64) {
    let mut failed = 0;
    let mut per_frame = Vec::new();
    for (i, out) in firsts.iter().enumerate() {
        let same_shape = out.shape() == oracle.expected[i].shape();
        let mse = if same_shape {
            out.mse(&oracle.expected[i])
        } else {
            f64::NAN
        };
        let psnr = if mse.is_finite() { psnr_db(mse) } else { 0.0 };
        let exact_ok = oracle
            .exact
            .as_ref()
            .is_none_or(|e| e[i].as_slice() == out.as_slice());
        if !exact_ok || psnr < oracle.floor_db {
            failed += 1;
        }
        per_frame.push(psnr);
    }
    println!(
        "verify frames={} mismatching={failed} psnr_db={per_frame:.2?}",
        firsts.len()
    );
    (failed, median(&per_frame))
}

struct Pass {
    frame_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// The first output of each input frame, for verification.
    firsts: Vec<Tensor>,
}

/// Runs frames back to back for `seconds` and at least `min_frames`
/// frames. With a recorder the pass is traced: every frame is an `op`
/// span and roots a trace the runtime's tile spans attach to, and the
/// span rings are pulled often enough that none wraps.
fn run_pass(
    runner: &BatchRunner<'_>,
    inputs: &[Tensor],
    seconds: f64,
    min_frames: usize,
    rec: Option<&Recorder>,
) -> Pass {
    let mut frame_ms = Vec::new();
    let mut firsts = Vec::new();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || frame_ms.len() < min_frames {
        let op = frame_ms.len();
        if let Some(rec) = rec.filter(|_| op % 64 == 63) {
            rec.pull_program_spans();
        }
        let input = &inputs[op % inputs.len()];
        let t = Instant::now();
        let out = match rec {
            None => runner.run(input),
            Some(rec) => rec.span("op", op as u64, 0, |_| {
                let _root = span::root_span(span::mint_forced(), "frame");
                runner.run(input)
            }),
        };
        frame_ms.push(ms_since(t));
        if firsts.len() < inputs.len() {
            firsts.push(out);
        } else {
            black_box(out);
        }
    }
    Pass {
        frame_ms,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        firsts,
    }
}

fn out_pixels(pass: &Pass) -> f64 {
    pass.firsts[0].shape().plane() as f64
}

/// The speed numbers of an untraced pass — demoted to diagnostics, see
/// `metrics::END_TO_END` — under the issue's names.
fn set_speed(values: &mut Values, pass: &Pass) {
    let ops = pass.frame_ms.len() as f64;
    let times = sorted(pass.frame_ms.clone());
    values.set("mpixels_per_s", ops * out_pixels(pass) / pass.wall_s / 1e6);
    values.set("frame_ms_p50", percentile(&times, 0.50));
    values.set("cpu_ms_per_op", pass.cpu_s * 1e3 / ops);
    println!(
        "pass untraced wall_s={:.3} frames={} frame_ms p10={:.3} p50={:.3} p90={:.3} max={:.3}",
        pass.wall_s,
        times.len(),
        percentile(&times, 0.10),
        percentile(&times, 0.50),
        percentile(&times, 0.90),
        percentile(&times, 1.0),
    );
}

/// The measured pass: tracing off; the end-to-end metrics, and the
/// speed diagnostics beside them.
pub fn measure(w: &FrameWorkload, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    span::set_sample_every(0);
    let (mut ready, setup_s) = crate::timed_set_ups(sizes, || set_up(w, seed, sizes), drop);
    let (pass, peak_rss_mb) = ready.with_runner(|runner, inputs| {
        run_pass(runner, inputs, sizes.warmup_share * seconds, 1, None);
        // From here on the mark is the measured pass's own: the repeated
        // set-ups (whole-frame calibration on q8) do not count.
        host::reset_peak_rss();
        let pass = run_pass(runner, inputs, seconds, inputs.len(), None);
        (pass, host::peak_rss_mib())
    });
    // Only verification needs the oracle, and its whole-frame forwards
    // hold several times what two tiles do: it runs after the peak is
    // read.
    let (failed, psnr) = verify(&oracle(w, &ready), &pass.firsts);
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("oracle_psnr_db", psnr);
    set_speed(&mut values, &pass);
    Outcome {
        attempted: pass.frame_ms.len() as u64,
        failed,
        values,
    }
}

/// The pool-of-1 child of `nn.runtime.speedup_t2`: the same frames
/// through the same runner, median frame time on stdout.
pub fn t1_child(w: &FrameWorkload, seed: u64, seconds: f64, sizes: &Sizes) {
    span::set_sample_every(0);
    let mut ready = set_up(w, seed, sizes);
    let pass = ready.with_runner(|runner, inputs| {
        run_pass(runner, inputs, sizes.warmup_share * seconds, 1, None);
        run_pass(runner, inputs, seconds, 1, None)
    });
    println!("{}", median(&pass.frame_ms));
}

/// Re-executes this binary with a pool of 1 and reads back its median
/// frame time (the pool is sized once per process).
fn t1_frame_ms(w: &FrameWorkload, seed: u64, seconds: f64, quick: bool) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--t1-child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .env("RINGCNN_THREADS", "1");
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()?
        .trim()
        .parse()
        .ok()
}

/// The tile the probes run on: the largest halo-extended tile of frame
/// 0 (an interior one), exactly as `BatchRunner::run` cuts it.
fn probe_tile(runner: &BatchRunner<'_>, frame: &Tensor) -> Tensor {
    let s = frame.shape();
    runner
        .plan_grid(s.h, s.w)
        .unwrap_or_default()
        .iter()
        .filter_map(|core| extended(core, runner.halo(), s))
        .max_by_key(|ext| ext.h * ext.w)
        .map_or_else(|| frame.clone(), |ext| frame.extract_window(0, ext))
}

/// A core tile grown by the halo and clipped at the image border.
fn extended(core: &Window, halo: usize, s: Shape4) -> Option<Window> {
    let y0 = (core.y0 - halo as isize).max(0);
    let x0 = (core.x0 - halo as isize).max(0);
    let y1 = (core.y0 + (core.h + halo) as isize).min(s.h as isize);
    let x1 = (core.x0 + (core.w + halo) as isize).min(s.w as isize);
    (y1 > y0 && x1 > x0).then(|| Window::new(y0, x0, (y1 - y0) as usize, (x1 - x0) as usize))
}

/// The traced pass: per-layer metrics only. An untraced twin pass gives
/// the reference the tracing overhead is measured against.
pub fn trace(w: &FrameWorkload, seed: u64, seconds: f64, sizes: &Sizes, quick: bool) -> Outcome {
    let rec = Recorder::new();
    let mut values = Values::default();
    let mut ready = set_up(w, seed, sizes);
    values.set("quant.calibrate_ms", ready.calibrate_ms);
    values.set("nn.runtime.prepare_ms", ready.prepare_ms);

    // Until the probes are done nothing here allocates a whole frame of
    // activations: the passes and the walk see the allocator the
    // measured pass sees (see `measure`).
    span::set_sample_every(0);
    let (untraced, traced, gemm, tile, grid, halo) = ready.with_runner(|runner, inputs| {
        run_pass(runner, inputs, sizes.warmup_share * seconds, 1, None);
        let untraced = run_pass(runner, inputs, 0.5 * seconds, inputs.len(), None);
        span::set_sample_every(1);
        let before = ringcnn::tensor::gemm::profile::snapshot();
        let traced = run_pass(runner, inputs, 0.3 * seconds, 1, Some(&rec));
        let gemm = ringcnn::tensor::gemm::profile::snapshot().delta_since(&before);
        span::set_sample_every(0);
        let s = inputs[0].shape();
        (
            untraced,
            traced,
            gemm,
            probe_tile(runner, &inputs[0]),
            runner.plan_grid(s.h, s.w).unwrap_or_default(),
            runner.halo(),
        )
    });

    set_speed(&mut values, &untraced);
    // nn.runtime: the tiling geometry (exact) and what it costs.
    let s = ready.inputs[0].shape();
    let frame_ms = median(&untraced.frame_ms);
    let times = sorted(untraced.frame_ms.clone());
    let computed_px: usize = grid
        .iter()
        .filter_map(|core| extended(core, halo, s))
        .map(|ext| ext.h * ext.w)
        .sum();
    values.set("nn.runtime.tiles_per_frame", grid.len().max(1) as f64);
    values.set(
        "nn.runtime.halo_overhead",
        if grid.is_empty() {
            1.0
        } else {
            computed_px as f64 / s.plane() as f64
        },
    );
    values.set("nn.runtime.frame_ms_p90", percentile(&times, 0.90));
    values.set("nn.runtime.frame_ms_max", percentile(&times, 1.0));
    if let Some(t1) = t1_frame_ms(w, seed, 0.25 * seconds, quick) {
        values.set("nn.runtime.speedup_t2", t1 / frame_ms);
    }
    let mut stitched = Tensor::zeros(s);
    let extract_paste_ms = probes::probe(&rec, "extract_window+paste_window", sizes.calls, || {
        for core in &grid {
            let Some(ext) = extended(core, halo, s) else {
                continue;
            };
            let tile = ready.inputs[0].extract_window(0, ext);
            let src = Window::new(core.y0 - ext.y0, core.x0 - ext.x0, core.h, core.w);
            stitched.paste_window(0, core.y0 as usize, core.x0 as usize, &tile, src);
        }
    });
    values.set("tensor.tile.extract_paste_ms", extract_paste_ms);

    // Exact counts: the frames are the only GEMM callers in the process.
    let ops = traced.frame_ms.len() as f64;
    probes::set_gemm_counters(&mut values, &gemm, ops);

    // trace: what recording every frame costs, and what the rings lost.
    let rate = |p: &Pass| p.frame_ms.len() as f64 / p.wall_s;
    values.set(
        "trace.overhead_share",
        1.0 - rate(&traced) / rate(&untraced),
    );

    // Layer probes on the float model; the integer walk when 8-bit.
    let algebra = (w.algebra)();
    probes::float_probes(
        &mut ready.model,
        &algebra,
        &tile,
        sizes.calls,
        &rec,
        &mut values,
    );
    if let Some(q) = &ready.qmodel {
        probes::quant_probes(q, &tile, sizes.calls, &mut values);
        // The float twin on the same frames, through the same runner.
        let tile_cfg = ready.tile;
        let float_runner = BatchRunner::new(&mut ready.model).with_tile(tile_cfg);
        let twin = run_pass(&float_runner, &ready.inputs, 0.1 * seconds, 1, None);
        values.set("quant.vs_float", frame_ms / median(&twin.frame_ms));
    }
    let whole_ms = ready.with_runner(|runner, inputs| {
        probes::probe(&rec, "BatchRunner::run_whole", 3, || {
            black_box(runner.run_whole(&inputs[0]));
        })
    });
    values.set("nn.runtime.tiled_vs_whole", frame_ms / whole_ms);
    let (failed, psnr) = verify(&oracle(w, &ready), &untraced.firsts);
    if w.quantized {
        values.set("quant.psnr_vs_float_db", psnr);
    }
    crate::set_loc(&mut values);

    // One `frame` root and one `tile` span per tile are due per frame.
    let program = crate::write_trace(w.name, &rec);
    let due = (1 + grid.len()) as f64 * ops;
    values.set(
        "trace.span_loss_share",
        (1.0 - program.len() as f64 / due).max(0.0),
    );
    println!(
        "pass traced frames={} untraced_twin_frames={}",
        traced.frame_ms.len(),
        untraced.frame_ms.len()
    );
    Outcome {
        attempted: untraced.frame_ms.len() as u64,
        failed,
        values,
    }
}
