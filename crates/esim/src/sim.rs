//! Block-based simulation (§V / §VII): runs a quantized model the way
//! eRingCNN runs a frame — in independent blocks, so feature maps never
//! leave the chip — and accounts for every convolution on the engine,
//! producing cycle, utilization, throughput, bandwidth and energy reports
//! beside the outputs. The blocks are the CPU runtime's tile grid and halo
//! ([`BatchRunner::plan_grid`]): each **recomputes** a halo of input pixels
//! (the paper adopts recomputing over feature reuse) as a truncated
//! pyramid, so the stitched output is whole-image inference at every
//! pixel; the cost is re-reading the halo from DRAM and recomputing the
//! pyramid's rim on the engine.
//!
//! Simplifying assumptions (documented, per DESIGN.md): the pipeline is
//! fully overlapped (the directional ReLU, shuffles and residual adds ride
//! the conv engine's output pipeline, costing no extra cycles — this is
//! the design intent of Figs. 6–8), and weight/feature SRAM never stalls
//! the engines (eCNN's block-based flow guarantees residency).

use crate::memory::{weight_bytes, MemoryReport};
use ringcnn_algebra::ring::Ring;
use ringcnn_hw::prelude::{layout_report, AcceleratorConfig, EnginePass, TechParams};
use ringcnn_nn::program::{self, Datapath, Epilogue, Point};
use ringcnn_nn::runtime::{BatchRunner, TileConfig};
use ringcnn_quant::prelude::*;
use ringcnn_tensor::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

/// Simulation result for one inference.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// Block size (input pixels, square).
    pub block: usize,
    /// Halo width used (input pixels per side).
    pub halo: usize,
    /// Number of blocks processed (every batch item's).
    pub blocks: usize,
    /// The halo-recompute read overhead vs reading the image once.
    pub recompute_overhead: f64,
    /// Total engine cycles.
    pub cycles: u64,
    /// Physical multiplications executed.
    pub physical_mults: u64,
    /// Equivalent real multiplications served.
    pub equivalent_mults: u64,
    /// Engine utilization (equivalent mults vs peak capacity).
    pub utilization: f64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Frames per second if this inference is one frame.
    pub fps: f64,
    /// Energy for this inference, joules (chip power × time).
    pub energy_j: f64,
    /// Nanojoules per output pixel.
    pub nj_per_output_pixel: f64,
    /// Memory accounting.
    pub memory: MemoryReport,
    /// Whether the model's weights fit the weight SRAM.
    pub weights_fit: bool,
}

/// Runs `qm` on the simulated accelerator in `block`-pixel cores (rounded
/// up to the model's granularity; edge blocks shrink; a frame's longer
/// side makes it one block): the cores of a [`BatchRunner`]'s grid, each
/// read from DRAM as its halo-extended window clipped at the frame, and
/// each convolution charged the region the block computes
/// ([`program::margins`]).
/// Returns the output of [`QuantizedModel::forward`] and the report.
pub fn simulate(
    qm: &QuantizedModel,
    input: &Tensor,
    accel: &AcceleratorConfig,
    tech: &TechParams,
    block: usize,
) -> (Tensor, SimReport) {
    let s = input.shape();
    // The runner prepares the model it holds: a copy (already prepared).
    let mut model = qm.clone();
    let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(block));
    let one_block = vec![Window::full(s.h, s.w)];
    let grid = runner.plan_grid(s.h, s.w).unwrap_or(one_block);
    let halo = runner.halo();
    let (mut pass, mut peak_feature_bytes, mut read_bytes) = (EnginePass::default(), 0, 0);
    // A block is its core's window grown by the halo, clipped at the
    // frame: a side on the frame's edge is padded with zeros as the whole
    // image's are, which makes border pixels exact too.
    for core in (0..s.n).flat_map(|_| &grid) {
        let (y0, x0) = (core.y0 as usize, core.x0 as usize);
        let room = [y0, x0, s.h - y0 - core.h, s.w - x0 - core.w];
        let window = Window::inset(s.h, s.w, room.map(|m| m.saturating_sub(halo)));
        let read = Shape4::new(1, s.c, window.h, window.w);
        read_bytes += read.len() as u64;
        let (block_pass, peak) = account(qm, read, accel, room.map(|m| m.min(halo)));
        pass += block_pass;
        peak_feature_bytes = peak_feature_bytes.max(peak);
    }
    let out = runner.run(input);

    let seconds = pass.cycles as f64 / accel.clock_hz;
    let out_pixels = (out.shape().h * out.shape().w * out.shape().n) as u64;
    let energy = layout_report(accel, tech).power_w * seconds;
    let peak_capacity = accel.equivalent_macs_per_cycle() as f64 * pass.cycles as f64;
    let wbytes = weight_bytes(qm, accel.n());
    let sim = SimReport {
        block,
        halo,
        blocks: s.n * grid.len(),
        recompute_overhead: read_bytes as f64 / s.len() as f64 - 1.0,
        cycles: pass.cycles,
        physical_mults: pass.physical_mults,
        equivalent_mults: pass.equivalent_mults,
        utilization: pass.equivalent_mults as f64 / peak_capacity.max(1.0),
        seconds,
        fps: 1.0 / seconds.max(1e-30),
        energy_j: energy,
        nj_per_output_pixel: energy * 1e9 / out_pixels.max(1) as f64,
        memory: MemoryReport {
            weight_bytes: wbytes,
            peak_feature_bytes,
            dram_bytes_per_frame: read_bytes + out.shape().len() as u64,
        },
        weights_fit: (wbytes as f64 / 1024.0) <= accel.weight_mem_kb,
    };
    (out, sim)
}

/// The engine's work for `qm` on planes of shape `s`, a block `margin`
/// pixels beyond its core on each side: the model's step program run
/// over shapes in one band ([`program::once`], the driver that runs it
/// on integers), every
/// convolution charged its pass over the region the driver leaves it,
/// and the most bytes one convolution reads and writes per batch item.
/// Activations, shuffles and skip adds ride the engine's output
/// pipeline: zero cycles, no buffer of their own.
fn account(qm: &QuantizedModel, s: Shape4, accel: &AcceleratorConfig, margin: [usize; 4]) -> Tally {
    let ring = &Ring::from_kind(accel.ring);
    let tally = &Cell::new((EnginePass::default(), 0));
    let charge = |layer| Charge { layer, ring, tally };
    let steps = qm.program();
    let program: Vec<_> = steps.into_iter().map(|step| step.map(charge)).collect();
    program::once(&program, Cow::Owned(s), margin);
    tally.get()
}

/// The engine's passes so far, and the most feature bytes a convolution
/// read and wrote for one batch item (1 byte per feature).
type Tally = (EnginePass, u64);

/// A layer of the program run over shapes: what the engine is charged
/// goes to `tally`.
#[derive(Clone, Copy)]
struct Charge<'a> {
    layer: &'a QLayer,
    /// The ring of the accelerator's engines.
    ring: &'a Ring,
    tally: &'a Cell<Tally>,
}

impl Datapath for Charge<'_> {
    type Plane = Shape4;

    fn conv(self, x: &Shape4, cut: [usize; 4], _: Epilogue<Self>) -> Shape4 {
        let QLayer::Conv(c) = self.layer else {
            unreachable!("a conv step holds a conv")
        };
        let Window { h, w, .. } = Window::inset(x.h, x.w, cut);
        let out = Shape4::new(x.n, c.co(), h, w);
        let (mut pass, peak) = self.tally.get();
        pass += EnginePass::of_conv(self.ring, (c.co(), c.ci(), c.k()), (x.n, h, w));
        let bytes = (x.c * x.h * x.w + out.c * h * w) as u64;
        self.tally.set((pass, peak.max(bytes)));
        out
    }

    fn apply(self, x: Cow<'_, Shape4>, cut: [usize; 4]) -> Shape4 {
        let Window { h, w, .. } = Window::inset(x.h, x.w, cut);
        match *self.layer {
            QLayer::Shuffle(r) => Shape4::new(x.n, x.c / (r * r), h * r, w * r),
            QLayer::Unshuffle(r) => Shape4::new(x.n, x.c * r * r, h / r, w / r),
            _ => Shape4::new(x.n, x.c, h, w),
        }
    }

    fn add_skip(self, _: &mut Shape4, _: &Shape4, _: Point, _: Point) {}

    fn stack(parts: &[(&Shape4, Range<usize>)]) -> Shape4 {
        let s = *parts[0].0;
        let h = parts.iter().map(|(_, rows)| rows.len()).sum();
        Shape4::new(s.n, s.c, h, s.w)
    }

    fn shape(x: &Shape4) -> Shape4 {
        *x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;

    fn setup(alg: &Algebra) -> (QuantizedModel, Tensor) {
        let mut model = ringcnn_nn::models::ernet::dn_ernet_pu(
            alg,
            ringcnn_nn::models::ernet::ErNetConfig::tiny(),
            1,
            7,
        );
        let calib = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 9);
        let qm = QuantizedModel::quantize(&mut model, &calib, QuantOptions::default());
        (qm, calib)
    }

    #[test]
    fn simulator_is_bit_exact_vs_reference() {
        for (alg, accel) in [
            (Algebra::ri_fh(2), AcceleratorConfig::eringcnn_n2()),
            (Algebra::ri_fh(4), AcceleratorConfig::eringcnn_n4()),
            (Algebra::real(), AcceleratorConfig::ecnn()),
        ] {
            let (qm, calib) = setup(&alg);
            let reference = qm.forward(&calib);
            let (simulated, report) = simulate(&qm, &calib, &accel, &TechParams::tsmc40(), 16);
            assert_eq!(
                simulated.as_slice(),
                reference.as_slice(),
                "bit-exactness failed for {}",
                alg.label()
            );
            assert!(report.cycles > 0);
            assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        }
    }

    #[test]
    fn ring_configs_use_fewer_cycles_for_same_model_family() {
        // The same model family at n=4 maps to an engine with the same
        // cycle count (channels shrink by n but so does the engine), so
        // *cycles are equal* while physical work drops n×.
        let (qm2, calib) = setup(&Algebra::ri_fh(2));
        let (qm4, _) = setup(&Algebra::ri_fh(4));
        let t = TechParams::tsmc40();
        let (_, r2) = simulate(&qm2, &calib, &AcceleratorConfig::eringcnn_n2(), &t, 16);
        let (_, r4) = simulate(&qm4, &calib, &AcceleratorConfig::eringcnn_n4(), &t, 16);
        assert_eq!(r2.cycles, r4.cycles, "same tiling, same cycles");
        assert!(r4.energy_j < r2.energy_j, "n4 must be lower energy");
    }

    #[test]
    fn weights_fit_check_works() {
        let (qm, calib) = setup(&Algebra::ri_fh(2));
        let (_, report) = simulate(
            &qm,
            &calib,
            &AcceleratorConfig::eringcnn_n2(),
            &TechParams::tsmc40(),
            16,
        );
        assert!(report.weights_fit, "tiny model must fit 960 KB");
        assert!(report.memory.weight_bytes > 0);
    }

    #[test]
    fn report_scales_with_image_size() {
        let (qm, _) = setup(&Algebra::ri_fh(2));
        let t = TechParams::tsmc40();
        let small = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 1);
        let large = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 1);
        let accel = AcceleratorConfig::eringcnn_n2();
        let (_, rs) = simulate(&qm, &small, &accel, &t, 16);
        let (_, rl) = simulate(&qm, &large, &accel, &t, 32);
        assert!(rl.cycles >= rs.cycles * 3, "{} vs {}", rl.cycles, rs.cycles);
        assert!(rl.energy_j > rs.energy_j);
    }

    #[test]
    fn blocked_inference_is_bit_exact_at_every_pixel() {
        let t = TechParams::tsmc40();
        for (alg, accel) in [
            (Algebra::ri_fh(2), AcceleratorConfig::eringcnn_n2()),
            (Algebra::ri_fh(4), AcceleratorConfig::eringcnn_n4()),
        ] {
            let (qm, _) = setup(&alg);
            let image = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 21);
            let (blocked, report) = simulate(&qm, &image, &accel, &t, 16);
            // Every pixel — the seams and the frame border included.
            let whole = qm.forward(&image);
            assert_eq!(blocked.as_slice(), whole.as_slice(), "{}", alg.label());
            assert_eq!(report.blocks, 4);
            assert!(report.recompute_overhead > 0.0);
        }
    }

    #[test]
    fn smaller_blocks_cost_more_bandwidth() {
        let t = TechParams::tsmc40();
        let accel = AcceleratorConfig::eringcnn_n4();
        let (qm, _) = setup(&Algebra::ri_fh(4));
        let image = Tensor::random_uniform(Shape4::new(1, 1, 64, 64), 0.0, 1.0, 23);
        let (_, small) = simulate(&qm, &image, &accel, &t, 16);
        let (_, large) = simulate(&qm, &image, &accel, &t, 32);
        assert!(
            small.recompute_overhead > large.recompute_overhead,
            "16px blocks {} vs 32px {}",
            small.recompute_overhead,
            large.recompute_overhead
        );
        let dram = |r: &SimReport| r.memory.dram_bytes_per_frame;
        assert!(dram(&small) > dram(&large), "{small:?} vs {large:?}");
    }
}
