//! Block-based inference flow (§V / §VII): the eCNN mechanism eRingCNN
//! inherits. The image is processed in independent blocks so feature
//! maps never leave the chip; boundary correctness across neighboring
//! blocks is restored by **recomputing** a halo of input pixels around
//! each block (the paper adopts recomputing over feature reuse).
//!
//! The blocks are the CPU runtime's tiles ([`BatchRunner::tiles`]): each
//! layer of a block computes only what the rest of the network reads, a
//! truncated pyramid, and the stitched output is whole-image inference at
//! every pixel. The cost is re-reading halo pixels from DRAM and
//! recomputing the pyramid's rim on the engine.

use crate::sim::account;
use ringcnn_hw::prelude::{layout_report, AcceleratorConfig, EnginePass, TechParams};
use ringcnn_nn::runtime::{BatchRunner, TileConfig};
use ringcnn_quant::prelude::*;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tile::Window;
use serde::{Deserialize, Serialize};

/// Report of one block-based inference.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockedReport {
    /// Block size (input pixels, square).
    pub block: usize,
    /// Halo width used (input pixels per side).
    pub halo: usize,
    /// Number of blocks processed.
    pub blocks: usize,
    /// DRAM input bytes actually read (with halo recompute overhead).
    pub dram_input_bytes: u64,
    /// The halo-recompute read overhead vs reading the image once.
    pub recompute_overhead: f64,
    /// Engine accounting summed over blocks.
    pub cycles: u64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

/// Runs block-based inference in `block`-pixel cores (rounded up to the
/// model's granularity; edge blocks shrink): the tiles of a
/// [`BatchRunner`], each read from DRAM as its halo-extended window
/// clipped at the frame, and each convolution charged the region the
/// block computes ([`TileHalo`](ringcnn_nn::runtime::TileHalo)). A frame
/// within one block is one block with no halo. The output is
/// [`QuantizedModel::forward`]'s.
pub fn simulate_blocked(
    qm: &QuantizedModel,
    input: &Tensor,
    accel: &AcceleratorConfig,
    tech: &TechParams,
    block: usize,
) -> (Tensor, BlockedReport) {
    let s = input.shape();
    // The runner prepares the model it holds: a copy (already prepared).
    let mut model = qm.clone();
    let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(block));
    let one_block = vec![Window::full(s.h, s.w)];
    let grid = runner.plan_grid(s.h, s.w).unwrap_or(one_block);
    let tiles = runner.tiles(s, &grid);
    let mut pass = EnginePass::default();
    let mut dram_input_bytes = 0u64;
    for &(_, _, ext, mut tile) in &tiles {
        let read = Shape4::new(1, s.c, ext.h, ext.w);
        dram_input_bytes += read.len() as u64;
        pass += account(qm, read, accel, &mut tile).0;
    }
    let report = layout_report(accel, tech);
    let seconds = pass.cycles as f64 / accel.clock_hz;
    let blocked = BlockedReport {
        block,
        halo: runner.halo(),
        blocks: tiles.len(),
        dram_input_bytes,
        recompute_overhead: dram_input_bytes as f64 / s.len() as f64 - 1.0,
        cycles: pass.cycles,
        seconds,
        energy_j: report.power_w * seconds,
    };
    (runner.run(input), blocked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;

    fn quantized_denoiser(alg: &Algebra) -> QuantizedModel {
        let mut model = ringcnn_nn::models::ernet::dn_ernet_pu(
            alg,
            ringcnn_nn::models::ernet::ErNetConfig::tiny(),
            1,
            7,
        );
        let calib = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 9);
        QuantizedModel::quantize(&mut model, &calib, QuantOptions::default())
    }

    #[test]
    fn blocked_inference_is_bit_exact_at_every_pixel() {
        let t = TechParams::tsmc40();
        for (alg, accel) in [
            (Algebra::ri_fh(2), AcceleratorConfig::eringcnn_n2()),
            (Algebra::ri_fh(4), AcceleratorConfig::eringcnn_n4()),
        ] {
            let qm = quantized_denoiser(&alg);
            let image = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 21);
            let (blocked, report) = simulate_blocked(&qm, &image, &accel, &t, 16);
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
        let qm = quantized_denoiser(&Algebra::ri_fh(4));
        let image = Tensor::random_uniform(Shape4::new(1, 1, 64, 64), 0.0, 1.0, 23);
        let (_, small) = simulate_blocked(&qm, &image, &accel, &t, 16);
        let (_, large) = simulate_blocked(&qm, &image, &accel, &t, 32);
        assert!(
            small.recompute_overhead > large.recompute_overhead,
            "16px blocks {} vs 32px {}",
            small.recompute_overhead,
            large.recompute_overhead
        );
    }
}
