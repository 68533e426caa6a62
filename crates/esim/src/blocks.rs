//! Block-based inference flow (§V / §VII): the eCNN mechanism eRingCNN
//! inherits. The image is processed in independent blocks so feature
//! maps never leave the chip; boundary correctness across neighboring
//! blocks is restored by **recomputing** a halo of input pixels around
//! each block (the paper adopts recomputing over feature reuse).
//!
//! With a halo at least as large as the network's receptive-field radius,
//! stitched block outputs are **bit-exact against whole-image inference
//! for every pixel farther than the radius from the true image border**
//! (verified by tests); at the border block-level zero halos approximate
//! the per-layer zero padding of whole-image convolution, as recompute
//! flows do. The cost is re-reading halo pixels from DRAM (bandwidth
//! model); unlike the CPU runtime, whose tiles shrink layer by layer,
//! every layer is still charged the full extended block here.

use crate::engine::EnginePass;
use crate::sim::{account, SimReport};
use ringcnn_hw::prelude::{layout_report, AcceleratorConfig, TechParams};
use ringcnn_quant::prelude::*;
use ringcnn_tensor::prelude::*;
use serde::{Deserialize, Serialize};

/// Receptive-field radius of a quantized model, in input pixels: the
/// halo needed for bit-exact block-based inference (the radius of the
/// tiled CPU runtime's [`QuantizedModel::topology`]).
pub fn receptive_halo(qm: &QuantizedModel) -> usize {
    qm.topology().radius
}

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

/// Runs block-based inference: splits the image into `block`-sized tiles,
/// extends each with a `halo` (zero-padded at true image borders), runs
/// each extended block through [`QuantizedModel::forward_q`], accounting
/// for it on the engine, and stitches the central crops.
///
/// # Panics
///
/// Panics if `block` is not a multiple of 4 (the pixel-shuffle parity
/// the models need) or does not divide the image dimensions.
pub fn simulate_blocked(
    qm: &QuantizedModel,
    input: &Tensor,
    accel: &AcceleratorConfig,
    tech: &TechParams,
    block: usize,
    halo: usize,
) -> (Tensor, BlockedReport) {
    let s = input.shape();
    assert_eq!(s.n, 1, "block-based flow processes one frame at a time");
    assert!(block % 4 == 0, "block size must be a multiple of 4");
    assert!(
        s.h % block == 0 && s.w % block == 0,
        "blocks must tile the frame"
    );
    // Halo must keep pixel-shuffle parity.
    let halo = halo.next_multiple_of(4);

    // SR models upscale: output pixels per input pixel.
    let (scale_num, scale_den) = qm.topology().scale;
    let out_shape = Shape4::new(
        1,
        qm.out_channels(s.c),
        s.h * scale_num / scale_den,
        s.w * scale_num / scale_den,
    );
    let mut out = Tensor::zeros(out_shape);

    let mut pass = EnginePass::default();
    let mut blocks = 0usize;
    let mut dram_input_bytes = 0u64;
    for by in (0..s.h).step_by(block) {
        for bx in (0..s.w).step_by(block) {
            blocks += 1;
            // Zero-padded at true image borders.
            let core = Window::new(by as isize, bx as isize, block, block);
            let ext = input.extract_window(0, core.with_halo(halo));
            dram_input_bytes += (ext.shape().len()) as u64;
            let q = QTensor::quantize(&ext, vec![qm.input_format(); ext.shape().c]);
            let block_out = qm.forward_q(q).dequantize();
            pass += account(qm, ext.shape(), accel.n).0;
            // Crop the center and stitch.
            let o = (halo * scale_num / scale_den) as isize;
            let ob = block * scale_num / scale_den;
            out.paste_window(
                0,
                by * scale_num / scale_den,
                bx * scale_num / scale_den,
                &block_out,
                Window::new(o, o, ob, ob),
            );
        }
    }
    let report = layout_report(accel, tech);
    let seconds = pass.cycles as f64 / accel.clock_hz;
    let base_bytes = (s.len()) as u64;
    let blocked = BlockedReport {
        block,
        halo,
        blocks,
        dram_input_bytes,
        recompute_overhead: dram_input_bytes as f64 / base_bytes as f64 - 1.0,
        cycles: pass.cycles,
        seconds,
        energy_j: report.power_w * seconds,
    };
    (out, blocked)
}

/// Extends a whole-frame [`SimReport`] with the block-based DRAM figure
/// for a given halo overhead (convenience for bandwidth tables).
pub fn dram_gbs_at(report: &SimReport, fps: f64) -> f64 {
    report.memory.dram_bytes_per_frame as f64 * fps / 1e9
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
    fn receptive_halo_accounts_for_unshuffle_scaling() {
        let qm = quantized_denoiser(&Algebra::ri_fh(2));
        let halo = receptive_halo(&qm);
        // DnERNet-tiny: PU(2) then a stack of 3x3 convs at half resolution
        // — halo must be positive and even-ish (scaled by 2).
        assert!(halo >= 8, "halo {halo}");
        assert!(halo <= 64, "halo {halo} implausibly large");
    }

    /// Compares blocked vs whole-image inference on the interior (pixels
    /// at least `radius` away from the true image border).
    fn interior_exact(blocked: &Tensor, whole: &Tensor, radius: usize) -> bool {
        let s = whole.shape();
        for c in 0..s.c {
            for y in radius..s.h - radius {
                for x in radius..s.w - radius {
                    if blocked.at(0, c, y, x) != whole.at(0, c, y, x) {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn blocked_inference_is_interior_bit_exact_with_sufficient_halo() {
        let t = TechParams::tsmc40();
        let accel = AcceleratorConfig::eringcnn_n2();
        let qm = quantized_denoiser(&Algebra::ri_fh(2));
        let image = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 21);
        let whole = qm.forward(&image);
        let halo = receptive_halo(&qm);
        let (blocked, report) = simulate_blocked(&qm, &image, &accel, &t, 16, halo);
        // Interior pixels — including every *block seam* — are bit-exact;
        // that is the claim of the recompute flow.
        assert!(
            interior_exact(&blocked, &whole, halo.next_multiple_of(4)),
            "interior must be bit-exact with halo {halo}"
        );
        assert_eq!(report.blocks, 4);
        assert!(report.recompute_overhead > 0.0);
    }

    #[test]
    fn insufficient_halo_breaks_seam_exactness() {
        // With zero halo the interior (block seams) must show errors.
        let t = TechParams::tsmc40();
        let accel = AcceleratorConfig::eringcnn_n2();
        let qm = quantized_denoiser(&Algebra::ri_fh(2));
        let image = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 22);
        let whole = qm.forward(&image);
        let radius = receptive_halo(&qm).next_multiple_of(4);
        let (blocked, _) = simulate_blocked(&qm, &image, &accel, &t, 16, 0);
        assert!(!interior_exact(&blocked, &whole, radius));
    }

    #[test]
    fn smaller_blocks_cost_more_bandwidth() {
        let t = TechParams::tsmc40();
        let accel = AcceleratorConfig::eringcnn_n4();
        let qm = quantized_denoiser(&Algebra::ri_fh(4));
        let image = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 23);
        let halo = receptive_halo(&qm);
        let (_, small) = simulate_blocked(&qm, &image, &accel, &t, 16, halo);
        let (_, large) = simulate_blocked(&qm, &image, &accel, &t, 32, halo);
        assert!(
            small.recompute_overhead > large.recompute_overhead,
            "16px blocks {} vs 32px {}",
            small.recompute_overhead,
            large.recompute_overhead
        );
    }
}
