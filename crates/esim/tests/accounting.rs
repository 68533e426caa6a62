//! Every number `simulate` reports. The one-block rows are pinned to
//! what the simulator printed while it still ran its own tile-ordered
//! integer datapath: running the step program over shapes must charge
//! every convolution the cycles, multiplications and memory that datapath
//! charged — all but `peak_feature_bytes`, which that datapath took as
//! twice the input pixels times the most channels any plane had; it is
//! the largest input + output of one convolution per batch item
//! (DnERNet-tiny at 16×16: 8·8·(8 + 16) = 1 536 after the ×2 unshuffle;
//! the SR4 ERNet's second ×2 stage: 32·32·(8 + 32) = 40 960). The rows in
//! blocks of 16 are the runtime's tiles: each block reads its
//! halo-extended window clipped at the frame, and each convolution is
//! charged the region the block computes. On every row
//! `dram_bytes_per_frame` is the windows the blocks read plus the output
//! (DnERNet at 16×16: 256 + 256; at 32×32 in blocks of 16: 3 136 +
//! 1 024). A row that moves means the accounting drifted (the failure
//! prints the row). `Debug` prints each `f64` in the shortest form that
//! reads back to the same bits, so the strings are exact.

use ringcnn_esim::prelude::*;
use ringcnn_hw::prelude::{AcceleratorConfig, TechParams};
use ringcnn_nn::layers::upsample::UpsampleResidual;
use ringcnn_nn::models::ernet::{dn_ernet_pu, sr4_ernet, ErNetConfig};
use ringcnn_nn::prelude::*;
use ringcnn_quant::prelude::*;
use ringcnn_tensor::prelude::*;

const PINNED: [(&str, &str); 11] = [
    ("(R (real), fcw) 16, blocks of 16", "SimReport { block: 16, halo: 12, blocks: 1, recompute_overhead: 0.0, cycles: 48, physical_mults: 3538944, equivalent_mults: 3538944, utilization: 0.9, seconds: 1.92e-7, fps: 5208333.333333333, energy_j: 1.3474031616e-6, nj_per_output_pixel: 5.2632936, memory: MemoryReport { weight_bytes: 5244, peak_feature_bytes: 1536, dram_bytes_per_frame: 512 }, weights_fit: true }"),
    ("(R (real), fcw) 32, blocks of 32", "SimReport { block: 32, halo: 12, blocks: 1, recompute_overhead: 0.0, cycles: 192, physical_mults: 14155776, equivalent_mults: 14155776, utilization: 0.9, seconds: 7.68e-7, fps: 1302083.3333333333, energy_j: 5.3896126464e-6, nj_per_output_pixel: 5.2632936, memory: MemoryReport { weight_bytes: 5244, peak_feature_bytes: 6144, dram_bytes_per_frame: 2048 }, weights_fit: true }"),
    ("(R (real), fcw) 32, blocks of 16", "SimReport { block: 16, halo: 12, blocks: 4, recompute_overhead: 2.0625, cycles: 408, physical_mults: 30081024, equivalent_mults: 30081024, utilization: 0.9, seconds: 1.632e-6, fps: 612745.0980392157, energy_j: 1.14529268736e-5, nj_per_output_pixel: 11.1844989, memory: MemoryReport { weight_bytes: 5244, peak_feature_bytes: 3656, dram_bytes_per_frame: 4160 }, weights_fit: true }"),
    ("(RI2, fH) 16, blocks of 16", "SimReport { block: 16, halo: 12, blocks: 1, recompute_overhead: 0.0, cycles: 48, physical_mults: 1769472, equivalent_mults: 3538944, utilization: 0.9, seconds: 1.92e-7, fps: 5208333.333333333, energy_j: 7.412164608e-7, nj_per_output_pixel: 2.8953768, memory: MemoryReport { weight_bytes: 2652, peak_feature_bytes: 1536, dram_bytes_per_frame: 512 }, weights_fit: true }"),
    ("(RI2, fH) 32, blocks of 32", "SimReport { block: 32, halo: 12, blocks: 1, recompute_overhead: 0.0, cycles: 192, physical_mults: 7077888, equivalent_mults: 14155776, utilization: 0.9, seconds: 7.68e-7, fps: 1302083.3333333333, energy_j: 2.9648658432e-6, nj_per_output_pixel: 2.8953768, memory: MemoryReport { weight_bytes: 2652, peak_feature_bytes: 6144, dram_bytes_per_frame: 2048 }, weights_fit: true }"),
    ("(RI2, fH) 32, blocks of 16", "SimReport { block: 16, halo: 12, blocks: 4, recompute_overhead: 2.0625, cycles: 408, physical_mults: 15040512, equivalent_mults: 30081024, utilization: 0.9, seconds: 1.632e-6, fps: 612745.0980392157, energy_j: 6.300339916800001e-6, nj_per_output_pixel: 6.1526757000000005, memory: MemoryReport { weight_bytes: 2652, peak_feature_bytes: 3656, dram_bytes_per_frame: 4160 }, weights_fit: true }"),
    ("(RI4, fH) 16, blocks of 16", "SimReport { block: 16, halo: 12, blocks: 1, recompute_overhead: 0.0, cycles: 48, physical_mults: 884736, equivalent_mults: 3538944, utilization: 0.9, seconds: 1.92e-7, fps: 5208333.333333333, energy_j: 4.350511104e-7, nj_per_output_pixel: 1.6994184, memory: MemoryReport { weight_bytes: 1356, peak_feature_bytes: 1536, dram_bytes_per_frame: 512 }, weights_fit: true }"),
    ("(RI4, fH) 32, blocks of 32", "SimReport { block: 32, halo: 12, blocks: 1, recompute_overhead: 0.0, cycles: 192, physical_mults: 3538944, equivalent_mults: 14155776, utilization: 0.9, seconds: 7.68e-7, fps: 1302083.3333333333, energy_j: 1.7402044416e-6, nj_per_output_pixel: 1.6994184, memory: MemoryReport { weight_bytes: 1356, peak_feature_bytes: 6144, dram_bytes_per_frame: 2048 }, weights_fit: true }"),
    ("(RI4, fH) 32, blocks of 16", "SimReport { block: 16, halo: 12, blocks: 4, recompute_overhead: 2.0625, cycles: 408, physical_mults: 7520256, equivalent_mults: 30081024, utilization: 0.9, seconds: 1.632e-6, fps: 612745.0980392157, energy_j: 3.6979344384e-6, nj_per_output_pixel: 3.6112640999999996, memory: MemoryReport { weight_bytes: 1356, peak_feature_bytes: 3656, dram_bytes_per_frame: 4160 }, weights_fit: true }"),
    ("SR4 (RI4, fH) 16, blocks of 16", "SimReport { block: 16, halo: 8, blocks: 1, recompute_overhead: 0.0, cycles: 800, physical_mults: 14745600, equivalent_mults: 58982400, utilization: 0.9, seconds: 3.2e-6, fps: 312500.0, energy_j: 7.250851839999999e-6, nj_per_output_pixel: 1.7702274999999998, memory: MemoryReport { weight_bytes: 2121, peak_feature_bytes: 40960, dram_bytes_per_frame: 4352 }, weights_fit: true }"),
    // The last conv of each block writes its core alone: nothing behind
    // it reads a ring.
    ("SR4 (RI4, fH) 32, blocks of 16", "SimReport { block: 16, halo: 8, blocks: 4, recompute_overhead: 1.25, cycles: 3684, physical_mults: 67903488, equivalent_mults: 271613952, utilization: 0.9, seconds: 1.4736e-5, fps: 67861.02062975027, energy_j: 3.33901727232e-5, nj_per_output_pixel: 2.037974409375, memory: MemoryReport { weight_bytes: 2121, peak_feature_bytes: 44096, dram_bytes_per_frame: 18688 }, weights_fit: true }"),
];

fn random(hw: usize, seed: u64) -> Tensor {
    Tensor::random_uniform(Shape4::new(1, 1, hw, hw), 0.0, 1.0, seed)
}

fn quantized(mut model: Sequential) -> QuantizedModel {
    QuantizedModel::quantize(&mut model, &random(16, 9), QuantOptions::default())
}

/// A model of the rows: its label, accelerator, and the (square frame,
/// block) sizes of its rows.
type Rows = (
    String,
    QuantizedModel,
    AcceleratorConfig,
    &'static [(usize, usize)],
);

/// DnERNet-tiny over the real field, RI2 and RI4 on 16×16 and 32×32
/// frames in one block and on 32×32 in blocks of 16; an untrained UHD30
/// SR4 ERNet over RI4 behind its bicubic skip (the program through
/// `UpsampleResidual` and the shuffles) on 16×16 in one block and 32×32
/// in blocks of 16.
fn models() -> Vec<Rows> {
    let mut models: Vec<Rows> = Vec::new();
    for (alg, accel) in [
        (Algebra::real(), AcceleratorConfig::ecnn()),
        (Algebra::ri_fh(2), AcceleratorConfig::eringcnn_n2()),
        (Algebra::ri_fh(4), AcceleratorConfig::eringcnn_n4()),
    ] {
        let qm = quantized(dn_ernet_pu(&alg, ErNetConfig::tiny(), 1, 7));
        models.push((alg.label(), qm, accel, &[(16, 16), (32, 32), (32, 16)]));
    }
    let (alg, accel) = (Algebra::ri_fh(4), AcceleratorConfig::eringcnn_n4());
    let uhd30 = ErNetConfig {
        b: 1,
        r: 2,
        n_extra: 0,
        width: 8,
    };
    let body = sr4_ernet(&alg, uhd30, 1, 55);
    let qm = quantized(Sequential::new().with(Box::new(UpsampleResidual::new(body, 4))));
    let label = format!("SR4 {}", alg.label());
    models.push((label, qm, accel, &[(16, 16), (32, 16)]));
    models
}

/// The reports, one row each, in the order of [`models`].
fn reports() -> Vec<(String, String)> {
    let t = TechParams::tsmc40();
    let mut rows = Vec::new();
    for (label, qm, accel, sizes) in models() {
        for &(hw, block) in sizes {
            let (_, r) = simulate(&qm, &random(hw, 1), &accel, &t, block);
            rows.push((format!("{label} {hw}, blocks of {block}"), format!("{r:?}")));
        }
    }
    rows
}

#[test]
fn every_report_number_is_the_one_the_integer_datapath_reported() {
    let rows = reports();
    let got: Vec<(&str, &str)> = rows.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    for (got, want) in got.iter().zip(PINNED) {
        assert_eq!(*got, want, "row as it stands: {got:?}");
    }
    assert_eq!(got.len(), PINNED.len());
}

/// A frame in four blocks costs more than the frame in one — each block
/// recomputes its halo — but less than charging every convolution the
/// whole extended block did. (That one block costs what the whole frame
/// did is the one-block rows of [`PINNED`].)
#[test]
fn blocks_cost_the_frame_plus_the_rim_of_their_pyramids() {
    // Cycles of the blocks of 16, when every layer was charged the full
    // extended block: the DnERNets, then the SR4 ERNet.
    let full_blocks = [1200, 1200, 1200, 12800];
    let t = TechParams::tsmc40();
    for ((label, qm, accel, _), full) in models().into_iter().zip(full_blocks) {
        let frame = random(32, 21);
        let (_, whole) = simulate(&qm, &frame, &accel, &t, 32);
        let (_, r) = simulate(&qm, &frame, &accel, &t, 16);
        let row = format!("{label}: {r:?} vs {whole:?}");
        assert_eq!((whole.blocks, r.blocks), (1, 4), "{row}");
        assert!(whole.cycles <= r.cycles && r.cycles < full, "{row}");
    }
}
