//! Every number `simulate` and `simulate_blocked` report, pinned to what
//! the simulator printed while it still ran its own tile-ordered integer
//! datapath: the accounting walk over `QuantizedModel::walk_shapes` must
//! charge every convolution the cycles, multiplications and memory that
//! datapath charged. A row that moves means the accounting drifted (the
//! failure prints the row). `Debug` prints each `f64` in the shortest
//! form that reads back to the same bits, so the strings are exact.

use ringcnn_esim::prelude::*;
use ringcnn_hw::prelude::{AcceleratorConfig, TechParams};
use ringcnn_nn::layers::upsample::UpsampleResidual;
use ringcnn_nn::models::ernet::{dn_ernet_pu, sr4_ernet, ErNetConfig};
use ringcnn_nn::prelude::*;
use ringcnn_quant::prelude::*;
use ringcnn_tensor::prelude::*;

const PINNED: [(&str, &str); 14] = [
    ("(R (real), fcw) 16", "SimReport { cycles: 48, physical_mults: 3538944, equivalent_mults: 3538944, utilization: 0.9, seconds: 1.92e-7, fps: 5208333.333333333, energy_j: 1.3474031616e-6, nj_per_output_pixel: 5.2632936, memory: MemoryReport { weight_bytes: 5244, peak_feature_bytes: 8192, dram_bytes_per_frame: 691 }, weights_fit: true }"),
    ("(R (real), fcw) 32", "SimReport { cycles: 192, physical_mults: 14155776, equivalent_mults: 14155776, utilization: 0.9, seconds: 7.68e-7, fps: 1302083.3333333333, energy_j: 5.3896126464e-6, nj_per_output_pixel: 5.2632936, memory: MemoryReport { weight_bytes: 5244, peak_feature_bytes: 32768, dram_bytes_per_frame: 2764 }, weights_fit: true }"),
    ("(R (real), fcw) blocks of 16", "BlockedReport { block: 16, halo: 12, blocks: 4, dram_input_bytes: 6400, recompute_overhead: 5.25, cycles: 1200, seconds: 4.8e-6, energy_j: 3.3685079039999996e-5 }"),
    ("(R (real), fcw) blocks of 32", "BlockedReport { block: 32, halo: 12, blocks: 1, dram_input_bytes: 3136, recompute_overhead: 2.0625, cycles: 588, seconds: 2.352e-6, energy_j: 1.6505688729600002e-5 }"),
    ("(RI2, fH) 16", "SimReport { cycles: 48, physical_mults: 1769472, equivalent_mults: 3538944, utilization: 0.9, seconds: 1.92e-7, fps: 5208333.333333333, energy_j: 7.412164608e-7, nj_per_output_pixel: 2.8953768, memory: MemoryReport { weight_bytes: 2652, peak_feature_bytes: 8192, dram_bytes_per_frame: 691 }, weights_fit: true }"),
    ("(RI2, fH) 32", "SimReport { cycles: 192, physical_mults: 7077888, equivalent_mults: 14155776, utilization: 0.9, seconds: 7.68e-7, fps: 1302083.3333333333, energy_j: 2.9648658432e-6, nj_per_output_pixel: 2.8953768, memory: MemoryReport { weight_bytes: 2652, peak_feature_bytes: 32768, dram_bytes_per_frame: 2764 }, weights_fit: true }"),
    ("(RI2, fH) blocks of 16", "BlockedReport { block: 16, halo: 12, blocks: 4, dram_input_bytes: 6400, recompute_overhead: 5.25, cycles: 1200, seconds: 4.8e-6, energy_j: 1.8530411520000002e-5 }"),
    ("(RI2, fH) blocks of 32", "BlockedReport { block: 32, halo: 12, blocks: 1, dram_input_bytes: 3136, recompute_overhead: 2.0625, cycles: 588, seconds: 2.352e-6, energy_j: 9.079901644800001e-6 }"),
    ("(RI4, fH) 16", "SimReport { cycles: 48, physical_mults: 884736, equivalent_mults: 3538944, utilization: 0.9, seconds: 1.92e-7, fps: 5208333.333333333, energy_j: 4.350511104e-7, nj_per_output_pixel: 1.6994184, memory: MemoryReport { weight_bytes: 1356, peak_feature_bytes: 8192, dram_bytes_per_frame: 691 }, weights_fit: true }"),
    ("(RI4, fH) 32", "SimReport { cycles: 192, physical_mults: 3538944, equivalent_mults: 14155776, utilization: 0.9, seconds: 7.68e-7, fps: 1302083.3333333333, energy_j: 1.7402044416e-6, nj_per_output_pixel: 1.6994184, memory: MemoryReport { weight_bytes: 1356, peak_feature_bytes: 32768, dram_bytes_per_frame: 2764 }, weights_fit: true }"),
    ("(RI4, fH) blocks of 16", "BlockedReport { block: 16, halo: 12, blocks: 4, dram_input_bytes: 6400, recompute_overhead: 5.25, cycles: 1200, seconds: 4.8e-6, energy_j: 1.087627776e-5 }"),
    ("(RI4, fH) blocks of 32", "BlockedReport { block: 32, halo: 12, blocks: 1, dram_input_bytes: 3136, recompute_overhead: 2.0625, cycles: 588, seconds: 2.352e-6, energy_j: 5.3293761024e-6 }"),
    ("SR4 (RI4, fH) 16", "SimReport { cycles: 800, physical_mults: 14745600, equivalent_mults: 58982400, utilization: 0.9, seconds: 3.2e-6, fps: 312500.0, energy_j: 7.250851839999999e-6, nj_per_output_pixel: 1.7702274999999998, memory: MemoryReport { weight_bytes: 2121, peak_feature_bytes: 16384, dram_bytes_per_frame: 4531 }, weights_fit: true }"),
    ("SR4 (RI4, fH) blocks of 16", "BlockedReport { block: 16, halo: 8, blocks: 4, dram_input_bytes: 4096, recompute_overhead: 3.0, cycles: 12800, seconds: 5.12e-5, energy_j: 0.00011601362943999999 }"),
];

fn random(hw: usize, seed: u64) -> Tensor {
    Tensor::random_uniform(Shape4::new(1, 1, hw, hw), 0.0, 1.0, seed)
}

fn quantized(mut model: Sequential) -> QuantizedModel {
    QuantizedModel::quantize(&mut model, &random(16, 9), QuantOptions::default())
}

/// The reports, one row each: DnERNet-tiny over the real field, RI2 and
/// RI4 on 16×16 and 32×32 inputs and in blocks of 16 and 32; an untrained
/// UHD30 SR4 ERNet over RI4 behind its bicubic skip (the walk through
/// `UpsampleResidual` and the shuffles), whole and in blocks of 16.
fn reports() -> Vec<(String, String)> {
    let t = TechParams::tsmc40();
    let mut rows = Vec::new();
    for (alg, accel) in [
        (Algebra::real(), AcceleratorConfig::ecnn()),
        (Algebra::ri_fh(2), AcceleratorConfig::eringcnn_n2()),
        (Algebra::ri_fh(4), AcceleratorConfig::eringcnn_n4()),
    ] {
        let qm = quantized(dn_ernet_pu(&alg, ErNetConfig::tiny(), 1, 7));
        for hw in [16, 32] {
            let (_, r) = simulate(&qm, &random(hw, 1), &accel, &t);
            rows.push((format!("{} {hw}", alg.label()), format!("{r:?}")));
        }
        for block in [16, 32] {
            let halo = receptive_halo(&qm);
            let (_, r) = simulate_blocked(&qm, &random(32, 21), &accel, &t, block, halo);
            rows.push((
                format!("{} blocks of {block}", alg.label()),
                format!("{r:?}"),
            ));
        }
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
    let (_, r) = simulate(&qm, &random(16, 1), &accel, &t);
    rows.push((format!("SR4 {} 16", alg.label()), format!("{r:?}")));
    let halo = receptive_halo(&qm);
    let (_, r) = simulate_blocked(&qm, &random(32, 21), &accel, &t, 16, halo);
    rows.push((
        format!("SR4 {} blocks of 16", alg.label()),
        format!("{r:?}"),
    ));
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
