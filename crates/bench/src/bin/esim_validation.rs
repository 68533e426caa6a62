//! eRingCNN simulator validation (§V): runs quantized scenario models on
//! the cycle-approximate simulator, checks the widths the load-time proof
//! computes for the trained models against the accumulator and fH unit
//! widths `ringcnn-hw` prices, and reports cycles, utilization,
//! throughput, energy, and memory footprints for each configuration.

use ringcnn::prelude::*;
use ringcnn::quant::quantized::StageKind;
use ringcnn_bench::{f2, flags, print_table, save_json};
use ringcnn_esim::prelude::*;
use ringcnn_hw::engine::{fh_bits, ACC_BITS};
use ringcnn_hw::prelude::{AcceleratorConfig, TechParams};
use serde::Serialize;

#[derive(Serialize)]
struct Entry {
    accelerator: String,
    scenario: String,
    widths: String,
    cycles: u64,
    utilization: f64,
    fps_equivalent_1080p: f64,
    nj_per_output_pixel: f64,
    weight_kb: f64,
    weights_fit: bool,
}

fn main() {
    let fl = flags();
    let scale = fl.scale;
    let t = TechParams::tsmc40();
    let image = 32usize;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (accel, alg) in [
        (AcceleratorConfig::ecnn(), Algebra::real()),
        (AcceleratorConfig::eringcnn_n2(), Algebra::ri_fh(2)),
        (AcceleratorConfig::eringcnn_n4(), Algebra::ri_fh(4)),
    ] {
        for scenario in [Scenario::Denoise { sigma: 25.0 }, Scenario::Sr4] {
            let mut model = build_model(scenario, ThroughputTarget::Uhd30, &alg, 55);
            let _ = train_model(&mut model, scenario, &scale, 5);
            let calib = training_pairs(scenario, &scale);
            let qm = QuantizedModel::quantize(&mut model, &calib.inputs, QuantOptions::default());
            let input = match scenario {
                Scenario::Denoise { sigma } => {
                    add_gaussian_noise(&dataset(DatasetProfile::Set5, image, 1), sigma, 1)
                }
                Scenario::Sr4 => downsample(&dataset(DatasetProfile::Set5, image, 1), 4),
            };
            let frame = input.shape().h.max(input.shape().w);
            let (_, report) = simulate(&qm, &input, &accel, &t, frame);
            // The proof's worst cases against the modelled units (a model
            // that outgrew them would not have quantized): a conv
            // accumulator of ACC_BITS, an fH unit of fh_bits(n).
            let proof = qm.lane_proof().expect("a quantized model loads");
            let mut widths = Vec::new();
            for (kind, bits) in [
                (StageKind::Conv, ACC_BITS),
                (StageKind::DRelu, fh_bits(alg.n())),
            ] {
                let stages = proof.stages.iter().filter(|s| s.kind == kind);
                if let Some(worst) = stages.map(|s| s.worst).max() {
                    widths.push(format!("2^{:.1} < 2^{}", (worst as f64).log2(), bits - 1));
                }
            }
            let widths = widths.join(", ");
            // Scale the per-inference cycle count to a Full-HD frame.
            let in_pixels = (input.shape().h * input.shape().w) as f64;
            let frame_scale = 1920.0 * 1080.0 / in_pixels;
            let fps_1080 = 1.0 / (report.seconds * frame_scale);
            rows.push(vec![
                accel.name.clone(),
                scenario.label(),
                widths.clone(),
                report.cycles.to_string(),
                f2(report.utilization),
                f2(fps_1080),
                f2(report.nj_per_output_pixel),
                f2(report.memory.weight_bytes as f64 / 1024.0),
                report.weights_fit.to_string(),
            ]);
            json.push(Entry {
                accelerator: accel.name.clone(),
                scenario: scenario.label(),
                widths,
                cycles: report.cycles,
                utilization: report.utilization,
                fps_equivalent_1080p: fps_1080,
                nj_per_output_pixel: report.nj_per_output_pixel,
                weight_kb: report.memory.weight_bytes as f64 / 1024.0,
                weights_fit: report.weights_fit,
            });
        }
    }
    print_table(
        "eRingCNN simulator validation",
        &[
            "accelerator",
            "scenario",
            "proven conv, fH worst case",
            "cycles",
            "utilization",
            "fps @1080p-equivalent",
            "nJ/out-pixel",
            "weights (KB)",
            "fits SRAM",
        ],
        &rows,
    );
    save_json(&fl, "esim_validation", &json);
}
