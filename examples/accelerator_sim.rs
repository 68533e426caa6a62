//! Run a quantized RingCNN model on the cycle-approximate eRingCNN
//! simulator: bit-exact outputs plus cycles, utilization, throughput,
//! energy-per-pixel, and memory footprints.
//!
//! ```sh
//! cargo run --release --example accelerator_sim
//! ```

use ringcnn::prelude::*;
use ringcnn_esim::prelude::*;
use ringcnn_hw::prelude::{layout_report, AcceleratorConfig, TechParams};

fn main() {
    let scale = ExperimentScale::quick();
    let scenario = Scenario::Denoise { sigma: 25.0 };
    let tech = TechParams::tsmc40();

    for (accel, algebra) in [
        (AcceleratorConfig::ecnn(), Algebra::real()),
        (AcceleratorConfig::eringcnn_n2(), Algebra::ri_fh(2)),
        (AcceleratorConfig::eringcnn_n4(), Algebra::ri_fh(4)),
    ] {
        // Train + quantize a model matched to the accelerator's algebra.
        let mut model = build_model(scenario, ThroughputTarget::Uhd30, &algebra, 42);
        let _ = train_model(&mut model, scenario, &scale, 7);
        let calib = training_pairs(scenario, &scale);
        let qm = QuantizedModel::quantize(&mut model, &calib.inputs, QuantOptions::default());

        // One 32x32 test image through the simulator, in one block.
        let clean = generate(PatternKind::OrientedTexture, 32, 32, 3);
        let noisy = add_gaussian_noise(&clean, 25.0, 1);
        let (output, report) = simulate(&qm, &noisy, &accel, &tech, 32);
        let exact = output.as_slice() == qm.forward(&noisy).as_slice();

        let layout = layout_report(&accel, &tech);
        println!("=== {} ({}) ===", accel.name, algebra.label());
        println!(
            "  layout:       {:.2} mm², {:.2} W, {:.1} equivalent TOPS",
            layout.area_mm2, layout.power_w, layout.tops_equivalent
        );
        println!(
            "  simulation:   {} cycles, {:.1}% utilization, bit-exact: {exact}",
            report.cycles,
            report.utilization * 100.0
        );
        println!(
            "  quality:      {:.2} dB (noisy was {:.2} dB)",
            psnr(&output, &clean),
            psnr(&noisy, &clean)
        );
        println!(
            "  energy:       {:.2} nJ/pixel | weights {:.1} KB (fit: {})",
            report.nj_per_output_pixel,
            report.memory.weight_bytes as f64 / 1024.0,
            report.weights_fit
        );
        println!();
    }
    println!(
        "Shape: all three produce comparable PSNR; the ring configurations spend\n\
         n× less physical work and proportionally less energy per pixel."
    );
}
