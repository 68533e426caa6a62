//! Block-based inference flow study (§V): halo-recompute overhead and
//! exactness versus block size — the mechanism that lets eRingCNN
//! serve 4K UHD with only ~2 GB/s of DRAM bandwidth (features never
//! leave the chip).

use ringcnn::prelude::*;
use ringcnn_bench::{f2, flags, print_table, save_json};
use ringcnn_esim::prelude::*;
use ringcnn_hw::prelude::{AcceleratorConfig, TechParams};

fn main() {
    let fl = flags();
    let scale = fl.scale;
    let scenario = Scenario::Denoise { sigma: 25.0 };
    let alg = Algebra::ri_fh(4);
    let mut model = build_model(scenario, ThroughputTarget::Uhd30, &alg, 42);
    let _ = train_model(&mut model, scenario, &scale, 7);
    let calib = training_pairs(scenario, &scale);
    let mut qm = QuantizedModel::quantize(&mut model, &calib.inputs, QuantOptions::default());
    let halo = BatchRunner::new(&mut qm).halo();
    println!("halo (receptive-field radius, rounded to the granularity): {halo} input pixels");

    let image = add_gaussian_noise(&dataset(DatasetProfile::Bsd, 64, 1), 25.0, 3);
    let whole = qm.forward(&image);
    let accel = AcceleratorConfig::eringcnn_n4();
    let t = TechParams::tsmc40();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for block in [16usize, 32, 64] {
        let (out, report) = simulate(&qm, &image, &accel, &t, block);
        rows.push(vec![
            block.to_string(),
            report.blocks.to_string(),
            f2(report.recompute_overhead * 100.0),
            (out.as_slice() == whole.as_slice()).to_string(),
            report.cycles.to_string(),
            f2(report.energy_j * 1e6),
        ]);
        json.push(report);
    }
    print_table(
        "Block-based inference (64×64 frame, eRingCNN-n4)",
        &[
            "block px",
            "blocks",
            "halo-recompute overhead %",
            "bit-exact",
            "cycles",
            "energy (µJ)",
        ],
        &rows,
    );
    println!(
        "Shape: smaller blocks → smaller on-chip buffers but more halo re-reads and\n\
         more recomputed pyramid rim; every output pixel equals whole-frame inference."
    );
    save_json(&fl, "blocked_inference", &json);
}
