//! Fig. 15: quality-energy comparison with eCNN. Each accelerator forms a
//! curve over compact model configurations; the x-axis is energy per
//! generated pixel, the y-axis PSNR.

use ringcnn::prelude::*;
use ringcnn_bench::{f2, flags, print_table, save_json};
use ringcnn_hw::prelude::*;
use ringcnn_nn::models::ernet::ErNetConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    accelerator: String,
    model: String,
    nj_per_pixel: f64,
    psnr_db: f64,
}

fn main() {
    let fl = flags();
    let scale = fl.scale;
    let t = TechParams::tsmc40();
    let model_cfgs = [
        (
            "B1-w8",
            ErNetConfig {
                b: 1,
                r: 2,
                n_extra: 0,
                width: 8,
            },
        ),
        (
            "B2-w8",
            ErNetConfig {
                b: 2,
                r: 2,
                n_extra: 0,
                width: 8,
            },
        ),
        (
            "B3-w16",
            ErNetConfig {
                b: 3,
                r: 2,
                n_extra: 0,
                width: 16,
            },
        ),
    ];
    let accels = [
        (AcceleratorConfig::ecnn(), Algebra::real()),
        (AcceleratorConfig::eringcnn_n2(), Algebra::ri_fh(2)),
        (AcceleratorConfig::eringcnn_n4(), Algebra::ri_fh(4)),
    ];
    for scenario in [Scenario::Denoise { sigma: 25.0 }, Scenario::Sr4] {
        let mut rows = Vec::new();
        let mut json = Vec::new();
        for (accel, alg) in &accels {
            for (mlabel, mcfg) in model_cfgs {
                let body = match scenario {
                    Scenario::Denoise { .. } => {
                        ringcnn_nn::models::ernet::dn_ernet_pu(alg, mcfg, 1, 91)
                    }
                    Scenario::Sr4 => ringcnn::scenarios::with_bicubic_skip(
                        ringcnn_nn::models::ernet::sr4_ernet(alg, mcfg, 1, 91),
                        4,
                    ),
                };
                let mut model = body;
                let r = run_quality(mlabel, &mut model, scenario, &scale, 23);
                // Equivalent (uncompressed) mults/pixel: the real model's
                // count — the accelerator serves it with n× sparsity.
                let equivalent = r.mults_per_pixel * accel.n() as f64;
                let point = operating_point(accel, equivalent, &t);
                rows.push(vec![
                    accel.name.clone(),
                    mlabel.to_string(),
                    f2(point.nj_per_pixel),
                    f2(r.psnr_db),
                ]);
                json.push(Point {
                    accelerator: accel.name.clone(),
                    model: mlabel.to_string(),
                    nj_per_pixel: point.nj_per_pixel,
                    psnr_db: r.psnr_db,
                });
            }
        }
        print_table(
            &format!("Fig. 15 — quality vs energy/pixel, {}", scenario.label()),
            &["accelerator", "model", "nJ/pixel", "PSNR (dB)"],
            &rows,
        );
        save_json(
            &fl,
            &format!(
                "fig15_quality_energy_{}",
                scenario.label().replace(['(', ')', '=', '×', 'σ'], "_")
            ),
            &json,
        );
    }
    println!(
        "Shape targets: eRingCNN curves dominate eCNN; eRingCNN-n4 is preferred\n\
         at low energy budgets (curve crossover)."
    );
}
