//! The model suite that the determinism suite (`runtime_parallel.rs`)
//! and the calibration pins (`quant_backend.rs`) both run: one
//! definition of each model, included by each with `mod`.

use ringcnn::prelude::*;
use ringcnn::scenarios::{build_model, Scenario, ThroughputTarget};

/// The five `ModelSpec` architectures at their smallest, and the SR
/// scenario's bicubic-skip wrapper, over a ring with a directional ReLU
/// so every leaf and container type of the zoo appears.
pub fn walk_zoo() -> Vec<(&'static str, Sequential)> {
    let alg = Algebra::ri_fh(4);
    let (b, r, n_extra, width, channels_io) = (1, 2, 1, 8, 1);
    let specs = [
        (
            "vdsr",
            ModelSpec::Vdsr {
                depth: 3,
                width,
                channels_io,
            },
        ),
        (
            "ffdnet",
            ModelSpec::Ffdnet {
                depth: 3,
                width,
                channels_io,
            },
        ),
        (
            "dn_ernet",
            ModelSpec::DnErnet {
                b,
                r,
                n_extra,
                width,
                channels_io,
            },
        ),
        (
            "sr4_ernet",
            ModelSpec::Sr4Ernet {
                b,
                r,
                n_extra,
                width,
                channels_io,
            },
        ),
        (
            "srresnet",
            ModelSpec::SrResNet {
                blocks: 1,
                channels: width,
                depthwise: true,
                channels_io,
            },
        ),
    ];
    let mut zoo: Vec<_> = specs
        .into_iter()
        .map(|(name, spec)| (name, spec.build(&alg, 3)))
        .collect();
    zoo.push((
        "sr4_bicubic_skip",
        build_model(Scenario::Sr4, ThroughputTarget::Uhd30, &alg, 3),
    ));
    zoo
}

/// The algebras of the HD30 rows: the real field, RI2/RI4/RI8 with their
/// directional ReLU, and (RH4, fcw).
fn suite_algebras() -> Vec<Algebra> {
    vec![
        Algebra::real(),
        Algebra::ri_fh(2),
        Algebra::ri_fh(4),
        Algebra::ri_fh(8),
        Algebra::with_fcw(RingKind::Rh(4)),
    ]
}

/// The benchmark's HD30 DnERNet and SR4ERNet (bicubic skip included)
/// over every algebra of [`suite_algebras`], named
/// `hd30/{dn,sr4}/{algebra}`.
pub fn hd30_models() -> Vec<(String, Sequential)> {
    let mut models = Vec::new();
    for alg in suite_algebras() {
        for (task, scenario) in [
            ("dn", Scenario::Denoise { sigma: 25.0 }),
            ("sr4", Scenario::Sr4),
        ] {
            let model = build_model(scenario, ThroughputTarget::Hd30, &alg, 7);
            models.push((format!("hd30/{task}/{}", alg.label()), model));
        }
    }
    models
}

/// Seeds every all-zero conv (`sr4_ernet` zero-initialises its output
/// conv; left alone the body would never reach the output).
pub fn fill_zero_convs(model: &mut Sequential) {
    model.for_each_layer_mut(&mut |layer| {
        if let Some(c) = layer.as_any_mut().downcast_mut::<Conv2d>() {
            let w = &mut c.weights_mut().data;
            if w.iter().all(|v| *v == 0.0) {
                let seeded = w.iter_mut().enumerate();
                seeded.for_each(|(i, v)| *v = 0.01 * (i % 5) as f32 - 0.02);
            }
        }
    });
}
