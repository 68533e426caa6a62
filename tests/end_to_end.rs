//! End-to-end integration tests spanning all crates: data generation →
//! model building → training → quantization → accelerator simulation →
//! hardware accounting.

use ringcnn::prelude::*;
use ringcnn_esim::prelude::*;
use ringcnn_hw::prelude::*;

/// The full paper pipeline for the flagship configuration (RI4, fH):
/// train a denoiser, verify it denoises, quantize it, verify bounded
/// quantization loss, simulate it on eRingCNN-n4, verify bit-exactness
/// and that the physical work is 4× below the equivalent work.
#[test]
fn full_pipeline_ri4_fh() {
    let scale = ExperimentScale::quick();
    let scenario = Scenario::Denoise { sigma: 25.0 };
    let algebra = Algebra::ri_fh(4);
    let mut model = build_model(scenario, ThroughputTarget::Uhd30, &algebra, 42);
    let _ = train_model(&mut model, scenario, &scale, 7);
    let float_psnr = evaluate_model(&mut model, scenario, &scale);
    let noisy_psnr = {
        let pairs = eval_pairs(scenario, DatasetProfile::Set5, &scale);
        psnr(&pairs.inputs, &pairs.targets)
    };
    assert!(
        float_psnr > noisy_psnr,
        "training must denoise: {float_psnr} vs {noisy_psnr}"
    );

    // Quantize.
    let calib = training_pairs(scenario, &scale);
    let qm = QuantizedModel::quantize(&mut model, &calib.inputs, QuantOptions::default());
    let pairs = eval_pairs(scenario, DatasetProfile::Set5, &scale);
    let q_psnr = psnr(&qm.forward(&pairs.inputs), &pairs.targets);
    assert!(
        float_psnr - q_psnr < 1.0,
        "8-bit loss too large: {float_psnr:.2} -> {q_psnr:.2}"
    );

    // Simulate.
    let accel = AcceleratorConfig::eringcnn_n4();
    let input = pairs.inputs.batch_item(0);
    let frame = input.shape().h.max(input.shape().w);
    let (out, report) = simulate(&qm, &input, &accel, &TechParams::tsmc40(), frame);
    assert_eq!(out.as_slice(), qm.forward(&input).as_slice(), "bit-exact");
    assert_eq!(
        report.equivalent_mults,
        report.physical_mults * 4,
        "4x sparsity"
    );
    assert!(report.weights_fit);
}

/// Ring-model weight compression is n× (minus uncompressed biases and
/// boundary layers) across every supported n.
#[test]
fn weight_compression_scales_with_n() {
    let cfg = ThroughputTarget::Uhd30;
    let scenario = Scenario::Denoise { sigma: 15.0 };
    let mut real = build_model(scenario, cfg, &Algebra::real(), 3);
    let base = real.num_params() as f64;
    for n in [2usize, 4] {
        let mut ring = build_model(scenario, cfg, &Algebra::ri_fh(n), 3);
        let ratio = base / ring.num_params() as f64;
        assert!(
            ratio > 0.8 * n as f64 && ratio <= n as f64,
            "n={n}: compression ratio {ratio}"
        );
    }
}

/// Every Table-I ring trains on a tiny denoising task without diverging
/// (the quality ordering experiments depend on this).
#[test]
fn all_rings_train_stably() {
    let scale = ExperimentScale {
        steps: 60,
        ..ExperimentScale::quick()
    };
    let scenario = Scenario::Denoise { sigma: 25.0 };
    for kind in [
        RingKind::Ri(2),
        RingKind::Rh(2),
        RingKind::Complex,
        RingKind::Ri(4),
        RingKind::Rh(4),
        RingKind::Ro4,
        RingKind::Rh4I,
        RingKind::Quaternion,
    ] {
        let alg = Algebra::with_fcw(kind);
        let mut model = build_model(scenario, ThroughputTarget::Uhd30, &alg, 5);
        let report = train_model(&mut model, scenario, &scale, 11);
        assert!(
            report.final_loss.is_finite() && report.final_loss < report.losses[0] * 2.0,
            "{kind:?} diverged: {} -> {}",
            report.losses[0],
            report.final_loss
        );
    }
}

/// The information-mixing story of the paper in miniature: on a task that
/// requires cross-component mixing, (RI, fH) must clearly beat RI + fcw
/// (which cannot mix components at all).
#[test]
fn directional_relu_recovers_mixing_capacity() {
    // Task: swap the two channels (pure cross-component mapping).
    let x = Tensor::random_uniform(Shape4::new(12, 2, 8, 8), 0.0, 1.0, 21);
    let mut y = Tensor::zeros(x.shape());
    for b in 0..12 {
        let (a0, a1) = (x.plane(b, 0).to_vec(), x.plane(b, 1).to_vec());
        y.plane_mut(b, 0).copy_from_slice(&a1);
        y.plane_mut(b, 1).copy_from_slice(&a0);
    }
    let cfg = TrainConfig {
        steps: 250,
        batch: 4,
        lr: 5e-3,
        decay_after: 0.8,
        seed: 2,
    };
    let build = |alg: &Algebra| -> Sequential {
        Sequential::new()
            .with(alg.conv(2, 8, 3, 5))
            .with_opt(alg.activation())
            .with(alg.conv(8, 2, 3, 6))
    };
    let mut no_mix = build(&Algebra::with_fcw(RingKind::Ri(2)));
    let r_no_mix = train_regression(&mut no_mix, &x, &y, &cfg);
    let mut mix = build(&Algebra::ri_fh(2));
    let r_mix = train_regression(&mut mix, &x, &y, &cfg);
    assert!(
        r_mix.final_loss < r_no_mix.final_loss * 0.5,
        "fH must enable mixing: {} vs {}",
        r_mix.final_loss,
        r_no_mix.final_loss
    );
}

/// Real multiplications per input pixel of the four scenario models,
/// counted by hand, each conv at the resolution it runs: DnERNet-PU's
/// at a quarter of the input pixels (behind its 2×2 unshuffle, inside
/// the global residual), SR4ERNet's at 1×, 4× and 16× (behind each ×2
/// shuffle, inside the bicubic skip). Over (RI4, fH) a ring conv costs
/// a quarter of its real twin; the head and tail on the image's one
/// channel stay real.
#[test]
fn scenario_models_cost_their_hand_counts() {
    let dn = Scenario::Denoise { sigma: 25.0 };
    for (scenario, target, real, ri4) in [
        // (4·16 + 3·(16·32 + 32·16) + 16·4)·9 / 4
        (dn, ThroughputTarget::Hd30, 7_200.0, 1_800.0),
        // (4·8 + 8·16 + 16·8 + 8·4)·9 / 4
        (dn, ThroughputTarget::Uhd30, 720.0, 180.0),
        // (1·16 + 3·2·(16·32) + 16·16 + 16·64)·9 + 16·64·9·4 + 16·1·9·16
        (Scenario::Sr4, ThroughputTarget::Hd30, 78_480.0, 21_456.0),
        // (1·8 + 2·(8·16) + 8·8 + 8·32)·9 + 8·32·9·4 + 8·1·9·16
        (Scenario::Sr4, ThroughputTarget::Uhd30, 15_624.0, 4_824.0),
    ] {
        for (alg, want) in [(Algebra::real(), real), (Algebra::ri_fh(4), ri4)] {
            let model = build_model(scenario, target, &alg, 1);
            let what = format!(
                "{} at {} over {}",
                scenario.label(),
                target.label(),
                alg.label()
            );
            assert_eq!(mults_per_input_pixel(&model), want, "{what}");
            assert_eq!(model.mults_per_pixel(), want, "{what}");
        }
    }
}

/// Hardware model consistency across the stack: the simulator's
/// energy-per-pixel for a UHD-class model agrees with the analytical
/// operating-point model within the tiling overhead.
#[test]
fn simulator_energy_agrees_with_analytical_model() {
    let scale = ExperimentScale::quick();
    let scenario = Scenario::Denoise { sigma: 25.0 };
    let algebra = Algebra::ri_fh(2);
    let mut model = build_model(scenario, ThroughputTarget::Uhd30, &algebra, 42);
    let t = TechParams::tsmc40();
    let accel = AcceleratorConfig::eringcnn_n2();
    let calib = training_pairs(scenario, &scale);
    let qm = QuantizedModel::quantize(&mut model, &calib.inputs, QuantOptions::default());
    let input = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 1);
    let (_, report) = simulate(&qm, &input, &accel, &t, 32);
    // Analytical: energy/pixel from the model's equivalent mults/pixel.
    let equivalent = mults_per_input_pixel(&model) * accel.n() as f64;
    let analytic = operating_point(&accel, equivalent, &t);
    // The simulator pads every layer's channels to the engine's groups:
    // its own equivalent mults per output pixel over the model's (9 216
    // vs 720 here). With that padding divided out, what is left is the
    // tile overhead, so the simulator can only be ≥ the ideal analytical
    // point, within a small factor.
    let out_pixels = (input.shape().h * input.shape().w) as f64;
    let padding = report.equivalent_mults as f64 / out_pixels / equivalent;
    assert!(
        padding >= 1.0,
        "the simulator serves {padding}× the model's mults"
    );
    let ratio = report.nj_per_output_pixel / analytic.nj_per_pixel / padding;
    assert!(
        (0.9..12.0).contains(&ratio),
        "sim {} vs analytic {} over {padding}× padding (ratio {ratio})",
        report.nj_per_output_pixel,
        analytic.nj_per_pixel
    );
}
