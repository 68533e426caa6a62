//! The quantized-backend equivalence suite: fixed-point primitive
//! properties (exact-rational requantization, roundtrip bounds,
//! saturation edges), integer-im2col-vs-scalar bit-exactness, the
//! plane-wise element-wise stages against their per-element definitions
//! (the directional ReLU against `run_drelu_reference`), tiled quantized
//! inference, and the calibrate → export → load pipeline.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn::quant::quantized::{execute_layer, run_conv_reference, run_drelu_reference};
use ringcnn_nn::runtime::{BatchRunner, InferenceModel, TileConfig};
use ringcnn_tensor::gemm::RequantChannel;
#[path = "common/zoo.rs"]
mod zoo;
use zoo::{fill_zero_convs, hd30_models, walk_zoo};

/// The exact rational rescale `q · 2^(to − from)` rounded half away from
/// zero / saturated into `i64`, computed in `i128` — the semantic model
/// `requant_shift` must match everywhere.
fn exact_rescale(q: i64, from_frac: i32, to_frac: i32) -> i64 {
    let s = i64::from(from_frac) - i64::from(to_frac);
    if s == 0 {
        return q;
    }
    if s > 0 {
        // round(|q| / 2^s) with half away from zero, in exact arithmetic.
        if s >= 127 {
            return 0;
        }
        let div = 1i128 << s.min(126);
        let mag = (q as i128).unsigned_abs();
        let rounded = (mag + (div as u128) / 2) / div as u128;
        let signed = if q < 0 {
            -(rounded as i128)
        } else {
            rounded as i128
        };
        signed as i64 // |result| ≤ 2^62: always fits
    } else {
        if q == 0 {
            return 0;
        }
        let sh = -s;
        if sh >= 64 {
            return if q > 0 { i64::MAX } else { i64::MIN };
        }
        ((q as i128) << sh).clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `requant_shift` equals the exact rational rescale over the FULL
    /// `i64` range and a wide frac spread — no wrap, no panic, no bias.
    #[test]
    fn requant_shift_is_the_exact_rational_rescale(
        q in i64::MIN..=i64::MAX,
        from in -80i32..80,
        to in -80i32..80,
    ) {
        prop_assert_eq!(requant_shift(q, from, to), exact_rescale(q, from, to));
    }

    /// Right shifts round half away from zero, symmetrically: shifting
    /// `−q` is exactly `−(shift q)` (impossible under the old
    /// round-half-up requantizer).
    #[test]
    fn requant_shift_is_odd_symmetric(q in -(1i64 << 40)..(1i64 << 40), s in 1i32..20) {
        prop_assert_eq!(requant_shift(-q, s, 0), -requant_shift(q, s, 0));
    }

    /// Quantize→dequantize error is at most half a step inside the
    /// fitted range, for every bit width the pipeline uses.
    #[test]
    fn quantize_dequantize_error_bounded(v in -50.0f64..50.0, bits in 2u32..20) {
        let f = QFormat::fit(50.0, bits);
        let back = f.dequantize(f.quantize(v));
        prop_assert!((back - v).abs() <= f.scale() / 2.0 + 1e-12,
            "v={v} back={back} {f:?}");
    }

    /// `QTensor::requantized` saturates at exactly the target format's
    /// rails, never beyond, never wrapping.
    #[test]
    fn requantized_saturates_at_the_rails(
        v in i64::MIN / 4..i64::MAX / 4,
        dfrac in 0i32..30,
    ) {
        let from = QFormat { bits: 63, frac: 20 };
        let to = QFormat { bits: 8, frac: 20 + dfrac }; // finer: left shifts
        let q = QTensor::from_raw(Shape4::new(1, 1, 1, 1), vec![v], vec![from]);
        let r = q.requantized(vec![to]);
        prop_assert!((-128..=127).contains(&r.data()[0]), "{}", r.data()[0]);
        // Saturation engages exactly when the exact rescale leaves range.
        let exact = exact_rescale(v, from.frac, to.frac);
        prop_assert_eq!(r.data()[0], exact.clamp(-128, 127));
    }

    /// `add_saturating` clamps the aligned sum at the output rails.
    #[test]
    fn add_saturating_clamps_at_the_rails(a in -200i64..200, b in -200i64..200) {
        let f = QFormat { bits: 8, frac: 0 };
        let shape = Shape4::new(1, 1, 1, 1);
        let qa = QTensor::from_raw(shape, vec![a], vec![f]);
        let qb = QTensor::from_raw(shape, vec![b], vec![f]);
        let sum = qa.add_saturating(&qb, vec![f]);
        prop_assert_eq!(sum.data()[0], (a + b).clamp(-128, 127));
    }
}

/// The integer im2col production kernel matches the scalar quadruple-loop
/// reference bit for bit, for every conv the builder emits across the
/// acceptance algebras (dense, ring-expanded, format-aligned, and
/// accumulator-keeping convs in front of directional ReLUs): the whole
/// chain against the oracle walk, which runs every conv through
/// `run_conv_reference`.
#[test]
fn integer_im2col_matches_scalar_reference_across_algebras() {
    for alg in [
        Algebra::real(),
        Algebra::ri_fh(2),
        Algebra::ri_fh(4),
        Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4)),
        Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh4I),
    ] {
        let mut model = Sequential::new()
            .with(alg.conv(1, 8, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(8, 8, 3, 4))
            .with_opt(alg.activation())
            .with(alg.conv(8, 1, 3, 5));
        let x = Tensor::random_uniform(Shape4::new(2, 1, 11, 9), 0.0, 1.0, 7);
        let qm = QuantizedModel::quantize(&mut model, &x, QuantOptions::default());
        let convs = qm.layers().iter().filter(|l| matches!(l, QLayer::Conv(_)));
        assert!(
            convs.count() >= 3,
            "{}: expected every conv checked",
            alg.label()
        );
        let q = QTensor::quantize(&x, vec![qm.input_format(); 1]);
        let reference = qm.layers().iter().fold(q.clone(), |q, l| match l {
            QLayer::Conv(c) => run_conv_reference(c, &q),
            _ => execute_layer(l, q),
        });
        assert_eq!(qm.forward_q(q), reference, "{}", alg.label());
    }
}

/// Tile-parallel quantized inference is bit-identical to the whole-image
/// integer pass for every tile configuration — the acceptance property
/// that lets the serving layer tile quantized models freely.
#[test]
fn tiled_quantized_inference_is_bit_exact() {
    for (label, mut model, granularity) in [
        (
            "vdsr/ri4",
            ringcnn_nn::models::vdsr::vdsr(&Algebra::ri_fh(4), 3, 8, 1, 5),
            1usize,
        ),
        (
            "vdsr/real",
            ringcnn_nn::models::vdsr::vdsr(&Algebra::real(), 3, 8, 1, 6),
            1,
        ),
        (
            "ffdnet/real",
            ringcnn_nn::models::ffdnet::ffdnet(&Algebra::real(), 3, 8, 1, 7),
            2,
        ),
        (
            "ffdnet/rh4",
            ringcnn_nn::models::ffdnet::ffdnet(
                &Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4)),
                3,
                8,
                1,
                8,
            ),
            2,
        ),
    ] {
        let calib = Tensor::random_uniform(Shape4::new(2, 1, 16, 16), 0.0, 1.0, 11);
        let mut qm = QuantizedModel::quantize(&mut model, &calib, QuantOptions::default());
        assert_eq!(qm.topology().granularity, granularity, "{label}");
        let x = Tensor::random_uniform(Shape4::new(2, 1, 24, 20), 0.0, 1.0, 13);
        let whole = qm.forward(&x);
        for tile in [4usize, 8, 12] {
            let runner = BatchRunner::new(&mut qm).with_tile(TileConfig::with_tile(tile));
            let tiled = runner.run(&x);
            assert_eq!(
                tiled.as_slice(),
                whole.as_slice(),
                "{label} tile={tile}: stitched integers must equal the whole-image pass"
            );
        }
    }
}

/// The quantized pipeline satisfies the shared-state contract: identical
/// outputs through `forward_infer`, and the float/quant topologies of
/// one architecture agree (same granularity/scale, same radius).
#[test]
fn quant_topology_agrees_with_float_topology() {
    use ringcnn_nn::models::srresnet::{srresnet, SrResNetConfig};
    let alg = Algebra::real();
    let tiny = SrResNetConfig::tiny().with_blocks(1);
    for (mut model, name) in [
        (ringcnn_nn::models::vdsr::vdsr(&alg, 3, 8, 1, 1), "vdsr"),
        (
            ringcnn_nn::models::ffdnet::ffdnet(&alg, 3, 8, 1, 2),
            "ffdnet",
        ),
        (srresnet(&alg, tiny, 1, 3), "srresnet"),
        (srresnet(&alg, tiny.with_depthwise(), 1, 4), "dwc srresnet"),
    ] {
        let calib = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 3);
        let qm = QuantizedModel::quantize(&mut model, &calib, QuantOptions::default());
        let ftopo = ringcnn_nn::runtime::model_topology(&model);
        assert_eq!(qm.topology(), ftopo, "{name}");
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 4);
        let y = InferenceModel::forward_infer(&qm, &x);
        assert_eq!(y.as_slice(), qm.forward(&x).as_slice(), "{name}");
        assert_eq!(y.shape().c, 1, "{name}");
    }
}

/// Calibrate → export → JSON → load reproduces the integer pipeline bit
/// for bit, and the measured fp-vs-quant fidelity clears the documented
/// per-algebra floors (see README: real 25 dB / RI2 18 dB / RI4 12 dB on
/// untrained weights).
#[test]
fn calibrate_export_load_roundtrip_with_fidelity_floors() {
    for (alg, floor) in [
        (Algebra::real(), 25.0),
        (Algebra::ri_fh(2), 18.0),
        (Algebra::ri_fh(4), 12.0),
    ] {
        let mut model = ringcnn_nn::models::vdsr::vdsr(&alg, 3, 8, 1, 21);
        let batch = Tensor::random_uniform(Shape4::new(2, 1, 16, 16), 0.0, 1.0, 23);
        let file = calibrate_to_qmodel(
            "m",
            "vdsr-d3c8",
            &alg.label(),
            &mut model,
            &batch,
            QuantOptions::default(),
        )
        .unwrap();
        assert!(
            file.calibration_psnr > floor,
            "{}: {:.1} dB below the documented floor {floor}",
            alg.label(),
            file.calibration_psnr
        );
        let back = qmodel_from_json(&qmodel_to_json(&file)).unwrap();
        let x = Tensor::random_uniform(Shape4::new(1, 1, 12, 12), 0.0, 1.0, 29);
        assert_eq!(
            back.model.forward(&x).as_slice(),
            file.model.forward(&x).as_slice(),
            "{}",
            alg.label()
        );
    }
}

/// NaN-poisoned calibration surfaces a `CalibrationError`, end to end.
#[test]
fn divergent_calibration_is_an_error_not_a_panic() {
    let alg = Algebra::ri_fh(2);
    let mut model = ringcnn_nn::models::vdsr::vdsr(&alg, 2, 4, 1, 31);
    let mut batch = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 33);
    batch.as_mut_slice()[17] = f32::NAN;
    match QuantizedModel::try_quantize(&mut model, &batch, QuantOptions::default()) {
        Err(CalibrationError::NonFinite { .. }) => {}
        other => panic!("expected NonFinite, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Plane-wise stages ≡ their per-element definitions, bit for bit.
// ---------------------------------------------------------------------

/// SplitMix64: the deterministic bulk data of the cases below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Integers that sit on or next to everything the pipeline clamps at —
/// the `i64` rails, the pre-butterfly rail of `n`-tuples, 8- and 16-bit
/// format rails, zero — mixed with values of every magnitude.
fn rail_values(n: usize, count: usize, seed: u64) -> Vec<i64> {
    let fwht_rail = i64::MAX >> (n.trailing_zeros() + 1);
    let rails = [0, i64::MAX, i64::MIN, fwht_rail, 127, 32767];
    let mut state = seed;
    (0..count)
        .map(|_| {
            let r = splitmix(&mut state);
            match r % 4 {
                0 => {
                    let at = rails[(r >> 8) as usize % rails.len()];
                    let off = (r >> 16) as i64 % 3 - 1;
                    let near = at.saturating_add(off);
                    if r >> 32 & 1 == 0 {
                        near
                    } else {
                        near.saturating_neg()
                    }
                }
                // Any magnitude: a full-range value shifted down 0–63 bits.
                _ => (splitmix(&mut state) as i64) >> ((r >> 8) % 64),
            }
        })
        .collect()
}

/// The production directional ReLU against the per-pixel oracle on
/// every directional ReLU the builder emits, both execution modes: the
/// whole chain — on the fly one engine step with its conv, MAC-based over
/// the stored tensor — against the oracle walk, which runs every one
/// through `run_drelu_reference`.
#[test]
fn plane_wise_drelu_matches_the_reference_across_algebras_and_modes() {
    for alg in [Algebra::ri_fh(2), Algebra::ri_fh(4), Algebra::ri_fh(8)] {
        for on_the_fly_drelu in [true, false] {
            let n = alg.ring().n();
            let mut model = Sequential::new()
                .with(alg.conv(n, 2 * n, 3, 3))
                .with_opt(alg.activation())
                .with(alg.conv(2 * n, 2 * n, 3, 4))
                .with_opt(alg.activation())
                .with(alg.conv(2 * n, n, 3, 5));
            // 37·31 pixels: more than one block, a multiple of none.
            let x = Tensor::random_uniform(Shape4::new(2, n, 37, 31), -1.0, 1.0, 7);
            let opts = QuantOptions {
                on_the_fly_drelu,
                ..QuantOptions::default()
            };
            let qm = QuantizedModel::quantize(&mut model, &x, opts);
            let modes = qm.layers().iter().filter_map(|l| match l {
                QLayer::DRelu(d) => Some(matches!(d.mode(), DReluMode::OnTheFly)),
                _ => None,
            });
            assert_eq!(
                modes.collect::<Vec<_>>(),
                [on_the_fly_drelu; 2],
                "{}",
                alg.label()
            );
            let q = QTensor::quantize(&x, vec![qm.input_format(); n]);
            let reference = qm.layers().iter().fold(q.clone(), |q, l| match l {
                QLayer::DRelu(d) => run_drelu_reference(d, &q),
                _ => execute_layer(l, q),
            });
            assert_eq!(qm.forward_q(q), reference, "{}", alg.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane requantizer — direction and distance decided once per
    /// channel — is `apply` on every element, over the full `i64` range
    /// and frac distances on both sides of its 64-bit fast path.
    #[test]
    fn apply_lane_is_apply_on_every_element(
        from in -80i32..80,
        to in -80i32..80,
        bits in 2u32..63,
        seed in 0u64..u64::MAX,
    ) {
        let ch = RequantChannel {
            from_frac: from,
            to_frac: to,
            qmin: -(1i64 << (bits - 1)),
            qmax: (1i64 << (bits - 1)) - 1,
        };
        let values = rail_values(4, 67, seed);
        let mut lane = values.clone();
        ch.apply_lane(&mut lane);
        let want: Vec<i64> = values.iter().map(|v| ch.apply(*v)).collect();
        prop_assert_eq!(lane, want);
    }

    /// Format spreads wide enough that the alignment shifts saturate or
    /// the proof refuses the model, accumulators driven toward the
    /// widths by their biases, values on the output rails, both modes,
    /// every tuple size, the unit fused behind an accumulator-keeping conv
    /// and over a stored tensor: whatever loads, the plane-wise unit and
    /// the oracle agree on every integer; whatever does not, the refusal
    /// names the stage that outgrew its width.
    #[test]
    fn plane_wise_drelu_matches_the_reference_at_the_rails(
        log_n in 1u32..4,
        in_fracs in proptest::collection::vec(-64i32..65, 8),
        out_fracs in proptest::collection::vec(-64i32..65, 8),
        out_bits in proptest::collection::vec(2u32..9, 8),
        mid_frac in -64i32..65,
        mid_bits in 2u32..9,
        spread in 0i32..3,
        kept in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        let (n, mut state) = (1usize << log_n, seed);
        // Narrow the spread in two cases of three, so most models load
        // and the rails are reached by the values instead.
        let narrow = |f: i32| if spread == 0 { f } else { f.rem_euclid(8) + 20 };
        // Two tuples: a head stores the input in a format per channel, a
        // diagonal 1×1 conv behind it keeps its accumulators (each at its
        // input's frac, biased up to 2^21) or requantizes them.
        let c = 2 * n;
        let diagonal = |i: usize| i / c == i % c;
        let identity: Vec<i64> = (0..c * c).map(|i| i64::from(diagonal(i))).collect();
        let stored: Vec<_> = (0..c).map(|ch| (8, narrow(in_fracs[ch % 8] + (ch / 8) as i32))).collect();
        let head = json_conv((c, c, 1), &identity, (8, 0), &vec![0.0; c], Some(&stored), None);
        let weights: Vec<i64> = (0..c * c)
            .map(|i| (splitmix(&mut state) as i64 >> 56) * i64::from(diagonal(i)))
            .collect();
        let bias: Vec<f64> = stored
            .iter()
            .map(|(_, frac)| {
                let r = splitmix(&mut state);
                let int = (r as i64) >> (42 + r % 8);
                (int as f64 * 2f64.powi(-frac)).clamp(-1e9, 1e9)
            })
            .collect();
        let out: Vec<_> = (0..n).map(|l| (out_bits[l], narrow(out_fracs[l]))).collect();
        let requant: Vec<_> = (0..c).map(|ch| out[ch % n]).collect();
        let requant = (kept == 0).then_some(&requant[..]);
        let conv = json_conv((c, c, 1), &weights, (8, 0), &bias, requant, None);
        let mid = (8.min(mid_bits), narrow(mid_frac));
        for mid in [None, Some(mid)] {
            let layers = [head.clone(), conv.clone(), json_drelu(n, mid, &out)];
            match qmodel_from_json(&crafted_json(c, (8, 0), &layers)) {
                Ok(file) => {
                    let x = saturating_input(Shape4::new(2, c, 23, 29), (8, 0), seed);
                    let want = oracle(&file.model, &x);
                    let q = QTensor::quantize(&x, vec![file.model.input_format(); c]);
                    prop_assert_eq!(file.model.forward_q(q), want);
                }
                Err(e) => {
                    let QModelLoadError::Invalid(why) = e else { panic!("{e}") };
                    prop_assert!(why.contains(" fH: worst case 2^"), "{}", why);
                }
            }
        }
    }

    /// `QTensor`'s plane-wise walks against the scalar `QFormat`
    /// functions they hoist constants out of: quantize (NaN, ±∞ and
    /// out-of-range samples included), dequantize, requantize and the
    /// saturating add, with a different format on every channel and a
    /// plane (23·29) that is no multiple of any block.
    #[test]
    fn qtensor_walks_match_their_per_element_definitions(
        fracs in proptest::collection::vec(-20i32..40, 6),
        bits in proptest::collection::vec(2u32..17, 6),
        seed in 0u64..u64::MAX,
    ) {
        let shape = Shape4::new(2, 3, 23, 29);
        let fmt = |i: usize| QFormat { bits: bits[i], frac: fracs[i] };
        let (from, to) = ([fmt(0), fmt(1), fmt(2)], [fmt(3), fmt(4), fmt(5)]);
        let channel = |i: usize| i / shape.plane() % shape.c;

        let mut t = Tensor::random_uniform(shape, -300.0, 300.0, seed);
        for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e30].iter().enumerate() {
            t.as_mut_slice()[i * 97] = *v;
        }
        let q = QTensor::quantize(&t, from.to_vec());
        for (i, (got, v)) in q.data().iter().zip(t.as_slice()).enumerate() {
            prop_assert_eq!(*got, from[channel(i)].quantize(f64::from(*v)), "quantize {}", i);
        }
        for (i, (got, v)) in q.dequantize().as_slice().iter().zip(q.data()).enumerate() {
            let want = from[channel(i)].dequantize(*v) as f32;
            prop_assert_eq!(got.to_bits(), want.to_bits(), "dequantize {}", i);
        }

        // Wide values in narrow-declared formats: every saturation arm.
        let wide = QTensor::from_raw(shape, rail_values(4, shape.len(), seed), from.to_vec());
        let r = wide.requantized(to.to_vec());
        prop_assert_eq!(r.formats(), &to[..]);
        for (i, (got, v)) in r.data().iter().zip(wide.data()).enumerate() {
            let c = channel(i);
            let want = to[c].saturate(requant_shift(*v, from[c].frac, to[c].frac));
            prop_assert_eq!(*got, want, "requantized {}", i);
        }

        // Operands and frac distances small enough that the aligned sum
        // stays inside `i64` (the definition itself overflows beyond).
        let near = |i: usize| QFormat { bits: bits[i], frac: fracs[i].rem_euclid(8) };
        let small = |salt: u64| -> Vec<i64> {
            rail_values(4, shape.len(), seed ^ salt).iter().map(|v| v >> 30).collect()
        };
        let out = vec![near(3), near(4), near(5)];
        let a = QTensor::from_raw(shape, small(1), vec![near(0), near(1), near(2)]);
        let b = QTensor::from_raw(shape, small(2), vec![near(5), near(3), near(4)]);
        let sum = a.add_saturating(&b, out.clone());
        for (i, got) in sum.data().iter().enumerate() {
            let c = channel(i);
            let x = requant_shift(a.data()[i], a.format_of(c).frac, out[c].frac);
            let y = requant_shift(b.data()[i], b.format_of(c).frac, out[c].frac);
            prop_assert_eq!(*got, out[c].saturate(x + y), "add_saturating {}", i);
        }
    }

    /// The integer shuffles against their index formula: a shuffle
    /// requantizes its r² source channels to the coarsest of their
    /// formats, an unshuffle repeats each channel's format r² times.
    #[test]
    fn integer_shuffles_follow_the_index_formula(
        r in 2usize..4,
        fracs in proptest::collection::vec(0i32..12, 18),
        seed in 0u64..u64::MAX,
    ) {
        let low = Shape4::new(2, 2 * r * r, 5, 3);
        let formats: Vec<QFormat> = (0..low.c).map(|c| QFormat { bits: 8, frac: fracs[c] }).collect();
        let data: Vec<i64> = rail_values(4, low.len(), seed).iter().map(|v| v >> 50).collect();
        let q = QTensor::from_raw(low, data, formats.clone());
        let up = execute_layer(&QLayer::Shuffle(r), q.clone());
        prop_assert_eq!(up.shape(), Shape4::new(2, 2, 5 * r, 3 * r));
        for oc in 0..2 {
            let coarsest = formats[oc * r * r..(oc + 1) * r * r].iter().min_by_key(|f| f.frac);
            prop_assert_eq!(Some(&up.format_of(oc)), coarsest);
        }
        for b in 0..low.n {
            for ic in 0..low.c {
                let (oc, ry, rx) = (ic / (r * r), ic / r % r, ic % r);
                let fo = up.format_of(oc);
                for y in 0..low.h {
                    for x in 0..low.w {
                        let v = q.plane(b, ic)[y * low.w + x];
                        let want = fo.saturate(requant_shift(v, formats[ic].frac, fo.frac));
                        let got = up.plane(b, oc)[(y * r + ry) * low.w * r + x * r + rx];
                        prop_assert_eq!(got, want, "shuffle b={} ic={} y={} x={}", b, ic, y, x);
                    }
                }
            }
        }
        let down = execute_layer(&QLayer::Unshuffle(r), up.clone());
        prop_assert_eq!(down.shape(), low);
        for b in 0..low.n {
            for ic in 0..low.c {
                let (oc, ry, rx) = (ic / (r * r), ic / r % r, ic % r);
                prop_assert_eq!(down.format_of(ic), up.format_of(oc));
                for y in 0..low.h {
                    for x in 0..low.w {
                        let want = up.plane(b, oc)[(y * r + ry) * low.w * r + x * r + rx];
                        prop_assert_eq!(down.plane(b, ic)[y * low.w + x], want);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The chain ≡ the oracle, bit for bit; what outgrows the widths does not
// load.
//
// Every model that loads runs the one integer chain: `i32` lanes on `i8`
// planes (every format that reaches memory has 8 bits), a conv that keeps
// its accumulator one engine step with the directional ReLU behind it —
// `QuantizedModel::forward`, and `forward_q`, which narrows and widens
// around it. The load-time proof admits only models whose every integer
// fits the widths of the modelled accelerator (`ringcnn_hw::engine`:
// `ACC_BITS` accumulators, `fh_bits(n)` directional-ReLU units, the
// `i32` lane besides). The table below holds the chain to the one slow
// oracle — `execute_layer`, layer by layer on `i64` tensors, unfused,
// every conv through `run_conv_reference` and every directional ReLU
// through `run_drelu_reference` — on whole models, tiled runs, and
// crafted models at the widths' edges (and refused past them), by
// `to_bits`. In a debug build `i32` `+` and `*` panic on overflow, so the
// tier-1 debug run of this table is itself an overflow check of the
// proof: a bound that is too small fails here before any integer
// differs. The CI legs run it at pools 1/2/4 (`RINGCNN_THREADS`) and
// with each kernel tier pinned; the whole-model rows also force both
// tiers in-process.
// ---------------------------------------------------------------------

use ringcnn::quant::quantized::LaneProof;
use ringcnn_hw::engine::{fh_bits, ACC_BITS};
use ringcnn_tensor::prelude::{forced_kernel_scope, KernelBackend};

const TIERS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn proof(qm: &QuantizedModel) -> &LaneProof {
    qm.lane_proof().expect("a model that loads")
}

/// Every `QuantOptions` mode combination (all at the paper's 8 bits).
fn mode_combinations() -> impl Iterator<Item = QuantOptions> {
    [(true, true), (true, false), (false, true), (false, false)]
        .into_iter()
        .map(|(on_the_fly_drelu, component_wise)| QuantOptions {
            on_the_fly_drelu,
            component_wise,
        })
}

/// The oracle walk of a whole model on `x`'s quantized integers.
fn oracle(qm: &QuantizedModel, x: &Tensor) -> QTensor {
    let q = QTensor::quantize(x, vec![qm.input_format(); x.shape().c]);
    qm.layers().iter().fold(q, |q, l| execute_layer(l, q))
}

/// The HD30 Dn and SR4 (bicubic skip) ERNets over the real field and
/// RI2/RI4/RI8 with `fH`, in all four mode combinations: each loads, and
/// its `forward` — whole (batch 2, both kernel tiers) and tiled through
/// `BatchRunner` — and its `forward_q` are the oracle walk's integers.
#[test]
fn i32_whole_models_equal_the_i64_tier_whole_and_tiled() {
    for (scenario, hw) in [(Scenario::Denoise { sigma: 25.0 }, 16), (Scenario::Sr4, 8)] {
        for alg in [
            Algebra::real(),
            Algebra::ri_fh(2),
            Algebra::ri_fh(4),
            Algebra::ri_fh(8),
        ] {
            let mut float = build_model(scenario, ThroughputTarget::Hd30, &alg, 7);
            let calibration = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 5);
            // Beyond the calibrated range on both sides: the input
            // quantizer and the stages behind it saturate.
            let x = Tensor::random_uniform(Shape4::new(2, 1, hw, hw), -0.5, 1.5, 6);
            for opts in mode_combinations() {
                let what = format!("{scenario:?} over {} with {opts:?}", alg.label());
                let mut qm = QuantizedModel::quantize(&mut float, &calibration, opts);
                let oracle = oracle(&qm, &x);
                let q = QTensor::quantize(&x, vec![qm.input_format(); 1]);
                assert_eq!(qm.forward_q(q), oracle, "{what}, forward_q");
                let want = bits(&oracle.dequantize());
                for tier in TIERS {
                    let got = forced_kernel_scope(tier, || qm.forward(&x));
                    assert_eq!(bits(&got), want, "{what}, {} tile", tier.label());
                }
                if opts.component_wise {
                    let runner = BatchRunner::new(&mut qm).with_tile(TileConfig::with_tile(8));
                    assert_eq!(bits(&runner.run(&x)), want, "{what}, tiled");
                }
            }
        }
    }
}

/// The dense and the depth-wise SRResNet (Fig. 1), whose convolutions
/// are nested chains, over the real field and (RI4, fH): each
/// calibrates — the chains flatten in the description, so every conv in
/// front of an `fH` keeps its accumulator across the nesting — loads,
/// and its `forward` is the unfused oracle walk bit for bit, whole on
/// both kernel tiers and tiled.
#[test]
fn srresnets_calibrate_and_equal_their_oracle_whole_and_tiled() {
    use ringcnn_nn::models::srresnet::{srresnet, SrResNetConfig};
    let tiny = SrResNetConfig::tiny().with_blocks(2).with_channels(8);
    for cfg in [tiny, tiny.with_depthwise()] {
        for alg in [Algebra::real(), Algebra::ri_fh(4)] {
            let what = format!(
                "srresnet (depthwise: {}) over {}",
                cfg.depthwise,
                alg.label()
            );
            let mut float = srresnet(&alg, cfg, 1, 31);
            let calibration = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 5);
            let mut qm =
                QuantizedModel::quantize(&mut float, &calibration, QuantOptions::default());
            let x = Tensor::random_uniform(Shape4::new(2, 1, 12, 12), -0.5, 1.5, 6);
            let want = bits(&oracle(&qm, &x).dequantize());
            for tier in TIERS {
                let got = forced_kernel_scope(tier, || qm.forward(&x));
                assert_eq!(bits(&got), want, "{what}, {} tile", tier.label());
            }
            let runner = BatchRunner::new(&mut qm).with_tile(TileConfig::with_tile(4));
            assert!(runner.plan_grid(12, 12).is_some(), "{what}: tiles");
            assert_eq!(bits(&runner.run(&x)), want, "{what}, tiled");
        }
    }
}

/// The widths the proof computes against the widths `ringcnn-hw` prices:
/// for the HD30 Dn and SR4 ERNets over the real field and RI2/RI4/RI8
/// with `fH`, in all four mode combinations, every conv accumulator fits
/// the modelled engine's `ACC_BITS` and every directional-ReLU stage its
/// `fh_bits(n)`-bit unit (what loading them already asserts), and the
/// largest magnitude per ring is pinned like the rings' other properties
/// (a moved pin means calibration or the proof changed: the failure
/// prints the row).
#[test]
fn the_zoo_proves_into_the_widths_the_modelled_accelerator_has() {
    use ringcnn::quant::quantized::StageKind;
    let log2 = |v: u128| (v as f64).log2();
    let rings = [
        (Algebra::real(), "19.4"),
        (Algebra::ri_fh(2), "20.6"),
        (Algebra::ri_fh(4), "21.6"),
        (Algebra::ri_fh(8), "23.0"),
    ];
    for (alg, pinned) in rings {
        let n = alg.ring().n();
        let mut worst = 0;
        for scenario in [Scenario::Denoise { sigma: 25.0 }, Scenario::Sr4] {
            let mut float = build_model(scenario, ThroughputTarget::Hd30, &alg, 7);
            let calibration = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 5);
            for opts in mode_combinations() {
                let what = format!("{scenario:?} over {} with {opts:?}", alg.label());
                let qm = QuantizedModel::quantize(&mut float, &calibration, opts);
                let p = proof(&qm);
                assert_eq!(p.stages.iter().map(|s| s.worst).max(), Some(p.worst));
                for stage in &p.stages {
                    let bits = match stage.kind {
                        StageKind::Conv => ACC_BITS,
                        StageKind::DRelu => fh_bits(n),
                        _ => continue,
                    };
                    assert!(
                        stage.worst < 1 << (bits - 1),
                        "{what}: {stage} reaches 2^{:.1}, the unit has {bits} bits",
                        log2(stage.worst)
                    );
                }
                worst = worst.max(p.worst);
            }
        }
        assert_eq!(format!("{:.1}", log2(worst)), pinned, "{}", alg.label());
    }
}

// Hand-written `ringcnn-qmodel/v1` text: models no calibration would
// emit, at the edges of the proof.

fn json_format((bits, frac): (u32, i32)) -> String {
    format!(r#"{{"bits":{bits},"frac":{frac}}}"#)
}

fn json_list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(item).collect();
    format!("[{}]", items.join(","))
}

/// One conv layer; biases are the reals the file stores as `f64` bits.
fn json_conv(
    (co, ci, k): (usize, usize, usize),
    weights: &[i64],
    w_format: (u32, i32),
    bias: &[f64],
    requant: Option<&[(u32, i32)]>,
    align: Option<(u32, i32)>,
) -> String {
    format!(
        r#"{{"Conv":{{"co":{co},"ci":{ci},"k":{k},"weights":{},"w_format":{},"bias":{},"requant":{},"align_input":{}}}}}"#,
        json_list(weights, i64::to_string),
        json_format(w_format),
        json_list(bias, |b| (b.to_bits() as i64).to_string()),
        requant.map_or("null".into(), |r| json_list(r, |f| json_format(*f))),
        align.map_or("null".into(), json_format),
    )
}

fn json_drelu(n: usize, mid: Option<(u32, i32)>, out: &[(u32, i32)]) -> String {
    let mode = mid.map_or(r#""OnTheFly""#.into(), |m| {
        format!(r#"{{"MacBased":{{"mid":{}}}}}"#, json_format(m))
    });
    let out = json_list(out, |f| json_format(*f));
    format!(r#"{{"DRelu":{{"n":{n},"mode":{mode},"out_formats":{out}}}}}"#)
}

/// The layers as model-file text, in the shape files had before the
/// width options went: `opts` still names `weight_bits`/`feature_bits`.
fn crafted_json(channels_io: usize, input: (u32, i32), layers: &[String]) -> String {
    format!(
        r#"{{"format":"ringcnn-qmodel/v1","name":"m","arch":"crafted","algebra":"-","channels_io":{channels_io},"calibration_psnr":0.0,"model":{{"input_format":{},"layers":[{}],"opts":{{"weight_bits":8,"feature_bits":8,"component_wise":true,"on_the_fly_drelu":true}}}}}}"#,
        json_format(input),
        layers.join(","),
    )
}

/// Loads the layers as a model file: validated, proven, prepared.
fn crafted(channels_io: usize, input: (u32, i32), layers: &[String]) -> QuantizedModel {
    qmodel_from_json(&crafted_json(channels_io, input, layers))
        .expect("a valid crafted model")
        .model
}

/// What loading the text says when the model does not load.
fn refusal(json: &str) -> String {
    match qmodel_from_json(json) {
        Err(QModelLoadError::Invalid(why)) => why,
        other => panic!("expected a refusal, got {other:?}"),
    }
}

/// Inputs from well inside to far outside a format's range, so both
/// rails of the input quantizer are reached.
fn saturating_input(shape: Shape4, input: (u32, i32), seed: u64) -> Tensor {
    let max = 2.0f32.powi(input.0 as i32 - 1 - input.1);
    Tensor::random_uniform(shape, -2.0 * max, 2.0 * max, seed)
}

/// The accumulator's edge, exactly: a 1×1 conv whose bound `|bias| +
/// |w|·128` is 2^23 − 1 loads — and reaches it without wrapping — and
/// one more is refused, the stage named. The bias is part of the bound:
/// without it both models would be far inside.
#[test]
fn a_conv_bound_of_two_to_the_23_minus_one_loads_and_one_more_is_refused() {
    // Accumulator frac 0 + 2: a bias of `b / 4` is the integer `b`.
    let json = |bound: i64| {
        let bias = (bound - 128) as f64 / 4.0;
        let conv = json_conv((1, 1, 1), &[-1], (8, 0), &[bias], Some(&[(8, 0)]), None);
        crafted_json(1, (8, 2), &[conv])
    };
    let edge = qmodel_from_json(&json((1 << 23) - 1))
        .expect("the edge loads")
        .model;
    let p = proof(&edge);
    assert_eq!((p.worst, p.stage.as_str()), ((1 << 23) - 1, "0 conv"));
    // −128 · −1 + bias = 2^23 − 1, then the requantizer's rounding add.
    let x = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![-1e6, 0.3, 1e6]);
    assert_equals_its_oracles(&edge, &x, "the accumulator's edge");
    assert_eq!(
        refusal(&json(1 << 23)),
        "0 conv: worst case 2^23.0 exceeds the 24-bit accumulator"
    );
}

/// A calibration whose integers outgrow the accumulator is an error, not
/// a model: weights of a millionth fit a fine format, so a bias of one
/// lands 2^33 up at the accumulator's scale.
#[test]
fn a_calibration_that_outgrows_the_accumulator_is_an_error() {
    let mut conv = Conv2d::new(1, 1, 3, 5);
    conv.weights_mut().data.iter_mut().for_each(|w| *w *= 1e-6);
    conv.bias_mut().fill(1.0);
    let mut model = Sequential::new().with(Box::new(conv));
    let batch = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 3);
    match QuantizedModel::try_quantize(&mut model, &batch, QuantOptions::default()) {
        Err(CalibrationError::Unloadable(why)) => {
            assert!(why.starts_with("0 conv: worst case 2^3"), "{why}");
            assert!(why.ends_with("exceeds the 24-bit accumulator"), "{why}");
        }
        other => panic!("expected Unloadable, got {other:?}"),
    }
}

/// The second butterfly sums `n` first-butterfly outputs, and the unit
/// over pairs has `fh_bits(2)` = 30 bits: with the first component's
/// accumulator aligned 7 bits up, S = 2^28 is inside, n·S = 2^29 is not
/// — and 256 less loads and is exact.
#[test]
fn the_drelu_bound_grows_by_n_through_the_second_butterfly() {
    let json = |b0: i64| {
        // Channel 1 stored 7 bits finer than channel 0, so the
        // accumulator behind it has 7 more fractional bits and the unit
        // aligns channel 0's up by 7.
        let spread = [(8, 0), (8, 7)];
        let head = json_conv(
            (2, 2, 1),
            &[1, 0, 0, 1],
            (8, 0),
            &[0.0; 2],
            Some(&spread),
            None,
        );
        // Bounds |b0| + 128 and 128.
        let kept = json_conv(
            (2, 2, 1),
            &[-1, 0, 0, 1],
            (8, 0),
            &[b0 as f64, 0.0],
            None,
            None,
        );
        let drelu = json_drelu(2, None, &[(8, -16), (8, -16)]);
        crafted_json(2, (8, 0), &[head, kept, drelu])
    };
    // S = (2^21 − 1)·2^7 + 128 = 2^28, n·S = 2^29.
    assert_eq!(
        refusal(&json((1 << 21) - 129)),
        "2 fH: worst case 2^29.0 exceeds the 30-bit fH unit"
    );
    let edge = qmodel_from_json(&json((1 << 21) - 130))
        .expect("the edge loads")
        .model;
    let p = proof(&edge);
    assert_eq!((p.worst, p.stage.as_str()), ((1 << 29) - 256, "2 fH"));
    let x = saturating_input(Shape4::new(2, 2, 5, 7), (8, 0), 3);
    assert_equals_its_oracles(&edge, &x, "the fH unit's edge");
}

/// What the `fH` unit cannot hold does not load, and the refusal names
/// the stage — in `validate`, in the loader, and as the missing proof:
/// 8-bit features whose component formats spread 40 bits apart, so the
/// alignment in front of the butterfly alone passes every width.
#[test]
fn adversarial_spreads_are_refused_naming_the_fh_stage() {
    let spread = [(8, 0), (8, 40)];
    let conv = json_conv(
        (2, 2, 1),
        &[1, 0, 0, 1],
        (8, 0),
        &[0.0; 2],
        Some(&spread),
        None,
    );
    let json = crafted_json(2, (8, 0), &[conv, json_drelu(2, None, &[(8, 0), (8, 0)])]);
    // n·S = 2·((128 << 40) + 128).
    let why = "1 fH: worst case 2^48.0 exceeds the 30-bit fH unit".to_string();
    let file: QModelFile = serde_json::from_str(&json).expect("the schema parses");
    assert_eq!(file.model.validate(2), Err(why.clone()));
    assert_eq!(file.model.lane_proof(), None);
    assert_eq!(refusal(&json), why);
}

/// A chain no convolution fixes the input channels of has no proof, so
/// it does not load; such a `["Relu"]` file used to load and panic on
/// its first `forward`.
#[test]
fn a_chain_without_a_convolution_is_refused_at_load() {
    let json = crafted_json(1, (8, 0), &[r#""Relu""#.into()]);
    assert_eq!(refusal(&json), "no convolution fixes the channel count");
}

/// `validate` holds `channels_io` to the input channels the chain's own
/// proof was made over — here fixed by a conv behind an unshuffle —,
/// naming both counts.
#[test]
fn a_channel_count_other_than_the_chains_is_refused_naming_both() {
    let eye: Vec<i64> = (0..16).map(|i| i64::from(i % 5 == 0)).collect();
    let conv = json_conv((4, 4, 1), &eye, (8, 0), &[0.0; 4], Some(&[(8, 0); 4]), None);
    let layers = [r#"{"Unshuffle":2}"#.to_string(), conv];
    let qm = crafted(1, (8, 0), &layers);
    assert!(qm.validate(1).is_ok());
    for c in [0, 2, 4] {
        let why = format!("channels_io {c}, but the chain takes 1");
        assert_eq!(qm.validate(c).unwrap_err(), why);
        assert_eq!(refusal(&crafted_json(c, (8, 0), &layers)), why);
    }
}

/// `forward` on both kernel tiers and `forward_q` against the unfused
/// oracle walk; returns that walk's integers.
fn assert_equals_its_oracles(qm: &QuantizedModel, x: &Tensor, what: &str) -> QTensor {
    let q = QTensor::quantize(x, vec![qm.input_format(); x.shape().c]);
    let want = qm
        .layers()
        .iter()
        .fold(q.clone(), |q, l| execute_layer(l, q));
    for tier in TIERS {
        let what = format!("{what}, {} tile, {:?}", tier.label(), proof(qm));
        forced_kernel_scope(tier, || {
            assert_eq!(qm.forward_q(q.clone()), want, "{what}: forward_q");
            assert_eq!(bits(&qm.forward(x)), bits(&want.dequantize()), "{what}");
        });
    }
    want
}

/// `conv → fH` as one engine step against `run_conv_reference` →
/// `run_drelu_reference`: the expansion of a diagonal ring `RI_n` (four
/// tuples; a tuple's channels have `n` different non-zero-row patterns,
/// so its rows come out of different MR blocks and pattern groups), n =
/// 2, 4, 8, k = 1, 3, 5, planes from below one micro-panel to four chunk
/// tasks with a partial last one, both directional-ReLU modes, component
/// formats that leave some outputs on the 8-bit rails and others inside.
#[test]
fn the_fused_conv_fh_step_equals_conv_then_fh_through_the_oracles() {
    let mut state = 0x5eed_u64;
    for (n, out_fracs) in [(2, [13, 2]), (4, [14, 1]), (8, [15, -1])] {
        for k in [1usize, 3, 5] {
            for (h, w, mid) in [(3, 4, None), (9, 15, Some((8, 3))), (23, 20, None)] {
                let (co, ci) = (4 * n, n);
                let weights: Vec<i64> = (0..co * ci * k * k)
                    .map(|i| {
                        let diagonal = i / (k * k) % ci == i / (ci * k * k) % n;
                        (splitmix(&mut state) as i64 >> 56) * i64::from(diagonal)
                    })
                    .collect();
                let bias: Vec<f64> = (0..co).map(|c| c as f64 * 0.21 - 1.3).collect();
                let conv = json_conv((co, ci, k), &weights, (8, 5), &bias, None, None);
                // Component 0 (a sum of ReLU outputs) is shifted down, the
                // others (differences) up onto both rails.
                let out: Vec<_> = (0..n).map(|l| (8, out_fracs[(l == 0) as usize])).collect();
                let qm = crafted(n, (8, 4), &[conv, json_drelu(n, mid, &out)]);
                let x = saturating_input(Shape4::new(2, n, h, w), (8, 4), state);
                let what = format!("n={n} k={k} {h}x{w} mid={mid:?}");
                let want = assert_equals_its_oracles(&qm, &x, &what);
                for rail in [-128, 127] {
                    assert!(want.data().contains(&rail), "{what}: no output at {rail}");
                }
                let inside = |v: &i64| (1..127).contains(&v.abs());
                assert!(want.data().iter().any(inside), "{what}");
            }
        }
    }
}

/// The fused step where the lane ends: over 8-tuples the unit has
/// `fh_bits(8)` = 32 bits, the `i32` lane's. Channel 0's accumulator,
/// aligned 8 bits up, drives the proven bound of the butterflies to
/// 2^31 − 8, and their actual sums — eight times that accumulator, just
/// below 2^31 — come out exact; one more in its bias is refused.
#[test]
fn the_fused_step_clamps_and_sums_at_the_lane_rails() {
    let json = |b0: f64| {
        let identity: Vec<i64> = (0..64).map(|i| i64::from(i / 8 == i % 8)).collect();
        // Channels 1..8 stored 8 bits finer than channel 0.
        let spread: Vec<_> = (0..8).map(|l| (8, 8 * i32::from(l > 0))).collect();
        let head = json_conv((8, 8, 1), &identity, (8, 0), &[0.0; 8], Some(&spread), None);
        // Bounds: channel 0 |b0| + 128 (its weight −1 against −128), the
        // others 201 + 128, at 8 fractional bits.
        let mut diagonal = identity.clone();
        diagonal[0] = -1;
        let mut bias = [201.0 / 256.0; 8];
        bias[0] = b0;
        let kept = json_conv((8, 8, 1), &diagonal, (8, 0), &bias, None, None);
        let out: Vec<_> = (0..8).map(|l| (8, if l == 0 { -17 } else { 0 })).collect();
        crafted_json(8, (8, 0), &[head, kept, json_drelu(8, None, &out)])
    };
    // S = (2^20 − 9)·2^8 + 7·329 = 2^28 − 1, the bound 8·S.
    let edge = qmodel_from_json(&json(1_048_439.0))
        .expect("the edge loads")
        .model;
    let p = proof(&edge);
    assert_eq!((p.worst, p.stage.as_str()), ((1 << 31) - 8, "2 fH"));
    let x = saturating_input(Shape4::new(2, 8, 5, 7), (8, 0), 3);
    let want = assert_equals_its_oracles(&edge, &x, "i32 rails");
    // Every first-butterfly sum is positive, so component 0 leaves the
    // second as 8 · (2^20 − 9) · 2^8 = 2^31 − 18 432: 64 at 2^−25.
    assert_eq!(want.data().iter().max(), Some(&64));
    assert_eq!(
        refusal(&json(1_048_440.0)),
        "2 fH: worst case 2^31.0 exceeds the 32-bit fH unit"
    );
}

/// Every format that reaches memory has the paper's 8 bits: one 9-bit
/// format anywhere — here a directional ReLU's output — is refused by
/// `validate`, which names the stage, and so by the loader. The same
/// model at 8 bits loads and is exact.
#[test]
fn a_nine_bit_stored_format_is_refused_naming_the_stage() {
    let json = |feature_bits: u32| {
        let f = (feature_bits, 3);
        let weights: Vec<i64> = (0..4 * 4 * 9).map(|i| (i * 37 % 23) - 11).collect();
        let head = json_conv((4, 4, 3), &weights, (8, 4), &[0.1; 4], None, None);
        let drelu = json_drelu(4, None, &[f; 4]);
        let requant = Some(&[(8, 1); 4][..]);
        let tail = json_conv((4, 4, 3), &weights, (8, 4), &[0.2; 4], requant, None);
        crafted_json(4, (8, 3), &[head, drelu, r#""Relu""#.into(), tail])
    };
    let eight = qmodel_from_json(&json(8)).expect("an 8-bit model").model;
    let x = saturating_input(Shape4::new(2, 4, 9, 15), (8, 3), 5);
    assert_equals_its_oracles(&eight, &x, "8-bit");
    let why = "1 fH output format: bits 9 outside 2..=8".to_string();
    let nine: QModelFile = serde_json::from_str(&json(9)).expect("the schema parses");
    assert_eq!(nine.model.validate(4), Err(why.clone()));
    assert_eq!(refusal(&json(9)), why);
}

/// A `ringcnn-qmodel/v1` file as written before the width options went —
/// `opts` carrying `"weight_bits":8,"feature_bits":8` — loads as the
/// file it is, re-renders without the two keys and runs bit-identically.
#[test]
fn a_qmodel_file_naming_the_dropped_width_options_loads_and_runs() {
    let alg = Algebra::ri_fh(4);
    let mut float = build_model(
        Scenario::Denoise { sigma: 25.0 },
        ThroughputTarget::Hd30,
        &alg,
        7,
    );
    let x = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 5);
    let qm = QuantizedModel::quantize(&mut float, &x, QuantOptions::default());
    let file = export_qmodel("m", "dn", &alg.label(), 1, 30.0, qm).expect("exports");
    let json = qmodel_to_json(&file);
    let old = json.replacen(
        r#""opts":{"#,
        r#""opts":{"weight_bits":8,"feature_bits":8,"#,
        1,
    );
    assert_ne!(old, json);
    let back = qmodel_from_json(&old).expect("the old shape loads");
    assert_eq!(back, file);
    assert_eq!(qmodel_to_json(&back), json);
    assert_eq!(bits(&back.model.forward(&x)), bits(&file.model.forward(&x)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tables — weight and feature widths 2..=8, every format
    /// its own frac, both directional-ReLU modes, an aligned conv in a
    /// residual body, a shuffle across mixed formats: whatever loads, the
    /// chain computes the oracle's integers (and in a debug build never
    /// overflows on the way); whatever does not, the refusal names the
    /// stage that outgrew its width.
    #[test]
    fn whatever_the_proof_admits_equals_the_oracle(
        log_n in 1u32..3,
        w_bits in 2u32..9,
        f_bits in proptest::collection::vec(2u32..9, 12),
        fracs in proptest::collection::vec(0i32..11, 12),
        mac_based in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        let n = 1usize << log_n;
        let mut state = seed;
        let mut weights = |count: usize, bits: u32| -> Vec<i64> {
            (0..count)
                .map(|_| (splitmix(&mut state) as i64) >> (64 - bits))
                .collect()
        };
        let f = |i: usize| (f_bits[i], fracs[i]);
        let per_component = |at: usize, c: usize| -> Vec<(u32, i32)> {
            (0..c).map(|ch| f(at + ch % n)).collect()
        };
        let bias = |c: usize| -> Vec<f64> { (0..c).map(|ch| ch as f64 * 0.37 - 0.5).collect() };
        let (input, mac_based) = (f(0), mac_based == 1);
        let head_out = per_component(1, 2 * n);
        let head = json_conv(
            (2 * n, n, 3),
            &weights(2 * n * n * 9, w_bits),
            (w_bits, fracs[11]),
            &bias(2 * n),
            mac_based.then_some(&head_out[..]),
            None,
        );
        let drelu = json_drelu(n, mac_based.then_some(f(5)), &per_component(6, n));
        let body = json_conv(
            (2 * n, 2 * n, 1),
            &weights(4 * n * n, w_bits),
            (w_bits, fracs[10]),
            &bias(2 * n),
            Some(&per_component(1, 2 * n)),
            Some(f(10)),
        );
        let residual = format!(
            r#"{{"Residual":{{"body":[{body},"Relu"],"out_formats":{}}}}}"#,
            json_list(&[f(11)], |f| json_format(*f)),
        );
        let layers = [head, drelu, residual, r#"{"Shuffle":2}"#.into()];
        match qmodel_from_json(&crafted_json(n, input, &layers)) {
            Ok(file) => {
                let x = saturating_input(Shape4::new(2, n, 5, 7), input, seed);
                let want = oracle(&file.model, &x).dequantize();
                prop_assert_eq!(bits(&file.model.forward(&x)), bits(&want), "{:?}", proof(&file.model));
            }
            Err(e) => {
                let QModelLoadError::Invalid(why) = e else { panic!("{e}") };
                prop_assert!(why.contains(": worst case 2^") && why.contains(" exceeds the "), "{}", why);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every calibrated model, pinned bit for bit.
// ---------------------------------------------------------------------

/// The models of `runtime_parallel`'s suite (`common/zoo.rs`) — its walk
/// zoo over (RI4, fH), and the HD30 DnERNet and SR4ERNet over the real
/// field, RI2/RI4/RI8 with `fH` and (RH4, fcw), every all-zero conv
/// seeded as there — and a chain with `fH` behind a skip.
fn calibration_suite() -> Vec<(String, Sequential)> {
    let ri4 = Algebra::ri_fh(4);
    let mut models: Vec<_> = walk_zoo()
        .into_iter()
        .map(|(name, model)| (format!("zoo/{name}"), model))
        .collect();
    // A skip body that ends in a conv, `fH` behind the skip: that conv
    // requantizes, the `fH` is not in its chain.
    let body = Sequential::new()
        .with(ri4.conv(8, 8, 3, 4))
        .with_opt(ri4.activation())
        .with(ri4.conv(8, 8, 3, 5));
    let crafted = Sequential::new()
        .with(ri4.conv(1, 8, 3, 3))
        .with(Box::new(Residual::new(body)))
        .with_opt(ri4.activation())
        .with(ri4.conv(8, 1, 3, 6));
    models.push(("crafted/fh_behind_a_skip".into(), crafted));
    models.extend(hd30_models());
    models.iter_mut().for_each(|(_, m)| fill_zero_convs(m));
    models
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// One row of `CALIBRATED_GOLDEN` as it is written.
fn golden_row(name: &str, hashes: [u64; 4]) -> String {
    let hashes = hashes.map(|h| format!("{h:#018x}")).join(", ");
    format!("    ({name:?}, [{hashes}]),\n")
}

/// Every model of the suite, calibrated on one fixed frame in each mode
/// combination, serializes to the bytes it did when calibration walked
/// the float chain itself, on either kernel tier: the FNV-1a of its JSON
/// (or of its error) in `CALIBRATED_GOLDEN`.
#[test]
fn every_calibrated_model_is_pinned_bit_for_bit() {
    let frame = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 92);
    let mut seen = Vec::new();
    for (name, mut model) in calibration_suite() {
        let mut hashes = mode_combinations().map(|opts| {
            match QuantizedModel::try_quantize(&mut model, &frame, opts) {
                Ok(qm) => fnv(serde_json::to_string(&qm).expect("serializes").as_bytes()),
                Err(e) => fnv(e.to_string().as_bytes()),
            }
        });
        let hashes = [(); 4].map(|()| hashes.next().expect("four modes"));
        seen.push(golden_row(&name, hashes));
    }
    let golden = CALIBRATED_GOLDEN.iter().map(|(n, h)| golden_row(n, *h));
    assert!(
        seen.iter().cloned().eq(golden),
        "calibrations moved; this tree computes:\n{}",
        seen.concat()
    );
}

/// How many arrays and objects nest in `v`.
fn nesting(v: &serde::Value) -> usize {
    let inner = |items: &mut dyn Iterator<Item = &serde::Value>| items.map(nesting).max();
    match v {
        serde::Value::Array(items) => 1 + inner(&mut items.iter()).unwrap_or(0),
        serde::Value::Object(pairs) => 1 + inner(&mut pairs.iter().map(|(_, v)| v)).unwrap_or(0),
        _ => 0,
    }
}

/// The qmodel file of every model of the suite loads back whole. The
/// deepest, each SR4ERNet with its bicubic skip, nests 16 levels: the
/// parser's limit of 64 leaves a margin of 48.
#[test]
fn every_suite_qmodel_file_loads_within_the_nesting_limit() {
    let frame = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 92);
    let mut deepest = (0, String::new());
    for (name, mut model) in calibration_suite() {
        let Ok(qm) = QuantizedModel::try_quantize(&mut model, &frame, QuantOptions::default())
        else {
            continue;
        };
        let file = export_qmodel(&name, "suite", "alg", 1, 30.0, qm).expect("exports");
        let json = qmodel_to_json(&file);
        assert_eq!(qmodel_from_json(&json).expect("loads"), file, "{name}");
        let depth = nesting(&serde_json::from_str(&json).expect("parses"));
        deepest = deepest.max((depth, name));
    }
    assert_eq!(deepest.0, 16, "{}", deepest.1);
}

/// `(model, JSON hashes in the order of `mode_combinations`)`.
#[rustfmt::skip]
const CALIBRATED_GOLDEN: [(&str, [u64; 4]); 17] = [
    ("zoo/vdsr", [0xf5c3495de6ca1557, 0x1681b3f5e09ed6d5, 0xd50844c33ea8226c, 0xddc286a63d7cdb0e]),
    ("zoo/ffdnet", [0x165cf9931c5641ff, 0x2713ee8ef90acc89, 0x55a3bec58a2930f9, 0x46cbe591e67d05df]),
    ("zoo/dn_ernet", [0x4c0f91a8df4b36d2, 0xfc744caa7c37fbab, 0x90a5b6bd0013cc3f, 0xd4acf209b381e21e]),
    ("zoo/sr4_ernet", [0xd135eb4cf155ae93, 0x608eb1b9856bffee, 0x67e0d39cd215db6a, 0x089ac42106b9c181]),
    ("zoo/srresnet", [0xb717fd2a859bfcb8, 0xa64c45578e2bcbbb, 0xa9a851382697e1ab, 0x73f1a45ee70d5718]),
    ("zoo/sr4_bicubic_skip", [0x592350ff0b876cad, 0x0a00e0f37e3ac1c7, 0x1e5d5a2009ef50f7, 0x9e5c6354097bf711]),
    ("crafted/fh_behind_a_skip", [0x0d6d474775d04d6f, 0xd826c1f4dc0f06f9, 0xae7fe2eed70d795f, 0x350da47dd3da633d]),
    ("hd30/dn/(R (real), fcw)", [0x270d1eca965a3b3e, 0x4cfdbf2d4d1261b1, 0x944800a1176d864d, 0x380fa2f2ce035180]),
    ("hd30/sr4/(R (real), fcw)", [0xf824ced9b319976a, 0xf9fd16a49b67bae5, 0xbcbdb2d7f1522e11, 0xbb5dfc53a507269c]),
    ("hd30/dn/(RI2, fH)", [0xb52a20f61ae995f4, 0xd5049b8e62538106, 0x8595dd8d5f2fe4c0, 0xe093467dede4f67e]),
    ("hd30/sr4/(RI2, fH)", [0x92f79d982e83a8ac, 0x129c5ee392576717, 0x3210e0daca339bde, 0xbe00eabfbb4da7ff]),
    ("hd30/dn/(RI4, fH)", [0x9aec747dfe78fe2a, 0x51e42260bf5bb3d1, 0x6d9ce34c3b5eb8d9, 0xd4395ab304cb7e08]),
    ("hd30/sr4/(RI4, fH)", [0x639d1b8189eefe71, 0x323300e9d83861cf, 0x3f38f1e0004ceb63, 0x301c6ea951c8de81]),
    ("hd30/dn/(RI8, fH)", [0xc45d9b348821f9e6, 0x0877aef5986292e6, 0x62331e330841c548, 0x45484afc2f7ff5b6]),
    ("hd30/sr4/(RI8, fH)", [0x005a0d8e59d408c2, 0x23042fc86ed08fc8, 0xde37fbcddf860750, 0xc8bdf47aa79d1a12]),
    ("hd30/dn/(RH4, fcw)", [0x32a6afa64ce1ebbe, 0x1afb3c6a17d92075, 0xd1e9a5f83ffe6fcd, 0x0584ff6cc3d7724c]),
    ("hd30/sr4/(RH4, fcw)", [0x8a61866809d5a8ff, 0x0d81dd7eef32aa73, 0xaaf446e4f30aed36, 0x60d46c6afeb846b2]),
];
