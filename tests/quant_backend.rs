//! The quantized-backend equivalence suite: fixed-point primitive
//! properties (exact-rational requantization, roundtrip bounds,
//! saturation edges), integer-im2col-vs-scalar bit-exactness, the
//! plane-wise element-wise stages against their per-element definitions
//! (the directional ReLU against `run_drelu_reference`), tiled quantized
//! inference, and the calibrate → export → load pipeline.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn::quant::quantized::{execute_layer, run_conv_reference, run_drelu_reference, QDRelu};
use ringcnn_nn::runtime::{BatchRunner, InferenceModel, TileConfig};
use ringcnn_tensor::gemm::RequantChannel;

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
/// accumulator-keeping convs in front of directional ReLUs).
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
        let mut q = QTensor::quantize(&x, vec![qm.input_format(); 1]);
        let mut convs = 0;
        for layer in qm.layers() {
            if let QLayer::Conv(c) = layer {
                let fast = execute_layer(layer, q.clone());
                let reference = run_conv_reference(c, &q);
                assert_eq!(fast, reference, "conv {convs} over {}", alg.label());
                convs += 1;
            }
            q = execute_layer(layer, q);
        }
        assert!(convs >= 3, "{}: expected every conv checked", alg.label());
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
    let alg = Algebra::real();
    for (mut model, name) in [
        (ringcnn_nn::models::vdsr::vdsr(&alg, 3, 8, 1, 1), "vdsr"),
        (
            ringcnn_nn::models::ffdnet::ffdnet(&alg, 3, 8, 1, 2),
            "ffdnet",
        ),
    ] {
        let calib = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 3);
        let qm = QuantizedModel::quantize(&mut model, &calib, QuantOptions::default());
        let ftopo = ringcnn_nn::runtime::model_topology(&mut model);
        assert_eq!(qm.topology(), ftopo, "{name}");
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 4);
        assert_eq!(
            InferenceModel::forward_infer(&qm, &x).as_slice(),
            qm.forward(&x).as_slice(),
            "{name}"
        );
        assert_eq!(InferenceModel::out_channels(&qm, 1), 1, "{name}");
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
/// every directional ReLU the builder emits, both execution modes.
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
            let mut q = QTensor::quantize(&x, vec![qm.input_format(); n]);
            let mut checked = 0;
            for layer in qm.layers() {
                if let QLayer::DRelu(d) = layer {
                    assert_eq!(matches!(d.mode(), DReluMode::OnTheFly), on_the_fly_drelu);
                    let fast = execute_layer(layer, q.clone());
                    assert_eq!(fast, run_drelu_reference(d, &q), "{}", alg.label());
                    checked += 1;
                }
                q = execute_layer(layer, q);
            }
            assert_eq!(checked, 2, "{}", alg.label());
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

    /// Format spreads wide enough that the alignment shifts saturate,
    /// values on the butterfly and output rails, both modes, every tuple
    /// size: the plane-wise unit and the oracle agree on every integer.
    #[test]
    fn plane_wise_drelu_matches_the_reference_at_the_rails(
        log_n in 1u32..4,
        in_fracs in proptest::collection::vec(-64i32..65, 8),
        out_fracs in proptest::collection::vec(-64i32..65, 8),
        out_bits in proptest::collection::vec(2u32..17, 8),
        mid_frac in -64i32..65,
        mid_bits in 2u32..17,
        spread in 0i32..3,
        seed in 0u64..u64::MAX,
    ) {
        let n = 1usize << log_n;
        // Narrow the input spread in two cases of three, so most shifts
        // stay exact and the rails are reached by the values instead.
        let narrow = |f: i32| if spread == 0 { f } else { f.rem_euclid(8) + 20 };
        // Two tuples per batch item, 23·29 pixels: for n = 8 that is
        // more than two blocks and a multiple of none.
        let shape = Shape4::new(2, 2 * n, 23, 29);
        let formats: Vec<QFormat> = (0..2 * n)
            .map(|c| QFormat { bits: 32, frac: narrow(in_fracs[c % 8] + (c / 8) as i32) })
            .collect();
        let q = QTensor::from_raw(shape, rail_values(n, shape.len(), seed), formats);
        let out: Vec<QFormat> = (0..n)
            .map(|l| QFormat { bits: out_bits[l], frac: narrow(out_fracs[l]) })
            .collect();
        let mid = QFormat { bits: mid_bits, frac: narrow(mid_frac) };
        for mode in [DReluMode::OnTheFly, DReluMode::MacBased { mid }] {
            let d = QDRelu::new(n, mode, out.clone());
            let want = run_drelu_reference(&d, &q);
            let got = execute_layer(&QLayer::DRelu(d), q.clone());
            prop_assert_eq!(got, want);
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
// The i32 tier ≡ the i64 tier, bit for bit.
//
// `QuantizedModel::forward` runs a model in `i32` lanes when the
// load-time proof of `prepare_inference` bounds every integer of the
// chain below 2^31 — on `i8` planes when, besides, every format that
// reaches memory has at most 8 bits, on `i32` planes otherwise — and a
// conv that keeps its accumulator runs as one engine step with the
// directional ReLU behind it, in every tier; `forward_q`/`execute_layer`
// on a `QTensor` stay the `i64` interchange tier. The table below holds
// the first to the second — whole models, tiled runs, every stage on its
// own (and the fused step) against the two `*_reference` oracles, random
// and crafted models at the proof's edge — by `to_bits`. In a debug build `i32` `+` and `*` panic on overflow, so
// the tier-1 debug run of this table is itself an overflow check of the
// proof: a bound that is too small fails here before any integer
// differs. The CI legs run it at pools 1/2/4 (`RINGCNN_THREADS`) and
// with each kernel tier pinned; the whole-model rows also force both
// tiers in-process.
// ---------------------------------------------------------------------

use ringcnn::quant::quantized::LaneProof;
use ringcnn_tensor::prelude::{forced_kernel_scope, KernelBackend};

const TIERS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

fn narrowed<S: Store + TryFrom<i64>>(q: &QTensor) -> QTensorOf<S> {
    let data = q.data().iter().map(|v| S::try_from(*v).ok().expect("fits"));
    QTensorOf::from_raw(q.shape(), data.collect(), q.formats().to_vec())
}

fn widened<S: Store + Into<i64>>(q: &QTensorOf<S>) -> QTensor {
    let data = q.data().iter().map(|v| (*v).into());
    QTensor::from_raw(q.shape(), data.collect(), q.formats().to_vec())
}

/// Whether an `i8` store holds the tensor: 8-bit formats, values inside.
fn fits_i8(q: &QTensor) -> bool {
    q.formats().iter().all(|f| f.bits <= 8) && q.data().iter().all(|v| i8::try_from(*v).is_ok())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A whole model on the `i64` interchange tier: what `forward` computed
/// when there was one lane width.
fn forward_i64(qm: &QuantizedModel, x: &Tensor) -> Tensor {
    let q = QTensor::quantize(x, vec![qm.input_format(); x.shape().c]);
    qm.forward_q(q).dequantize()
}

fn proof(qm: &QuantizedModel) -> &LaneProof {
    qm.lane_proof().expect("a prepared model")
}

/// Every `QuantOptions` mode combination at the paper's 8 bits.
fn mode_combinations() -> impl Iterator<Item = QuantOptions> {
    [(true, true), (true, false), (false, true), (false, false)]
        .into_iter()
        .map(|(on_the_fly_drelu, component_wise)| QuantOptions {
            on_the_fly_drelu,
            component_wise,
            ..QuantOptions::default()
        })
}

/// A whole model on the `i64` tier stage by stage, every conv through
/// `run_conv_reference` and every directional ReLU through
/// `run_drelu_reference` — no step fused, every accumulator stored.
fn oracle_chain(layers: &[QLayer], mut q: QTensor) -> QTensor {
    for layer in layers {
        q = match layer {
            QLayer::Conv(c) => run_conv_reference(c, &q),
            QLayer::DRelu(d) => run_drelu_reference(d, &q),
            QLayer::Residual(res) => {
                let formats = expand_formats(res.out_formats(), q.shape().c);
                oracle_chain(res.body(), q.clone()).add_saturating(&q, formats)
            }
            QLayer::UpsampleResidual(_) => panic!("no oracle walk through a bicubic skip"),
            _ => execute_layer(layer, q),
        };
    }
    q
}

/// [`oracle_chain`] from a float input to a float output; the models
/// with a bicubic skip, which it cannot walk, on the `i64` tier.
fn oracle_forward(qm: &QuantizedModel, x: &Tensor) -> Tensor {
    if matches!(qm.layers(), [QLayer::UpsampleResidual(_), ..]) {
        return forward_i64(qm, x);
    }
    let q = QTensor::quantize(x, vec![qm.input_format(); x.shape().c]);
    oracle_chain(qm.layers(), q).dequantize()
}

/// The HD30 Dn and SR4 (bicubic skip) ERNets over the real field and
/// RI2/RI4/RI8 with `fH`, in all four mode combinations: each is proven
/// into `i32` lanes over `i8` planes, and its `forward` — whole (batch 2,
/// both kernel tiers) and tiled through `BatchRunner` — is the `i64`
/// tier's output, which in turn is the stage-by-stage walk through the
/// two oracles.
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
                assert_eq!(qm.lanes(), Lanes::I32, "{what}: {:?}", proof(&qm));
                assert_eq!(
                    proof(&qm).storage(),
                    Storage::I8,
                    "{what}: {:?}",
                    proof(&qm)
                );
                let want = bits(&forward_i64(&qm, &x));
                assert_eq!(bits(&oracle_forward(&qm, &x)), want, "{what}, oracles");
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

/// The widths the proof computes against the widths `ringcnn-hw` prices:
/// for the HD30 Dn and SR4 ERNets over the real field and RI2/RI4/RI8
/// with `fH`, in all four mode combinations, every conv accumulator fits
/// the modelled engine's `ACC_BITS` and every directional-ReLU stage its
/// `ACC_BITS + log₂n + 5`-bit unit, every tensor between steps is stored
/// in 8 bits, and the largest magnitude per ring is pinned like the
/// rings' other properties (a moved pin means calibration or the proof
/// changed: the failure prints the row).
#[test]
fn the_zoo_proves_into_the_widths_the_modelled_accelerator_has() {
    use ringcnn::quant::quantized::StageKind;
    use ringcnn_hw::engine::ACC_BITS;
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
                assert_eq!((p.lanes, p.storage()), (Lanes::I32, Storage::I8), "{what}");
                assert_eq!(p.stages.iter().map(|s| s.worst).max(), Some(p.worst));
                for stage in &p.stages {
                    let bits = match stage.kind {
                        StageKind::Conv => ACC_BITS,
                        StageKind::DRelu => ACC_BITS + n.trailing_zeros() + 5,
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

/// Every generic stage instantiated at `i32` — and on an `i8` store
/// wherever the tensors on both sides of it are 8-bit —, on the layers
/// calibration emits — dense, ring-expanded and aligned convs, accumulator-keeping
/// convs in front of both directional-ReLU modes, ReLU, shuffles,
/// residual bodies and their saturating adds — each against the `i64`
/// tier of the same stage: `run_conv_reference` for a conv,
/// `run_drelu_reference` for a directional ReLU, `execute_layer` on the
/// `QTensor` for the rest.
#[test]
fn i32_stages_equal_their_i64_oracles_layer_by_layer() {
    fn visit(layers: &[QLayer], mut q: QTensor, what: &str, seen: &mut [usize; 5]) -> QTensor {
        for (i, layer) in layers.iter().enumerate() {
            let narrow = narrowed::<i32>(&q);
            let want = match layer {
                QLayer::Residual(res) => {
                    let body = visit(res.body(), q.clone(), what, seen);
                    let formats = expand_formats(res.out_formats(), q.shape().c);
                    let sum = narrowed(&body).add_saturating(&narrow, formats.clone());
                    let want = body.add_saturating(&q, formats.clone());
                    assert_eq!(widened(&sum), want, "{what}: residual add {i}");
                    // 8-bit operands whose aligned sum passes the rails:
                    // it saturates in the lane, before the store narrows.
                    assert!(fits_i8(&body) && fits_i8(&q), "{what}: residual add {i}");
                    let sum = narrowed::<i8>(&body).add_saturating(&narrowed(&q), formats);
                    assert_eq!(widened(&sum), want, "{what}: residual add {i} on i8");
                    want
                }
                QLayer::Conv(c) => run_conv_reference(c, &q),
                QLayer::DRelu(d) => run_drelu_reference(d, &q),
                _ => execute_layer(layer, q.clone()),
            };
            seen[match layer {
                QLayer::Conv(_) => 0,
                QLayer::DRelu(_) => 1,
                QLayer::Residual(_) => 2,
                _ => 3,
            }] += 1;
            let got = execute_layer(layer, narrow);
            assert_eq!(widened(&got), want, "{what}: layer {i}");
            if fits_i8(&q) && fits_i8(&want) {
                seen[4] += 1;
                let got = execute_layer(layer, narrowed::<i8>(&q));
                assert_eq!(widened(&got), want, "{what}: layer {i} on i8");
            }
            q = want;
        }
        q
    }
    let mut seen = [0; 5];
    for alg in [
        Algebra::real(),
        Algebra::ri_fh(2),
        Algebra::ri_fh(4),
        Algebra::ri_fh(8),
        Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4)),
    ] {
        let tiny = ringcnn_nn::models::ernet::ErNetConfig::tiny();
        let mut float = ringcnn_nn::models::ernet::dn_ernet_pu(&alg, tiny, 1, 9);
        let x = Tensor::random_uniform(Shape4::new(2, 1, 12, 8), -0.5, 1.5, 7);
        for opts in mode_combinations() {
            let what = format!("{} with {opts:?}", alg.label());
            let qm = QuantizedModel::quantize(&mut float, &x, opts);
            assert_eq!(qm.lanes(), Lanes::I32, "{what}: {:?}", proof(&qm));
            let q = QTensor::quantize(&x, vec![qm.input_format(); 1]);
            let out = visit(qm.layers(), q, &what, &mut seen);
            assert_eq!(bits(&qm.forward(&x)), bits(&out.dequantize()), "{what}");
        }
    }
    let [convs, drelus, adds, others, on_i8] = seen;
    assert!(
        convs > 0 && drelus > 0 && adds > 0 && others > 0 && on_i8 > convs,
        "{seen:?}"
    );
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

/// Loads the layers as a model file: validated, proven, prepared.
fn crafted(channels_io: usize, input: (u32, i32), layers: &[String]) -> QuantizedModel {
    let json = format!(
        r#"{{"format":"ringcnn-qmodel/v1","name":"m","arch":"crafted","algebra":"-","channels_io":{channels_io},"calibration_psnr":0.0,"model":{{"input_format":{},"layers":[{}],"opts":{{"weight_bits":8,"feature_bits":8,"component_wise":true,"on_the_fly_drelu":true}}}}}}"#,
        json_format(input),
        layers.join(","),
    );
    qmodel_from_json(&json)
        .expect("a valid crafted model")
        .model
}

/// Inputs from well inside to far outside a format's range, so both
/// rails of the input quantizer are reached.
fn saturating_input(shape: Shape4, input: (u32, i32), seed: u64) -> Tensor {
    let max = 2.0f32.powi(input.0 as i32 - 1 - input.1);
    Tensor::random_uniform(shape, -2.0 * max, 2.0 * max, seed)
}

/// The proof's edge, exactly: a 1×1 conv whose accumulator bound
/// `|bias| + |w|·128` is 2^31 − 1 runs in `i32` lanes — and reaches
/// `i32::MAX` without wrapping — and one more takes `i64`. The bias is
/// part of the bound: without it both models would be far inside.
#[test]
fn a_conv_bound_of_two_to_the_31_minus_one_is_i32_and_one_more_is_i64() {
    // Accumulator frac 0 + 2: a bias of `b / 4` is the integer `b`.
    let model = |bound: i64| {
        let bias = (bound - 128) as f64 / 4.0;
        let conv = json_conv((1, 1, 1), &[-1], (8, 0), &[bias], Some(&[(8, 0)]), None);
        crafted(1, (8, 2), &[conv])
    };
    let edge = model((1 << 31) - 1);
    let p = proof(&edge);
    assert_eq!((p.lanes, p.stage.as_str()), (Lanes::I32, "0 conv"));
    assert_eq!(p.worst, (1 << 31) - 1);
    // −128 · −1 + bias = i32::MAX, then the requantizer's rounding add.
    let x = Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![-1e6, 0.3, 1e6]);
    assert_eq!(bits(&edge.forward(&x)), bits(&forward_i64(&edge, &x)));
    let past = model(1 << 31);
    let p = proof(&past);
    assert_eq!((p.lanes, p.stage.as_str()), (Lanes::I64, "0 conv"));
    assert_eq!(p.worst, 1 << 31);
}

/// The second butterfly sums `n` first-butterfly outputs: two
/// accumulators of 2^29 each make S = 2^30 and n·S = 2^31, one too many
/// for `i32` — and four less is not.
#[test]
fn the_drelu_bound_grows_by_n_through_the_second_butterfly() {
    let model = |bound: i64| {
        let bias = [(bound - 128) as f64 / 4.0; 2];
        let conv = json_conv((2, 2, 1), &[1, 0, 0, -1], (8, 0), &bias, None, None);
        crafted(
            2,
            (8, 2),
            &[conv, json_drelu(2, None, &[(8, -22), (8, -22)])],
        )
    };
    let past = model(1 << 29);
    let p = proof(&past);
    assert_eq!((p.lanes, p.stage.as_str()), (Lanes::I64, "1 fH"));
    assert_eq!(p.worst, 1 << 31);
    let edge = model((1 << 29) - 1);
    let p = proof(&edge);
    assert_eq!((p.lanes, p.stage.as_str()), (Lanes::I32, "1 fH"));
    assert_eq!(p.worst, (1 << 31) - 4);
    let x = saturating_input(Shape4::new(2, 2, 5, 7), (8, 2), 3);
    assert_eq!(bits(&edge.forward(&x)), bits(&forward_i64(&edge, &x)));
}

/// What `i32` lanes cannot hold takes `i64`, with the reason on record:
/// 16-bit features against 16-bit weights (−32768 is beyond what the
/// 16-bit multiplier takes, whatever the accumulator), and a
/// component-format spread whose alignment shift alone passes 2^31.
#[test]
fn sixteen_bit_operands_and_adversarial_spreads_take_i64() {
    let conv = json_conv((1, 1, 1), &[3], (16, 0), &[0.0], Some(&[(16, 0)]), None);
    let p = proof(&crafted(1, (16, 0), &[conv])).clone();
    assert_eq!(p.lanes, Lanes::I64, "{p:?}");
    assert_eq!(p.stage, "0 conv (operands beyond 16 bits)");
    let spread = [(8, 0), (8, 40)];
    let conv = json_conv(
        (2, 2, 1),
        &[1, 0, 0, 1],
        (8, 0),
        &[0.0; 2],
        Some(&spread),
        None,
    );
    let qm = crafted(2, (8, 0), &[conv, json_drelu(2, None, &[(8, 0), (8, 0)])]);
    let p = proof(&qm);
    assert_eq!((p.lanes, p.stage.as_str()), (Lanes::I64, "1 fH"));
    assert_eq!(p.worst, 2 * ((128 << 40) + 128), "{p:?}");
}

/// `forward` in the tier the proof picked, on both kernel tiers, and the
/// fused `i64` chain (`forward_q`) against the unfused walk through the
/// two oracles; returns that walk's integers.
fn assert_equals_its_oracles(qm: &QuantizedModel, x: &Tensor, what: &str) -> QTensor {
    let q = QTensor::quantize(x, vec![qm.input_format(); x.shape().c]);
    let want = oracle_chain(qm.layers(), q.clone());
    for tier in TIERS {
        let what = format!("{what}, {} tile, {:?}", tier.label(), proof(qm));
        forced_kernel_scope(tier, || {
            assert_eq!(qm.forward_q(q.clone()), want, "{what}: i64 lanes");
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
                let p = proof(&qm);
                assert_eq!((p.lanes, p.storage()), (Lanes::I32, Storage::I8), "{p:?}");
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

/// The fused step where the lane ends. In `i32` lanes over `i8` planes:
/// accumulators of 2^29 − 1 whose butterflies reach 2^31 − 4 (the model
/// of `the_drelu_bound_grows_by_n_through_the_second_butterfly`). In
/// `i64` lanes: a component-format spread of 60 bits whose alignment
/// shift saturates at the lane's rail, so only the clamp in front of the
/// first butterfly keeps its sums inside the lane.
#[test]
fn the_fused_step_clamps_and_sums_at_the_lane_rails() {
    let bias = [((1 << 29) - 1 - 128) as f64 / 4.0; 2];
    let conv = json_conv((2, 2, 1), &[1, 0, 0, -1], (8, 0), &bias, None, None);
    let drelu = json_drelu(2, None, &[(8, -22), (8, -22)]);
    let edge = crafted(2, (8, 2), &[conv, drelu]);
    let p = proof(&edge);
    assert_eq!(
        (p.lanes, p.storage(), p.worst),
        (Lanes::I32, Storage::I8, (1 << 31) - 4)
    );
    let x = saturating_input(Shape4::new(2, 2, 5, 7), (8, 2), 3);
    let want = assert_equals_its_oracles(&edge, &x, "i32 rails");
    // Two accumulators just below 2^29 sum to just below 2^30 = 64 · 2^24.
    assert_eq!(want.data().iter().max(), Some(&64));

    let spread = [(16, 0), (16, 60)];
    let head = json_conv(
        (2, 2, 1),
        &[1, 0, 0, 1],
        (16, 0),
        &[0.0; 2],
        Some(&spread),
        None,
    );
    let kept = json_conv((2, 2, 1), &[9, 0, 0, -7], (16, 0), &[0.0; 2], None, None);
    let drelu = json_drelu(2, None, &[(16, 0), (16, 50)]);
    let wide = crafted(2, (16, 0), &[head, kept, drelu]);
    let p = proof(&wide);
    assert_eq!((p.lanes, p.storage()), (Lanes::I64, Storage::Lane), "{p:?}");
    let fh = p.stages.last().expect("the directional ReLU");
    assert!(
        fh.worst > 1 << 64,
        "the aligned bound passes the lane: {p:?}"
    );
    let x = saturating_input(Shape4::new(2, 2, 5, 7), (16, 0), 4);
    let want = assert_equals_its_oracles(&wide, &x, "i64 rails");
    // Two ReLU outputs on the clamp's rail, 2^61 each, sum to 4 · 2^60.
    assert!(want.data().contains(&4));
}

/// The storage is the model file's too: one 9-bit format anywhere — here
/// a directional ReLU's output — keeps `i32` lanes on `i32` planes, with
/// the format on record; 16-bit features against 16-bit weights take
/// `i64` lanes and planes. Both are still exact.
#[test]
fn a_nine_bit_format_takes_lane_storage_and_sixteen_bit_operands_i64() {
    let model = |feature_bits: u32, w_bits: u32| {
        let f = (feature_bits, 3);
        let weights: Vec<i64> = (0..4 * 4 * 9).map(|i| (i * 37 % 23) - 11).collect();
        let head = json_conv((4, 4, 3), &weights, (w_bits, 4), &[0.1; 4], None, None);
        let drelu = json_drelu(4, None, &[f; 4]);
        let tail = json_conv(
            (4, 4, 3),
            &weights,
            (w_bits, 4),
            &[0.2; 4],
            Some(&[(8, 1); 4]),
            None,
        );
        crafted(4, (8, 3), &[head, drelu, r#""Relu""#.into(), tail])
    };
    let x = saturating_input(Shape4::new(2, 4, 9, 15), (8, 3), 5);
    let eight = model(8, 8);
    assert_eq!(proof(&eight).storage(), Storage::I8, "{:?}", proof(&eight));
    assert_eq!(proof(&eight).wide_format, None);
    assert_equals_its_oracles(&eight, &x, "8-bit");
    let nine = model(9, 8);
    let p = proof(&nine);
    assert_eq!((p.lanes, p.storage()), (Lanes::I32, Storage::Lane), "{p:?}");
    assert_eq!(
        p.wide_format.as_deref(),
        Some("1 fH output format has 9 bits")
    );
    assert!(
        p.to_string()
            .starts_with("integer lanes i32, store i32 (1 fH"),
        "{p}"
    );
    assert_equals_its_oracles(&nine, &x, "9-bit");
    let sixteen = model(16, 16);
    let p = proof(&sixteen);
    assert_eq!((p.lanes, p.storage()), (Lanes::I64, Storage::Lane), "{p:?}");
    assert!(p.stage.ends_with("(operands beyond 16 bits)"), "{p:?}");
    assert_equals_its_oracles(&sixteen, &x, "16-bit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tables — weight and feature widths 2..=16, every format
    /// its own frac, both directional-ReLU modes, an aligned conv in a
    /// residual body, a shuffle across mixed formats: whenever the proof
    /// says `I32`, the `i32` chain computes the `i64` chain's integers
    /// (and in a debug build never overflows on the way).
    #[test]
    fn whatever_the_proof_admits_to_i32_equals_the_i64_tier(
        log_n in 1u32..3,
        w_bits in 2u32..17,
        f_bits in proptest::collection::vec(2u32..17, 12),
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
        let qm = crafted(n, input, &layers);
        if qm.lanes() == Lanes::I32 {
            let x = saturating_input(Shape4::new(2, n, 5, 7), input, seed);
            prop_assert_eq!(bits(&qm.forward(&x)), bits(&forward_i64(&qm, &x)), "{:?}", proof(&qm));
        } else {
            // Not for nothing: some stage does pass 2^31, or multiplies
            // a 16-bit rail.
            let p = proof(&qm);
            prop_assert!(p.worst >= 1 << 31 || p.stage.contains("operands"), "{:?}", p);
        }
    }
}
