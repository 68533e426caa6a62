//! Acceptance suite for the one cache-blocked GEMM driver behind both
//! conv precisions: each kernel tier — scalar-blocked, AVX2 — must agree
//! with the oracle of its dtype within the documented contract over one
//! table of product shapes ([`CASES`]): the f32 tiers within `1e-4` of
//! the naive `conv2d_forward` (and > 100 dB PSNR on whole model-zoo
//! forwards), the i64 tiers **bit-exactly** with the matrix-level
//! reference loop, including the fused requant epilogue's saturation
//! rails, pruned/zero-weight rows and operands beyond the AVX2 tile's
//! i32 range.
//!
//! Thread-pool sizes 1 and 4 are exercised by the CI `thread-sanity`
//! matrix (`RINGCNN_THREADS`); the `RINGCNN_KERNEL=scalar` and
//! `RINGCNN_KERNEL=avx2` CI legs re-run this suite with the tier pinned
//! from the environment, and [`a_pinned_kernel_is_the_kernel_that_runs`]
//! makes a runner that cannot honour the pin fail instead of quietly
//! testing the other tier twice.

use ringcnn::prelude::*;
use ringcnn::quant::quantized::{execute_layer, run_conv_reference};
use ringcnn_nn::models::ffdnet::ffdnet;
use ringcnn_nn::models::srresnet::{srresnet, SrResNetConfig};
use ringcnn_nn::models::vdsr::vdsr;
use ringcnn_tensor::gemm::{self, active_kernel, validate_env_kernel};
use ringcnn_tensor::im2col::im2col_pack_i64;
use ringcnn_tensor::prelude::{
    conv2d_forward, conv2d_forward_im2col, forced_kernel_scope, gemm_i64, ConvWeights,
    KernelBackend, RequantChannel, RequantPlan,
};

/// Both kernel tiers (a forced `Avx2` degrades to `Scalar` on a host
/// without it, so forcing is always safe).
const TIERS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

/// Where a case's weight matrix is zero.
#[derive(Clone, Copy, Debug)]
enum Zeros {
    /// Every fifth tap, plus output channel 0 pruned to an all-zero row:
    /// both zero-skip granularities (single tap, whole row of a block).
    Pruned,
    /// The expansion of a diagonal ring `RI_n`: output channel `co`
    /// reads only input channels `≡ co (mod n)`, so the similarity
    /// order has `n` patterns to group.
    Diagonal(usize),
    /// Nothing but zeros.
    All,
}

/// The i64 epilogue of a case.
#[derive(Clone, Copy, Debug)]
enum Requant {
    /// Raw wide accumulators.
    None,
    /// Every channel shifts right into 8 bits (mixed per-channel fracs).
    Narrow,
    /// Channel 1 shifts *left* by 30 past 16-bit rails (must pin at
    /// `qmin`/`qmax`, never wrap); the rest shift right by 4.
    Rails,
}

/// One row of the kernel table: a conv-shaped product `co × (ci·k²)`
/// by `(ci·k²) × (h·w)` per batch item.
#[derive(Clone, Copy, Debug)]
struct Case {
    co: usize,
    ci: usize,
    k: usize,
    h: usize,
    w: usize,
    batch: usize,
    zeros: Zeros,
    bias: bool,
    requant: Requant,
    /// i64 only: one weight at `2^40`, beyond the AVX2 tile's i32 range.
    wide: bool,
}

#[rustfmt::skip]
const CASES: [Case; 12] = {
    use {Requant as R, Zeros as Z};
    /// `shape` is `[co, ci, k, h, w, batch]`.
    const fn case(shape: [usize; 6], zeros: Zeros, bias: bool, requant: Requant, wide: bool) -> Case {
        let [co, ci, k, h, w, batch] = shape;
        Case { co, ci, k, h, w, batch, zeros, bias, requant, wide }
    }
    [
        // k = 1/3/5; the smallest product there is.
        case([1, 1, 1, 1, 1, 1], Z::Pruned, true, R::None, false),
        case([4, 3, 3, 6, 6, 1], Z::Pruned, true, R::Narrow, false),
        case([3, 2, 5, 7, 4, 2], Z::Pruned, true, R::None, false),
        // Non-square maps whose plane is no multiple of either NR, `co`
        // no multiple of MR, more than one column chunk (plane > 128).
        case([5, 3, 3, 5, 7, 2], Z::Pruned, true, R::Narrow, false),
        case([7, 2, 3, 19, 9, 1], Z::Pruned, false, R::Rails, false),
        case([6, 1, 1, 3, 67, 1], Z::Pruned, true, R::None, false),
        // Kernel wider than the map: taps entirely out of frame.
        case([2, 2, 5, 2, 1, 1], Z::Pruned, false, R::None, false),
        // All-zero weights, with and without a bias to carry through.
        case([5, 2, 3, 4, 5, 1], Z::All, true, R::Narrow, false),
        case([2, 1, 1, 3, 3, 1], Z::All, false, R::None, false),
        // Diagonal-ring patterns: n = 2 and n = 4 residue classes.
        case([8, 8, 3, 6, 5, 1], Z::Diagonal(4), true, R::Rails, false),
        case([6, 4, 1, 9, 4, 2], Z::Diagonal(2), false, R::Narrow, false),
        // Operands wider than i32 must route off the AVX2 tile.
        case([5, 2, 3, 5, 4, 1], Z::Pruned, true, R::Rails, true),
    ]
};

impl Case {
    fn input(&self) -> Tensor {
        Tensor::random_uniform(
            Shape4::new(self.batch, self.ci, self.h, self.w),
            -2.0,
            2.0,
            (self.co * 131 + self.h * 17 + self.w) as u64,
        )
    }

    fn weights(&self) -> ConvWeights {
        let (co, ci, k) = (self.co, self.ci, self.k);
        let mut w = ConvWeights::zeros(co, ci, k);
        let rnd = Tensor::random_uniform(Shape4::new(1, 1, 1, w.len()), -1.0, 1.0, 0x9e37);
        w.data.copy_from_slice(rnd.as_slice());
        let taps = k * k;
        for (i, v) in w.data.iter_mut().enumerate() {
            let (o, c) = (i / (ci * taps), i / taps % ci);
            let zero = match self.zeros {
                Zeros::Pruned => i % 5 == 0 || o == 0,
                Zeros::Diagonal(n) => c % n != o % n,
                Zeros::All => true,
            };
            if zero {
                *v = 0.0;
            }
        }
        w
    }

    fn bias(&self) -> Vec<f32> {
        let n = if self.bias { self.co } else { 0 };
        (0..n).map(|i| 0.05 * i as f32 - 0.1).collect()
    }

    fn requant_plan(&self) -> Option<RequantPlan> {
        let channel = |c: usize| match self.requant {
            Requant::None => None,
            Requant::Narrow => Some((7 - (c as i32 % 3), 8)),
            Requant::Rails => Some((if c == 1 { 50 } else { 16 }, 16)),
        };
        let channels: Option<Vec<_>> = (0..self.co)
            .map(|c| {
                channel(c).map(|(to_frac, bits)| RequantChannel {
                    from_frac: 20,
                    to_frac,
                    qmin: -(1 << (bits - 1)),
                    qmax: (1 << (bits - 1)) - 1,
                })
            })
            .collect();
        channels.map(|channels| RequantPlan { channels })
    }
}

/// Fixed-point image of a float operand: 10 fractional bits.
fn to_fixed(values: &[f32]) -> Vec<i64> {
    values.iter().map(|v| (v * 1024.0).round() as i64).collect()
}

/// The f32 half of the table: the production im2col path (fused panel
/// pack + blocked driver) under each forced tier stays within 1e-4 of
/// the naive `conv2d_forward`.
#[test]
fn f32_gemm_matches_naive_under_every_forced_backend() {
    for case in CASES {
        let (x, w, bias) = (case.input(), case.weights(), case.bias());
        let naive = conv2d_forward(&x, &w, &bias);
        for tier in TIERS {
            let y = forced_kernel_scope(tier, || conv2d_forward_im2col(&x, &w, &bias));
            assert_eq!(y.shape(), naive.shape(), "{case:?}");
            for (i, (p, q)) in naive.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert!(
                    (p - q).abs() <= 1e-4,
                    "{} tile deviates at {i}: {p} vs {q} ({case:?})",
                    tier.label()
                );
            }
        }
    }
}

/// The i64 half of the table: the blocked driver with the requant
/// epilogue fused in is **bit-identical**, under each forced tier, to
/// the matrix-level reference loop followed by the unfused per-channel
/// requantization — zero rows, saturation rails and i32-overflowing
/// operands (the AVX2 exactness gate) included.
#[test]
fn i64_gemm_rails_and_wide_operands_are_bit_exact() {
    for case in CASES {
        let x = case.input();
        let xq = to_fixed(x.as_slice());
        let mut weights = to_fixed(&case.weights().data);
        if case.wide {
            weights[case.ci * case.k * case.k + 1] = 1 << 40;
        }
        // Accumulators carry 20 fractional bits (10 + 10).
        let bias: Vec<i64> = to_fixed(&case.bias()).iter().map(|b| b << 10).collect();
        let plan = case.requant_plan();
        let (rows, plane) = (case.ci * case.k * case.k, case.h * case.w);
        for n in 0..case.batch {
            let col = im2col_pack_i64(&xq, x.shape(), n, case.k);
            let mut want = gemm::reference(&col, plane, rows, case.co, &weights, &bias);
            if let Some(plan) = &plan {
                for (p, ch) in want.iter_mut().zip(&plan.channels) {
                    p.iter_mut().for_each(|v| *v = ch.apply(*v));
                }
            }
            for tier in TIERS {
                let got = forced_kernel_scope(tier, || {
                    gemm_i64(&col, plane, rows, case.co, &weights, &bias, plan.as_ref())
                });
                assert_eq!(got, want, "{} tile, item {n} ({case:?})", tier.label());
            }
            if let (Requant::Rails, Zeros::Pruned, Some(plan)) = (case.requant, case.zeros, &plan) {
                // The table does what it says: the left-shifting channel
                // sits on the rails (a zero accumulator stays zero), and
                // the pruned channel 0 is its requantized bias everywhere.
                let ch = plan.channels[1];
                let on_rail = |v: &i64| *v == ch.qmin || *v == ch.qmax;
                assert!(want[1].iter().all(|v| on_rail(v) || *v == 0), "{case:?}");
                assert!(want[1].iter().any(on_rail), "{case:?}");
                let b0 = plan.channels[0].apply(bias.first().copied().unwrap_or(0));
                assert!(want[0].iter().all(|&v| v == b0), "{case:?}");
            }
        }
    }
}

/// CI pins a tier with `RINGCNN_KERNEL`: the pin must be honoured, not
/// downgraded — otherwise the `avx2` leg on a runner without AVX2 would
/// re-test the scalar tier and pass.
#[test]
fn a_pinned_kernel_is_the_kernel_that_runs() {
    match std::env::var("RINGCNN_KERNEL").as_deref() {
        Err(_) | Ok("" | "auto") => {}
        Ok(pinned) => {
            let tier = validate_env_kernel().expect("CI pins only tiers the runner has");
            assert_eq!(tier.map(|k| k.label()), Some(pinned));
            assert_eq!(active_kernel().label(), pinned);
        }
    }
}

/// Satellite 5b: every Table-I ring through the im2col lowering, under
/// every forced backend, stays within 1e-4 of the naive ring conv — the
/// structural zeros of the ring-expanded weight matrix are the densest
/// real source of skippable rows.
#[test]
fn table_one_rings_agree_under_every_forced_backend() {
    for kind in RingKind::table_one() {
        let ring = Ring::from_kind(kind);
        let n = ring.n();
        let mut layer = RingConv2d::new(ring, 2 * n, 2 * n, 3, 0xbeef);
        for (i, b) in layer.bias_mut().iter_mut().enumerate() {
            *b = (i % 5) as f32 * 0.07 - 0.14;
        }
        let x = Tensor::random_uniform(Shape4::new(1, 2 * n, 5, 7), -1.0, 1.0, 0xfeed);
        let naive = layer.forward(&x, false);
        layer.set_backend(ConvBackend::Im2col);
        for backend in TIERS {
            let y = forced_kernel_scope(backend, || layer.forward(&x, false));
            for (i, (a, b)) in naive.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4,
                    "{kind:?} under {} deviates at {i}: {a} vs {b}",
                    backend.label()
                );
            }
        }
    }
}

/// Satellite 5c: whole model-zoo forwards under each kernel tier sit
/// above 100 dB PSNR of the same model on the naive backend (the f32
/// oracle, `conv2d_forward`, in every conv) — layer-to-layer error
/// accumulation through deep stacks must stay at ULP scale.
#[test]
fn model_zoo_psnr_above_100_db_for_every_kernel() {
    let alg = Algebra::with_fcw(RingKind::Rh(4)).with_backend(ConvBackend::Im2col);
    let zoo: Vec<(&str, Sequential, Shape4)> = vec![
        ("vdsr", vdsr(&alg, 3, 8, 1, 51), Shape4::new(1, 1, 8, 8)),
        ("ffdnet", ffdnet(&alg, 3, 8, 1, 52), Shape4::new(1, 1, 8, 8)),
        (
            "srresnet",
            srresnet(
                &alg,
                SrResNetConfig::tiny().with_blocks(1).with_channels(8),
                1,
                53,
            ),
            Shape4::new(1, 1, 4, 4),
        ),
    ];
    for (name, mut model, shape) in zoo {
        let x = Tensor::random_uniform(shape, 0.0, 1.0, 17);
        model.set_conv_backend(ConvBackend::Naive);
        let reference = model.forward(&x, false);
        model.set_conv_backend(ConvBackend::Im2col);
        for backend in TIERS {
            let y = forced_kernel_scope(backend, || model.forward(&x, false));
            let p = psnr(&reference, &y);
            assert!(
                p > 100.0,
                "{name} under {}: PSNR vs the naive backend only {p:.1} dB",
                backend.label()
            );
        }
    }
}

/// Satellite 5d: the quantized conv pipeline — blocked i64 GEMM with the
/// requant epilogue fused in — is **bit-identical** to the unfused
/// scalar `run_conv_reference` under every forced backend, for every
/// conv the quantizer emits across the acceptance algebras (dense,
/// ring-expanded, format-aligned), with zeroed float channels carrying
/// through as pruned integer rows.
#[test]
fn quantized_convs_bit_exact_under_every_forced_backend() {
    for alg in [
        Algebra::real(),
        Algebra::ri_fh(4),
        Algebra::with_fcw(RingKind::Rh(4)),
        Algebra::with_fcw(RingKind::Rh4I),
    ] {
        let mut model = Sequential::new()
            .with(alg.conv(1, 8, 3, 31))
            .with_opt(alg.activation())
            .with(alg.conv(8, 8, 3, 32))
            .with_opt(alg.activation())
            .with(alg.conv(8, 1, 3, 33));
        // Prune the middle conv: scattered taps plus a leading quarter
        // of the (co-major) ring weights, so the quantized integer
        // weight matrix carries exact zeros — whole output channels for
        // the real field (n = 1), dense tap pruning for the rings.
        let mut seen = 0;
        model.for_each_layer_mut(&mut |l| {
            if let Some(rc) = l.as_any_mut().downcast_mut::<RingConv2d>() {
                seen += 1;
                if seen == 2 {
                    let w = rc.ring_weights_mut();
                    let quarter = w.len() / 4;
                    for v in &mut w[..quarter] {
                        *v = 0.0;
                    }
                    for i in (0..w.len()).step_by(7) {
                        w[i] = 0.0;
                    }
                }
            }
        });
        let x = Tensor::random_uniform(Shape4::new(2, 1, 11, 9), 0.0, 1.0, 27);
        let qm = QuantizedModel::quantize(&mut model, &x, QuantOptions::default());
        let mut q = QTensor::quantize(&x, vec![qm.input_format(); 1]);
        let mut convs = 0;
        for layer in qm.layers() {
            if let QLayer::Conv(c) = layer {
                let reference = run_conv_reference(c, &q);
                for backend in TIERS {
                    let fused = forced_kernel_scope(backend, || execute_layer(layer, q.clone()));
                    assert_eq!(
                        fused,
                        reference,
                        "conv {convs} over {} under {}: fused epilogue must be bit-identical",
                        alg.label(),
                        backend.label()
                    );
                }
                convs += 1;
            }
            q = execute_layer(layer, q);
        }
        assert!(convs >= 3, "{}: expected every conv checked", alg.label());
    }
}
