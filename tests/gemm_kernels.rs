//! Acceptance suite for the one streaming conv engine behind both conv
//! precisions, over one table of conv shapes ([`CASES`]). For every case
//! and each kernel tier — scalar-blocked, AVX2 — the streaming conv
//! (im2col packed per column chunk, outputs written in place) equals
//! the pre-packed GEMM over the whole-plane panel pack **bit for bit**
//! in both dtypes, and each agrees with the oracle of its dtype within
//! the documented contract: the f32 tiers within `1e-4` of the naive
//! `conv2d_forward` (and > 100 dB PSNR on whole model-zoo forwards), the
//! i64 tiers **bit-exactly** with the matrix-level reference loop,
//! including the fused requant epilogue's saturation rails,
//! pruned/zero-weight rows and operands beyond the AVX2 tile's i32
//! range; the i32 tiers **bit-exactly** with the i64 product wherever
//! the accumulators fit the lane (every row of the table without a wide
//! operand), through the 16-bit multiplies of their AVX2 tile.
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
use ringcnn_tensor::gemm::{
    self, active_kernel, gemm_f32_packed, gemm_i32_packed, gemm_i64_packed, validate_env_kernel,
    NR_F32, NR_I32, NR_I64,
};
use ringcnn_tensor::im2col::{
    conv_streaming_f32, conv_streaming_i32, conv_streaming_i64, im2col_pack_panels_window,
    ConvInput,
};
use ringcnn_tensor::prelude::{
    conv2d_forward, conv2d_forward_im2col, forced_kernel_scope, im2col_pack_window, ConvWeights,
    KernelBackend, PackedWeights, RequantChannel, RequantPlan, Window,
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

/// i64 only: one operand beyond the AVX2 tile's i32 range.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Wide {
    No,
    /// One weight at `2^40`.
    Weight,
    /// One activation at `2^33 + 1`.
    Activation,
}

/// One row of the kernel table: a conv-shaped product `co × (ci·k²)`
/// by `(ci·k²) × plane` per batch item, where the plane is the whole
/// `h × w` image or a window of it.
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
    wide: Wide,
    /// `(y0, x0, h, w)` of the window convolved; `None` = the image.
    win: Option<(isize, isize, usize, usize)>,
}

#[rustfmt::skip]
const CASES: [Case; 23] = {
    use {Requant as R, Zeros as Z};
    /// `shape` is `[co, ci, k, h, w, batch]`.
    const fn case(shape: [usize; 6], zeros: Zeros, bias: bool, requant: Requant, wide: Wide) -> Case {
        let [co, ci, k, h, w, batch] = shape;
        Case { co, ci, k, h, w, batch, zeros, bias, requant, wide, win: None }
    }
    /// A window of a 9×7 two-item batch (the window list of the tensor
    /// crate's `fused_panel_pack_matches_row_major_pack`).
    const fn halo(k: usize, win: (isize, isize, usize, usize)) -> Case {
        Case { win: Some(win), ..case([4, 3, k, 9, 7, 2], Z::Pruned, true, R::Narrow, Wide::No) }
    }
    [
        // k = 1/3/5; the smallest product there is (plane < NR).
        case([1, 1, 1, 1, 1, 1], Z::Pruned, true, R::None, Wide::No),
        case([4, 3, 3, 6, 6, 1], Z::Pruned, true, R::Narrow, Wide::No),
        case([3, 2, 5, 7, 4, 2], Z::Pruned, true, R::None, Wide::No),
        case([3, 2, 3, 2, 3, 1], Z::Pruned, true, R::Narrow, Wide::No),
        // Non-square maps whose plane is no multiple of either NR, `co`
        // no multiple of MR, more than one column chunk (plane > 128)
        // with the chunk boundary mid image row.
        case([5, 3, 3, 5, 7, 2], Z::Pruned, true, R::Narrow, Wide::No),
        case([7, 2, 3, 19, 9, 1], Z::Pruned, false, R::Rails, Wide::No),
        case([6, 1, 1, 3, 67, 1], Z::Pruned, true, R::None, Wide::No),
        // The benchmark's largest tile: 242 chunks of 128 in rows of 176.
        case([4, 2, 3, 176, 176, 1], Z::Diagonal(2), true, R::Narrow, Wide::No),
        // Kernel wider than the map: taps entirely out of frame.
        case([2, 2, 5, 2, 1, 1], Z::Pruned, false, R::None, Wide::No),
        // All-zero weights, with and without a bias to carry through.
        case([5, 2, 3, 4, 5, 1], Z::All, true, R::Narrow, Wide::No),
        case([2, 1, 1, 3, 3, 1], Z::All, false, R::None, Wide::No),
        // Diagonal-ring patterns: n = 2 and n = 4 residue classes.
        case([8, 8, 3, 6, 5, 1], Z::Diagonal(4), true, R::Rails, Wide::No),
        case([6, 4, 1, 9, 4, 2], Z::Diagonal(2), false, R::Narrow, Wide::No),
        // Operands wider than i32 must route off the AVX2 tile.
        case([5, 2, 3, 5, 4, 1], Z::Pruned, true, R::Rails, Wide::Weight),
        case([5, 2, 3, 5, 4, 1], Z::Pruned, true, R::Rails, Wide::Activation),
        // Halo windows: interior, over each image corner, a superset of
        // the image, entirely out of frame.
        halo(3, (2, 1, 4, 5)),
        halo(3, (-2, -1, 6, 5)),
        halo(5, (-2, 3, 6, 6)),
        halo(3, (5, -1, 6, 5)),
        halo(3, (5, 3, 6, 6)),
        halo(1, (-1, -1, 11, 9)),
        halo(3, (9, 7, 3, 3)),
        // A window of several chunks hanging over the top-right corner.
        Case { win: Some((-3, 30, 20, 17)), ..case([5, 2, 3, 40, 40, 1], Z::Pruned, true, R::Rails, Wide::No) },
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

    fn window(&self) -> Window {
        match self.win {
            Some((y0, x0, h, w)) => Window::new(y0, x0, h, w),
            None => Window::full(self.h, self.w),
        }
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

    /// The whole-plane panel-major patch matrix of item `n`'s window,
    /// packed into a NaN-filled buffer.
    fn panels(&self, x: &Tensor, n: usize, nr: usize) -> Vec<f32> {
        let win = self.window();
        let rows = self.ci * self.k * self.k;
        let mut bp = vec![f32::NAN; (win.h * win.w).div_ceil(nr) * rows * nr];
        im2col_pack_panels_window(x, n, self.k, win, nr, &mut bp);
        bp
    }
}

/// Fixed-point image of a float operand: 10 fractional bits.
fn to_fixed(values: &[f32]) -> Vec<i64> {
    values.iter().map(|v| (v * 1024.0).round() as i64).collect()
}

fn fits_i32(values: &[i64]) -> bool {
    values.iter().all(|v| i32::try_from(*v).is_ok())
}

/// The f32 half of the table against its oracle: the production im2col
/// path (weights planned per call, streaming conv) under each forced
/// tier stays within 1e-4 of the naive `conv2d_forward` on the same
/// tile.
#[test]
fn f32_gemm_matches_naive_under_every_forced_backend() {
    for case in CASES {
        let (w, bias) = (case.weights(), case.bias());
        let x = case.input();
        for n in 0..case.batch {
            let tile = x.extract_window(n, case.window());
            let naive = conv2d_forward(&tile, &w, &bias);
            for tier in TIERS {
                let y = forced_kernel_scope(tier, || conv2d_forward_im2col(&tile, &w, &bias));
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
}

/// Streaming ≡ whole-plane, f32: for every case and tier the streaming
/// conv — reading the window straight from the parent tensor, packing
/// per column chunk, writing in place — equals `gemm_f32_packed` over
/// `im2col_pack_panels_window` **bit for bit** (same plan, same tiles,
/// same accumulation chain; only where B lives differs).
#[test]
fn f32_streaming_conv_equals_the_prepacked_gemm_bit_for_bit() {
    for case in CASES {
        let (w, bias) = (case.weights(), case.bias());
        let x = case.input();
        let win = case.window();
        let (rows, plane) = (case.ci * case.k * case.k, win.h * win.w);
        let plan = w.packed();
        for n in 0..case.batch {
            let bp = case.panels(&x, n, NR_F32);
            for tier in TIERS {
                let whole = forced_kernel_scope(tier, || {
                    gemm_f32_packed(&bp, plane, rows, case.co, &w.data, &bias)
                });
                let mut streamed = vec![f32::NAN; case.co * plane];
                forced_kernel_scope(tier, || {
                    conv_streaming_f32(&x.conv_input(n, win), case.k, &plan, &bias, &mut streamed);
                });
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&streamed),
                    bits(&whole.concat()),
                    "{} tile, item {n} ({case:?})",
                    tier.label()
                );
            }
        }
    }
}

/// The i64 half of the table: the streaming conv and the pre-packed
/// GEMM, each with the requant epilogue fused in, are **bit-identical**
/// under each forced tier to the matrix-level reference loop followed
/// by the unfused per-channel requantization — zero rows, saturation
/// rails and i32-overflowing operands on either side (the AVX2
/// exactness gate: the weight half decided in the plan, the activation
/// half on the unpacked input) included.
#[test]
fn i64_gemm_rails_and_wide_operands_are_bit_exact() {
    // A float no input reaches (inputs lie in [-2, 2)), marking the
    // pixel whose fixed-point image becomes the wide activation.
    const MARK: f32 = 3.0;
    for case in CASES {
        let mut x = case.input();
        if case.wide == Wide::Activation {
            x.as_mut_slice()[0] = MARK;
        }
        // Every copy of the marked pixel (one per tap that reads it)
        // becomes 2^33 + 1, which no f32 image could carry.
        let widen = |mut q: Vec<i64>| {
            for v in q.iter_mut().filter(|v| **v == to_fixed(&[MARK])[0]) {
                *v = (1 << 33) + 1;
            }
            q
        };
        let win = case.window();
        let mut weights = to_fixed(&case.weights().data);
        if case.wide == Wide::Weight {
            weights[case.ci * case.k * case.k + 1] = 1 << 40;
        }
        // Accumulators carry 20 fractional bits (10 + 10).
        let bias: Vec<i64> = to_fixed(&case.bias()).iter().map(|b| b << 10).collect();
        let requant = case.requant_plan();
        let (rows, plane) = (case.ci * case.k * case.k, win.h * win.w);
        let plan = PackedWeights::<i64>::new(case.co, rows, &weights);
        let item = case.ci * case.h * case.w;
        for n in 0..case.batch {
            let xq = widen(to_fixed(&x.as_slice()[n * item..(n + 1) * item]));
            let col = widen(to_fixed(&im2col_pack_window(&x, n, case.k, win)));
            let bp = widen(to_fixed(&case.panels(&x, n, NR_I64)));
            assert_eq!(case.wide == Wide::Activation, !fits_i32(&bp), "{case:?}");
            let mut want = gemm::reference(&col, plane, rows, case.co, &weights, &bias);
            if let Some(requant) = &requant {
                for (p, ch) in want.iter_mut().zip(&requant.channels) {
                    p.iter_mut().for_each(|v| *v = ch.apply(*v));
                }
            }
            for tier in TIERS {
                let whole = forced_kernel_scope(tier, || {
                    let fits = fits_i32(&bp);
                    let (co, rq) = (case.co, requant.as_ref());
                    gemm_i64_packed(&bp, plane, rows, co, &weights, &bias, rq, fits)
                });
                assert_eq!(whole, want, "{} tile, item {n} ({case:?})", tier.label());
                let mut streamed = vec![i64::MIN; case.co * plane];
                forced_kernel_scope(tier, || {
                    let input = ConvInput::new(&xq, case.ci, case.h, case.w, win);
                    let rq = requant.as_ref();
                    conv_streaming_i64(&input, case.k, &plan, &bias, (rq, None), &mut streamed);
                });
                assert_eq!(
                    streamed,
                    want.concat(),
                    "{} tile streamed, item {n} ({case:?})",
                    tier.label()
                );
            }
            if let (Requant::Rails, Zeros::Pruned, Some(plan)) =
                (case.requant, case.zeros, &requant)
            {
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

/// `values` in a narrower integer type that holds every one of them.
fn narrowed<T: TryFrom<i64>>(values: &[i64]) -> Vec<T> {
    let narrow = values.iter().map(|v| T::try_from(*v).ok().expect("fits"));
    narrow.collect()
}

fn to_i32(values: &[i64]) -> Vec<i32> {
    narrowed(values)
}

/// The i32 half of the table: on every row without a wide operand the
/// accumulators stay far inside the lane (10-bit operands, at most 50
/// non-zero rows), so the i32 product over `i16` panels and weight packs
/// — pre-packed, and streamed from `i32` planes the chunk packer
/// narrows as it copies; raw and through the fused requant epilogue,
/// under each forced tier — is the i64 product integer for integer.
/// `Requant::Rails` shifts channel 1 left by 30: it saturates at the
/// lane's rails instead of `i64`'s and lands on the same 16-bit rail.
#[test]
fn i32_gemm_equals_the_i64_product_on_every_narrow_row() {
    for case in CASES.iter().filter(|c| c.wide == Wide::No) {
        let x = case.input();
        let win = case.window();
        let weights = to_fixed(&case.weights().data);
        let bias: Vec<i64> = to_fixed(&case.bias()).iter().map(|b| b << 10).collect();
        let (rows, plane) = (case.ci * case.k * case.k, win.h * win.w);
        let (w16, bias32) = (narrowed::<i16>(&weights), to_i32(&bias));
        let plan = PackedWeights::<i16>::new(case.co, rows, &w16);
        let item = case.ci * case.h * case.w;
        for n in 0..case.batch {
            let xq = to_i32(&to_fixed(&x.as_slice()[n * item..(n + 1) * item]));
            let col = to_fixed(&im2col_pack_window(&x, n, case.k, win));
            let bp: Vec<i16> = narrowed(&to_fixed(&case.panels(&x, n, NR_I32)));
            let raw = gemm::reference(&col, plane, rows, case.co, &weights, &bias);
            for requant in [None, case.requant_plan()] {
                let mut want = raw.clone();
                if let Some(requant) = &requant {
                    for (p, ch) in want.iter_mut().zip(&requant.channels) {
                        p.iter_mut().for_each(|v| *v = ch.apply(*v));
                    }
                }
                let want = to_i32(&want.concat());
                for tier in TIERS {
                    let what = format!("{} tile, item {n} ({case:?})", tier.label());
                    let rq = requant.as_ref();
                    let whole = forced_kernel_scope(tier, || {
                        gemm_i32_packed(&bp, plane, rows, case.co, &w16, &bias32, rq)
                    });
                    assert_eq!(whole.concat(), want, "{what}");
                    let mut streamed = vec![i32::MIN; case.co * plane];
                    forced_kernel_scope(tier, || {
                        let input = ConvInput::new(&xq, case.ci, case.h, case.w, win);
                        conv_streaming_i32(
                            &input,
                            case.k,
                            &plan,
                            &bias32,
                            (rq, None),
                            &mut streamed,
                        );
                    });
                    assert_eq!(streamed, want, "{what}, streamed");
                }
            }
        }
    }
}

/// The AVX2 i32 tile takes a block's non-zero rows two at a time — the
/// two rows' columns interleaved in register, their weights side by side
/// in the plan: one row (a lone odd row paired with a zero weight), an
/// odd and an even count must each be the row-axpy reference — with a
/// different weight on every row and column values of both signs up to
/// the 16-bit rail, so a pair put together the wrong way round (row `r1`
/// against the weight half of `r0`) cannot pass. And an operand at
/// −32768 is outside what the 16-bit multiplier is given: it runs on the
/// scalar tile, exactly.
#[test]
fn i32_row_pairs_odd_rows_and_the_sixteen_bit_rail_are_exact() {
    let (co, plane) = (5usize, 37usize);
    // Knuth's MMIX generator, its top bits mapped into `[-max, max]`.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |max: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64 % (2 * max + 1) - max
    };
    for (rows, rail) in [(1, 32767), (3, 32767), (4, 32767), (2, -32768), (7, -32767)] {
        // Small weights around one at the rail, columns of the full
        // 16-bit range: every accumulator stays below 2^31.
        let mut weights: Vec<i64> = (0..co * rows).map(|_| draw(200)).collect();
        weights[0] = rail;
        let mut col: Vec<i64> = (0..rows * plane).map(|_| draw(32767)).collect();
        (col[0], col[1]) = (32767, -32767);
        let bias: Vec<i64> = (0..co as i64).map(|c| c * 1000 - 7).collect();
        // [panel][row][NR_I32] of the row-major `col`, tail zero-padded.
        let mut bp = vec![0i64; plane.div_ceil(NR_I32) * rows * NR_I32];
        for (i, v) in col.iter().enumerate() {
            let (r, j) = (i / plane, i % plane);
            bp[(j / NR_I32 * rows + r) * NR_I32 + j % NR_I32] = *v;
        }
        let want = to_i32(&gemm::reference(&col, plane, rows, co, &weights, &bias).concat());
        let fits = |v: &[i64]| v.iter().all(|v| v.abs() <= 32767);
        assert_eq!(fits(&weights) && fits(&col), rail != -32768);
        for tier in TIERS {
            let before = gemm::profile::snapshot();
            let got = forced_kernel_scope(tier, || {
                let (w, bp) = (narrowed::<i16>(&weights), narrowed::<i16>(&bp));
                gemm_i32_packed(&bp, plane, rows, co, &w, &to_i32(&bias), None)
            });
            assert_eq!(got.concat(), want, "{rows} rows, {} tile", tier.label());
            if rail == -32768 {
                // (Growth, not a count: other tests dispatch meanwhile.)
                let d = gemm::profile::snapshot().delta_since(&before);
                assert!(d.dispatched(KernelBackend::Scalar) >= 1);
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
