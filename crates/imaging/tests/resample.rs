//! The table-driven bicubic resampler against the per-tap form it
//! replaced, kept here as the oracle: every output of `resize_bicubic`,
//! `upsample`, `upsample_window`, `downsample` and
//! `resize_bicubic_adjoint` must equal the oracle's bit for bit — grown,
//! shrunk, at non-integer ratios, from and to 1×1, with NaN and ±∞
//! samples (a NaN output as a NaN, see [`bits`]).

use ringcnn_imaging::degrade::{
    downsample, resize_bicubic, resize_bicubic_adjoint, upsample, upsample_window,
};
use ringcnn_imaging::synthetic::DatasetProfile;
use ringcnn_imaging::tasks::sr4_set;
use ringcnn_tensor::prelude::*;

mod oracle {
    use ringcnn_tensor::prelude::*;

    fn cubic(t: f32) -> f32 {
        let a = -0.5f32;
        let t = t.abs();
        if t <= 1.0 {
            (a + 2.0) * t * t * t - (a + 3.0) * t * t + 1.0
        } else if t < 2.0 {
            a * t * t * t - 5.0 * a * t * t + 8.0 * a * t - 4.0 * a
        } else {
            0.0
        }
    }

    /// The kernel twice per tap, both indices clamped per tap.
    pub fn resize_bicubic(input: &Tensor, new_h: usize, new_w: usize) -> Tensor {
        let s = input.shape();
        let mut out = Tensor::zeros(Shape4::new(s.n, s.c, new_h, new_w));
        let sy = s.h as f32 / new_h as f32;
        let sx = s.w as f32 / new_w as f32;
        for b in 0..s.n {
            for c in 0..s.c {
                let src = input.plane(b, c);
                let dst = out.plane_mut(b, c);
                for y in 0..new_h {
                    let fy = (y as f32 + 0.5) * sy - 0.5;
                    let y0 = fy.floor() as isize;
                    let ty = fy - y0 as f32;
                    for x in 0..new_w {
                        let fx = (x as f32 + 0.5) * sx - 0.5;
                        let x0 = fx.floor() as isize;
                        let tx = fx - x0 as f32;
                        let mut acc = 0.0f32;
                        let mut wsum = 0.0f32;
                        for dy in -1..3isize {
                            let wy = cubic(dy as f32 - ty);
                            if wy == 0.0 {
                                continue;
                            }
                            let yy = (y0 + dy).clamp(0, s.h as isize - 1) as usize;
                            for dx in -1..3isize {
                                let wx = cubic(dx as f32 - tx);
                                if wx == 0.0 {
                                    continue;
                                }
                                let xx = (x0 + dx).clamp(0, s.w as isize - 1) as usize;
                                acc += wy * wx * src[yy * s.w + xx];
                                wsum += wy * wx;
                            }
                        }
                        dst[y * new_w + x] = acc / wsum.max(1e-9);
                    }
                }
            }
        }
        out
    }

    /// The box prefilter with both indices clamped per tap, then the
    /// per-tap resize.
    pub fn downsample(input: &Tensor, factor: usize) -> Tensor {
        let s = input.shape();
        let mut pre = Tensor::zeros(s);
        for b in 0..s.n {
            for c in 0..s.c {
                let src = input.plane(b, c);
                let dst = pre.plane_mut(b, c);
                let half = (factor / 2) as isize;
                for y in 0..s.h as isize {
                    for x in 0..s.w as isize {
                        let mut acc = 0.0;
                        let mut cnt = 0.0;
                        for dy in -half..=half {
                            for dx in -half..=half {
                                let yy = (y + dy).clamp(0, s.h as isize - 1) as usize;
                                let xx = (x + dx).clamp(0, s.w as isize - 1) as usize;
                                acc += src[yy * s.w + xx];
                                cnt += 1.0;
                            }
                        }
                        dst[(y as usize) * s.w + x as usize] = acc / cnt;
                    }
                }
            }
        }
        resize_bicubic(&pre, s.h / factor, s.w / factor)
    }

    /// The forward weights recomputed per output pixel, then scattered.
    pub fn resize_bicubic_adjoint(dout: &Tensor, src_h: usize, src_w: usize) -> Tensor {
        let s = dout.shape();
        let mut out = Tensor::zeros(Shape4::new(s.n, s.c, src_h, src_w));
        let sy = src_h as f32 / s.h as f32;
        let sx = src_w as f32 / s.w as f32;
        for b in 0..s.n {
            for c in 0..s.c {
                let grad = dout.plane(b, c);
                let dst = out.plane_mut(b, c);
                for y in 0..s.h {
                    let fy = (y as f32 + 0.5) * sy - 0.5;
                    let y0 = fy.floor() as isize;
                    let ty = fy - y0 as f32;
                    for x in 0..s.w {
                        let fx = (x as f32 + 0.5) * sx - 0.5;
                        let x0 = fx.floor() as isize;
                        let tx = fx - x0 as f32;
                        let mut wsum = 0.0f32;
                        let mut taps = [(0usize, 0.0f32); 16];
                        let mut count = 0;
                        for dy in -1..3isize {
                            let wy = cubic(dy as f32 - ty);
                            if wy == 0.0 {
                                continue;
                            }
                            let yy = (y0 + dy).clamp(0, src_h as isize - 1) as usize;
                            for dx in -1..3isize {
                                let wx = cubic(dx as f32 - tx);
                                if wx == 0.0 {
                                    continue;
                                }
                                let xx = (x0 + dx).clamp(0, src_w as isize - 1) as usize;
                                taps[count] = (yy * src_w + xx, wy * wx);
                                wsum += wy * wx;
                                count += 1;
                            }
                        }
                        let g = grad[y * s.w + x] / wsum.max(1e-9);
                        for &(idx, w) in &taps[..count] {
                            dst[idx] += w * g;
                        }
                    }
                }
            }
        }
        out
    }
}

/// SplitMix64, for the random shapes and regions.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Every sample's bits, a NaN's as NaN: which of two NaN operands an
/// addition returns is the compiler's choice, not the code's — the
/// per-tap oracle itself returns NaNs of the other sign in a debug
/// build than in a release build.
fn bits(t: &Tensor) -> Vec<u32> {
    let canonical = |v: f32| if v.is_nan() { f32::NAN } else { v };
    t.as_slice()
        .iter()
        .map(|v| canonical(*v).to_bits())
        .collect()
}

fn assert_same(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert!(
        bits(got) == bits(want),
        "{what}: differs from the per-tap oracle"
    );
}

/// Uniform samples in `[-1, 1)`, with NaN, ±∞, −0.0 and a huge value
/// planted when `special`.
fn input(s: Shape4, seed: u64, special: bool) -> Tensor {
    let mut t = Tensor::random_uniform(s, -1.0, 1.0, seed);
    if special {
        let planted = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 3.0e38];
        let len = t.as_slice().len();
        for (i, v) in planted.into_iter().enumerate() {
            t.as_mut_slice()[(i * 7919 + seed as usize) % len] = v;
        }
    }
    t
}

#[test]
fn resize_matches_the_per_tap_oracle() {
    let cases = [
        ((8, 8), (16, 16)),   // grow ×2
        ((7, 9), (28, 36)),   // grow ×4, odd sides
        ((5, 6), (15, 30)),   // grow ×3 and ×5
        ((16, 16), (4, 4)),   // shrink ×4
        ((20, 12), (7, 5)),   // shrink at non-integer ratios
        ((9, 10), (13, 7)),   // grow one axis, shrink the other
        ((1, 1), (5, 3)),     // from 1×1
        ((6, 4), (1, 1)),     // to 1×1
        ((1, 1), (1, 1)),     // identity on 1×1
        ((11, 11), (11, 11)), // identity
    ];
    let mut rng = Rng(3);
    for (i, ((h, w), (nh, nw))) in cases.into_iter().enumerate() {
        for special in [false, true] {
            let x = input(Shape4::new(2, 3, h, w), i as u64, special);
            let what = format!("{h}x{w} -> {nh}x{nw} (special {special})");
            assert_same(
                &what,
                &resize_bicubic(&x, nh, nw),
                &oracle::resize_bicubic(&x, nh, nw),
            );
        }
    }
    for i in 0..200 {
        let (h, w) = (1 + rng.below(24), 1 + rng.below(24));
        let (nh, nw) = (1 + rng.below(40), 1 + rng.below(40));
        let x = input(Shape4::new(1, 2, h, w), 100 + i, i % 4 == 0);
        let what = format!("{h}x{w} -> {nh}x{nw}");
        assert_same(
            &what,
            &resize_bicubic(&x, nh, nw),
            &oracle::resize_bicubic(&x, nh, nw),
        );
    }
}

#[test]
fn downsample_matches_the_per_tap_oracle() {
    let mut rng = Rng(5);
    for factor in [1, 2, 3, 4] {
        for i in 0..30 {
            let (h, w) = (factor * (1 + rng.below(12)), factor * (1 + rng.below(12)));
            let x = input(Shape4::new(1, 2, h, w), 200 + i, i % 3 == 0);
            let what = format!("{h}x{w} / {factor}");
            assert_same(
                &what,
                &downsample(&x, factor),
                &oracle::downsample(&x, factor),
            );
        }
    }
}

#[test]
fn adjoint_matches_the_per_tap_oracle() {
    let mut rng = Rng(7);
    for i in 0..120 {
        let (h, w) = (1 + rng.below(16), 1 + rng.below(16));
        let (sh, sw) = (1 + rng.below(20), 1 + rng.below(20));
        let g = input(Shape4::new(1, 2, h, w), 300 + i, i % 4 == 0);
        let what = format!("{h}x{w} onto {sh}x{sw}");
        let got = resize_bicubic_adjoint(&g, sh, sw);
        assert_same(&what, &got, &oracle::resize_bicubic_adjoint(&g, sh, sw));
    }
}

/// The window entry is the whole upsampling's pixels, also where a shift
/// by whole source pixels is not exact in `f32` (×3, ×5): the crop-based
/// skip it replaced returned other values there. So is the window of a
/// tile of the frame, placed in it: its samples sit where the frame's do.
#[test]
fn upsample_windows_are_the_whole_upsampling_bit_for_bit() {
    let mut rng = Rng(11);
    for factor in [2, 3, 4, 5] {
        for i in 0..25 {
            let (h, w) = (1 + rng.below(30), 1 + rng.below(30));
            let x = input(Shape4::new(1, 2, h, w), 400 + i, false);
            let whole = upsample(&x, factor);
            let (uh, uw) = (h * factor, w * factor);
            let (top, left) = (rng.below(uh), rng.below(uw));
            let (wh, ww) = (1 + rng.below(uh - top), 1 + rng.below(uw - left));
            let window = upsample_window(&x, factor, (top, left, wh, ww), (0, 0));
            // The same window from a tile of the frame holding its taps.
            let (y0, x0) = (
                (top / factor).saturating_sub(2),
                (left / factor).saturating_sub(2),
            );
            let y1 = ((top + wh - 1) / factor + 3).min(h);
            let x1 = ((left + ww - 1) / factor + 3).min(w);
            let tile = x.extract_window(0, Window::new(y0 as isize, x0 as isize, y1 - y0, x1 - x0));
            let at = (top - y0 * factor, left - x0 * factor, wh, ww);
            let placed = upsample_window(&tile, factor, at, (y0, x0));
            for (what, window) in [("frame", window), ("tile", placed)] {
                assert_eq!(window.shape(), Shape4::new(1, 2, wh, ww));
                for c in 0..2 {
                    for y in 0..wh {
                        for xx in 0..ww {
                            assert_eq!(
                                window.at(0, c, y, xx).to_bits(),
                                whole.at(0, c, top + y, left + xx).to_bits(),
                                "x{factor}: {h}x{w} {what}, {wh}x{ww} window at ({top}, {left})"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn empty_windows_and_targets_are_empty() {
    let x = input(Shape4::new(1, 1, 4, 4), 1, false);
    assert_eq!(
        upsample_window(&x, 3, (12, 12, 0, 0), (0, 0)).shape(),
        Shape4::new(1, 1, 0, 0)
    );
    let empty = Tensor::zeros(Shape4::new(1, 1, 0, 5));
    assert_eq!(
        resize_bicubic(&empty, 0, 7).shape(),
        Shape4::new(1, 1, 0, 7)
    );
    assert_eq!(downsample(&empty, 5).shape(), Shape4::new(1, 1, 0, 1));
}

#[test]
#[should_panic(expected = "an empty source axis cannot fill 3 samples")]
fn resizing_an_empty_plane_to_a_non_empty_target_is_refused() {
    resize_bicubic(&Tensor::zeros(Shape4::new(1, 1, 0, 4)), 3, 3);
}

#[test]
#[should_panic(expected = "an empty source axis cannot fill 2 samples")]
fn scattering_onto_an_empty_plane_is_refused() {
    resize_bicubic_adjoint(&Tensor::zeros(Shape4::new(1, 1, 2, 2)), 0, 3);
}

#[test]
#[should_panic(expected = "downsample factor must be at least 1")]
fn downsampling_by_zero_is_refused() {
    downsample(&Tensor::zeros(Shape4::new(1, 1, 4, 4)), 0);
}

#[test]
#[should_panic(expected = "outside the 12x12 upsampling")]
fn a_window_past_the_upsampled_extent_is_refused() {
    upsample_window(
        &Tensor::zeros(Shape4::new(1, 1, 4, 4)),
        3,
        (10, 0, 3, 3),
        (0, 0),
    );
}

/// FNV-1a over the bits of every sample.
fn hash(t: &Tensor) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The ×4 SR training set, captured at the per-tap resampler.
#[test]
fn the_sr4_set_is_unchanged() {
    let set = sr4_set(DatasetProfile::Set5, 64, 4);
    assert_eq!(set.inputs.shape(), Shape4::new(4, 1, 16, 16));
    assert_eq!(
        (hash(&set.inputs), hash(&set.targets)),
        (0xaacc_faec_db09_c72a, 0xf817_fa8a_78dc_ea37)
    );
}
