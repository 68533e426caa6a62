//! im2col/blocked dense convolution: the cache-friendly forward kernel.
//!
//! [`crate::conv::conv2d_forward`] walks the six-deep loop nest directly,
//! streaming one shifted input plane per weight tap. This module instead
//! packs all `ci·k²` shifted planes of a batch item into one contiguous
//! *patch matrix* (`im2col`), then computes every output plane with the
//! register-blocked GEMM driver of [`crate::gemm`] (an AVX2 tile behind
//! runtime feature detection, a portable scalar-blocked tile otherwise).
//! Output channel blocks run rayon-parallel.
//!
//! The packing kernel is *window-aware*: [`im2col_pack_window`] packs an
//! arbitrary [`Window`] of the source plane (the tile views of the
//! block-based runtime) directly from the parent tensor, treating the
//! window boundary exactly like an image boundary (zero padding). The
//! whole-image entry point [`im2col_pack`] is the full-window special
//! case of the same code path.
//!
//! Correctness is a chain with one link per test: the row-major pack
//! run through the matrix-level oracle [`crate::gemm::reference()`] equals
//! the naive kernel **bit for bit** (taps in `(ci, ky, kx)` order, zero
//! taps skipped, bias first); the fused panel-major pack holds exactly
//! the row-major matrix; and every GEMM tier agrees with the oracle —
//! **bit for bit** in `i64` (integer accumulation is order-independent),
//! within tolerance in `f32` (FMA and blocked summation change ULPs).
//! `tests/conv_backends.rs` and `tests/gemm_kernels.rs` assert the same
//! over random shapes and whole models.

use crate::conv::ConvWeights;
use crate::tensor::Tensor;
use crate::tile::Window;

/// Packs one batch item into a patch matrix of shape `(ci·k²) × (H·W)`,
/// row-major: row `r = (ci·k + ky)·k + kx` holds the input plane shifted
/// by the tap offset `(ky − k/2, kx − k/2)`, zero-padded at the border.
///
/// # Panics
///
/// Panics if `n` is out of range for the tensor's batch dimension.
pub fn im2col_pack(input: &Tensor, n: usize, k: usize) -> Vec<f32> {
    let s = input.shape();
    im2col_pack_window(input, n, k, Window::full(s.h, s.w))
}

/// Packs a `window` of one batch item into a patch matrix of shape
/// `(ci·k²) × (window.h · window.w)`, reading directly from the parent
/// tensor. Samples outside the window — including window rows/columns
/// that fall outside the parent image — read as zero, so the result is
/// bit-identical to `im2col_pack(&input.extract_window(n, window), 0, k)`
/// without materializing the tile.
///
/// # Panics
///
/// Panics if `n` is out of range for the tensor's batch dimension.
pub fn im2col_pack_window(input: &Tensor, n: usize, k: usize, window: Window) -> Vec<f32> {
    let s = input.shape();
    let plane = window.h * window.w;
    let pad = (k / 2) as isize;
    let (ph, pw) = (s.h as isize, s.w as isize);
    let (wh, ww) = (window.h as isize, window.w as isize);
    let mut col = vec![0.0f32; s.c * k * k * plane];
    for ci in 0..s.c {
        let src = input.plane(n, ci);
        for ky in 0..k {
            for kx in 0..k {
                let r = (ci * k + ky) * k + kx;
                let dst = &mut col[r * plane..(r + 1) * plane];
                let dy = ky as isize - pad;
                let dx = kx as isize - pad;
                // Output rows where the shifted sample is both inside the
                // window (window boundary = zero padding) and inside the
                // parent image (halo windows reach out of frame).
                let y0 = 0.max(-dy).max(-(window.y0 + dy));
                let y1 = wh.min(wh - dy).min(ph - window.y0 - dy);
                let x0 = 0.max(-dx).max(-(window.x0 + dx));
                let x1 = ww.min(ww - dx).min(pw - window.x0 - dx);
                // Entirely out-of-frame tap (padding exceeds the map on
                // this axis): the whole row stays zero. Guard before the
                // usize casts below, which would wrap on x1 < x0.
                if y0 >= y1 || x0 >= x1 {
                    continue;
                }
                for y in y0..y1 {
                    let row_out = (y * ww) as usize;
                    // Signed until x0 is added: can be transiently negative
                    // when dx < 0 (same convention as the naive kernel).
                    let row_in = (window.y0 + y + dy) * pw + window.x0 + dx;
                    dst[row_out + x0 as usize..row_out + x1 as usize]
                        .copy_from_slice(&src[(row_in + x0) as usize..(row_in + x1) as usize]);
                }
            }
        }
    }
    col
}

/// Zero-fills the plane-index range `[j0, j1)` of patch row `r` in a
/// panel-major buffer (`[panel][row][nr]`), splitting at micro-panel
/// boundaries.
#[inline]
fn zero_panel_range(bp: &mut [f32], rows: usize, nr: usize, r: usize, j0: usize, j1: usize) {
    let mut j = j0;
    while j < j1 {
        let (jp, off) = (j / nr, j % nr);
        let len = (nr - off).min(j1 - j);
        let dst = jp * rows * nr + r * nr + off;
        bp[dst..dst + len].fill(0.0);
        j += len;
    }
}

/// Constant-length copy: the compiler lowers this to a couple of vector
/// moves instead of a `memcpy` call — the pack issues tens of thousands
/// of panel-width fragments per conv, so per-copy call overhead is the
/// dominant pack cost.
#[inline(always)]
fn copy_const<const N: usize>(dst: &mut [f32], src: &[f32]) {
    let d: &mut [f32; N] = (&mut dst[..N]).try_into().unwrap();
    let s: &[f32; N] = (&src[..N]).try_into().unwrap();
    *d = *s;
}

/// Copies `run` into patch row `r` of a panel-major buffer starting at
/// plane index `j0`, splitting at micro-panel boundaries.
#[inline]
fn copy_panel_range(bp: &mut [f32], rows: usize, nr: usize, r: usize, j0: usize, run: &[f32]) {
    let mut j = j0;
    let mut taken = 0;
    while taken < run.len() {
        let (jp, off) = (j / nr, j % nr);
        let len = (nr - off).min(run.len() - taken);
        let dst = jp * rows * nr + r * nr + off;
        match len {
            16 => copy_const::<16>(&mut bp[dst..], &run[taken..]),
            8 => copy_const::<8>(&mut bp[dst..], &run[taken..]),
            _ => bp[dst..dst + len].copy_from_slice(&run[taken..taken + len]),
        }
        j += len;
        taken += len;
    }
}

/// Packs a `window` of one batch item **directly into panel-major GEMM
/// order** `[panel][row][nr]` — the fused twin of
/// [`im2col_pack_window`] that skips the row-major intermediate (one
/// multi-megabyte buffer and one full copy pass less per conv call).
/// `bp` must be `plane.div_ceil(nr) · rows · nr` long and **every
/// element is overwritten** — zero padding (image border, window
/// border, tail-panel pad) is written explicitly, so the buffer may be
/// taken dirty from the GEMM's per-thread scratch (a 2+ MB memset per
/// conv call is measurable against the GEMM on sparse rings).
///
/// # Panics
///
/// Panics if `n` is out of range or `bp` has the wrong length.
pub fn im2col_pack_panels_window(
    input: &Tensor,
    n: usize,
    k: usize,
    window: Window,
    nr: usize,
    bp: &mut [f32],
) {
    let s = input.shape();
    let plane = window.h * window.w;
    let rows = s.c * k * k;
    let jend = plane.div_ceil(nr) * nr; // plane + tail-panel pad
    assert_eq!(bp.len(), jend * rows, "packed buffer length mismatch");
    let pad = (k / 2) as isize;
    let (ph, pw) = (s.h as isize, s.w as isize);
    let (wh, ww) = (window.h as isize, window.w as isize);
    for ci in 0..s.c {
        let src = input.plane(n, ci);
        for ky in 0..k {
            for kx in 0..k {
                let r = (ci * k + ky) * k + kx;
                let dy = ky as isize - pad;
                let dx = kx as isize - pad;
                let y0 = 0.max(-dy).max(-(window.y0 + dy));
                let y1 = wh.min(wh - dy).min(ph - window.y0 - dy);
                let x0 = 0.max(-dx).max(-(window.x0 + dx));
                let x1 = ww.min(ww - dx).min(pw - window.x0 - dx);
                if y0 >= y1 || x0 >= x1 {
                    // Tap entirely out of frame on this axis.
                    zero_panel_range(bp, rows, nr, r, 0, jend);
                    continue;
                }
                // Everything before the first in-frame sample, the
                // inter-run gaps (right pad of row y−1 + left pad of
                // row y), and everything after the last sample is zero.
                zero_panel_range(bp, rows, nr, r, 0, (y0 * ww + x0) as usize);
                for y in y0..y1 {
                    if y > y0 {
                        let gap0 = ((y - 1) * ww + x1) as usize;
                        zero_panel_range(bp, rows, nr, r, gap0, (y * ww + x0) as usize);
                    }
                    let row_in = (window.y0 + y + dy) * pw + window.x0 + dx;
                    let run = &src[(row_in + x0) as usize..(row_in + x1) as usize];
                    copy_panel_range(bp, rows, nr, r, (y * ww + x0) as usize, run);
                }
                zero_panel_range(bp, rows, nr, r, ((y1 - 1) * ww + x1) as usize, jend);
            }
        }
    }
}

/// Forward convolution over a packed patch matrix; drop-in replacement
/// for [`crate::conv::conv2d_forward`], tolerance-equivalent to it (see
/// [`crate::gemm`]).
///
/// Each output plane is `bias[co] + Σ_r w[co][r] · col[r]` where `col`
/// is the [`im2col_pack`] matrix — a register-blocked GEMM with zero-tap
/// skipping at micro-panel granularity (pruned weights still cost
/// almost nothing). The pack is fused: the patch matrix is built
/// panel-major in a reused scratch buffer and fed to the packed GEMM
/// entry, so no row-major intermediate exists.
///
/// # Panics
///
/// Panics if channel counts disagree or `bias.len() != co` (empty bias
/// slice means no bias).
pub fn conv2d_forward_im2col(input: &Tensor, w: &ConvWeights, bias: &[f32]) -> Tensor {
    use crate::gemm::{self, NR_F32};
    let s = input.shape();
    assert_eq!(s.c, w.ci, "input channels mismatch");
    let rows = w.ci * w.k * w.k;
    let mut out = Tensor::zeros(s.with_channels(w.co));
    let mut bp = gemm::take_scratch::<f32, NR_F32>(s.plane().div_ceil(NR_F32) * rows * NR_F32);
    for n in 0..s.n {
        im2col_pack_panels_window(input, n, w.k, Window::full(s.h, s.w), NR_F32, &mut bp);
        let planes = gemm::gemm_f32_packed(&bp, s.plane(), rows, w.co, &w.data, bias);
        for (co, acc) in planes.into_iter().enumerate() {
            out.plane_mut(n, co).copy_from_slice(&acc);
        }
    }
    gemm::put_scratch::<f32, NR_F32>(bp);
    out
}

/// Packs one batch item of an **integer** NCHW buffer into a patch
/// matrix of shape `(c·k²) × (H·W)` — the fixed-point twin of
/// [`im2col_pack`], used by the quantized inference backend
/// (`ringcnn-quant`). Row `r = (ci·k + ky)·k + kx` holds the input plane
/// shifted by the tap offset, zero-padded at the image border, exactly
/// like the float kernel.
///
/// # Panics
///
/// Panics if `data.len() != shape.len()` or `n` is out of range.
pub fn im2col_pack_i64(data: &[i64], shape: crate::shape::Shape4, n: usize, k: usize) -> Vec<i64> {
    let s = shape;
    assert_eq!(data.len(), s.len(), "data does not match shape");
    assert!(n < s.n, "batch index out of range");
    let plane = s.plane();
    let pad = (k / 2) as isize;
    let (h, w) = (s.h as isize, s.w as isize);
    let mut col = vec![0i64; s.c * k * k * plane];
    for ci in 0..s.c {
        let base = s.index(n, ci, 0, 0);
        let src = &data[base..base + plane];
        for ky in 0..k {
            for kx in 0..k {
                let r = (ci * k + ky) * k + kx;
                let dst = &mut col[r * plane..(r + 1) * plane];
                let dy = ky as isize - pad;
                let dx = kx as isize - pad;
                let y0 = 0.max(-dy);
                let y1 = h.min(h - dy);
                let x0 = 0.max(-dx);
                let x1 = w.min(w - dx);
                if y0 >= y1 || x0 >= x1 {
                    continue; // tap entirely out of frame on this axis
                }
                for y in y0..y1 {
                    let row_out = (y * w) as usize;
                    let row_in = (y + dy) * w + dx;
                    dst[row_out + x0 as usize..row_out + x1 as usize]
                        .copy_from_slice(&src[(row_in + x0) as usize..(row_in + x1) as usize]);
                }
            }
        }
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_forward;
    use crate::gemm;
    use crate::shape::Shape4;

    fn pseudo_weights(co: usize, ci: usize, k: usize) -> ConvWeights {
        let mut w = ConvWeights::zeros(co, ci, k);
        for (i, v) in w.data.iter_mut().enumerate() {
            *v = ((i * 31 % 17) as f32 - 8.0) * 0.13;
        }
        // A few exact zeros so the skip path is exercised.
        for i in (0..w.data.len()).step_by(5) {
            w.data[i] = 0.0;
        }
        w
    }

    /// The im2col lowering under the reference kernel: row-major pack,
    /// then the matrix-level oracle.
    fn reference_conv(input: &Tensor, w: &ConvWeights, bias: &[f32]) -> Tensor {
        let s = input.shape();
        let mut out = Tensor::zeros(s.with_channels(w.co));
        for n in 0..s.n {
            let col = im2col_pack(input, n, w.k);
            let planes = gemm::reference(&col, s.plane(), w.ci * w.k * w.k, w.co, &w.data, bias);
            for (co, acc) in planes.iter().enumerate() {
                out.plane_mut(n, co).copy_from_slice(acc);
            }
        }
        out
    }

    /// Naive ≡ reference-kernel lowering bit for bit; the production
    /// path (blocked tiles reassociate float adds) within tolerance.
    fn assert_lowering_matches_naive(input: &Tensor, w: &ConvWeights, bias: &[f32], what: &str) {
        let naive = conv2d_forward(input, w, bias);
        let exact = reference_conv(input, w, bias);
        assert_eq!(naive.as_slice(), exact.as_slice(), "{what}");
        let fast = conv2d_forward_im2col(input, w, bias);
        for (a, b) in naive.as_slice().iter().zip(fast.as_slice()) {
            assert!((a - b).abs() <= 1e-4, "{what}: {a} vs {b}");
        }
    }

    #[test]
    fn matches_naive_bit_for_bit_under_reference_kernel() {
        for (co, ci, k, h, wd) in [
            (4, 3, 3, 6, 5),
            (2, 2, 1, 4, 7),
            (3, 1, 5, 7, 4),
            (1, 4, 3, 1, 9),
        ] {
            let input = Tensor::random_uniform(Shape4::new(2, ci, h, wd), -1.0, 1.0, 3);
            let w = pseudo_weights(co, ci, k);
            let bias: Vec<f32> = (0..co).map(|i| 0.1 * i as f32 - 0.2).collect();
            let what = format!("co={co} ci={ci} k={k} {h}x{wd}");
            assert_lowering_matches_naive(&input, &w, &bias, &what);
        }
    }

    #[test]
    fn pack_reproduces_center_tap() {
        let input = Tensor::random_uniform(Shape4::new(1, 2, 3, 4), -1.0, 1.0, 5);
        let col = im2col_pack(&input, 0, 3);
        let plane = input.shape().plane();
        for ci in 0..2 {
            // Center tap row (ky = kx = 1) is the unshifted plane.
            let r = (ci * 3 + 1) * 3 + 1;
            assert_eq!(&col[r * plane..(r + 1) * plane], input.plane(0, ci));
        }
    }

    #[test]
    fn kernel_wider_than_map_matches_naive() {
        // Regression: taps whose padding exceeds the map on one axis
        // must contribute zeros, not wrap the slice bounds.
        for (co, ci, k, h, wd) in [(2, 2, 5, 4, 1), (2, 2, 5, 1, 4), (1, 1, 5, 2, 2)] {
            let input = Tensor::random_uniform(Shape4::new(1, ci, h, wd), -1.0, 1.0, 11);
            let w = pseudo_weights(co, ci, k);
            assert_lowering_matches_naive(&input, &w, &[], &format!("k={k} {h}x{wd}"));
        }
    }

    #[test]
    fn pack_zero_pads_borders() {
        let input = Tensor::full(Shape4::new(1, 1, 2, 2), 1.0);
        let col = im2col_pack(&input, 0, 3);
        // Top-left tap (ky = kx = 0) reads src[y−1][x−1]: only output
        // (1, 1) lands in-frame; the first row and column are padding.
        assert_eq!(&col[0..4], &[0.0, 0.0, 0.0, 1.0]);
        // Bottom-right tap (ky = kx = 2) reads src[y+1][x+1]: only (0, 0).
        assert_eq!(&col[8 * 4..9 * 4], &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn window_pack_matches_extracted_tile_pack() {
        let input = Tensor::random_uniform(Shape4::new(2, 3, 9, 7), -1.0, 1.0, 21);
        for k in [1usize, 3, 5] {
            for win in [
                Window::new(2, 1, 4, 5),    // interior
                Window::new(-2, -1, 6, 5),  // over the top-left corner
                Window::new(5, 3, 6, 6),    // over the bottom-right corner
                Window::new(-1, -1, 11, 9), // superset of the whole image
                Window::new(9, 7, 3, 3),    // entirely out of frame
            ] {
                let direct = im2col_pack_window(&input, 1, k, win);
                let via_tile = im2col_pack(&input.extract_window(1, win), 0, k);
                assert_eq!(direct, via_tile, "k={k} win={win:?}");
            }
        }
    }

    #[test]
    fn fused_panel_pack_matches_row_major_pack() {
        // The fused panel-major pack must hold exactly the row-major
        // patch matrix, permuted into `[panel][row][nr]` with a
        // zero-padded tail panel — starting from a dirty buffer (the
        // NaN sentinel catches any element the pack fails to write).
        let input = Tensor::random_uniform(Shape4::new(2, 3, 9, 7), -1.0, 1.0, 29);
        for k in [1usize, 3] {
            for win in [
                Window::new(2, 1, 4, 5),
                Window::new(-2, -1, 6, 5),
                Window::new(5, 3, 6, 6),
                Window::new(9, 7, 3, 3), // entirely out of frame
                Window::full(9, 7),
            ] {
                for nr in [4usize, 8, 16] {
                    let rows = 3 * k * k;
                    let plane = win.h * win.w;
                    let col = im2col_pack_window(&input, 1, k, win);
                    let mut bp = vec![f32::NAN; plane.div_ceil(nr) * rows * nr];
                    im2col_pack_panels_window(&input, 1, k, win, nr, &mut bp);
                    for r in 0..rows {
                        for jp in 0..plane.div_ceil(nr) {
                            for off in 0..nr {
                                let j = jp * nr + off;
                                let want = if j < plane { col[r * plane + j] } else { 0.0 };
                                let got = bp[jp * rows * nr + r * nr + off];
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "k={k} win={win:?} nr={nr} r={r} j={j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn integer_pack_mirrors_float_pack() {
        // The i64 pack must place exactly the same samples as the float
        // pack (same tap rows, same zero padding).
        let input = Tensor::random_uniform(Shape4::new(2, 3, 5, 4), -8.0, 8.0, 31);
        let data: Vec<i64> = input.as_slice().iter().map(|v| *v as i64).collect();
        for k in [1usize, 3, 5] {
            let fcol = im2col_pack(&input, 1, k);
            let icol = im2col_pack_i64(&data, input.shape(), 1, k);
            let via_float: Vec<i64> = fcol.iter().map(|v| *v as i64).collect();
            assert_eq!(icol, via_float, "k={k}");
        }
    }

    #[test]
    fn integer_rows_accumulate_bias_and_skip_zero_taps() {
        // 1 channel, k=1 (the identity pack): output = bias + w·x per
        // pixel, through the oracle and through the blocked driver.
        let col = im2col_pack_i64(&[1, -2, 3, 4], Shape4::new(1, 1, 2, 2), 0, 1);
        for out in [
            gemm::reference(&col, 4, 1, 2, &[3, 0], &[10, 7]),
            gemm::gemm_i64(&col, 4, 1, 2, &[3, 0], &[10, 7], None),
        ] {
            assert_eq!(out[0], vec![13, 4, 19, 22]);
            assert_eq!(out[1], vec![7, 7, 7, 7]); // zero weight: bias only
        }
    }
}
