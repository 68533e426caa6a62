//! The im2col lowering of a dense convolution onto the streaming GEMM
//! driver of [`crate::gemm`]: the cache-friendly forward kernel.
//!
//! [`crate::conv::conv2d_forward`] walks the six-deep loop nest directly,
//! streaming one shifted input plane per weight tap. This module instead
//! views a batch item as its *patch matrix* — `ci·k²` rows, one per
//! shifted input plane, by `H·W` columns — and has the blocked driver
//! multiply the planned weights ([`PackedWeights`]) with it. The matrix
//! is never built whole: the driver cuts the plane into column chunks,
//! and the task that owns a chunk has the **chunk packer** of this
//! module write just those micro-panels into its thread's slab, straight
//! from the NCHW planes a [`ConvInput`] points at — the `f32` planes of
//! a [`Tensor`] or the `i32`/`i8` planes of a quantized tensor — each
//! value converted to the element's operand type as it is copied (the
//! identity for `f32`, into `i16` for `i32` lanes).
//!
//! The packer is *window-aware*: the [`Window`] of a [`ConvInput`] is the
//! **output region**, what the block-based runtime trims a tile to layer
//! by layer; taps read the `h × w` plane anywhere, zero only outside it.
//!
//! [`im2col_pack`], [`im2col_pack_window`], [`im2col_pack_i64`] (row-major)
//! and the whole-plane [`im2col_pack_panels_window`] are test-and-probe
//! helpers: the reference tests compare the chunk packer and the
//! streaming entries against, timed by the benchmark probes, called by
//! no production path.
//!
//! Correctness is a chain with one link per test: the row-major pack
//! run through the matrix-level oracle [`crate::gemm::reference()`] equals
//! the naive kernel **bit for bit** (taps in `(ci, ky, kx)` order, zero
//! taps skipped, bias first); the panel-major pack holds exactly the
//! row-major matrix, chunk by chunk; the streaming conv equals the
//! pre-packed GEMM over that pack **bit for bit**; and every GEMM tier
//! agrees with the oracle — **bit for bit** in `i32` (integer
//! accumulation is order-independent), within tolerance in `f32` (FMA
//! and blocked summation change ULPs). `tests/conv_backends.rs` and
//! `tests/gemm_kernels.rs` assert the same over random shapes and whole
//! models.

use crate::conv::ConvWeights;
use crate::gemm::{
    self, fit, ChunkEpilogue, Element, PackedWeights, Panels, Plane, RequantPlan, Sink, NR,
};
use crate::shape::Shape4;
use crate::tensor::Tensor;
use crate::tile::Window;

/// One batch item's channel planes and the [`Window`] of output pixels a
/// convolution computes from them. A tap reads the plane wherever it
/// lands in it, beyond the window too, and zero outside the `h × w` plane.
#[derive(Clone, Copy, Debug)]
pub struct ConvInput<'a, T> {
    planes: &'a [T],
    c: usize,
    h: usize,
    w: usize,
    window: Window,
}

impl<'a, T> ConvInput<'a, T> {
    /// `c` contiguous row-major `h × w` planes with output region
    /// `window` (panics if `planes.len() != c·h·w`).
    pub fn new(planes: &'a [T], c: usize, h: usize, w: usize, window: Window) -> Self {
        assert_eq!(planes.len(), c * h * w, "planes do not match c·h·w");
        Self {
            planes,
            c,
            h,
            w,
            window,
        }
    }

    /// Output pixels per channel (`window.h · window.w`).
    pub fn plane(&self) -> usize {
        self.window.h * self.window.w
    }

    /// The `k²` taps in `(ky, kx)` order, the same for every channel.
    fn taps(&self, k: usize) -> Vec<Tap> {
        let win = self.window;
        let (wh, ww) = (win.h as isize, win.w as isize);
        let (h, w) = (self.h as isize, self.w as isize);
        let pad = (k / 2) as isize;
        (0..k * k)
            .map(|t| {
                let (dy, dx) = ((t / k) as isize - pad, (t % k) as isize - pad);
                let y0 = 0.max(-(win.y0 + dy));
                let y1 = wh.min(h - win.y0 - dy);
                let x0 = 0.max(-(win.x0 + dx));
                let x1 = ww.min(w - win.x0 - dx);
                Tap {
                    extent: (y0 < y1 && x0 < x1).then_some((y0, y1, x0, x1)),
                    origin: (win.y0 + dy) * w + win.x0 + dx,
                }
            })
            .collect()
    }

    /// Source plane of input channel `ci`.
    fn channel(&self, ci: usize) -> &'a [T] {
        &self.planes[ci * self.h * self.w..(ci + 1) * self.h * self.w]
    }
}

/// One kernel tap as a [`ConvInput`] sees it.
#[derive(Clone, Copy)]
struct Tap {
    /// Output rows `y0..y1` and columns `x0..x1` of the window whose
    /// shifted sample is inside the plane; `None` when the tap is
    /// entirely out of frame (padding exceeds the map on an axis, or
    /// the window lies outside the plane).
    extent: Option<(isize, isize, isize, isize)>,
    /// Source index of output pixel `(0, 0)`; output pixel `(y, x)`
    /// reads `origin + y·w + x`. Signed: negative until an in-frame
    /// pixel's offset is added (same convention as the naive kernel).
    origin: isize,
}

impl Tensor {
    /// Batch item `n` with output region `window` (panics if `n` is out
    /// of range).
    pub fn conv_input(&self, n: usize, window: Window) -> ConvInput<'_, f32> {
        let s = self.shape();
        assert!(n < s.n, "batch index {n} out of range for {s}");
        let item = s.c * s.plane();
        ConvInput::new(
            &self.as_slice()[n * item..(n + 1) * item],
            s.c,
            s.h,
            s.w,
            window,
        )
    }
}

/// The row-major patch matrix of `x`, shape `(c·k²) × x.plane()`.
fn pack_rows<T: Copy + Default>(x: &ConvInput<'_, T>, k: usize) -> Vec<T> {
    let (plane, ww, w) = (x.plane(), x.window.w as isize, x.w as isize);
    let taps = x.taps(k);
    let mut col = vec![T::default(); x.c * taps.len() * plane];
    for (r, dst) in col.chunks_exact_mut(plane.max(1)).enumerate() {
        let (src, tap) = (x.channel(r / taps.len()), taps[r % taps.len()]);
        let Some((y0, y1, x0, x1)) = tap.extent else {
            continue;
        };
        for y in y0..y1 {
            let row_in = tap.origin + y * w;
            dst[(y * ww + x0) as usize..(y * ww + x1) as usize]
                .copy_from_slice(&src[(row_in + x0) as usize..(row_in + x1) as usize]);
        }
    }
    col
}

/// Packs one batch item into a patch matrix of shape `(ci·k²) × (H·W)`,
/// row-major: row `r = (ci·k + ky)·k + kx` holds the input plane shifted
/// by the tap offset `(ky − k/2, kx − k/2)`, zero-padded at the border.
/// A test-and-probe helper (see the module docs).
///
/// # Panics
///
/// Panics if `n` is out of range for the tensor's batch dimension.
pub fn im2col_pack(input: &Tensor, n: usize, k: usize) -> Vec<f32> {
    let s = input.shape();
    im2col_pack_window(input, n, k, Window::full(s.h, s.w))
}

/// Packs the columns of `window` out of one batch item's patch matrix,
/// shape `(ci·k²) × (window.h · window.w)`: the patches of the window's
/// pixels, read from the whole image (zero outside it) — the window's
/// columns of [`im2col_pack`] where it lies in frame. A test-and-probe
/// helper.
///
/// # Panics
///
/// Panics if `n` is out of range for the tensor's batch dimension.
pub fn im2col_pack_window(input: &Tensor, n: usize, k: usize, window: Window) -> Vec<f32> {
    pack_rows(&input.conv_input(n, window), k)
}

/// Packs one batch item of an **integer** NCHW buffer into a patch
/// matrix of shape `(c·k²) × (H·W)` — the fixed-point twin of
/// [`im2col_pack`] (same tap rows, same zero padding). A test-and-probe
/// helper.
///
/// # Panics
///
/// Panics if `data.len() != shape.len()` or `n` is out of range.
pub fn im2col_pack_i64(data: &[i64], shape: Shape4, n: usize, k: usize) -> Vec<i64> {
    let s = shape;
    assert_eq!(data.len(), s.len(), "data does not match shape");
    assert!(n < s.n, "batch index out of range");
    let item = s.c * s.plane();
    let planes = &data[n * item..(n + 1) * item];
    pack_rows(
        &ConvInput::new(planes, s.c, s.h, s.w, Window::full(s.h, s.w)),
        k,
    )
}

/// Constant-length copy into the panels' operand type: the compiler
/// lowers this to a couple of vector moves (and widenings) instead of a
/// `memcpy` call — the pack issues tens of thousands of panel-width
/// fragments per conv, so per-copy call overhead is the dominant pack
/// cost.
#[inline(always)]
fn copy_const<S: Copy, O: TryFrom<S> + Default, const N: usize>(dst: &mut [O], src: &[S]) {
    let d: &mut [O; N] = (&mut dst[..N]).try_into().expect("N elements");
    let s: &[S; N] = (&src[..N]).try_into().expect("N elements");
    for (d, s) in d.iter_mut().zip(s) {
        *d = fit(*s);
    }
}

/// Zero-fills the index range `[j0, j1)` of patch row `r` in a
/// panel-major buffer (`[panel][row][nr]`), splitting at micro-panel
/// boundaries.
#[inline]
fn zero_panel_range<T: Copy + Default>(
    bp: &mut [T],
    (rows, nr, r): (usize, usize, usize),
    (j0, j1): (usize, usize),
) {
    let mut j = j0;
    while j < j1 {
        let (jp, off) = (j / nr, j % nr);
        let len = (nr - off).min(j1 - j);
        let dst = (jp * rows + r) * nr + off;
        bp[dst..dst + len].fill(T::default());
        j += len;
    }
}

/// Copies `run` into patch row `r` of a panel-major buffer starting at
/// index `j0`, splitting at micro-panel boundaries. (Each fragment's
/// address is computed from scratch: measured faster than carrying a
/// cursor from fragment to fragment.)
#[inline]
fn copy_panel_range<S: Copy, O: TryFrom<S> + Default>(
    bp: &mut [O],
    (rows, nr, r): (usize, usize, usize),
    j0: usize,
    run: &[S],
) {
    let mut taken = 0;
    while taken < run.len() {
        let j = j0 + taken;
        let (jp, off) = (j / nr, j % nr);
        let len = (nr - off).min(run.len() - taken);
        let dst = (jp * rows + r) * nr + off;
        let (d, s) = (&mut bp[dst..dst + len], &run[taken..taken + len]);
        if len == 16 {
            copy_const::<S, O, 16>(d, s);
        } else {
            // A shorter fragment as its power-of-two pieces, largest first.
            let mut at = 0;
            if len & 8 != 0 {
                copy_const::<S, O, 8>(d, s);
                at = 8;
            }
            if len & 4 != 0 {
                copy_const::<S, O, 4>(&mut d[at..], &s[at..]);
                at += 4;
            }
            if len & 2 != 0 {
                copy_const::<S, O, 2>(&mut d[at..], &s[at..]);
                at += 2;
            }
            if len & 1 != 0 {
                d[at] = fit(s[at]);
            }
        }
        taken += len;
    }
}

/// The chunk packer: writes micro-panels `[jp0, jp1)` of `x`'s patch
/// matrix (`taps` = `x.taps(k)`) into `bp` in `[panel][row][nr]` order,
/// reading the source planes directly and converting each value to the
/// panels' operand type as it is copied (the identity for `f32`, 8- or
/// 32-bit features into 16-bit operands for `i32` lanes).
/// `bp` must be `(jp1 − jp0) · rows · nr` long and **every element is
/// overwritten** — zero padding (image border, window border, tail-panel
/// pad) is written explicitly, so the buffer may be a dirty slab.
fn pack_panels<S: Copy, O: TryFrom<S> + Copy + Default>(
    x: &ConvInput<'_, S>,
    taps: &[Tap],
    nr: usize,
    (jp0, jp1): (usize, usize),
    bp: &mut [O],
) {
    let rows = x.c * taps.len();
    assert_eq!(
        bp.len(),
        (jp1 - jp0) * rows * nr,
        "packed buffer length mismatch"
    );
    if jp0 == jp1 {
        return;
    }
    let (plane, ww, w) = (x.plane(), x.window.w as isize, x.w as isize);
    // The chunk's columns in plane indices, tail-panel pad included;
    // buffer indices are relative to `ja`.
    let (ja, jb) = (jp0 * nr, jp1 * nr);
    // Image rows with a pixel in the chunk.
    let ya = ja as isize / ww;
    let yb = jb.min(plane).div_ceil(ww as usize) as isize;
    // Nested loops, not `r / k²` and `r % k²`: a chunk is small enough
    // that two divisions per patch row show.
    for ci in 0..x.c {
        let src = x.channel(ci);
        for (t, tap) in taps.iter().enumerate() {
            let at = (rows, nr, ci * taps.len() + t);
            // Everything before the first in-frame sample, the
            // inter-run gaps (right pad of one image row + left pad of
            // the next), and everything after the last sample is zero:
            // `z` is the first plane index not written yet.
            let mut z = ja;
            if let Some((y0, y1, x0, x1)) = tap.extent {
                for y in y0.max(ya)..y1.min(yb) {
                    let r0 = ((y * ww + x0) as usize).max(ja);
                    let r1 = ((y * ww + x1) as usize).min(jb);
                    if r0 < r1 {
                        let s = (tap.origin + y * w + r0 as isize - y * ww) as usize;
                        zero_panel_range(bp, at, (z - ja, r0 - ja));
                        copy_panel_range(bp, at, r0 - ja, &src[s..s + (r1 - r0)]);
                        z = r1;
                    }
                }
            }
            zero_panel_range(bp, at, (z - ja, jb - ja));
        }
    }
}

/// Packs a `window` of one batch item **whole** into panel-major GEMM
/// order `[panel][row][nr]` — the full-range case of the chunk packer,
/// kept for tests (the reference the streaming conv is compared
/// against) and the benchmark probes. `bp` must be
/// `plane.div_ceil(nr) · rows · nr` long and **every element is
/// overwritten**, so the buffer may be dirty.
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
    let x = input.conv_input(n, window);
    pack_panels(&x, &x.taps(k), nr, (0, x.plane().div_ceil(nr)), bp);
}

/// The streaming convolution of one batch item, generic over the
/// element type `T`, the type `S` its input planes are stored in and the
/// type `D` its output planes are: channel `c` becomes
/// `bias[c] + Σ_r W[c][r] · patch_row(r)`, each element through the
/// epilogue, each column chunk through `fused` if there is one, and
/// `out` holds the result after a depth-to-space of factor `r`
/// (`co / r²` row-major planes of `r²·x.plane()`; `r = 1`: the `co`
/// planes themselves) — the engine's [`Sink`] writes every pixel where
/// the shuffle would move it.
pub(crate) fn conv_streaming<T, S, D>(
    x: &ConvInput<'_, S>,
    k: usize,
    w: &PackedWeights<T::Operand>,
    bias: &[T],
    epilogues: (Option<&T::Epilogue>, Option<ChunkEpilogue<'_, T>>),
    r: usize,
    out: &mut [D],
) where
    T: Element,
    T::Operand: TryFrom<S>,
    S: Plane,
    D: Plane + TryFrom<T>,
{
    assert_eq!(w.rows(), x.c * k * k, "input channels mismatch");
    // The activation half of the AVX2 exactness gate: what a narrow
    // plane type states for free, otherwise decided on the unpacked
    // planes (k² times fewer values than the patch matrix), once, before
    // the fan-out.
    let b_exact = S::avx2_exact(x.planes);
    let taps = x.taps(k);
    let pack = |jp0, jp1, bp: &mut [T::Operand]| pack_panels(x, &taps, NR, (jp0, jp1), bp);
    let source = Panels::Packer(&pack);
    assert_eq!(out.len(), w.co() * x.plane(), "output length mismatch");
    let mut rest = out;
    let mut planes: Vec<&mut [D]> = (0..w.co() / (r * r))
        .map(|_| {
            let (lane, tail) = std::mem::take(&mut rest).split_at_mut(r * r * x.plane());
            rest = tail;
            lane
        })
        .collect();
    // Unshuffled, image rows do not matter: one row, one segment a task.
    let iw = if r == 1 { x.plane() } else { x.window.w };
    let planes = planes.as_mut_slice();
    let sink = Sink { planes, r, iw };
    gemm::product(w, x.plane(), bias, epilogues, b_exact, source, sink);
}

/// Streaming f32 convolution of one batch item into the caller's output
/// planes: plane `c` of `out` (`w.co() × x.plane()`, row-major) becomes
/// the window of `x` out of the `k×k` "same" convolution of its planes
/// with output channel `c` of the planned weights, plus `bias[c]` (an
/// empty `bias` means no bias).
///
/// # Panics
///
/// Panics if `w.rows() != c·k²`, `out.len() != w.co() · x.plane()`, or
/// `bias` is neither empty nor `w.co()` long.
pub fn conv_streaming_f32(
    x: &ConvInput<'_, f32>,
    k: usize,
    w: &PackedWeights<f32>,
    bias: &[f32],
    out: &mut [f32],
) {
    conv_streaming(x, k, w, bias, (None, None), 1, out);
}

/// The integer twin of [`conv_streaming_f32`], in `i32` lanes over
/// planes of `S` — `i8` or `i32` — in and out: bit-identical to the
/// scalar reference datapath for a convolution whose every accumulator
/// is known to fit the lane, whose every activation fits 16 bits and
/// whose every output, past `requant` and `fused`, fits `S` (see
/// [`crate::gemm`]; `ringcnn-quant` proves all three where a model
/// loads, a debug build checks). `requant` is fused into the kernel
/// epilogue (un-rescaled wide accumulators never reach memory) and
/// `fused`, if given, runs once over each column chunk's finished lanes
/// before they are written (see [`ChunkEpilogue`]). The AVX2 tile needs
/// `|v| ≤ 32767` on both sides: true of every `i8`, checked on the
/// unpacked planes of an `i32` input (the scalar-blocked tile, still
/// exact, runs otherwise). Panics like [`conv_streaming_f32`], or if
/// `requant` does not have `w.co()` channels.
pub fn conv_streaming_i32<S: Plane + TryFrom<i32>>(
    x: &ConvInput<'_, S>,
    k: usize,
    w: &PackedWeights<i16>,
    bias: &[i32],
    (requant, fused): (Option<&RequantPlan>, Option<ChunkEpilogue<'_, i32>>),
    out: &mut [S],
) where
    i16: TryFrom<S>,
{
    gemm::check_plan(requant, w.co());
    conv_streaming(x, k, w, bias, (requant, fused), 1, out);
}

/// Forward convolution over planned weights, the prepared-layer entry
/// (`k` is the kernel size the plan's `ci·k²` rows were laid out for):
/// every batch item streams through the engine into its planes of the
/// output tensor, with the panics of [`conv_streaming_f32`]. `r > 1`
/// also does the depth-to-space of factor `r` that follows the
/// convolution (`[N, C·r², H, W] → [N, C, H·r, W·r]`): the engine writes
/// each pixel where the shuffle would move it, so the unshuffled output
/// never exists — bit-identical to shuffling it afterwards, and a panic
/// if the output channels are not a multiple of `r²`. Only the region
/// [`Window::inset`] by `cut` of the "same" output is computed.
pub fn conv2d_forward_packed(
    input: &Tensor,
    k: usize,
    w: &PackedWeights<f32>,
    bias: &[f32],
    r: usize,
    cut: [usize; 4],
) -> Tensor {
    let (s, co, rr) = (input.shape(), w.co(), r * r);
    assert!(
        r > 0 && co % rr == 0,
        "channels {co} not divisible by r²={rr}"
    );
    let region = Window::inset(s.h, s.w, cut);
    let mut out = Tensor::zeros(Shape4::new(s.n, co / rr, region.h * r, region.w * r));
    let item = co * region.h * region.w;
    for n in 0..s.n {
        let x = input.conv_input(n, region);
        let planes = &mut out.as_mut_slice()[n * item..(n + 1) * item];
        conv_streaming(&x, k, w, bias, (None, None), r, planes);
    }
    out
}

/// Forward convolution through the streaming engine; drop-in
/// replacement for [`crate::conv::conv2d_forward`], tolerance-equivalent
/// to it (see [`crate::gemm`]). Plans the weights per call — a layer
/// plans once, keeps the plan with its weights and calls
/// [`conv2d_forward_packed`]. Zero taps are skipped at micro-panel
/// granularity (pruned weights still cost almost nothing).
///
/// # Panics
///
/// Panics if channel counts disagree or `bias.len() != co` (empty bias
/// slice means no bias).
pub fn conv2d_forward_im2col(input: &Tensor, w: &ConvWeights, bias: &[f32]) -> Tensor {
    assert_eq!(input.shape().c, w.ci, "input channels mismatch");
    conv2d_forward_packed(input, w.k, &w.packed(), bias, 1, [0; 4])
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
        // The window's patches are those of the same pixels inside the
        // tile grown by the kernel's reach (zero out of frame).
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
                let (p, gw) = (k / 2, win.w + 2 * (k / 2));
                let (y0, x0) = (win.y0 - p as isize, win.x0 - p as isize);
                let grown = Window::new(y0, x0, win.h + 2 * p, gw);
                let grown = im2col_pack(&input.extract_window(1, grown), 0, k);
                let rows = direct.chunks(win.h * win.w);
                for (row, big) in rows.zip(grown.chunks((win.h + 2 * p) * gw)) {
                    for (y, line) in row.chunks(win.w).enumerate() {
                        let at = (y + p) * gw + p;
                        assert_eq!(line, &big[at..at + win.w], "k={k} win={win:?} y={y}");
                    }
                }
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
                    // The chunk packer writes any panel range exactly as
                    // the whole pack has it, again into a dirty buffer.
                    let np = plane.div_ceil(nr);
                    let x = input.conv_input(1, win);
                    for step in [1usize, 3] {
                        for jp0 in (0..np).step_by(step) {
                            let jp1 = np.min(jp0 + step);
                            let mut chunk = vec![f32::NAN; (jp1 - jp0) * rows * nr];
                            pack_panels(&x, &x.taps(k), nr, (jp0, jp1), &mut chunk);
                            let whole = &bp[jp0 * rows * nr..jp1 * rows * nr];
                            let bits =
                                |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&chunk),
                                bits(whole),
                                "k={k} win={win:?} nr={nr} panels {jp0}..{jp1}"
                            );
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
        // pixel, through the oracle and through the streaming conv.
        let x = [1i64, -2, 3, 4];
        let col = im2col_pack_i64(&x, Shape4::new(1, 1, 2, 2), 0, 1);
        let w = PackedWeights::<i16>::new(2, 1, &[3, 0]);
        let mut streamed = vec![0i32; 2 * 4];
        let x32 = x.map(|v| v as i32);
        let input = ConvInput::new(&x32, 1, 2, 2, Window::full(2, 2));
        conv_streaming_i32(&input, 1, &w, &[10, 7], (None, None), &mut streamed);
        let oracle = gemm::reference(&col, 4, 1, 2, &[3, 0], &[10, 7]).concat();
        for out in [oracle, streamed.iter().map(|v| i64::from(*v)).collect()] {
            assert_eq!(out[..4], [13, 4, 19, 22]);
            assert_eq!(out[4..], [7, 7, 7, 7]); // zero weight: bias only
        }
    }
}
