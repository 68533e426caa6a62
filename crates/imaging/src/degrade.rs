//! Degradation models: additive white Gaussian noise (denoising task) and
//! bicubic-style rescaling (super-resolution task).
//!
//! Every bicubic resampling — [`resize_bicubic`], [`upsample`],
//! [`upsample_window`], the [`downsample`] after its box prefilter, and
//! the scatter of [`resize_bicubic_adjoint`] — reads one table per axis:
//! for each output index, its non-zero taps (clamped source index,
//! kernel weight), computed once. The kernel is evaluated per output
//! row and column, not per tap, and a window is evaluated from the
//! whole input's geometry without touching the rest of the output.
//!
//! Everything but the adjoint runs on the pool and is bit-identical at
//! every pool size. [`add_gaussian_noise`] is counter-addressed: sample
//! `i` of the flat buffer reads words `2i` and `2i + 1` of the seed's
//! ChaCha stream, so each range of samples seeks to its own start. The
//! resampler and the box prefilter split every plane into bands of
//! whole rows; a sample's sum runs in the same order as on one thread.
//! A call that fits in one band (a 64² tile) runs inline.

use crate::bands;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ringcnn_tensor::prelude::*;

/// Adds white Gaussian noise of standard deviation `sigma_255` (expressed
/// on the 0–255 scale, as in the denoising literature) to a `[0,1]` image
/// tensor. Output is clamped back to `[0, 1]`.
pub fn add_gaussian_noise(clean: &Tensor, sigma_255: f64, seed: u64) -> Tensor {
    let sigma = (sigma_255 / 255.0) as f32;
    let mut out = clean.clone();
    bands::ranges(out.as_mut_slice(), |start, samples| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Each sample draws exactly two words.
        rng.set_word_pos(2 * start as u128);
        for v in samples {
            // Box–Muller.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            *v = (*v + sigma * g).clamp(0.0, 1.0);
        }
    });
    out
}

/// Cubic (Catmull–Rom) interpolation kernel with `a = −0.5`, the standard
/// "bicubic" used by the SR literature.
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

/// The taps of output indices `from..from + count` of an axis of `dst`
/// samples resampled from `src` (pixel centres aligned), of which the
/// `len` from `origin` on are at hand: per index, the source indices
/// `i0 + d`, `d = −1..3`, counted from `origin` and clamped to those at
/// hand, with their weights `cubic(d − t)`, in that order and without
/// zero weights.
fn axis_taps(
    (src, dst): (usize, usize),
    (from, count): (usize, usize),
    (origin, len): (usize, usize),
) -> Vec<Vec<(usize, f32)>> {
    assert!(
        len > 0 || count == 0,
        "bicubic resampling: an empty source axis cannot fill {dst} samples"
    );
    let scale = src as f32 / dst as f32;
    let taps = |i: usize| {
        // Sample at pixel centers.
        let f = (i as f32 + 0.5) * scale - 0.5;
        let i0 = f.floor() as isize - origin as isize;
        let t = f - f.floor();
        let at = |d: isize| (i0 + d).clamp(0, len as isize - 1) as usize;
        let taps = (-1..3).map(|d| (at(d), cubic(d as f32 - t)));
        taps.filter(|&(_, w)| w != 0.0).collect()
    };
    (from..from + count).map(taps).collect()
}

/// The `h × w` window at `(top, left)` of every plane of `input` resized
/// to `out_h × out_w`, where `input` is the part of a larger source from
/// source pixel `origin` on whose resampling has the same scale: each
/// sample is `Σ wy·wx·src / Σ wy·wx` over its row taps (outer) and column
/// taps (inner), read from the axis tables.
fn resample(
    input: &Tensor,
    (out_h, out_w): (usize, usize),
    (top, left, h, w): (usize, usize, usize, usize),
    (y0, x0): (usize, usize),
) -> Tensor {
    let s = input.shape();
    let mut out = Tensor::zeros(Shape4::new(s.n, s.c, h, w));
    if out.as_slice().is_empty() {
        return out;
    }
    let rows = axis_taps((s.h, out_h), (top, h), (y0, s.h));
    let cols = axis_taps((s.w, out_w), (left, w), (x0, s.w));
    let input = input.as_slice();
    bands::rows(out.as_mut_slice(), (h, w), |plane, y, dst| {
        let src = &input[plane * s.plane()..][..s.plane()];
        for (dst, ty) in dst.chunks_mut(w).zip(&rows[y..]) {
            for (o, tx) in dst.iter_mut().zip(&cols) {
                let mut acc = 0.0f32;
                let mut wsum = 0.0f32;
                for &(yy, wy) in ty {
                    let line = &src[yy * s.w..];
                    for &(xx, wx) in tx {
                        acc += wy * wx * line[xx];
                        wsum += wy * wx;
                    }
                }
                *o = acc / wsum.max(1e-9);
            }
        }
    });
    out
}

/// Bicubic resize of every plane to `(new_h, new_w)` with edge clamping.
///
/// # Panics
///
/// Panics if a source plane is empty and the target is not.
pub fn resize_bicubic(input: &Tensor, new_h: usize, new_w: usize) -> Tensor {
    resample(input, (new_h, new_w), (0, 0, new_h, new_w), (0, 0))
}

/// Bicubic ×`factor` downsampling (the paper's SR low-resolution input
/// generation), preceded by a small box prefilter to limit aliasing.
///
/// # Panics
///
/// Panics if `factor` is 0 or the spatial size is not divisible by it.
pub fn downsample(input: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "downsample factor must be at least 1");
    let s = input.shape();
    assert_eq!(s.h % factor, 0, "height {} not divisible by {factor}", s.h);
    assert_eq!(s.w % factor, 0, "width {} not divisible by {factor}", s.w);
    // Box prefilter at the target scale, then bicubic resampling. Each
    // output row sums `side` source rows (outer) at `side` shifts
    // (inner), indices clamped to the plane: one sample's order, one
    // lane per sample, summed in the output row itself.
    let half = factor / 2;
    let side = 2 * half + 1;
    let cnt = (side * side) as f32;
    let mut pre = Tensor::zeros(s);
    let input = input.as_slice();
    bands::rows(pre.as_mut_slice(), (s.h, s.w), |plane, top, dst| {
        let src = &input[plane * s.plane()..][..s.plane()];
        for (y, dst) in (top..).zip(dst.chunks_mut(s.w)) {
            for dy in 0..side {
                let yy = (y + dy).saturating_sub(half).min(s.h - 1);
                let line = &src[yy * s.w..][..s.w];
                for dx in 0..side {
                    add_shifted(dst, line, dx as isize - half as isize);
                }
            }
            dst.iter_mut().for_each(|o| *o /= cnt);
        }
    });
    resize_bicubic(&pre, s.h / factor, s.w / factor)
}

/// `acc[x] += line[x + shift]` for every `x`, the index clamped to the
/// line (edge replication).
fn add_shifted(acc: &mut [f32], line: &[f32], shift: isize) {
    let w = line.len() as isize;
    // Samples `..left` read before the line, samples `right..` past it.
    let left = (-shift).clamp(0, w) as usize;
    let right = (w - shift.max(0)).clamp(left as isize, w) as usize;
    let (first, last) = (line[0], line[line.len() - 1]);
    let inner = line.get((left as isize + shift).max(0) as usize..);
    acc[..left].iter_mut().for_each(|a| *a += first);
    let middle = acc[left..right].iter_mut().zip(inner.unwrap_or_default());
    middle.for_each(|(a, p)| *a += p);
    acc[right..].iter_mut().for_each(|a| *a += last);
}

/// Bicubic ×`factor` upsampling (the classical interpolation baseline and
/// the VDSR input).
pub fn upsample(input: &Tensor, factor: usize) -> Tensor {
    let s = input.shape();
    resize_bicubic(input, s.h * factor, s.w * factor)
}

/// The `h × w` window at `(top, left)` of [`upsample`]`(input, factor)`,
/// bit for bit, where `input` is the tile of a frame from pixel `origin`
/// on: every sample is placed by the frame's geometry, and only the
/// window is evaluated — the bicubic skip of a tile that computes only the
/// region the rest of its chain reads, equal to that region of the
/// frame's skip wherever the tile holds its taps.
///
/// # Panics
///
/// Panics if the window does not lie inside the upsampled extent.
pub fn upsample_window(
    input: &Tensor,
    factor: usize,
    (top, left, h, w): (usize, usize, usize, usize),
    (y0, x0): (usize, usize),
) -> Tensor {
    let s = input.shape();
    let (up_h, up_w) = (s.h * factor, s.w * factor);
    assert!(
        top + h <= up_h && left + w <= up_w,
        "upsample_window: {h}x{w} at ({top}, {left}) outside the {up_h}x{up_w} upsampling"
    );
    let window = (y0 * factor + top, x0 * factor + left, h, w);
    resample(input, (up_h, up_w), window, (y0, x0))
}

/// Adjoint (transpose) of [`resize_bicubic`]: scatters a gradient on the
/// resized grid back onto the source grid. Needed to backpropagate
/// through bicubic skip connections.
///
/// # Panics
///
/// Panics if the source plane is empty and `dout`'s is not.
pub fn resize_bicubic_adjoint(dout: &Tensor, src_h: usize, src_w: usize) -> Tensor {
    let s = dout.shape();
    let mut out = Tensor::zeros(Shape4::new(s.n, s.c, src_h, src_w));
    if dout.as_slice().is_empty() {
        return out;
    }
    let rows = axis_taps((src_h, s.h), (0, s.h), (0, src_h));
    let cols = axis_taps((src_w, s.w), (0, s.w), (0, src_w));
    let planes = dout.as_slice().chunks(s.plane());
    for (grad, dst) in planes.zip(out.as_mut_slice().chunks_mut(src_h * src_w)) {
        for (grad, ty) in grad.chunks(s.w).zip(&rows) {
            for (g, tx) in grad.iter().zip(&cols) {
                // The forward's normalization, then the scatter.
                let mut wsum = 0.0f32;
                for &(_, wy) in ty {
                    for &(_, wx) in tx {
                        wsum += wy * wx;
                    }
                }
                let g = g / wsum.max(1e-9);
                for &(yy, wy) in ty {
                    for &(xx, wx) in tx {
                        dst[yy * src_w + xx] += wy * wx * g;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_has_requested_magnitude() {
        let clean = Tensor::full(Shape4::new(1, 1, 64, 64), 0.5);
        let noisy = add_gaussian_noise(&clean, 25.0, 1);
        let rmse = (noisy.mse(&clean)).sqrt();
        assert!((rmse - 25.0 / 255.0).abs() < 0.01, "rmse {rmse}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let clean = Tensor::full(Shape4::new(1, 1, 8, 8), 0.5);
        assert_eq!(
            add_gaussian_noise(&clean, 15.0, 3),
            add_gaussian_noise(&clean, 15.0, 3)
        );
        assert_ne!(
            add_gaussian_noise(&clean, 15.0, 3),
            add_gaussian_noise(&clean, 15.0, 4)
        );
    }

    #[test]
    fn resize_preserves_constant_images() {
        let c = Tensor::full(Shape4::new(1, 1, 8, 8), 0.7);
        let up = resize_bicubic(&c, 16, 16);
        for v in up.as_slice() {
            assert!((v - 0.7).abs() < 1e-4);
        }
    }

    #[test]
    fn down_then_up_approximates_smooth_images() {
        // A smooth gradient survives ×4 down/up with small error.
        let s = Shape4::new(1, 1, 16, 16);
        let mut img = Tensor::zeros(s);
        for y in 0..16 {
            for x in 0..16 {
                *img.at_mut(0, 0, y, x) = (x as f32 + y as f32) / 30.0;
            }
        }
        let lr = downsample(&img, 4);
        assert_eq!(lr.shape(), Shape4::new(1, 1, 4, 4));
        let rec = upsample(&lr, 4);
        assert!(rec.mse(&img) < 1e-3, "mse {}", rec.mse(&img));
    }

    #[test]
    fn cubic_kernel_partition_of_unity() {
        // Σ cubic(t + k) = 1 for any phase t.
        for t in [0.0f32, 0.25, 0.5, 0.9] {
            let sum: f32 = (-2..3).map(|k| cubic(t + k as f32)).sum();
            assert!((sum - 1.0).abs() < 1e-5, "phase {t}: {sum}");
        }
    }
}
