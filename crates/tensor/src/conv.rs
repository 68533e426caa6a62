//! Real-valued 2-D convolution (forward and both backward passes) with
//! zero padding — the dense substrate all CNN layers build upon.
//!
//! Convolutions here are "same"-padded cross-correlations (the deep-
//! learning convention) with stride 1, matching the computational-imaging
//! CNNs of the paper (spatial resolution is changed only by pixel
//! shuffle/unshuffle, never by strides).

use crate::gemm::PackedWeights;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Weight layout for a `K×K` convolution: `[co][ci][ky][kx]`, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvWeights {
    /// Output channels.
    pub co: usize,
    /// Input channels.
    pub ci: usize,
    /// Kernel size (square).
    pub k: usize,
    /// Flat weights, length `co·ci·k·k`.
    pub data: Vec<f32>,
}

impl ConvWeights {
    /// Zero-initialized weights.
    pub fn zeros(co: usize, ci: usize, k: usize) -> Self {
        Self {
            co,
            ci,
            k,
            data: vec![0.0; co * ci * k * k],
        }
    }

    /// Flat index of `(co, ci, ky, kx)`.
    #[inline]
    pub fn index(&self, co: usize, ci: usize, ky: usize, kx: usize) -> usize {
        ((co * self.ci + ci) * self.k + ky) * self.k + kx
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no weights.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The streaming engine's plan of these weights (`co × ci·k²`):
    /// build it once where the weights freeze and run
    /// [`crate::im2col::conv2d_forward_packed`] with it.
    pub fn packed(&self) -> PackedWeights<f32> {
        PackedWeights::<f32>::new(self.co, self.ci * self.k * self.k, &self.data)
    }
}

/// Forward convolution: `out[n,co,y,x] = b[co] + Σ in[n,ci,y+dy,x+dx]·w`.
///
/// Zero padding of `k/2` keeps the spatial size.
///
/// # Panics
///
/// Panics if channel counts disagree or `bias.len() != co` (empty bias
/// slice means no bias).
pub fn conv2d_forward(input: &Tensor, w: &ConvWeights, bias: &[f32]) -> Tensor {
    let s = input.shape();
    assert_eq!(s.c, w.ci, "input channels mismatch");
    assert!(
        bias.is_empty() || bias.len() == w.co,
        "bias length mismatch"
    );
    let out_shape = s.with_channels(w.co);
    let mut out = Tensor::zeros(out_shape);
    let pad = (w.k / 2) as isize;
    let (h, wd) = (s.h as isize, s.w as isize);

    // Parallel over (batch, output channel) planes.
    let planes: Vec<(usize, usize)> = (0..s.n)
        .flat_map(|n| (0..w.co).map(move |co| (n, co)))
        .collect();
    let results: Vec<Vec<f32>> = planes
        .par_iter()
        .map(|&(n, co)| {
            let mut plane = vec![if bias.is_empty() { 0.0 } else { bias[co] }; s.plane()];
            for ci in 0..w.ci {
                let in_plane = input.plane(n, ci);
                for ky in 0..w.k {
                    for kx in 0..w.k {
                        let wv = w.data[w.index(co, ci, ky, kx)];
                        if wv == 0.0 {
                            continue;
                        }
                        let dy = ky as isize - pad;
                        let dx = kx as isize - pad;
                        accumulate_shifted(&mut plane, in_plane, h, wd, dy, dx, wv);
                    }
                }
            }
            plane
        })
        .collect();
    for (&(n, co), plane) in planes.iter().zip(results) {
        out.plane_mut(n, co).copy_from_slice(&plane);
    }
    out
}

/// `plane[y][x] += w · src[y+dy][x+dx]` with zero padding outside.
#[inline]
fn accumulate_shifted(
    plane: &mut [f32],
    src: &[f32],
    h: isize,
    w: isize,
    dy: isize,
    dx: isize,
    weight: f32,
) {
    let y0 = 0.max(-dy);
    let y1 = h.min(h - dy);
    let x0 = 0.max(-dx);
    let x1 = w.min(w - dx);
    for y in y0..y1 {
        let row_out = (y * w) as usize;
        // Keep signed until the x offset is added: row_in alone can be
        // transiently negative when dx < 0.
        let row_in = (y + dy) * w + dx;
        for x in x0..x1 {
            plane[row_out + x as usize] += weight * src[(row_in + x) as usize];
        }
    }
}

/// Gradient w.r.t. the input: correlation of `dout` with the flipped
/// kernel (a transposed convolution).
pub fn conv2d_backward_input(dout: &Tensor, w: &ConvWeights) -> Tensor {
    let s = dout.shape();
    assert_eq!(s.c, w.co, "dout channels mismatch");
    let in_shape = s.with_channels(w.ci);
    let mut dinput = Tensor::zeros(in_shape);
    let pad = (w.k / 2) as isize;
    let (h, wd) = (s.h as isize, s.w as isize);
    let planes: Vec<(usize, usize)> = (0..s.n)
        .flat_map(|n| (0..w.ci).map(move |ci| (n, ci)))
        .collect();
    let results: Vec<Vec<f32>> = planes
        .par_iter()
        .map(|&(n, ci)| {
            let mut plane = vec![0.0f32; s.plane()];
            for co in 0..w.co {
                let dout_plane = dout.plane(n, co);
                for ky in 0..w.k {
                    for kx in 0..w.k {
                        let wv = w.data[w.index(co, ci, ky, kx)];
                        if wv == 0.0 {
                            continue;
                        }
                        // Forward read offset (dy,dx) becomes write offset
                        // (-dy,-dx) for the gradient.
                        let dy = pad - ky as isize;
                        let dx = pad - kx as isize;
                        accumulate_shifted(&mut plane, dout_plane, h, wd, dy, dx, wv);
                    }
                }
            }
            plane
        })
        .collect();
    for (&(n, ci), plane) in planes.iter().zip(results) {
        dinput.plane_mut(n, ci).copy_from_slice(&plane);
    }
    dinput
}

/// Gradient w.r.t. the weights and bias.
pub fn conv2d_backward_weight(input: &Tensor, dout: &Tensor, k: usize) -> (ConvWeights, Vec<f32>) {
    let si = input.shape();
    let so = dout.shape();
    assert_eq!(
        (si.n, si.h, si.w),
        (so.n, so.h, so.w),
        "spatial/batch mismatch"
    );
    let pad = (k / 2) as isize;
    let (h, wd) = (si.h as isize, si.w as isize);
    let mut dw = ConvWeights::zeros(so.c, si.c, k);
    let mut dbias = vec![0.0f32; so.c];

    let grads: Vec<(Vec<f32>, f32)> = (0..so.c)
        .into_par_iter()
        .map(|co| {
            let mut dwslice = vec![0.0f32; si.c * k * k];
            let mut db = 0.0f32;
            for n in 0..si.n {
                let dplane = dout.plane(n, co);
                db += dplane.iter().sum::<f32>();
                for ci in 0..si.c {
                    let iplane = input.plane(n, ci);
                    for ky in 0..k {
                        for kx in 0..k {
                            let dy = ky as isize - pad;
                            let dx = kx as isize - pad;
                            let y0 = 0.max(-dy);
                            let y1 = h.min(h - dy);
                            let x0 = 0.max(-dx);
                            let x1 = wd.min(wd - dx);
                            let mut acc = 0.0f32;
                            for y in y0..y1 {
                                let row_d = (y * wd) as usize;
                                let row_i = (y + dy) * wd + dx;
                                for x in x0..x1 {
                                    acc +=
                                        dplane[row_d + x as usize] * iplane[(row_i + x) as usize];
                                }
                            }
                            dwslice[(ci * k + ky) * k + kx] += acc;
                        }
                    }
                }
            }
            (dwslice, db)
        })
        .collect();
    for (co, (dwslice, db)) in grads.into_iter().enumerate() {
        let base = co * si.c * k * k;
        dw.data[base..base + dwslice.len()].copy_from_slice(&dwslice);
        dbias[co] = db;
    }
    (dw, dbias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    fn manual_conv(input: &Tensor, w: &ConvWeights, bias: &[f32]) -> Tensor {
        let s = input.shape();
        let mut out = Tensor::zeros(s.with_channels(w.co));
        let pad = (w.k / 2) as isize;
        for n in 0..s.n {
            for co in 0..w.co {
                for y in 0..s.h as isize {
                    for x in 0..s.w as isize {
                        let mut acc = if bias.is_empty() { 0.0 } else { bias[co] };
                        for ci in 0..w.ci {
                            for ky in 0..w.k as isize {
                                for kx in 0..w.k as isize {
                                    let yy = y + ky - pad;
                                    let xx = x + kx - pad;
                                    if yy < 0 || xx < 0 || yy >= s.h as isize || xx >= s.w as isize
                                    {
                                        continue;
                                    }
                                    acc += w.data[w.index(co, ci, ky as usize, kx as usize)]
                                        * input.at(n, ci, yy as usize, xx as usize);
                                }
                            }
                        }
                        *out.at_mut(n, co, y as usize, x as usize) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference() {
        let input = Tensor::random_uniform(Shape4::new(2, 3, 6, 5), -1.0, 1.0, 3);
        let mut w = ConvWeights::zeros(4, 3, 3);
        for (i, v) in w.data.iter_mut().enumerate() {
            *v = ((i * 37 % 19) as f32 - 9.0) * 0.1;
        }
        let bias = vec![0.1, -0.2, 0.3, 0.0];
        let fast = conv2d_forward(&input, &w, &bias);
        let slow = manual_conv(&input, &w, &bias);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn identity_kernel_is_noop() {
        let input = Tensor::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 5);
        let mut w = ConvWeights::zeros(2, 2, 3);
        // center tap of (co==ci) set to 1
        for c in 0..2 {
            let idx = w.index(c, c, 1, 1);
            w.data[idx] = 1.0;
        }
        let out = conv2d_forward(&input, &w, &[]);
        assert_eq!(out, input);
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let input = Tensor::from_vec(Shape4::new(1, 2, 1, 2), vec![1.0, 2.0, /* c1 */ 3.0, 4.0]);
        let mut w = ConvWeights::zeros(1, 2, 1);
        w.data[0] = 10.0;
        w.data[1] = 100.0;
        let out = conv2d_forward(&input, &w, &[]);
        assert_eq!(out.as_slice(), &[10.0 + 300.0, 20.0 + 400.0]);
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let input = Tensor::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 7);
        let w = {
            let mut w = ConvWeights::zeros(3, 2, 3);
            for (i, v) in w.data.iter_mut().enumerate() {
                *v = ((i % 7) as f32 - 3.0) * 0.2;
            }
            w
        };
        let dout = Tensor::random_uniform(Shape4::new(1, 3, 4, 4), -1.0, 1.0, 8);
        let dinput = conv2d_backward_input(&dout, &w);
        // L = Σ dout ∘ conv(input): dL/dinput[e] via finite differences.
        let eps = 1e-2f32;
        for probe in [(0usize, 0usize, 0usize, 0usize), (0, 1, 2, 3), (0, 0, 3, 1)] {
            let (n, c, y, x) = probe;
            let mut ip = input.clone();
            *ip.at_mut(n, c, y, x) += eps;
            let mut im = input.clone();
            *im.at_mut(n, c, y, x) -= eps;
            let lp: f32 = conv2d_forward(&ip, &w, &[])
                .as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d_forward(&im, &w, &[])
                .as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = dinput.at(n, c, y, x);
            assert!(
                (fd - an).abs() < 1e-2,
                "probe {probe:?}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let input = Tensor::random_uniform(Shape4::new(2, 2, 4, 4), -1.0, 1.0, 9);
        let mut w = ConvWeights::zeros(2, 2, 3);
        for (i, v) in w.data.iter_mut().enumerate() {
            *v = ((i % 5) as f32 - 2.0) * 0.3;
        }
        let dout = Tensor::random_uniform(Shape4::new(2, 2, 4, 4), -1.0, 1.0, 10);
        let (dw, dbias) = conv2d_backward_weight(&input, &dout, 3);
        let eps = 1e-2f32;
        for probe in [0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data[probe] += eps;
            let mut wm = w.clone();
            wm.data[probe] -= eps;
            let lp: f32 = conv2d_forward(&input, &wp, &[0.0, 0.0])
                .as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d_forward(&input, &wm, &[0.0, 0.0])
                .as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.data[probe]).abs() < 2e-2,
                "w[{probe}]: {fd} vs {}",
                dw.data[probe]
            );
        }
        // Bias gradient is the plane sum of dout per channel.
        for co in 0..2 {
            let want: f32 = (0..2).map(|n| dout.plane(n, co).iter().sum::<f32>()).sum();
            assert!((dbias[co] - want).abs() < 1e-3);
        }
    }
}
