//! Seeded inputs built on the pool against the one-thread loops they
//! replaced, kept here as the oracles: every output of `generate`,
//! `add_gaussian_noise`, `downsample`, `upsample`, `upsample_window` and
//! the task builders must equal the oracle's bit for bit, at whatever
//! pool size the suite runs with (`RINGCNN_THREADS`), over sizes that
//! fit one band and sizes that split into several.

use ringcnn_imaging::degrade::{add_gaussian_noise, downsample, upsample, upsample_window};
use ringcnn_imaging::synthetic::{generate, DatasetProfile, PatternKind};
use ringcnn_imaging::tasks::{classification_set, denoising_set, sr4_set};
use ringcnn_tensor::prelude::*;

mod oracle {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use ringcnn_imaging::synthetic::PatternKind;
    use ringcnn_tensor::prelude::*;

    /// One stream, drawn sample after sample.
    pub fn add_gaussian_noise(clean: &Tensor, sigma_255: f64, seed: u64) -> Tensor {
        let sigma = (sigma_255 / 255.0) as f32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = clean.clone();
        for v in out.as_mut_slice() {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            *v = (*v + sigma * g).clamp(0.0, 1.0);
        }
        out
    }

    /// Each family's parameters drawn as its pixel loops go, over the
    /// whole image one layer after another; normalized in one pass.
    pub fn generate(kind: PatternKind, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut img = vec![0.0f32; h * w];
        match kind {
            PatternKind::ValueNoise => value_noise(&mut img, h, w, &mut rng),
            PatternKind::OrientedTexture => oriented(&mut img, h, w, &mut rng),
            PatternKind::Edges => edges(&mut img, h, w, &mut rng),
            PatternKind::Gradient => gradient(&mut img, h, w, &mut rng),
            PatternKind::Checker => checker(&mut img, h, w, &mut rng),
        }
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for v in img.iter() {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        let span = (hi - lo).max(1e-6);
        for v in img.iter_mut() {
            *v = (*v - lo) / span;
        }
        Tensor::from_vec(Shape4::new(1, 1, h, w), img)
    }

    fn value_noise(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
        let octaves = 4usize;
        for o in 0..octaves {
            let cell = 1usize << (octaves - o);
            let gw = w / cell + 2;
            let gh = h / cell + 2;
            let lattice: Vec<f32> = (0..gw * gh).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let amp = 0.5f32.powi(o as i32);
            for y in 0..h {
                for x in 0..w {
                    let fy = y as f32 / cell as f32;
                    let fx = x as f32 / cell as f32;
                    let (y0, x0) = (fy as usize, fx as usize);
                    let (ty, tx) = (fy - y0 as f32, fx - x0 as f32);
                    let v00 = lattice[y0 * gw + x0];
                    let v01 = lattice[y0 * gw + x0 + 1];
                    let v10 = lattice[(y0 + 1) * gw + x0];
                    let v11 = lattice[(y0 + 1) * gw + x0 + 1];
                    let v = v00 * (1.0 - ty) * (1.0 - tx)
                        + v01 * (1.0 - ty) * tx
                        + v10 * ty * (1.0 - tx)
                        + v11 * ty * tx;
                    img[y * w + x] += amp * v;
                }
            }
        }
    }

    fn oriented(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
        for _ in 0..3 {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::PI);
            let freq: f32 = rng.gen_range(0.15..0.9);
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let amp: f32 = rng.gen_range(0.3..1.0);
            let (s, c) = theta.sin_cos();
            for y in 0..h {
                for x in 0..w {
                    let u = c * x as f32 + s * y as f32;
                    img[y * w + x] += amp * (freq * u + phase).sin();
                }
            }
        }
    }

    fn edges(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
        for _ in 0..6 {
            let level: f32 = rng.gen_range(-1.0..1.0);
            let x0 = rng.gen_range(0..w);
            let x1 = rng.gen_range(0..w);
            let y0 = rng.gen_range(0..h);
            let y1 = rng.gen_range(0..h);
            let (x0, x1) = (x0.min(x1), x0.max(x1) + 1);
            let (y0, y1) = (y0.min(y1), y0.max(y1) + 1);
            for y in y0..y1.min(h) {
                for x in x0..x1.min(w) {
                    img[y * w + x] += level;
                }
            }
        }
    }

    fn gradient(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
        let gx: f32 = rng.gen_range(-1.0..1.0);
        let gy: f32 = rng.gen_range(-1.0..1.0);
        let cx: f32 = rng.gen_range(0.0..w as f32);
        let cy: f32 = rng.gen_range(0.0..h as f32);
        let radial: f32 = rng.gen_range(-1.0..1.0);
        let scale = 1.0 / (h.max(w) as f32);
        for y in 0..h {
            for x in 0..w {
                let dx = (x as f32 - cx) * scale;
                let dy = (y as f32 - cy) * scale;
                img[y * w + x] += gx * x as f32 * scale
                    + gy * y as f32 * scale
                    + radial * (dx * dx + dy * dy).sqrt();
            }
        }
    }

    fn checker(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
        let cell = rng.gen_range(2..6usize);
        let ox = rng.gen_range(0..cell);
        let oy = rng.gen_range(0..cell);
        for y in 0..h {
            for x in 0..w {
                let v = ((x + ox) / cell + (y + oy) / cell) % 2;
                img[y * w + x] += if v == 0 { 1.0 } else { -1.0 };
            }
        }
    }

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

    fn axis_taps(src: usize, dst: usize, from: usize, count: usize) -> Vec<Vec<(usize, f32)>> {
        let scale = src as f32 / dst as f32;
        let taps = |i: usize| {
            let f = (i as f32 + 0.5) * scale - 0.5;
            let i0 = f.floor() as isize;
            let t = f - i0 as f32;
            let at = |d: isize| (i0 + d).clamp(0, src as isize - 1) as usize;
            let taps = (-1..3).map(|d| (at(d), cubic(d as f32 - t)));
            taps.filter(|&(_, w)| w != 0.0).collect()
        };
        (from..from + count).map(taps).collect()
    }

    /// Plane after plane, row after row, from the two axis tables.
    pub fn resample(
        input: &Tensor,
        (out_h, out_w): (usize, usize),
        (top, left, h, w): (usize, usize, usize, usize),
    ) -> Tensor {
        let s = input.shape();
        let mut out = Tensor::zeros(Shape4::new(s.n, s.c, h, w));
        let rows = axis_taps(s.h, out_h, top, h);
        let cols = axis_taps(s.w, out_w, left, w);
        let planes = input.as_slice().chunks(s.plane());
        for (src, dst) in planes.zip(out.as_mut_slice().chunks_mut(h * w)) {
            for (dst, ty) in dst.chunks_mut(w).zip(&rows) {
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
        }
        out
    }

    /// The box prefilter over one whole padded plane at a time, then
    /// the resampler.
    pub fn downsample(input: &Tensor, factor: usize) -> Tensor {
        let s = input.shape();
        let half = factor / 2;
        let side = 2 * half + 1;
        let cnt = (side * side) as f32;
        let mut pre = Tensor::zeros(s);
        let pw = s.w + 2 * half;
        let mut padded = vec![0.0f32; s.h * pw];
        let mut acc = vec![0.0f32; s.w];
        let planes = input.as_slice().chunks(s.plane());
        for (src, dst) in planes.zip(pre.as_mut_slice().chunks_mut(s.plane())) {
            for (row, line) in padded.chunks_mut(pw).zip(src.chunks(s.w)) {
                for (i, p) in row.iter_mut().enumerate() {
                    *p = line[i.saturating_sub(half).min(s.w - 1)];
                }
            }
            for (y, dst) in dst.chunks_mut(s.w).enumerate() {
                acc.fill(0.0);
                for dy in 0..side {
                    let yy = (y + dy).saturating_sub(half).min(s.h - 1);
                    let row = &padded[yy * pw..][..pw];
                    for dx in 0..side {
                        acc.iter_mut().zip(&row[dx..]).for_each(|(a, p)| *a += p);
                    }
                }
                dst.iter_mut().zip(&acc).for_each(|(o, a)| *o = a / cnt);
            }
        }
        let (h, w) = (s.h / factor, s.w / factor);
        resample(&pre, (h, w), (0, 0, h, w))
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert!(bits(got) == bits(want), "{what}: differs from the oracle");
}

/// FNV-1a over the bits of every sample.
fn hash(t: &Tensor) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Four smooth frames, one per plane of a `[2, 2, h, w]` tensor.
fn frames(h: usize, w: usize) -> Tensor {
    let items: Vec<Tensor> = [PatternKind::ValueNoise, PatternKind::Edges]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let a = generate(kind, h, w, i as u64);
            let b = generate(PatternKind::OrientedTexture, h, w, 10 + i as u64);
            let mut item = Tensor::zeros(Shape4::new(1, 2, h, w));
            item.as_mut_slice()[..h * w].copy_from_slice(a.as_slice());
            item.as_mut_slice()[h * w..].copy_from_slice(b.as_slice());
            item
        })
        .collect();
    Tensor::stack_batches(&items)
}

#[test]
fn every_family_matches_the_one_thread_oracle() {
    let sizes = [(1, 1), (7, 13), (37, 37), (64, 64), (129, 257), (256, 256)];
    for kind in PatternKind::all() {
        for (h, w) in sizes {
            for seed in [0, 41, 0xDEAD_BEEF] {
                let what = format!("{kind:?} {h}x{w} seed {seed}");
                assert_same(
                    &what,
                    &generate(kind, h, w, seed),
                    &oracle::generate(kind, h, w, seed),
                );
            }
        }
    }
}

#[test]
fn empty_images_are_empty_for_every_family() {
    for kind in PatternKind::all() {
        for (h, w) in [(0, 4), (4, 0), (0, 0)] {
            let img = generate(kind, h, w, 7);
            assert_eq!(img.shape(), Shape4::new(1, 1, h, w), "{kind:?} {h}x{w}");
            assert!(img.as_slice().is_empty(), "{kind:?} {h}x{w}");
        }
    }
}

/// Ranges of the counter-addressed stream start inside planes and
/// planes start inside ranges; σ = 0 still draws (and adds zero).
#[test]
fn noise_matches_the_one_stream_oracle() {
    let stacked = Tensor::random_uniform(Shape4::new(3, 1, 50, 70), 0.0, 1.0, 4);
    let frame = generate(PatternKind::Gradient, 256, 256, 9);
    for (clean, name) in [(&stacked, "3x1x50x70"), (&frame, "256x256")] {
        for sigma in [0.0, 25.0, 80.0] {
            for seed in [1, 0xD0D0] {
                let what = format!("{name} sigma {sigma} seed {seed}");
                assert_same(
                    &what,
                    &add_gaussian_noise(clean, sigma, seed),
                    &oracle::add_gaussian_noise(clean, sigma, seed),
                );
            }
        }
    }
}

#[test]
fn downsampling_matches_the_one_thread_oracle() {
    for (h, w) in [(64, 64), (96, 200), (256, 256)] {
        let x = frames(h, w);
        for factor in [2, 4] {
            let what = format!("{h}x{w} / {factor}");
            assert_same(
                &what,
                &downsample(&x, factor),
                &oracle::downsample(&x, factor),
            );
        }
    }
}

/// The SR input's skip over a whole frame and over a tile's window,
/// both several bands tall.
#[test]
fn upsampling_matches_the_one_thread_oracle() {
    let x = frames(64, 48);
    let (uh, uw) = (256, 192);
    assert_same(
        "64x48 x4",
        &upsample(&x, 4),
        &oracle::resample(&x, (uh, uw), (0, 0, uh, uw)),
    );
    let window = (37, 21, 150, 131);
    assert_same(
        "150x131 window of 64x48 x4",
        &upsample_window(&x, 4, window, (0, 0)),
        &oracle::resample(&x, (uh, uw), window),
    );
}

/// The task builders, hashed at the one-thread loops.
#[test]
fn the_task_sets_are_unchanged() {
    let dn = denoising_set(DatasetProfile::Train, 64, 4, 25.0);
    assert_eq!(
        (hash(&dn.inputs), hash(&dn.targets)),
        (0x3ec3_c6ab_6ea2_c4e2, 0xa602_0777_f740_60e0)
    );
    let sr = sr4_set(DatasetProfile::Set14, 64, 3);
    assert_eq!(
        (hash(&sr.inputs), hash(&sr.targets)),
        (0xa298_6fd4_c29c_73aa, 0x0b93_580e_ef00_8d8a)
    );
    let (items, labels) = classification_set(5, 2, 16, 3);
    assert_eq!(hash(&items), 0x1208_8b69_ecc3_2886);
    assert_eq!(labels, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
}
