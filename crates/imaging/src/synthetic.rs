//! Procedural image synthesis: the stand-in for the paper's natural-image
//! datasets (Set5/Set14/BSD100/Urban100/CBSD68, DIV2K, Waterloo).
//!
//! Images are single-channel (luma) in `[0, 1]`, generated from seeded
//! mixtures of multi-octave value noise, oriented sinusoid textures,
//! geometric edges, and smooth gradients — enough spectral diversity to
//! exercise texture reconstruction, which is what the paper's quality
//! comparisons measure. See DESIGN.md §3 for why relative PSNR orderings
//! survive this substitution.
//!
//! Images are built on the pool and are bit-identical at every pool
//! size. A family draws all its parameters first, in one fixed stream
//! order, and no pixel loop reads the generator; pixels are then filled
//! in bands of whole rows, each pixel adding the family's layers
//! (octaves, waves, rectangles) in the order they were drawn, and mapped
//! onto `[0, 1]` by the minimum and maximum of the whole image. An
//! image that fits in one band (a 64² tile) is built inline. [`dataset`]
//! builds its items on the pool too, stacked in index order.

use crate::bands;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use ringcnn_tensor::prelude::*;

/// A family of procedural image content.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Multi-octave smoothed value noise (natural-texture analogue).
    ValueNoise,
    /// Oriented sinusoidal texture (fabric/grass analogue).
    OrientedTexture,
    /// Random rectangles and straight edges (man-made structure,
    /// Urban100 analogue).
    Edges,
    /// Smooth radial/linear gradients (sky analogue).
    Gradient,
    /// Checkerboard of random phase and scale (aliasing stressor).
    Checker,
}

impl PatternKind {
    /// All pattern families.
    pub fn all() -> [PatternKind; 5] {
        [
            PatternKind::ValueNoise,
            PatternKind::OrientedTexture,
            PatternKind::Edges,
            PatternKind::Gradient,
            PatternKind::Checker,
        ]
    }
}

/// Generates one `[1, 1, h, w]` luma image of the given family (an
/// empty one, drawing nothing, when `h` or `w` is 0).
pub fn generate(kind: PatternKind, h: usize, w: usize, seed: u64) -> Tensor {
    let mut img = vec![0.0f32; h * w];
    if !img.is_empty() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match kind {
            PatternKind::ValueNoise => value_noise(&mut img, h, w, &mut rng),
            PatternKind::OrientedTexture => oriented(&mut img, h, w, &mut rng),
            PatternKind::Edges => edges(&mut img, h, w, &mut rng),
            PatternKind::Gradient => gradient(&mut img, h, w, &mut rng),
            PatternKind::Checker => checker(&mut img, h, w, &mut rng),
        }
        normalize(&mut img);
    }
    Tensor::from_vec(Shape4::new(1, 1, h, w), img)
}

/// One octave of value noise: its lattice and, per image column, the
/// lattice column to its left and the weight toward the next.
struct Octave {
    cell: usize,
    gw: usize,
    lattice: Vec<f32>,
    amp: f32,
    cols: Vec<(usize, f32)>,
}

fn value_noise(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
    // Sum of bilinearly-interpolated random lattices at powers-of-two
    // scales, amplitude halving per octave.
    let octaves = 4usize;
    let octaves: Vec<Octave> = (0..octaves)
        .map(|o| {
            let cell = 1usize << (octaves - o); // 16, 8, 4, 2
            let gw = w / cell + 2;
            let gh = h / cell + 2;
            let lattice = (0..gw * gh).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let col = |x: usize| {
                let fx = x as f32 / cell as f32;
                let x0 = fx as usize;
                (x0, fx - x0 as f32)
            };
            let amp = 0.5f32.powi(o as i32);
            Octave {
                cell,
                gw,
                lattice,
                amp,
                cols: (0..w).map(col).collect(),
            }
        })
        .collect();
    bands::rows(img, (h, w), |_, top, band| {
        for o in &octaves {
            for (y, row) in (top..).zip(band.chunks_mut(w)) {
                let fy = y as f32 / o.cell as f32;
                let y0 = fy as usize;
                let ty = fy - y0 as f32;
                let (above, below) = (&o.lattice[y0 * o.gw..], &o.lattice[(y0 + 1) * o.gw..]);
                for (p, &(x0, tx)) in row.iter_mut().zip(&o.cols) {
                    let v = above[x0] * (1.0 - ty) * (1.0 - tx)
                        + above[x0 + 1] * (1.0 - ty) * tx
                        + below[x0] * ty * (1.0 - tx)
                        + below[x0 + 1] * ty * tx;
                    *p += o.amp * v;
                }
            }
        }
    });
}

fn oriented(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
    let waves: Vec<_> = (0..3)
        .map(|_| {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::PI);
            let freq: f32 = rng.gen_range(0.15..0.9);
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let amp: f32 = rng.gen_range(0.3..1.0);
            let (s, c) = theta.sin_cos();
            (s, c, freq, phase, amp)
        })
        .collect();
    bands::rows(img, (h, w), |_, top, band| {
        for &(s, c, freq, phase, amp) in &waves {
            for (y, row) in (top..).zip(band.chunks_mut(w)) {
                for (x, p) in row.iter_mut().enumerate() {
                    let u = c * x as f32 + s * y as f32;
                    *p += amp * (freq * u + phase).sin();
                }
            }
        }
    });
}

fn edges(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
    let rects: Vec<_> = (0..6)
        .map(|_| {
            let level: f32 = rng.gen_range(-1.0..1.0);
            let x0 = rng.gen_range(0..w);
            let x1 = rng.gen_range(0..w);
            let y0 = rng.gen_range(0..h);
            let y1 = rng.gen_range(0..h);
            (
                level,
                y0.min(y1)..y0.max(y1) + 1,
                x0.min(x1)..x0.max(x1) + 1,
            )
        })
        .collect();
    bands::rows(img, (h, w), |_, top, band| {
        for (level, ys, xs) in &rects {
            for (y, row) in (top..).zip(band.chunks_mut(w)) {
                if ys.contains(&y) {
                    row[xs.clone()].iter_mut().for_each(|p| *p += level);
                }
            }
        }
    });
}

fn gradient(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
    let gx: f32 = rng.gen_range(-1.0..1.0);
    let gy: f32 = rng.gen_range(-1.0..1.0);
    let cx: f32 = rng.gen_range(0.0..w as f32);
    let cy: f32 = rng.gen_range(0.0..h as f32);
    let radial: f32 = rng.gen_range(-1.0..1.0);
    let scale = 1.0 / (h.max(w) as f32);
    bands::rows(img, (h, w), |_, top, band| {
        for (y, row) in (top..).zip(band.chunks_mut(w)) {
            for (x, p) in row.iter_mut().enumerate() {
                let dx = (x as f32 - cx) * scale;
                let dy = (y as f32 - cy) * scale;
                *p += gx * x as f32 * scale
                    + gy * y as f32 * scale
                    + radial * (dx * dx + dy * dy).sqrt();
            }
        }
    });
}

fn checker(img: &mut [f32], h: usize, w: usize, rng: &mut ChaCha8Rng) {
    let cell = rng.gen_range(2..6usize);
    let ox = rng.gen_range(0..cell);
    let oy = rng.gen_range(0..cell);
    bands::rows(img, (h, w), |_, top, band| {
        for (y, row) in (top..).zip(band.chunks_mut(w)) {
            for (x, p) in row.iter_mut().enumerate() {
                let v = ((x + ox) / cell + (y + oy) / cell) % 2;
                *p += if v == 0 { 1.0 } else { -1.0 };
            }
        }
    });
}

/// Maps `img` onto `[0, 1]` by its minimum and maximum, taken over the
/// whole image.
fn normalize(img: &mut [f32]) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for v in img.iter() {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    let span = (hi - lo).max(1e-6);
    bands::ranges(img, |_, samples| {
        samples.iter_mut().for_each(|v| *v = (*v - lo) / span);
    });
}

/// Named dataset profiles standing in for the paper's benchmark sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// Tiny 5-image evaluation set (Set5 analogue).
    Set5,
    /// 14-image evaluation set with more structure (Set14 analogue).
    Set14,
    /// Larger natural-texture evaluation set (BSD100/CBSD68 analogue).
    Bsd,
    /// Edge/structure-heavy evaluation set (Urban100 analogue).
    Urban,
    /// Large training corpus (DIV2K + Waterloo analogue).
    Train,
}

impl DatasetProfile {
    /// Base RNG seed so every profile is disjoint and reproducible.
    pub fn seed(&self) -> u64 {
        match self {
            DatasetProfile::Set5 => 0x5E75,
            DatasetProfile::Set14 => 0x5E714,
            DatasetProfile::Bsd => 0xB5D,
            DatasetProfile::Urban => 0x04BA,
            DatasetProfile::Train => 0x7124,
        }
    }

    /// Pattern mixture of the profile.
    fn kind_for(&self, index: usize) -> PatternKind {
        let all = PatternKind::all();
        match self {
            // Urban is edge/checker heavy; others cycle through all kinds.
            DatasetProfile::Urban => [
                PatternKind::Edges,
                PatternKind::Checker,
                PatternKind::OrientedTexture,
            ][index % 3],
            _ => all[index % all.len()],
        }
    }
}

/// Generates a stacked `[count, 1, size, size]` dataset for a profile.
pub fn dataset(profile: DatasetProfile, size: usize, count: usize) -> Tensor {
    let items: Vec<Tensor> = (0..count)
        .into_par_iter()
        .map(|i| {
            generate(
                profile.kind_for(i),
                size,
                size,
                profile.seed() + i as u64 * 7919,
            )
        })
        .collect();
    Tensor::stack_batches(&items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_normalized() {
        for kind in PatternKind::all() {
            let img = generate(kind, 16, 16, 3);
            let lo = img.as_slice().iter().fold(f32::INFINITY, |m, v| m.min(*v));
            let hi = img
                .as_slice()
                .iter()
                .fold(f32::NEG_INFINITY, |m, v| m.max(*v));
            assert!(lo >= 0.0 && hi <= 1.0, "{kind:?} range [{lo}, {hi}]");
            assert!(hi - lo > 0.5, "{kind:?} should use the dynamic range");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(PatternKind::ValueNoise, 12, 12, 9);
        let b = generate(PatternKind::ValueNoise, 12, 12, 9);
        assert_eq!(a, b);
        let c = generate(PatternKind::ValueNoise, 12, 12, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn dataset_shapes() {
        let d = dataset(DatasetProfile::Set5, 16, 5);
        assert_eq!(d.shape(), Shape4::new(5, 1, 16, 16));
    }

    #[test]
    fn profiles_are_disjoint() {
        let a = dataset(DatasetProfile::Set5, 8, 2);
        let b = dataset(DatasetProfile::Set14, 8, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn images_within_dataset_differ() {
        let d = dataset(DatasetProfile::Train, 8, 10);
        for i in 1..10 {
            assert_ne!(
                d.batch_item(0),
                d.batch_item(i),
                "item {i} duplicates item 0"
            );
        }
    }
}
