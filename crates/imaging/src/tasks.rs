//! Paired task datasets: denoising, ×4 super-resolution, and the
//! synthetic classification set of Appendix C.

use crate::degrade::{add_gaussian_noise, downsample};
use crate::synthetic::{dataset, generate, DatasetProfile, PatternKind};
use rayon::prelude::*;
use ringcnn_tensor::prelude::*;

/// A paired imaging dataset: degraded inputs and clean targets, stacked
/// along the batch dimension.
#[derive(Clone, Debug)]
pub struct PairedSet {
    /// Degraded network inputs.
    pub inputs: Tensor,
    /// Clean ground truth.
    pub targets: Tensor,
}

/// Builds a Gaussian-denoising set: `inputs = clean + N(0, σ)`,
/// `targets = clean`.
pub fn denoising_set(profile: DatasetProfile, size: usize, count: usize, sigma: f64) -> PairedSet {
    let clean = dataset(profile, size, count);
    let noisy = add_gaussian_noise(&clean, sigma, profile.seed() ^ 0xD0D0);
    PairedSet {
        inputs: noisy,
        targets: clean,
    }
}

/// Builds a ×4 super-resolution set: `inputs` are bicubic-downsampled,
/// `targets` the originals.
///
/// # Panics
///
/// Panics if `size` is not divisible by 4.
pub fn sr4_set(profile: DatasetProfile, size: usize, count: usize) -> PairedSet {
    assert_eq!(size % 4, 0, "HR size must divide by 4");
    let hr = dataset(profile, size, count);
    let lr = downsample(&hr, 4);
    PairedSet {
        inputs: lr,
        targets: hr,
    }
}

/// A labelled classification set of procedural patterns (the CIFAR-100
/// stand-in of Appendix C): class = pattern family × parameter bucket.
pub fn classification_set(
    classes: usize,
    per_class: usize,
    size: usize,
    seed: u64,
) -> (Tensor, Vec<usize>) {
    let kinds = PatternKind::all();
    let item = |j: usize| (j / per_class, (j % per_class) as u64);
    let items: Vec<Tensor> = (0..classes * per_class)
        .into_par_iter()
        .map(|j| {
            let (class, i) = item(j);
            // Different parameter bucket per class via the seed stream.
            let class_seed = seed + 10_007 * class as u64;
            generate(kinds[class % kinds.len()], size, size, class_seed + 131 * i)
        })
        .collect();
    let labels = (0..items.len()).map(|j| item(j).0).collect();
    (Tensor::stack_batches(&items), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;

    #[test]
    fn denoising_pairs_are_aligned() {
        let set = denoising_set(DatasetProfile::Set5, 16, 4, 25.0);
        assert_eq!(set.inputs.shape(), set.targets.shape());
        // Input PSNR for σ=25 should be near 20 dB on [0,1] images
        // (clamping at the borders raises it slightly).
        let p = psnr(&set.inputs, &set.targets);
        assert!(p > 19.0 && p < 23.0, "input PSNR {p}");
    }

    #[test]
    fn sr4_pairs_have_quarter_resolution() {
        let set = sr4_set(DatasetProfile::Set14, 16, 3);
        assert_eq!(set.targets.shape(), Shape4::new(3, 1, 16, 16));
        assert_eq!(set.inputs.shape(), Shape4::new(3, 1, 4, 4));
    }

    #[test]
    fn classification_set_is_balanced() {
        let (xs, labels) = classification_set(5, 4, 8, 3);
        assert_eq!(xs.shape().n, 20);
        for class in 0..5 {
            assert_eq!(labels.iter().filter(|l| **l == class).count(), 4);
        }
    }

    #[test]
    fn classification_items_differ_within_class() {
        let (xs, _) = classification_set(2, 3, 8, 3);
        assert_ne!(xs.batch_item(0), xs.batch_item(1));
    }
}
