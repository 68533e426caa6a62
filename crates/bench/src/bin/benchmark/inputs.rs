//! Everything a workload feeds the program, derived from `--seed`:
//! frames, noise fields, request tiles and arrival schedules. The
//! program under test only ever sees these generated inputs.

use ringcnn::imaging::degrade::{add_gaussian_noise, downsample};
use ringcnn::imaging::synthetic::{generate, PatternKind};
use ringcnn::tensor::tensor::Tensor;

/// Noise level of the denoising workloads (0–255 scale), the paper's σ.
pub const SIGMA: f64 = 25.0;

/// SplitMix64: the benchmark's own tiny generator, so arrival schedules
/// and choices need no crate the bench package does not already have.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent sub-seed of `seed` for one named input stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `count` clean `hw × hw` luma frames cycling the synthetic pattern
/// families. Image content, not uniform noise: the GEMM zero-skip paths
/// are data-dependent, and the same model ran twice as slow on
/// `random_uniform` input in the sizing prototype.
pub fn clean_frames(seed: u64, hw: usize, count: usize) -> Vec<Tensor> {
    let kinds = PatternKind::all();
    (0..count)
        .map(|i| generate(kinds[i % kinds.len()], hw, hw, derive(seed, 100 + i as u64)))
        .collect()
}

/// σ = 25 noisy versions of `clean`, one seeded noise field per frame.
pub fn noisy(clean: &[Tensor], seed: u64) -> Vec<Tensor> {
    clean
        .iter()
        .enumerate()
        .map(|(i, c)| add_gaussian_noise(c, SIGMA, derive(seed, 200 + i as u64)))
        .collect()
}

/// ×4 bicubic-downsampled versions of `clean` (the SR inputs).
pub fn low_res(clean: &[Tensor]) -> Vec<Tensor> {
    clean.iter().map(|c| downsample(c, 4)).collect()
}

/// Arrivals of a Poisson process at `rate_per_s` over `[0, seconds)`,
/// conditioned on their count: exactly `rate_per_s · seconds` send
/// offsets, independent and uniform over the pass, ascending, in
/// seconds. Fixing the count keeps the offered load identical under
/// every seed (a free count varies by ±1/√n, which would read as a
/// throughput change).
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate_per_s * seconds).round() as usize;
    let mut out: Vec<f64> = (0..count).map(|_| rng.next_f64() * seconds).collect();
    out.sort_by(f64::total_cmp);
    out
}
