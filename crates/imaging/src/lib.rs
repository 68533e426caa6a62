//! # ringcnn-imaging
//!
//! Computational-imaging data substrate for the RingCNN reproduction:
//! seeded procedural datasets standing in for the paper's benchmark sets
//! ([`synthetic`]), degradation models ([`degrade`]), paired task builders
//! ([`tasks`]), and quality metrics ([`metrics`]).
//!
//! ```
//! use ringcnn_imaging::prelude::*;
//! let set = denoising_set(DatasetProfile::Set5, 16, 4, 25.0);
//! let p = psnr(&set.inputs, &set.targets);
//! assert!(p > 15.0 && p < 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bands;
pub mod degrade;
pub mod metrics;
pub mod synthetic;
pub mod tasks;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::degrade::{add_gaussian_noise, downsample, resize_bicubic, upsample};
    pub use crate::metrics::{psnr, psnr_from_mse, ssim};
    pub use crate::synthetic::{dataset, generate, DatasetProfile, PatternKind};
    pub use crate::tasks::{classification_set, denoising_set, sr4_set, PairedSet};
}
