//! # ringcnn
//!
//! The public API of the RingCNN reproduction (ISCA 2021): build CNN
//! models over algebraically-sparse ring tensors, train them, quantize
//! them, and reproduce the paper's quality experiments.
//!
//! The crate re-exports the substrates (`ringcnn-algebra`,
//! `ringcnn-tensor`, `ringcnn-nn`, `ringcnn-imaging`, `ringcnn-quant`)
//! and adds:
//!
//! - [`pruning`] — unstructured and structured pruning baselines;
//! - [`scenarios`] — the paper's application scenarios and throughput
//!   targets with their compact model configurations;
//! - [`experiments`] — the shared train/evaluate harness;
//! - [`ablation`] — the Fig. 10 `(RI,fH)`-vs-`RH` machinery.
//!
//! ## Quickstart
//!
//! ```
//! use ringcnn::prelude::*;
//!
//! // The paper's proposed algebra: component-wise ring products with the
//! // directional ReLU, at 75% sparsity (n = 4).
//! let algebra = Algebra::ri_fh(4);
//! let scenario = Scenario::Denoise { sigma: 25.0 };
//! let mut model = build_model(scenario, ThroughputTarget::Uhd30, &algebra, 42);
//!
//! // Train briefly on synthetic data and measure PSNR.
//! let scale = ExperimentScale { steps: 20, ..ExperimentScale::quick() };
//! let result = run_quality("(RI4,fH)", &mut model, scenario, &scale, 1);
//! assert!(result.psnr_db.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod pruning;
pub mod scenarios;

pub use ringcnn_algebra as algebra;
pub use ringcnn_imaging as imaging;
pub use ringcnn_nn as nn;
pub use ringcnn_quant as quant;
pub use ringcnn_tensor as tensor;

/// Convenient re-exports of the whole public surface.
pub mod prelude {
    pub use crate::ablation::{fig10_model, Fig10Variant, TupleMix};
    pub use crate::experiments::{
        classical_baseline, eval_pairs, eval_profiles, evaluate_model, run_quality, train_model,
        training_pairs, ExperimentScale, QualityResult,
    };
    pub use crate::pruning::{global_magnitude_prune, model_density, structured_filter_prune};
    pub use crate::scenarios::{build_model, Scenario, ThroughputTarget};
    pub use ringcnn_algebra::prelude::*;
    pub use ringcnn_imaging::prelude::*;
    pub use ringcnn_nn::prelude::*;
    pub use ringcnn_quant::prelude::*;
    pub use ringcnn_tensor::prelude::{Shape4, Tensor};
}
