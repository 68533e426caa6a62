//! # ringcnn-nn
//!
//! A from-scratch CPU CNN training framework purpose-built for the
//! RingCNN reproduction: layers with manual backprop, ring convolutions
//! over any [`ringcnn_algebra`] ring, the directional ReLU, optimizers,
//! a model zoo (ERNet-style, SRResNet, VDSR, FFDNet, ResNet-mini), and
//! small training loops.
//!
//! Ring convolutions train by lowering onto their isomorphic real
//! convolution (eq. (4) of the paper) and contracting gradients back to
//! ring components — exactly the Backprop strategy of §IV-B.
//!
//! ```
//! use ringcnn_nn::prelude::*;
//! use ringcnn_tensor::prelude::*;
//!
//! let alg = Algebra::ri_fh(2); // the paper's proposed (RI, fH)
//! let mut model = Sequential::new()
//!     .with(alg.conv(2, 4, 3, 1))
//!     .with_opt(alg.activation())
//!     .with(alg.conv(4, 2, 3, 2));
//! let x = Tensor::zeros(Shape4::new(1, 2, 8, 8));
//! assert_eq!(model.forward(&x, false).shape(), x.shape());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra_choice;
pub mod backend;
pub mod complexity;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod program;
pub mod runtime;
pub mod serialize;
pub mod train;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::algebra_choice::Algebra;
    pub use crate::backend::ConvBackend;
    pub use crate::complexity::{gmults_per_frame, mults_per_input_pixel};
    pub use crate::layer::Layer;
    pub use crate::layers::activation::{DirectionalReluLayer, Relu};
    pub use crate::layers::conv::{Conv2d, DepthwiseConv2d};
    pub use crate::layers::dense::{Dense, GlobalAvgPool};
    pub use crate::layers::fast_ring_conv::FastRingConv;
    pub use crate::layers::ring_conv::RingConv2d;
    pub use crate::layers::shuffle::{PixelShuffle, PixelUnshuffle};
    pub use crate::layers::structure::{Residual, Sequential};
    pub use crate::layers::upsample::{scale_conv_weights, UpsampleResidual};
    pub use crate::loss::{cross_entropy_loss, l1_loss, mse_loss};
    pub use crate::optim::{Adam, Sgd};
    pub use crate::runtime::{model_topology, BatchRunner, ModelTopo, TileConfig};
    pub use crate::serialize::{
        export_model, instantiate, load_params, model_from_json, model_to_json, save_params,
        AlgebraSpec, ModelFile, ModelLoadError, ModelParams, ModelSpec,
    };
    pub use crate::train::{
        accuracy, predict, train_classifier, train_regression, TrainConfig, TrainReport,
    };
}
