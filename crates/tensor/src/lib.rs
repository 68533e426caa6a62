//! # ringcnn-tensor
//!
//! Minimal dense NCHW tensor substrate for the RingCNN reproduction:
//! a 4-D `f32` [`tensor::Tensor`], real-valued 2-D convolution with
//! forward/backward passes ([`conv`]), and shape bookkeeping
//! ([`shape::Shape4`]).
//!
//! Heavier machinery (ring convolutions, layers, optimizers) lives in
//! `ringcnn-nn`; this crate stays dependency-light so the algebra, the
//! imaging substrate, and the simulator can all share it.
//!
//! ```
//! use ringcnn_tensor::prelude::*;
//! let x = Tensor::random_uniform(Shape4::new(1, 3, 8, 8), -1.0, 1.0, 42);
//! let mut w = ConvWeights::zeros(4, 3, 3);
//! let idx = w.index(0, 0, 1, 1);
//! w.data[idx] = 1.0;
//! let y = conv2d_forward(&x, &w, &[]);
//! assert_eq!(y.shape().c, 4);
//! ```

#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
pub mod im2col;
pub mod shape;
pub mod tensor;
pub mod tile;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::conv::{
        conv2d_backward_input, conv2d_backward_weight, conv2d_forward, ConvWeights,
    };
    pub use crate::gemm::{
        active_kernel, forced_kernel_scope, KernelBackend, PackedWeights, RequantChannel,
        RequantPlan,
    };
    pub use crate::im2col::{
        conv2d_forward_im2col, conv2d_forward_packed, im2col_pack, im2col_pack_window, ConvInput,
    };
    pub use crate::shape::Shape4;
    pub use crate::tensor::Tensor;
    pub use crate::tile::{tile_grid, Window};
}
