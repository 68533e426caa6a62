//! # ringcnn-esim
//!
//! Cycle-approximate simulator of the eRingCNN accelerator (§V of the
//! paper): the block-based inference flow with its cycle/energy/bandwidth
//! report ([`sim`]) and its memory system ([`memory`]). The engine itself
//! — its geometry, widths and the work of one convolution
//! ([`EnginePass`]) — is `ringcnn-hw`'s, the one description the area and
//! power models price.
//!
//! The simulator computes no integers. Its outputs are those of
//! `ringcnn-quant`'s pipeline as the CPU runtime runs a frame
//! ([`BatchRunner::run`], bit-identical to the whole-frame forward),
//! and every convolution is accounted for by running the model's step
//! program ([`QuantizedModel::program`]) over shapes through the driver
//! that runs it on integers, [`program::stream`]: each block is its
//! core's window grown by the runtime's halo, streamed in one band, and a
//! convolution is charged [`EnginePass::of_conv`] over only what its
//! block computes ([`program::margins`]).
//!
//! [`EnginePass`]: ringcnn_hw::engine::EnginePass
//! [`EnginePass::of_conv`]: ringcnn_hw::engine::EnginePass::of_conv
//! [`BatchRunner::run`]: ringcnn_nn::runtime::BatchRunner::run
//! [`QuantizedModel::program`]: ringcnn_quant::quantized::QuantizedModel::program
//! [`program::stream`]: ringcnn_nn::program::stream
//! [`program::margins`]: ringcnn_nn::program::margins

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod sim;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::memory::{weight_bytes, MemoryReport};
    pub use crate::sim::{simulate, SimReport};
}
