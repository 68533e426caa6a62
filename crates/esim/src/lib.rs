//! # ringcnn-esim
//!
//! Cycle-approximate simulator of the eRingCNN accelerator (§V of the
//! paper): the RCONV engine's cycles and physical/equivalent
//! multiplications per convolution ([`engine`]), the memory system of the
//! block-based inference flow ([`memory`], [`blocks`]), and whole-model
//! cycle/energy/bandwidth reporting ([`sim`]).
//!
//! The simulator computes no integers. Its outputs are those of
//! `ringcnn-quant`'s pipeline ([`QuantizedModel::forward_q`]), and every
//! convolution is accounted for by running the model's step program
//! ([`QuantizedModel::program`]) over shapes through the driver that runs
//! it on integers, [`program::run`]: over the whole frame, or over the
//! runtime's tiles, where a convolution is charged only what it computes.
//!
//! [`QuantizedModel::forward_q`]: ringcnn_quant::quantized::QuantizedModel::forward_q
//! [`QuantizedModel::program`]: ringcnn_quant::quantized::QuantizedModel::program
//! [`program::run`]: ringcnn_nn::program::run

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod engine;
pub mod memory;
pub mod sim;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::blocks::{simulate_blocked, BlockedReport};
    pub use crate::engine::{EngineGeometry, EnginePass};
    pub use crate::memory::{weight_bytes, MemoryReport};
    pub use crate::sim::{simulate, SimReport};
}
