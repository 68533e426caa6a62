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
//! convolution is accounted for from the input shape
//! [`QuantizedModel::walk_shapes`] hands it — the walk quant owns.
//!
//! [`QuantizedModel::forward_q`]: ringcnn_quant::quantized::QuantizedModel::forward_q
//! [`QuantizedModel::walk_shapes`]: ringcnn_quant::quantized::QuantizedModel::walk_shapes

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod engine;
pub mod memory;
pub mod sim;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::blocks::{receptive_halo, simulate_blocked, BlockedReport};
    pub use crate::engine::{EngineGeometry, EnginePass};
    pub use crate::memory::{weight_bytes, MemoryReport};
    pub use crate::sim::{simulate, SimReport};
}
