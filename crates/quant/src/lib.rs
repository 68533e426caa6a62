//! # ringcnn-quant
//!
//! Dynamic fixed-point quantization for RingCNN models (§IV-C of the
//! paper): per-layer Q-formats, **component-wise Q-formats** for the
//! directional ReLU, and a bit-accurate integer inference pipeline with
//! both the paper's **on-the-fly** directional-ReLU execution (Fig. 8)
//! and the conventional MAC-based baseline it improves upon.
//!
//! The [`quantized::QuantizedModel`] produced here is also the reference
//! the `ringcnn-esim` accelerator simulator must match bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod qformat;
pub mod qtensor;
pub mod quantized;
pub mod serialize;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::calibrate::{calibrate, calibrate_to_qmodel, CalibrateError, Calibration};
    pub use crate::qformat::{requant_shift, QFormat, QFormatError};
    pub use crate::qtensor::{expand_formats, group_max_abs, QTensor, QTensorOf, Store};
    pub use crate::quantized::{
        CalibrationError, DReluMode, Lanes, QLayer, QuantOptions, QuantizedModel, Storage,
    };
    pub use crate::serialize::{
        export_qmodel, peek_format_tag, qmodel_from_json, qmodel_to_json, QModelFile,
        QModelLoadError, QMODEL_FORMAT,
    };
}
