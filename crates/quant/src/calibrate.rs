//! The calibration pipeline: fit per-layer/per-component Q-formats from
//! a calibration batch, measure the resulting fidelity, and export
//! directly to the `ringcnn-qmodel/v1` serving format.
//!
//! This is the offline half of the quantized serving story: train (or
//! load) a float model, run [`calibrate`] on a representative batch,
//! write [`calibrate_to_qmodel`]'s output next to the float
//! `ringcnn-model/v1` file, and the serve registry picks both up —
//! `precision: "fp64"` requests run the float pipeline, `precision:
//! "quant"` the integer one.

use crate::quantized::{CalibrationError, QuantOptions, QuantizedModel};
use crate::serialize::{export_qmodel, QModelFile, QModelLoadError};
use ringcnn_imaging::metrics::psnr;
use ringcnn_nn::layers::structure::Sequential;
use ringcnn_tensor::prelude::*;

/// A calibrated pipeline plus its measured fidelity.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// The integer pipeline.
    pub qmodel: QuantizedModel,
    /// Float-vs-quantized PSNR on the calibration batch (dB).
    pub psnr_vs_float: f64,
}

/// Why the calibrate-and-export pipeline failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CalibrateError {
    /// The format-fitting pass failed (divergent ranges, unsupported
    /// layer, empty batch).
    Calibration(CalibrationError),
    /// The calibrated pipeline failed export validation (a builder bug —
    /// fresh calibrations are structurally consistent by construction).
    Export(QModelLoadError),
}

impl std::fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrateError::Calibration(e) => write!(f, "{e}"),
            CalibrateError::Export(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CalibrateError {}

impl From<CalibrationError> for CalibrateError {
    fn from(e: CalibrationError) -> Self {
        CalibrateError::Calibration(e)
    }
}

/// Calibrates `model` on `batch` and measures the float-vs-quantized
/// PSNR over the same batch.
///
/// # Errors
///
/// [`CalibrationError`] on divergent ranges / unsupported layers / an
/// empty batch — never a panic, even for NaN-poisoned inputs.
pub fn calibrate(
    model: &mut Sequential,
    batch: &Tensor,
    opts: QuantOptions,
) -> Result<Calibration, CalibrationError> {
    let (qmodel, float_out) = QuantizedModel::calibrated(model, batch, opts)?;
    let quant_out = qmodel.forward(batch);
    Ok(Calibration {
        qmodel,
        psnr_vs_float: psnr(&float_out, &quant_out),
    })
}

/// [`calibrate`] + [`export_qmodel`]: the one-call pipeline from a float
/// model to an on-disk-ready `ringcnn-qmodel/v1` file. `name` must be
/// the registry key of the float model this pipeline serves beside;
/// `arch`/`algebra` are display labels.
///
/// # Errors
///
/// [`CalibrateError`] wrapping either stage's failure.
pub fn calibrate_to_qmodel(
    name: &str,
    arch: &str,
    algebra: &str,
    model: &mut Sequential,
    batch: &Tensor,
    opts: QuantOptions,
) -> Result<QModelFile, CalibrateError> {
    let channels_io = batch.shape().c;
    let cal = calibrate(model, batch, opts)?;
    export_qmodel(
        name,
        arch,
        algebra,
        channels_io,
        cal.psnr_vs_float,
        cal.qmodel,
    )
    .map_err(CalibrateError::Export)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::layer::Layer;
    use ringcnn_nn::layers::dense::Dense;
    use ringcnn_nn::prelude::*;

    #[test]
    fn calibrate_reports_fidelity_and_exports() {
        let alg = Algebra::real();
        let mut model = Sequential::new()
            .with(alg.conv(1, 6, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(6, 1, 3, 4));
        let batch = Tensor::random_uniform(Shape4::new(2, 1, 12, 12), 0.0, 1.0, 7);
        let file = calibrate_to_qmodel(
            "m",
            "tiny",
            &alg.label(),
            &mut model,
            &batch,
            QuantOptions::default(),
        )
        .unwrap();
        assert_eq!(file.channels_io, 1);
        assert!(
            file.calibration_psnr > 25.0,
            "8-bit real-field calibration should track the float model, got {:.1} dB",
            file.calibration_psnr
        );
        // The exported pipeline is the calibrated pipeline.
        let direct = QuantizedModel::quantize(&mut model, &batch, QuantOptions::default());
        assert_eq!(file.model.forward(&batch), direct.forward(&batch));
        // Its fidelity is measured against the float output of its run.
        let cal = calibrate(&mut model, &batch, QuantOptions::default()).unwrap();
        let float = Layer::forward_infer(&model, &batch);
        assert_eq!(cal.psnr_vs_float, psnr(&float, &cal.qmodel.forward(&batch)));
    }

    #[test]
    fn divergent_calibration_surfaces_an_error_not_a_panic() {
        let alg = Algebra::real();
        let mut model = Sequential::new().with(alg.conv(1, 4, 3, 3));
        let mut batch = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 5);
        batch.as_mut_slice()[3] = f32::NAN;
        let err = calibrate(&mut model, &batch, QuantOptions::default()).unwrap_err();
        assert!(
            matches!(err, CalibrationError::NonFinite { .. }),
            "NaN batch must be a NonFinite error, got {err}"
        );
        // Poisoned weights diverge mid-chain and must also error.
        let mut batch = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 5);
        batch.as_mut_slice()[0] = f32::INFINITY;
        let err = calibrate(&mut model, &batch, QuantOptions::default()).unwrap_err();
        assert!(matches!(err, CalibrationError::NonFinite { .. }), "{err}");
    }

    #[test]
    fn unsupported_layers_error_cleanly() {
        let dense = || Box::new(Dense::new(4, 2, 1)) as Box<dyn Layer>;
        let mut model = Sequential::new().with(dense());
        let batch = Tensor::random_uniform(Shape4::new(1, 4, 1, 1), 0.0, 1.0, 5);
        let err = calibrate(&mut model, &batch, QuantOptions::default()).unwrap_err();
        let unsupported = CalibrationError::UnsupportedLayer("dense(4->2)".into());
        assert_eq!(err, unsupported);
        // Behind a conv it is refused before anything runs: were they run,
        // the conv would panic on a one-channel batch, the dense layer on
        // the conv's planes.
        let conv = Algebra::real().conv(2, 4, 3, 3);
        let mut model = Sequential::new().with(conv).with(dense());
        let batch = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 5);
        let err = calibrate(&mut model, &batch, QuantOptions::default()).unwrap_err();
        assert_eq!(err, unsupported);
    }
}
