//! Quantized-model serialization: the versioned `ringcnn-qmodel/v1`
//! on-disk format.
//!
//! A [`QModelFile`] is a complete, self-contained integer pipeline:
//! weights as integers, every per-layer/per-component Q-format table,
//! the calibrated input format, and the quantization options — plus the
//! registry name it attaches to and display metadata. Nothing float is
//! stored except the f64-bit-encoded biases (whose fixed-point scale is
//! resolved at run time; the encoding is lossless).
//!
//! The format mirrors `ringcnn-model/v1` (`ringcnn_nn::serialize`):
//! line-oriented JSON under a version tag, and every malformed input —
//! truncated file, wrong version, inconsistent channel chain, a Q-format
//! or a stage the modelled datapath cannot hold — surfaces as a
//! [`QModelLoadError`], never a panic. Loaded pipelines additionally
//! pass [`QuantizedModel::validate`], so a hand-edited file cannot
//! smuggle in a pipeline that would panic or overflow at inference time.

use crate::quantized::QuantizedModel;
use ringcnn_nn::serialize::format_tag;
use serde::{Deserialize, Serialize};

/// Version tag of the quantized-model on-disk format.
pub const QMODEL_FORMAT: &str = "ringcnn-qmodel/v1";

/// A complete, self-describing quantized model file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QModelFile {
    /// Format version tag ([`QMODEL_FORMAT`]).
    pub format: String,
    /// Registry key this pipeline attaches to (the float model's name).
    pub name: String,
    /// Architecture display label, e.g. `ffdnet-d3c8` (informational).
    pub arch: String,
    /// Algebra display label, e.g. `(RH4, fcw)` (informational).
    pub algebra: String,
    /// Image I/O channel count an inference request must supply.
    pub channels_io: usize,
    /// Float-vs-quantized PSNR measured on the calibration batch at
    /// export time (dB) — the fidelity the serving layer may advertise.
    pub calibration_psnr: f64,
    /// The integer pipeline.
    pub model: QuantizedModel,
}

/// Why a quantized model file failed to load. Every malformed input maps
/// here — the load path must never panic.
#[derive(Clone, Debug, PartialEq)]
pub enum QModelLoadError {
    /// The text is not valid JSON for the schema (truncated file, type
    /// mismatch, missing field).
    Parse(String),
    /// The format tag is missing or names an unsupported version.
    Format(String),
    /// The pipeline parsed but is structurally inconsistent
    /// ([`QuantizedModel::validate`] failed).
    Invalid(String),
}

impl std::fmt::Display for QModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QModelLoadError::Parse(e) => write!(f, "qmodel file does not parse: {e}"),
            QModelLoadError::Format(t) => {
                write!(f, "unsupported qmodel format `{t}` (want {QMODEL_FORMAT})")
            }
            QModelLoadError::Invalid(e) => write!(f, "qmodel file is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for QModelLoadError {}

/// Wraps a calibrated pipeline into an export-ready file (validated, so
/// an inconsistent pipeline fails at export time, not at every load).
///
/// # Errors
///
/// [`QModelLoadError::Invalid`] when the pipeline fails
/// [`QuantizedModel::validate`] for `channels_io`.
pub fn export_qmodel(
    name: &str,
    arch: &str,
    algebra: &str,
    channels_io: usize,
    calibration_psnr: f64,
    model: QuantizedModel,
) -> Result<QModelFile, QModelLoadError> {
    model
        .validate(channels_io)
        .map_err(QModelLoadError::Invalid)?;
    Ok(QModelFile {
        format: QMODEL_FORMAT.into(),
        name: name.into(),
        arch: arch.into(),
        algebra: algebra.into(),
        channels_io,
        calibration_psnr,
        model,
    })
}

/// Renders a qmodel file to its on-disk JSON form.
pub fn qmodel_to_json(file: &QModelFile) -> String {
    serde_json::to_string(file).expect("qmodel file serializes")
}

impl QModelFile {
    /// The qmodel file a parsed JSON value holds: format tag first
    /// ([`format_tag`]), then the schema, then the load rule
    /// ([`QuantizedModel::validate`]); handed back prepared for inference.
    ///
    /// # Errors
    ///
    /// [`QModelLoadError::Format`], [`QModelLoadError::Parse`], then
    /// [`QModelLoadError::Invalid`].
    pub fn from_value(v: &serde::Value) -> Result<Self, QModelLoadError> {
        let tag = format_tag(v);
        if tag != QMODEL_FORMAT {
            return Err(QModelLoadError::Format(tag.into()));
        }
        let mut file =
            Self::from_json_value(v).map_err(|e| QModelLoadError::Parse(e.to_string()))?;
        file.model
            .validate(file.channels_io)
            .map_err(QModelLoadError::Invalid)?;
        // The weights are frozen from here on: plan them once, at load.
        file.model.prepare_inference();
        Ok(file)
    }
}

/// Parses on-disk JSON into a [`QModelFile`]: one parse, then
/// [`QModelFile::from_value`].
///
/// # Errors
///
/// [`QModelLoadError::Parse`] on malformed/truncated JSON, else as
/// [`QModelFile::from_value`].
pub fn qmodel_from_json(text: &str) -> Result<QModelFile, QModelLoadError> {
    let value = serde_json::from_str(text).map_err(|e| QModelLoadError::Parse(e.to_string()))?;
    QModelFile::from_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::QuantOptions;
    use ringcnn_nn::prelude::*;
    use ringcnn_tensor::prelude::*;

    fn calibrated(alg: &Algebra) -> (QuantizedModel, Tensor) {
        let mut model = Sequential::new()
            .with(alg.conv(1, 8, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(8, 1, 3, 5));
        let x = Tensor::random_uniform(Shape4::new(2, 1, 10, 10), 0.0, 1.0, 9);
        let qm = QuantizedModel::quantize(&mut model, &x, QuantOptions::default());
        (qm, x)
    }

    #[test]
    fn qmodel_roundtrips_bit_exactly() {
        for alg in [Algebra::real(), Algebra::ri_fh(4)] {
            let (qm, x) = calibrated(&alg);
            let want = qm.forward(&x);
            let file = export_qmodel("m", "tiny", &alg.label(), 1, 30.0, qm.clone()).unwrap();
            let json = qmodel_to_json(&file);
            let value = serde_json::from_str(&json).expect("the file parses");
            assert_eq!(format_tag(&value), QMODEL_FORMAT);
            assert!(!json.contains("plan"), "derived state must not be stored");
            let back = qmodel_from_json(&json).unwrap();
            assert_eq!(back, file);
            assert_eq!(
                back.model.forward(&x).as_slice(),
                want.as_slice(),
                "loaded pipeline must be the exported pipeline, bit for bit ({})",
                alg.label()
            );
        }
    }

    #[test]
    fn corrupt_qmodel_files_error_instead_of_panicking() {
        let (qm, _x) = calibrated(&Algebra::ri_fh(2));
        let json =
            qmodel_to_json(&export_qmodel("m", "tiny", "(RI2, fH)", 1, 20.0, qm.clone()).unwrap());
        for cut in [0, 1, json.len() / 4, json.len() / 2, json.len() - 1] {
            let err = qmodel_from_json(&json[..cut]).unwrap_err();
            assert!(
                matches!(err, QModelLoadError::Parse(_) | QModelLoadError::Format(_)),
                "cut at {cut}: {err}"
            );
        }
        assert!(matches!(
            qmodel_from_json("not json").unwrap_err(),
            QModelLoadError::Parse(_)
        ));
        let wrong = json.replacen(QMODEL_FORMAT, "ringcnn-qmodel/v999", 1);
        assert!(matches!(
            qmodel_from_json(&wrong).unwrap_err(),
            QModelLoadError::Format(t) if t.contains("v999")
        ));
        // A float model file is a *format* mismatch, not a parse crash.
        assert!(matches!(
            qmodel_from_json(r#"{"format":"ringcnn-model/v1"}"#).unwrap_err(),
            QModelLoadError::Format(_)
        ));
        // Structural damage: wrong channels_io for the pipeline.
        let err = export_qmodel("m", "tiny", "(RI2, fH)", 3, 20.0, qm).unwrap_err();
        assert!(matches!(err, QModelLoadError::Invalid(_)), "{err}");
    }

    #[test]
    fn huge_shuffle_and_kernel_factors_are_refused_before_anything_grows() {
        // Behind a conv: a shuffle whose `r²` overflows (a remainder by
        // zero in a release build, a multiply overflow in a debug one),
        // and an unshuffle whose 8 · 1000² channels no conv could read.
        let (qm, _x) = calibrated(&Algebra::real());
        let json = qmodel_to_json(&export_qmodel("m", "tiny", "(real)", 1, 20.0, qm).unwrap());
        for layer in [r#"{"Shuffle":4294967296}"#, r#"{"Unshuffle":1000}"#] {
            let evil = json.replacen("\"Relu\"", layer, 1);
            assert_ne!(evil, json, "the file has a ReLU at layer 1");
            match qmodel_from_json(&evil) {
                Err(QModelLoadError::Invalid(m)) => assert!(m.starts_with("layer 1:"), "{m}"),
                other => panic!("{layer}: {other:?}"),
            }
        }
        // A kernel size whose `k²` overflows, in the same class.
        let evil = json.replacen("\"k\":3", "\"k\":4294967296", 1);
        match qmodel_from_json(&evil) {
            Err(QModelLoadError::Invalid(m)) => assert!(m.starts_with("layer 0:"), "{m}"),
            other => panic!("k: {other:?}"),
        }
    }

    #[test]
    fn a_file_nested_too_deep_is_a_parse_error() {
        match qmodel_from_json(&"[".repeat(1 << 20)) {
            Err(QModelLoadError::Parse(e)) => assert!(e.contains("nest"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hand_edited_formats_are_rejected() {
        let (qm, _x) = calibrated(&Algebra::real());
        let file = export_qmodel("m", "tiny", "(real)", 1, 20.0, qm).unwrap();
        let json = qmodel_to_json(&file);
        // Blow up a frac beyond what the datapath bounds allow; `i32::MIN`
        // has no `abs()` (in a release build it wrapped to itself and
        // passed the bound).
        let start = json.find("\"frac\":").expect("a format") + "\"frac\":".len();
        let end = start + json[start..].find(['}', ',']).unwrap();
        for frac in [90000, i32::MIN] {
            let evil = format!("{}{frac}{}", &json[..start], &json[end..]);
            let err = qmodel_from_json(&evil).unwrap_err();
            assert!(matches!(err, QModelLoadError::Invalid(_)), "{frac}: {err}");
        }
        // Blow up a bit width past the i64 pipeline.
        let evil = json.replacen("\"bits\":8", "\"bits\":999", 1);
        let err = qmodel_from_json(&evil).unwrap_err();
        assert!(matches!(err, QModelLoadError::Invalid(_)), "{err}");
    }

    #[test]
    fn weights_outside_i8_do_not_parse() {
        // A weight table of the right LENGTH whose first value lies
        // outside `i8` is refused by the parse: every weight format that
        // loads has at most 8 bits. `i64::MIN` has no `abs()`, and `+128`
        // is one past the 8-bit rail `-128` sits on.
        let (qm, _x) = calibrated(&Algebra::real());
        let json = qmodel_to_json(&export_qmodel("m", "tiny", "(real)", 1, 20.0, qm).unwrap());
        let start = json.find("\"weights\":[").expect("weights field") + "\"weights\":[".len();
        let end = start + json[start..].find(',').unwrap();
        let with_first = |w: i64| format!("{}{w}{}", &json[..start], &json[end..]);
        for w in [1 << 40, i64::MIN, i64::MAX, 128, -129] {
            let err = qmodel_from_json(&with_first(w)).unwrap_err();
            assert!(
                matches!(err, QModelLoadError::Parse(_)),
                "weight {w}: {err}"
            );
        }
        assert!(qmodel_from_json(&with_first(-128)).is_ok());
    }

    #[test]
    fn weights_outside_a_narrower_declared_format_are_invalid() {
        // Magnitudes are part of the no-overflow guarantee: with the first
        // conv's table zeroed and its format narrowed to 4 bits, a first
        // weight one past the rail `-8` sits on is refused, named.
        let (qm, _x) = calibrated(&Algebra::real());
        let json = qmodel_to_json(&export_qmodel("m", "tiny", "(real)", 1, 20.0, qm).unwrap());
        let start = json.find("\"weights\":[").expect("weights field") + "\"weights\":[".len();
        let end = start + json[start..].find(']').unwrap();
        let zeros = vec![",0"; json[start..end].split(',').count() - 1].concat();
        // `w_format` follows the table: its `bits` are the next ones.
        let narrowed = json[end..].replacen("\"bits\":8", "\"bits\":4", 1);
        let with_first = |w: i8| format!("{}{w}{zeros}{narrowed}", &json[..start]);
        let why = "layer 0: weight 8 outside the declared 4-bit format".to_string();
        assert_eq!(
            qmodel_from_json(&with_first(8)),
            Err(QModelLoadError::Invalid(why))
        );
        assert!(qmodel_from_json(&with_first(-8)).is_ok());
    }

    #[test]
    fn dangling_accumulator_conv_is_rejected() {
        // Strip the requant table off a conv that is NOT followed by a
        // directional ReLU: the wide accumulator would flow into an
        // 8-bit stage uncalibrated. Validation must refuse it.
        let (qm, _x) = calibrated(&Algebra::real());
        let json = qmodel_to_json(&export_qmodel("m", "tiny", "(real)", 1, 20.0, qm).unwrap());
        // The real-field model uses plain ReLU, so every conv carries a
        // requant table; null the first one out.
        let start = json.find("\"requant\":[").expect("requant field");
        let end = start + json[start..].find(']').unwrap() + 1;
        let evil = format!("{}\"requant\":null{}", &json[..start], &json[end..]);
        let err = qmodel_from_json(&evil).unwrap_err();
        assert!(
            matches!(err, QModelLoadError::Invalid(ref m) if m.contains("accumulator")),
            "{err}"
        );
    }

    #[test]
    fn stripped_alignment_is_rejected() {
        // (RH4, fcw): the first ring conv emits component-wise formats
        // and RH4 mixes components, so the second conv carries an input
        // aligner. Without it one accumulator would sum different
        // scales — a panic on the first forward if validation let it by.
        let alg = Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4));
        let mut model = Sequential::new()
            .with(alg.conv(4, 8, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(8, 4, 3, 5));
        let x = Tensor::random_uniform(Shape4::new(2, 4, 10, 10), 0.0, 1.0, 9);
        let qm = QuantizedModel::quantize(&mut model, &x, QuantOptions::default());
        let json = qmodel_to_json(&export_qmodel("m", "tiny", &alg.label(), 4, 20.0, qm).unwrap());
        let start = json.find("\"align_input\":{").expect("an aligned conv");
        let end = start + json[start..].find('}').unwrap() + 1;
        let evil = format!("{}\"align_input\":null{}", &json[..start], &json[end..]);
        let err = qmodel_from_json(&evil).unwrap_err();
        assert!(
            matches!(err, QModelLoadError::Invalid(ref m) if m.contains("accumulator scale")),
            "{err}"
        );
    }
}
