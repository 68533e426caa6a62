//! Model serialization: parameter snapshots ([`ModelParams`]) and
//! complete self-describing model files ([`ModelFile`]).
//!
//! The snapshot records a structural signature (layer names and parameter
//! group lengths) so loading into a mismatched architecture fails loudly
//! instead of silently scrambling weights.
//!
//! A [`ModelFile`] additionally records *how to rebuild the model*: a
//! [`ModelSpec`] naming the architecture and its hyper-parameters plus an
//! [`AlgebraSpec`] naming the `(ring, non-linearity)` pair and any pinned
//! convolution backend. [`instantiate`] turns the file back into a ready
//! [`Sequential`] — the load path of the `ringcnn-serve` model registry.
//! The on-disk format is versioned ([`MODEL_FORMAT`]) line-oriented JSON;
//! every malformed input (truncated file, wrong version, mismatched
//! weights) surfaces as a [`ModelLoadError`], never a panic.

use crate::algebra_choice::Algebra;
use crate::backend::ConvBackend;
use crate::layer::Layer;
use crate::layers::structure::Sequential;
use ringcnn_algebra::relu::Nonlinearity;
use ringcnn_algebra::ring::RingKind;
use serde::{Deserialize, Serialize};

/// A serializable snapshot of a model's parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Layer-structure signature (leaf layer names in visiting order).
    pub signature: Vec<String>,
    /// Parameter groups in visiting order.
    pub groups: Vec<Vec<f32>>,
}

/// Error returned when a snapshot does not match the target model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadParamsError(String);

impl std::fmt::Display for LoadParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot load parameters: {}", self.0)
    }
}

impl std::error::Error for LoadParamsError {}

/// Extracts a parameter snapshot from a model.
pub fn save_params(model: &mut Sequential) -> ModelParams {
    let mut signature = Vec::new();
    model.for_each_layer_mut(&mut |l| signature.push(l.name()));
    let mut groups = Vec::new();
    model.visit_params(&mut |g| groups.push(g.values.to_vec()));
    ModelParams { signature, groups }
}

/// Loads a snapshot into a model of the same structure.
///
/// # Errors
///
/// Fails when the layer signature or any parameter-group length differs.
pub fn load_params(model: &mut Sequential, params: &ModelParams) -> Result<(), LoadParamsError> {
    let mut signature = Vec::new();
    model.for_each_layer_mut(&mut |l| signature.push(l.name()));
    if signature != params.signature {
        return Err(LoadParamsError(format!(
            "structure mismatch: model {:?} vs snapshot {:?}",
            signature, params.signature
        )));
    }
    // Validate all group lengths before mutating anything.
    let mut lengths = Vec::new();
    model.visit_params(&mut |g| lengths.push(g.values.len()));
    if lengths.len() != params.groups.len() {
        return Err(LoadParamsError(format!(
            "group count mismatch: model {} vs snapshot {}",
            lengths.len(),
            params.groups.len()
        )));
    }
    for (i, (len, group)) in lengths.iter().zip(&params.groups).enumerate() {
        if *len != group.len() {
            return Err(LoadParamsError(format!(
                "group {i} length mismatch: model {len} vs snapshot {}",
                group.len()
            )));
        }
    }
    let mut idx = 0usize;
    model.visit_params(&mut |g| {
        g.values.copy_from_slice(&params.groups[idx]);
        idx += 1;
    });
    Ok(())
}

/// Version tag of the complete-model on-disk format.
pub const MODEL_FORMAT: &str = "ringcnn-model/v1";

/// Architecture + hyper-parameters of a rebuildable model: everything
/// needed to re-instantiate the layer tree (weights live in
/// [`ModelParams`], the algebra in [`AlgebraSpec`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// [`crate::models::vdsr::vdsr`].
    Vdsr {
        /// Convolution layer count.
        depth: usize,
        /// Feature channels.
        width: usize,
        /// Image I/O channels.
        channels_io: usize,
    },
    /// [`crate::models::ffdnet::ffdnet`].
    Ffdnet {
        /// Convolution layer count.
        depth: usize,
        /// Feature channels.
        width: usize,
        /// Image I/O channels.
        channels_io: usize,
    },
    /// [`crate::models::ernet::dn_ernet_pu`] (pixel-unshuffled denoiser).
    DnErnet {
        /// ERModule count `B`.
        b: usize,
        /// Pumping ratio `R`.
        r: usize,
        /// Extra pumping layers `N`.
        n_extra: usize,
        /// Base channel width.
        width: usize,
        /// Image I/O channels.
        channels_io: usize,
    },
    /// [`crate::models::ernet::sr4_ernet`] (×4 super-resolution).
    Sr4Ernet {
        /// ERModule count `B`.
        b: usize,
        /// Pumping ratio `R`.
        r: usize,
        /// Extra pumping layers `N`.
        n_extra: usize,
        /// Base channel width.
        width: usize,
        /// Image I/O channels.
        channels_io: usize,
    },
    /// [`crate::models::srresnet::srresnet`] (×4 super-resolution).
    SrResNet {
        /// Residual blocks in the trunk.
        blocks: usize,
        /// Feature channels.
        channels: usize,
        /// Depth-wise + point-wise factorized convolutions.
        depthwise: bool,
        /// Image I/O channels.
        channels_io: usize,
    },
}

impl ModelSpec {
    /// Instantiates the architecture over `alg` (fresh `seed`-derived
    /// weights; [`instantiate`] overwrites them from the snapshot).
    pub fn build(&self, alg: &Algebra, seed: u64) -> Sequential {
        match *self {
            ModelSpec::Vdsr {
                depth,
                width,
                channels_io,
            } => crate::models::vdsr::vdsr(alg, depth, width, channels_io, seed),
            ModelSpec::Ffdnet {
                depth,
                width,
                channels_io,
            } => crate::models::ffdnet::ffdnet(alg, depth, width, channels_io, seed),
            ModelSpec::DnErnet {
                b,
                r,
                n_extra,
                width,
                channels_io,
            } => crate::models::ernet::dn_ernet_pu(
                alg,
                crate::models::ernet::ErNetConfig {
                    b,
                    r,
                    n_extra,
                    width,
                },
                channels_io,
                seed,
            ),
            ModelSpec::Sr4Ernet {
                b,
                r,
                n_extra,
                width,
                channels_io,
            } => crate::models::ernet::sr4_ernet(
                alg,
                crate::models::ernet::ErNetConfig {
                    b,
                    r,
                    n_extra,
                    width,
                },
                channels_io,
                seed,
            ),
            ModelSpec::SrResNet {
                blocks,
                channels,
                depthwise,
                channels_io,
            } => {
                let mut cfg = crate::models::srresnet::SrResNetConfig::tiny()
                    .with_blocks(blocks)
                    .with_channels(channels);
                if depthwise {
                    cfg = cfg.with_depthwise();
                }
                crate::models::srresnet::srresnet(alg, cfg, channels_io, seed)
            }
        }
    }

    /// Image I/O channel count (what an inference request must supply).
    pub fn channels_io(&self) -> usize {
        match *self {
            ModelSpec::Vdsr { channels_io, .. }
            | ModelSpec::Ffdnet { channels_io, .. }
            | ModelSpec::DnErnet { channels_io, .. }
            | ModelSpec::Sr4Ernet { channels_io, .. }
            | ModelSpec::SrResNet { channels_io, .. } => channels_io,
        }
    }

    /// Short architecture label, e.g. `vdsr-d4c16`.
    pub fn label(&self) -> String {
        match *self {
            ModelSpec::Vdsr { depth, width, .. } => format!("vdsr-d{depth}c{width}"),
            ModelSpec::Ffdnet { depth, width, .. } => format!("ffdnet-d{depth}c{width}"),
            ModelSpec::DnErnet { b, r, n_extra, .. } => format!("dn-ernet-B{b}R{r}N{n_extra}"),
            ModelSpec::Sr4Ernet { b, r, n_extra, .. } => format!("sr4-ernet-B{b}R{r}N{n_extra}"),
            ModelSpec::SrResNet {
                blocks, channels, ..
            } => format!("srresnet-b{blocks}c{channels}"),
        }
    }
}

/// Serializable description of an [`Algebra`]: the ring, the
/// non-linearity, and the pinned convolution backend (if any).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlgebraSpec {
    /// Ring variant.
    pub ring: RingKind,
    /// Ring non-linearity.
    pub nonlinearity: Nonlinearity,
    /// Pinned backend; `None` = automatic per-ring selection.
    pub backend: Option<ConvBackend>,
}

impl AlgebraSpec {
    /// Captures an [`Algebra`].
    pub fn of(alg: &Algebra) -> Self {
        Self {
            ring: alg.ring().kind(),
            nonlinearity: alg.nonlinearity(),
            backend: alg.pinned_backend(),
        }
    }

    /// Rebuilds the [`Algebra`].
    pub fn algebra(&self) -> Algebra {
        let alg = Algebra::new(self.ring, self.nonlinearity);
        match self.backend {
            Some(b) => alg.with_backend(b),
            None => alg,
        }
    }

    /// Display label, e.g. `(RH4, fcw)+transform`.
    pub fn label(&self) -> String {
        let base = self.algebra().label();
        match self.backend {
            Some(b) => format!("{base}+{b}"),
            None => base,
        }
    }
}

/// A complete, self-describing model file: architecture, algebra, and
/// trained weights, under a versioned format tag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelFile {
    /// Format version tag ([`MODEL_FORMAT`]).
    pub format: String,
    /// Model name (the registry key, e.g. `ffdnet_real`).
    pub name: String,
    /// Architecture + hyper-parameters.
    pub spec: ModelSpec,
    /// Ring/non-linearity/backend.
    pub algebra: AlgebraSpec,
    /// Weight snapshot.
    pub params: ModelParams,
}

/// Why a model file failed to load. Every malformed input maps here —
/// the load path must never panic.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelLoadError {
    /// The text is not valid JSON for the schema (truncated file, type
    /// mismatch, missing field).
    Parse(String),
    /// The format tag is missing or names an unsupported version.
    Format(String),
    /// The weight snapshot does not fit the declared architecture.
    Params(LoadParamsError),
}

impl std::fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelLoadError::Parse(e) => write!(f, "model file does not parse: {e}"),
            ModelLoadError::Format(t) => {
                write!(f, "unsupported model format `{t}` (want {MODEL_FORMAT})")
            }
            ModelLoadError::Params(e) => write!(f, "model file weights mismatch: {e}"),
        }
    }
}

impl std::error::Error for ModelLoadError {}

/// Exports a complete model file. The weight snapshot is validated
/// against a fresh `spec`-built model so an architecture/spec mismatch
/// fails at export time, not at every future load.
///
/// # Errors
///
/// Fails when `model` does not have the structure that `spec` over
/// `algebra` builds.
pub fn export_model(
    name: &str,
    spec: ModelSpec,
    algebra: AlgebraSpec,
    model: &mut Sequential,
) -> Result<ModelFile, ModelLoadError> {
    let params = save_params(model);
    let mut rebuilt = spec.build(&algebra.algebra(), 0);
    load_params(&mut rebuilt, &params).map_err(ModelLoadError::Params)?;
    Ok(ModelFile {
        format: MODEL_FORMAT.into(),
        name: name.into(),
        spec,
        algebra,
        params,
    })
}

/// Renders a model file to its on-disk JSON form.
pub fn model_to_json(file: &ModelFile) -> String {
    serde_json::to_string(file).expect("model file serializes")
}

/// The `format` tag of a parsed model file of either kind (empty when
/// absent or not a string): the one reader of it.
pub fn format_tag(v: &serde::Value) -> &str {
    match v.field("format") {
        Ok(serde::Value::Str(tag)) => tag,
        _ => "",
    }
}

impl ModelFile {
    /// The model file a parsed JSON value holds: the format tag checked
    /// first, so a wrong version is reported as such even when later
    /// fields don't fit this schema, then the schema.
    ///
    /// # Errors
    ///
    /// [`ModelLoadError::Format`], then [`ModelLoadError::Parse`].
    pub fn from_value(v: &serde::Value) -> Result<Self, ModelLoadError> {
        let tag = format_tag(v);
        if tag != MODEL_FORMAT {
            return Err(ModelLoadError::Format(tag.into()));
        }
        Self::from_json_value(v).map_err(|e| ModelLoadError::Parse(e.to_string()))
    }
}

/// Parses on-disk JSON into a [`ModelFile`]: one parse, then
/// [`ModelFile::from_value`].
///
/// # Errors
///
/// [`ModelLoadError::Parse`] on malformed/truncated JSON,
/// [`ModelLoadError::Format`] on a wrong version tag.
pub fn model_from_json(text: &str) -> Result<ModelFile, ModelLoadError> {
    let value = serde_json::from_str(text).map_err(|e| ModelLoadError::Parse(e.to_string()))?;
    ModelFile::from_value(&value)
}

/// Rebuilds the ready-to-run model a file describes: instantiates the
/// architecture over the recorded algebra and loads the weights.
///
/// # Errors
///
/// [`ModelLoadError::Params`] when the snapshot does not fit the
/// declared architecture (corrupt or hand-edited file).
pub fn instantiate(file: &ModelFile) -> Result<(Algebra, Sequential), ModelLoadError> {
    let alg = file.algebra.algebra();
    let mut model = file.spec.build(&alg, 0);
    load_params(&mut model, &file.params).map_err(ModelLoadError::Params)?;
    Ok((alg, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra_choice::Algebra;
    use ringcnn_tensor::prelude::*;

    fn model(alg: &Algebra) -> Sequential {
        Sequential::new()
            .with(alg.conv(2, 4, 3, 1))
            .with_opt(alg.activation())
            .with(alg.conv(4, 2, 3, 2))
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let alg = Algebra::ri_fh(2);
        let mut a = model(&alg);
        let x = Tensor::random_uniform(Shape4::new(1, 2, 6, 6), 0.0, 1.0, 5);
        let want = a.forward(&x, false);
        let snapshot = save_params(&mut a);
        // Fresh model with different seeds → different outputs…
        let mut b = Sequential::new()
            .with(alg.conv(2, 4, 3, 77))
            .with_opt(alg.activation())
            .with(alg.conv(4, 2, 3, 78));
        assert!(b.forward(&x, false).mse(&want) > 1e-9);
        // …until the snapshot is loaded.
        load_params(&mut b, &snapshot).unwrap();
        assert_eq!(b.forward(&x, false), want);
    }

    #[test]
    fn structure_mismatch_is_rejected() {
        let mut a = model(&Algebra::ri_fh(2));
        let snapshot = save_params(&mut a);
        let mut wrong = model(&Algebra::ri_fh(4));
        let err = load_params(&mut wrong, &snapshot).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
        let mut wrong_width = Sequential::new().with(Algebra::ri_fh(2).conv(2, 8, 3, 1));
        assert!(load_params(&mut wrong_width, &snapshot).is_err());
    }

    #[test]
    fn snapshot_is_serde_serializable() {
        let mut a = model(&Algebra::real());
        let snapshot = save_params(&mut a);
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: ModelParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn a_file_nested_too_deep_is_a_parse_error() {
        match model_from_json(&"[".repeat(1 << 20)) {
            Err(ModelLoadError::Parse(e)) => assert!(e.contains("nest"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    use ringcnn_algebra::ring::RingKind;

    #[test]
    fn model_file_roundtrips_all_specs() {
        // Every spec × a couple of algebras: export → JSON → instantiate
        // must reproduce outputs exactly.
        let specs = [
            ModelSpec::Vdsr {
                depth: 3,
                width: 8,
                channels_io: 1,
            },
            ModelSpec::Ffdnet {
                depth: 3,
                width: 8,
                channels_io: 1,
            },
            ModelSpec::DnErnet {
                b: 1,
                r: 2,
                n_extra: 0,
                width: 8,
                channels_io: 1,
            },
            ModelSpec::Sr4Ernet {
                b: 1,
                r: 2,
                n_extra: 0,
                width: 8,
                channels_io: 1,
            },
            ModelSpec::SrResNet {
                blocks: 1,
                channels: 8,
                depthwise: false,
                channels_io: 1,
            },
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            for alg in [Algebra::real(), Algebra::with_fcw(RingKind::Rh(4))] {
                let mut m = spec.build(&alg, 40 + i as u64);
                let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 3);
                let want = m.forward(&x, false);
                let file =
                    export_model(&spec.label(), spec, AlgebraSpec::of(&alg), &mut m).unwrap();
                let json = model_to_json(&file);
                let back = model_from_json(&json).unwrap();
                assert_eq!(back, file);
                let (alg2, mut m2) = instantiate(&back).unwrap();
                assert_eq!(alg2.label(), alg.label());
                assert_eq!(
                    m2.forward(&x, false).as_slice(),
                    want.as_slice(),
                    "{} over {}",
                    spec.label(),
                    alg.label()
                );
            }
        }
    }

    #[test]
    fn model_file_records_pinned_backend() {
        let alg =
            Algebra::with_fcw(RingKind::Rh(4)).with_backend(crate::backend::ConvBackend::Naive);
        let spec = ModelSpec::Vdsr {
            depth: 2,
            width: 8,
            channels_io: 1,
        };
        let mut m = spec.build(&alg, 7);
        let file = export_model("pinned", spec, AlgebraSpec::of(&alg), &mut m).unwrap();
        let (alg2, _) = instantiate(&model_from_json(&model_to_json(&file)).unwrap()).unwrap();
        assert_eq!(
            alg2.conv_backend(),
            crate::backend::ConvBackend::Naive,
            "pinned backend must survive the round trip"
        );
        // Unpinned algebras stay on automatic selection.
        let alg = Algebra::with_fcw(RingKind::Rh(4));
        let mut m = spec.build(&alg, 7);
        let file = export_model("auto", spec, AlgebraSpec::of(&alg), &mut m).unwrap();
        assert_eq!(file.algebra.backend, None);
    }

    #[test]
    fn corrupt_model_files_error_instead_of_panicking() {
        let alg = Algebra::ri_fh(2);
        let spec = ModelSpec::Vdsr {
            depth: 2,
            width: 8,
            channels_io: 1,
        };
        let mut m = spec.build(&alg, 5);
        let json = model_to_json(&export_model("m", spec, AlgebraSpec::of(&alg), &mut m).unwrap());

        // Truncation at any prefix must be a Parse/Format error, never a
        // panic (the registry reads untrusted files).
        for cut in [0, 1, json.len() / 4, json.len() / 2, json.len() - 1] {
            let err = model_from_json(&json[..cut]).unwrap_err();
            assert!(
                matches!(err, ModelLoadError::Parse(_) | ModelLoadError::Format(_)),
                "cut at {cut}: {err}"
            );
        }
        // Not JSON at all.
        assert!(matches!(
            model_from_json("not json").unwrap_err(),
            ModelLoadError::Parse(_)
        ));
        // Wrong format version.
        let wrong = json.replacen("ringcnn-model/v1", "ringcnn-model/v999", 1);
        let err = model_from_json(&wrong).unwrap_err();
        assert!(
            matches!(err, ModelLoadError::Format(ref t) if t.contains("v999")),
            "{err}"
        );
        // Weights that don't fit the declared architecture.
        let mut file = model_from_json(&json).unwrap();
        file.params.groups[0].pop();
        match instantiate(&file) {
            Err(ModelLoadError::Params(_)) => {}
            Err(e) => panic!("wrong error for corrupt weights: {e}"),
            Ok(_) => panic!("corrupt weights must not load"),
        }
        // Export with a spec that doesn't describe the model.
        let bad_spec = ModelSpec::Vdsr {
            depth: 3,
            width: 8,
            channels_io: 1,
        };
        let mut m = spec.build(&alg, 5);
        assert!(matches!(
            export_model("m", bad_spec, AlgebraSpec::of(&alg), &mut m).unwrap_err(),
            ModelLoadError::Params(_)
        ));
    }
}
