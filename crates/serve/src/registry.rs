//! The model registry: loads `ringcnn-model/v1` (float) and
//! `ringcnn-qmodel/v1` (quantized) files, prepares them for shared
//! inference, and hands out `Arc` handles keyed by name.
//!
//! An entry is built whole, once: its inference kernels warmed up
//! ([`prepare_inference`]), its tiling topology derived, and its
//! quantized pipeline — a `ringcnn-qmodel/v1` file is not an entry of
//! its own, it belongs to the float model of the same name — checked
//! against the float model and put in place. After that the entry is
//! immutable and any number of scheduler workers can run
//! [`ModelEntry::infer`] concurrently (`Layer: Send + Sync`, PR 3); the
//! request's [`Precision`] selects which pipeline executes.
//!
//! # One way in: the reload pass (PR 8, PR 16)
//!
//! A directory is judged one way. A pass scans it, parses every file
//! whose content changed since the last committed pass (FNV-64
//! fingerprint), rebuilds each model that has a changed file from *both*
//! of its files as the scan read them, and publishes the rebuilt
//! entries in one commit. [`ModelRegistry::load_dir`] is that pass
//! against an empty fingerprint table, [`ModelRegistry::reload_pass`]
//! the same pass against the table the last one left; whatever fails
//! (the errors are listed there), nothing is published and no
//! fingerprint advances, so the next pass retries.
//!
//! The registry is interior-mutable behind an `RwLock`: the scheduler
//! holds an `Arc<ModelRegistry>` and [`ModelRegistry::get`] takes a
//! brief read lock on every admission, while a commit swaps the
//! `Arc<ModelEntry>`s under the write lock. Each swap bumps the entry's
//! [`ModelEntry::version`]; requests admitted before the swap keep
//! their old `Arc` and finish bit-exact on the version that admitted
//! them. Model *removal* is deliberately not supported by the pass:
//! deleting a file keeps the last published version serving (an
//! operator who wants a model gone restarts the server), which keeps
//! the pass idempotent and crash-safe.
//!
//! [`prepare_inference`]: ringcnn_nn::layer::Layer::prepare_inference

use crate::error::ServeError;
use crate::lock_unpoisoned;
use ringcnn_nn::layer::Layer;
use ringcnn_nn::layers::structure::Sequential;
use ringcnn_nn::runtime::{model_topology, ModelTopo};
use ringcnn_nn::serialize::{instantiate, model_from_json, AlgebraSpec, ModelFile, ModelSpec};
use ringcnn_quant::quantized::QuantizedModel;
use ringcnn_quant::serialize::{peek_format_tag, qmodel_from_json, QModelFile, QMODEL_FORMAT};
use ringcnn_tensor::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Which execution pipeline of a model an inference request runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// The float reference pipeline (wire value `"fp64"`, the default).
    #[default]
    Fp64,
    /// The dynamic fixed-point integer pipeline (wire value `"quant"`);
    /// requires the model's `ringcnn-qmodel/v1` file.
    Quant,
}

impl Precision {
    /// Stable wire string.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::Fp64 => "fp64",
            Precision::Quant => "quant",
        }
    }

    /// Parses the wire string.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the unknown value.
    pub fn parse(s: &str) -> Result<Precision, ServeError> {
        match s {
            "fp64" => Ok(Precision::Fp64),
            "quant" => Ok(Precision::Quant),
            other => Err(ServeError::BadRequest(format!(
                "unknown precision `{other}` (want \"fp64\" or \"quant\")"
            ))),
        }
    }
}

/// The quantized pipeline of an entry.
struct QuantAttachment {
    qmodel: QuantizedModel,
    /// Calibration-time float-vs-quant PSNR (dB), from the model file.
    calibration_psnr: f64,
}

/// One registered, inference-ready model.
pub struct ModelEntry {
    name: String,
    spec: ModelSpec,
    algebra: AlgebraSpec,
    topo: ModelTopo,
    num_params: usize,
    /// Monotonic per-name publish counter: 1 at first registration,
    /// bumped by every hot-reload swap. Surfaced in `list_models` and
    /// `stats` so operators can confirm a reload took effect.
    version: u64,
    model: Sequential,
    /// The quantized pipeline, decided when the entry is built (`None`:
    /// the model has no qmodel file).
    quant: Option<QuantAttachment>,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("name", &self.name)
            .field("spec", &self.spec)
            .field("algebra", &self.algebra)
            .field("topo", &self.topo)
            .field("num_params", &self.num_params)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl ModelEntry {
    /// Builds a complete entry at version 1: warms up the float model's
    /// kernels, derives topology and parameter count, and — when the
    /// model has one — puts its quantized pipeline in place. The
    /// pipeline must agree with the float model on I/O channels and
    /// spatial topology: a request valid for one precision must be
    /// valid for the other. Expensive, so callers run it outside any
    /// registry lock.
    fn build(
        name: &str,
        spec: ModelSpec,
        algebra: AlgebraSpec,
        mut model: Sequential,
        quant: Option<QModelFile>,
    ) -> Result<ModelEntry, ServeError> {
        model.prepare_inference();
        let topo = model_topology(&mut model);
        if let Some(q) = &quant {
            let want_c = spec.channels_io();
            if q.channels_io != want_c {
                return Err(ServeError::Load(format!(
                    "qmodel `{name}` takes {} channel(s), float model takes {want_c}",
                    q.channels_io
                )));
            }
            let qtopo = q.model.topology();
            if qtopo.granularity != topo.granularity || qtopo.scale != topo.scale {
                return Err(ServeError::Load(format!(
                    "qmodel `{name}` topology {qtopo:?} disagrees with float topology {topo:?}"
                )));
            }
            // What will run for this model: the lanes and the storage
            // its tables prove.
            if let Some(found) = q.model.lane_proof() {
                ringcnn_trace::rc_info!("registry", format!("qmodel {name}: {found}"));
            }
        }
        Ok(ModelEntry {
            name: name.into(),
            spec,
            algebra,
            topo,
            num_params: model.num_params(),
            version: 1,
            model,
            quant: quant.map(|q| QuantAttachment {
                qmodel: q.model,
                calibration_psnr: q.calibration_psnr,
            }),
        })
    }

    /// Registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Architecture + hyper-parameters.
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// Ring / non-linearity / backend.
    pub fn algebra(&self) -> AlgebraSpec {
        self.algebra
    }

    /// Receptive radius, granularity, and output scale.
    pub fn topo(&self) -> ModelTopo {
        self.topo
    }

    /// Stored real-valued parameter count.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Publish version of this entry (1 = initial registration; each
    /// hot-reload swap of the same name publishes `version + 1`).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Shared-state inference forward (many threads may call this on one
    /// entry concurrently; every kernel was built at registration).
    pub fn infer(&self, input: &Tensor) -> Tensor {
        self.model.forward_infer(input)
    }

    /// Whether the entry has a quantized pipeline.
    pub fn has_quant(&self) -> bool {
        self.quant.is_some()
    }

    /// Calibration-time float-vs-quant PSNR of the quantized pipeline.
    pub fn quant_psnr(&self) -> Option<f64> {
        self.quant.as_ref().map(|q| q.calibration_psnr)
    }

    /// The quantized pipeline — or the answer a `quant` request gets,
    /// at admission and at execution alike, from a model without one.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the model.
    pub(crate) fn quant_pipeline(&self) -> Result<&QuantizedModel, ServeError> {
        self.quant.as_ref().map(|q| &q.qmodel).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "model `{}` has no quantized pipeline (load a ringcnn-qmodel/v1 file)",
                self.name
            ))
        })
    }

    /// Shared-state inference at a requested [`Precision`]. The
    /// quantized pipeline is plain immutable data (`QuantizedModel:
    /// Send + Sync`), so this is as fan-out-safe as [`ModelEntry::infer`].
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `precision` is `quant` but the
    /// entry has no quantized pipeline.
    pub fn infer_precision(
        &self,
        input: &Tensor,
        precision: Precision,
    ) -> Result<Tensor, ServeError> {
        match precision {
            Precision::Fp64 => Ok(self.infer(input)),
            Precision::Quant => Ok(self.quant_pipeline()?.forward(input)),
        }
    }

    /// The output shape an input of shape `s` produces.
    ///
    /// The `h·sn/sd` divisions here are exact for any input that passed
    /// [`ModelEntry::validate_input`] — granularity *implies*
    /// divisibility. Proof: `TopoBuilder::apply_scale` reduces the
    /// input-pixels-per-pixel fraction and then folds its numerator into
    /// the granularity (`granularity = lcm(granularity, ipp_num)`), and
    /// `TopoBuilder::finish` reports `scale = (ipp_den, ipp_num)` — so
    /// the scale denominator `sd` is the final `ipp_num`, which the last
    /// `apply_scale` lcm'd into the granularity. Hence `sd | granularity`,
    /// and `granularity | h` (validated) gives `sd | h`. The
    /// `debug_assert!`s below pin that invariant; [`validate_input`]
    /// re-checks it defensively in release builds so a topology that ever
    /// breaks the proof rejects the request instead of silently
    /// truncating the advertised output shape.
    ///
    /// [`validate_input`]: ModelEntry::validate_input
    pub fn output_shape(&self, s: Shape4) -> Shape4 {
        let (sn, sd) = self.topo.scale;
        debug_assert_eq!(
            (s.h * sn) % sd,
            0,
            "output height {}·{sn}/{sd} must divide exactly (granularity {})",
            s.h,
            self.topo.granularity
        );
        debug_assert_eq!(
            (s.w * sn) % sd,
            0,
            "output width {}·{sn}/{sd} must divide exactly (granularity {})",
            s.w,
            self.topo.granularity
        );
        Shape4::new(
            s.n,
            self.model.out_channels(s.c),
            s.h * sn / sd,
            s.w * sn / sd,
        )
    }

    /// Checks that a request input is one this model can run: the
    /// spec's I/O channel count and spatial sizes aligned to the model
    /// granularity (pixel-unshuffle parity).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] describing the violated constraint.
    pub fn validate_input(&self, s: Shape4) -> Result<(), ServeError> {
        if s.n == 0 || s.c == 0 || s.h == 0 || s.w == 0 {
            return Err(ServeError::BadRequest(format!(
                "empty input shape {s} for model `{}`",
                self.name
            )));
        }
        let want_c = self.spec.channels_io();
        if s.c != want_c {
            return Err(ServeError::BadRequest(format!(
                "model `{}` takes {want_c} channel(s), got {}",
                self.name, s.c
            )));
        }
        let g = self.topo.granularity;
        if s.h % g != 0 || s.w % g != 0 {
            return Err(ServeError::BadRequest(format!(
                "model `{}` needs H and W divisible by {g}, got {}x{}",
                self.name, s.h, s.w
            )));
        }
        // Granularity implies scale divisibility (see the proof on
        // [`ModelEntry::output_shape`]) — but the advertised output shape
        // must never silently truncate, so re-check the conclusion here
        // and reject instead of rounding down if a future topology ever
        // violates it.
        let (sn, sd) = self.topo.scale;
        if (s.h * sn) % sd != 0 || (s.w * sn) % sd != 0 {
            return Err(ServeError::BadRequest(format!(
                "model `{}` scales {}x{} by {sn}/{sd}, which is not an \
                 integer output size",
                self.name, s.h, s.w
            )));
        }
        Ok(())
    }
}

/// Outcome of one [`ModelRegistry::reload_pass`] — also the payload of
/// the `reload` wire verb on both protocols.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReloadReport {
    /// Names registered for the first time by this pass, sorted.
    pub added: Vec<String>,
    /// Names whose entry was atomically swapped for a new version, sorted.
    pub reloaded: Vec<String>,
    /// Model files scanned whose content fingerprint was unchanged.
    pub unchanged: u64,
}

impl ReloadReport {
    /// Whether the pass published nothing.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.reloaded.is_empty()
    }
}

/// FNV-1a 64-bit content fingerprint. Unlike an mtime stamp it is
/// immune to filesystem timestamp granularity when a model is
/// re-exported twice in the same tick, and the model files are small
/// enough that hashing every poll is cheap.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One `*.json` file read during a directory scan.
struct ScannedFile {
    path: PathBuf,
    text: String,
    hash: u64,
    is_qmodel: bool,
}

impl ScannedFile {
    fn corrupt(&self, e: &dyn std::fmt::Display) -> ServeError {
        ServeError::Load(format!("{}: {e}", self.path.display()))
    }

    /// Parses a `ringcnn-model/v1` file (anything without the qmodel
    /// tag goes here: the float loader's errors name the expected
    /// format).
    fn parse_float(&self) -> Result<ModelFile, ServeError> {
        model_from_json(&self.text).map_err(|e| self.corrupt(&e))
    }

    /// Parses a `ringcnn-qmodel/v1` file.
    fn parse_quant(&self) -> Result<QModelFile, ServeError> {
        qmodel_from_json(&self.text).map_err(|e| self.corrupt(&e))
    }
}

/// Reads every `*.json` file in `dir`, sorted by path, fingerprinted
/// and classified by format tag.
fn scan_model_dir(dir: &Path) -> Result<Vec<ScannedFile>, ServeError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| ServeError::Io(format!("{}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| ServeError::Io(format!("{}: {e}", p.display())))?;
            let hash = fnv64(text.as_bytes());
            let is_qmodel = peek_format_tag(&text) == QMODEL_FORMAT;
            Ok(ScannedFile {
                path: p,
                text,
                hash,
                is_qmodel,
            })
        })
        .collect()
}

/// The files of one kind (float or qmodel) in one scan, by the model
/// name each declares: the scanned file, and its parse iff the content
/// changed since the last committed pass.
type Sources<'a, F> = BTreeMap<String, (&'a ScannedFile, Option<F>)>;

/// Files `file` under model `name`, which no other file of its kind in
/// the directory may declare too.
fn claim<'a, F>(
    sources: &mut Sources<'a, F>,
    name: &str,
    file: &'a ScannedFile,
    parsed: Option<F>,
) -> Result<(), ServeError> {
    if let Some((first, _)) = sources.insert(name.into(), (file, parsed)) {
        return Err(ServeError::Load(format!(
            "{} and {} both declare model `{name}`",
            first.path.display(),
            file.path.display()
        )));
    }
    Ok(())
}

/// Mutable registry internals, guarded by one `RwLock`.
#[derive(Default)]
struct Inner {
    /// Registration order (what `entries()` and `list_models` expose):
    /// programmatic registrations and committed passes in the order
    /// they happened; the new models of one pass in the path order of
    /// their float files.
    entries: Vec<Arc<ModelEntry>>,
    /// Name → position in `entries`: [`ModelRegistry::get`] runs on
    /// every request admission, so the lookup must not linear-scan a
    /// large registry.
    index: HashMap<String, usize>,
}

/// What a pass compares a fresh scan against.
struct WatchState {
    dir: PathBuf,
    /// Path → what the last committed pass read there. Advanced only
    /// when a pass commits, so a failed pass retries; entries of files
    /// deleted since are kept (their models keep serving).
    stamps: HashMap<PathBuf, Stamp>,
}

/// A file as of the last committed pass.
struct Stamp {
    /// FNV-64 content hash.
    hash: u64,
    /// The model name the file declares — how an unchanged file takes
    /// part in the duplicate check, and how the pass knows which names
    /// are its own to swap.
    name: String,
}

/// The named, prepared model fleet shared by scheduler and server.
///
/// Interior-mutable: lookups take a brief read lock; registration and
/// pass commits take the write lock only for the pointer swap (model
/// preparation happens outside any lock). A request that already holds
/// an entry `Arc` is never affected by a concurrent swap — it finishes
/// on the version that admitted it.
#[derive(Default)]
pub struct ModelRegistry {
    inner: RwLock<Inner>,
    /// The hot-reload source, set by a successful
    /// [`ModelRegistry::load_dir`]. Its lock is held across a whole pass
    /// (scan → rebuild → commit), so concurrent `reload` verbs can't
    /// interleave half-built fleets and per-name versions stay strictly
    /// monotonic.
    watch: Mutex<Option<WatchState>>,
    reload_passes: AtomicU64,
    models_reloaded: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a built model under `name`: prepares its inference
    /// kernels, derives its topology, and freezes it behind an `Arc`
    /// at version 1 (float pipeline only).
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] when the name is already taken.
    pub fn register(
        &self,
        name: &str,
        spec: ModelSpec,
        algebra: AlgebraSpec,
        model: Sequential,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        // Cheap pre-check so a duplicate fails before the expensive
        // kernel preparation; re-checked under the write lock below.
        if self.get(name).is_some() {
            return Err(name_taken(name));
        }
        let entry = Arc::new(ModelEntry::build(name, spec, algebra, model, None)?);
        let mut inner = lock_unpoisoned(self.inner.write());
        if inner.index.contains_key(name) {
            return Err(name_taken(name));
        }
        let at = inner.entries.len();
        inner.index.insert(name.into(), at);
        inner.entries.push(entry.clone());
        Ok(entry)
    }

    /// Loads every `*.json` model file in a directory — the first reload
    /// pass over it — and remembers the directory and what was read so
    /// [`ModelRegistry::reload_pass`] can detect changes later. Returns
    /// the registered names in registration order (float files by path;
    /// a qmodel file is not an entry of its own and may sort anywhere).
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::reload_pass`]; nothing is registered and the
    /// directory is not remembered when the load fails.
    pub fn load_dir(&self, dir: &Path) -> Result<Vec<String>, ServeError> {
        let mut slot = lock_unpoisoned(self.watch.lock());
        let mut watch = WatchState {
            dir: dir.to_path_buf(),
            stamps: HashMap::new(),
        };
        let report = self.pass(&mut watch)?;
        *slot = Some(watch);
        Ok(report.added)
    }

    /// One hot-reload pass over the directory remembered by
    /// [`ModelRegistry::load_dir`] (a no-op `Ok` when the registry was
    /// built programmatically and watches nothing).
    ///
    /// A model is rebuilt — whole, from both of its files as this scan
    /// read them — when its float file or its qmodel file changed or is
    /// new. Rebuilds happen outside the registry lock; the commit is a
    /// single write lock that swaps `Arc`s and bumps versions, so a
    /// concurrent `infer` either sees the complete old fleet or the
    /// complete new one — never a torn mix.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory or a file can't be read;
    /// [`ServeError::Load`] when a changed file is corrupt, two files
    /// declare the same model name (the message names both paths), a
    /// qmodel has no float model file beside it or disagrees with it,
    /// or a new file declares a name that was registered
    /// programmatically.
    pub fn reload_pass(&self) -> Result<ReloadReport, ServeError> {
        let mut watch = lock_unpoisoned(self.watch.lock());
        // ordering: monotonic stat counter; the watch lock serializes
        // the pass itself.
        self.reload_passes.fetch_add(1, Ordering::Relaxed);
        let Some(watch) = watch.as_mut() else {
            return Ok(ReloadReport::default());
        };
        let mut report = self.pass(watch)?;
        report.added.sort();
        report.reloaded.sort();
        // ordering: monotonic stat counter; the commit already
        // published the models through the RwLock.
        self.models_reloaded.fetch_add(
            (report.added.len() + report.reloaded.len()) as u64,
            Ordering::Relaxed,
        );
        Ok(report)
    }

    /// The pass behind [`ModelRegistry::load_dir`] and
    /// [`ModelRegistry::reload_pass`]: scan → parse what changed →
    /// build every dirty model whole → one commit. `watch.stamps`
    /// advances only after the commit. The report lists names in
    /// registration order.
    fn pass(&self, watch: &mut WatchState) -> Result<ReloadReport, ServeError> {
        let files = scan_model_dir(&watch.dir)?;
        // File every file of the directory under the model name it
        // declares: parsed when its content changed (which makes the
        // model dirty), remembered when not. Two files of one kind under
        // one name is the duplicate-name error.
        let (mut floats, mut quants) = (Sources::new(), Sources::new());
        let mut dirty_names = BTreeSet::new();
        let mut stamps = Vec::with_capacity(files.len());
        let mut report = ReloadReport::default();
        for f in &files {
            let known = watch.stamps.get(&f.path).filter(|s| s.hash == f.hash);
            report.unchanged += u64::from(known.is_some());
            let name = if f.is_qmodel {
                let (name, parsed) = match known {
                    Some(s) => (s.name.clone(), None),
                    None => f.parse_quant().map(|q| (q.name.clone(), Some(q)))?,
                };
                claim(&mut quants, &name, f, parsed)?;
                name
            } else {
                let (name, parsed) = match known {
                    Some(s) => (s.name.clone(), None),
                    None => f.parse_float().map(|m| (m.name.clone(), Some(m)))?,
                };
                claim(&mut floats, &name, f, parsed)?;
                name
            };
            if known.is_none() {
                dirty_names.insert(name.clone());
            }
            stamps.push((f.path.clone(), Stamp { hash: f.hash, name }));
        }
        // A dirty model is rebuilt from both of its files; the one that
        // did not change is re-read from the same scan. New models
        // register in the path order of their float files.
        let mut dirty = Vec::new();
        for name in dirty_names {
            let quant = quants.remove(&name);
            let Some((float_file, float)) = floats.remove(&name) else {
                let (qfile, _) = quant.expect("a dirty name came from one of its files");
                return Err(qfile.corrupt(&format_args!(
                    "qmodel `{name}` has no float model to attach to \
                     (its ringcnn-model/v1 file must sit in the same directory)"
                )));
            };
            dirty.push((float_file, float, quant));
        }
        if dirty.is_empty() {
            return Ok(report);
        }
        dirty.sort_by(|a, b| a.0.path.cmp(&b.0.path));
        // Build outside the registry lock; a swap's version is fixed at
        // commit time under the write lock.
        let mut built = Vec::with_capacity(dirty.len());
        for (float_file, float, quant) in dirty {
            let float = float.map_or_else(|| float_file.parse_float(), Ok)?;
            let quant = quant
                .map(|(qfile, q)| q.map_or_else(|| qfile.parse_quant(), Ok))
                .transpose()?;
            let (_, model) = instantiate(&float).map_err(|e| float_file.corrupt(&e))?;
            let (name, spec, algebra) = (&float.name, float.spec, float.algebra);
            built.push(ModelEntry::build(name, spec, algebra, model, quant)?);
        }
        // Commit: one write lock, pointer swaps only. A name is the
        // pass's own to swap when an earlier pass read it from this
        // directory; any other name must be free.
        let own: HashSet<&str> = watch.stamps.values().map(|s| s.name.as_str()).collect();
        let mut inner = lock_unpoisoned(self.inner.write());
        if let Some(taken) = built
            .iter()
            .find(|e| !own.contains(e.name()) && inner.index.contains_key(e.name()))
        {
            return Err(name_taken(taken.name()));
        }
        for mut entry in built {
            let name = entry.name.clone();
            match inner.index.get(&name).copied() {
                Some(i) => {
                    entry.version = inner.entries[i].version + 1;
                    inner.entries[i] = Arc::new(entry);
                    report.reloaded.push(name);
                }
                None => {
                    let at = inner.entries.len();
                    inner.index.insert(name.clone(), at);
                    inner.entries.push(Arc::new(entry));
                    report.added.push(name);
                }
            }
        }
        drop(inner);
        watch.stamps.extend(stamps);
        Ok(report)
    }

    /// Looks up a model by name (O(1) under a brief read lock — this
    /// runs on every admission).
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        let inner = lock_unpoisoned(self.inner.read());
        inner.index.get(name).map(|&i| inner.entries[i].clone())
    }

    /// Snapshot of all entries in registration order — owned `Arc`s, so
    /// callers iterate and serialize without holding the registry lock.
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        lock_unpoisoned(self.inner.read()).entries.clone()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        lock_unpoisoned(self.inner.read()).entries.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total [`ModelRegistry::reload_pass`] invocations (forced or polled).
    pub fn reload_passes(&self) -> u64 {
        // ordering: stat counter read; staleness is fine.
        self.reload_passes.load(Ordering::Relaxed)
    }

    /// Total model versions published by reload passes (added + reloaded).
    pub fn models_reloaded(&self) -> u64 {
        // ordering: stat counter read; staleness is fine.
        self.models_reloaded.load(Ordering::Relaxed)
    }
}

fn name_taken(name: &str) -> ServeError {
    ServeError::Load(format!("model name `{name}` is already registered"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;
    use ringcnn_nn::serialize::{export_model, model_to_json};

    fn demo_spec() -> ModelSpec {
        ModelSpec::Vdsr {
            depth: 2,
            width: 8,
            channels_io: 1,
        }
    }

    #[test]
    fn register_prepares_and_serves_identical_outputs() {
        let alg = Algebra::ri_fh(2);
        let spec = demo_spec();
        let mut reference = spec.build(&alg, 9);
        let reg = ModelRegistry::new();
        let entry = reg
            .register("m", spec, AlgebraSpec::of(&alg), spec.build(&alg, 9))
            .unwrap();
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 4);
        assert_eq!(
            entry.infer(&x).as_slice(),
            reference.forward(&x, false).as_slice()
        );
        assert_eq!(entry.output_shape(x.shape()), x.shape());
        assert!(entry.num_params() > 0);
        // Duplicate names are rejected.
        let err = reg
            .register("m", spec, AlgebraSpec::of(&alg), spec.build(&alg, 9))
            .unwrap_err();
        assert_eq!(err.code(), "load_error");
    }

    #[test]
    fn validate_input_checks_channels_and_granularity() {
        let alg = Algebra::real();
        let spec = ModelSpec::Ffdnet {
            depth: 2,
            width: 8,
            channels_io: 1,
        };
        let reg = ModelRegistry::new();
        let entry = reg
            .register("ffd", spec, AlgebraSpec::of(&alg), spec.build(&alg, 1))
            .unwrap();
        assert!(entry.validate_input(Shape4::new(1, 1, 8, 8)).is_ok());
        // FFDNet unshuffles by 2: odd sizes are rejected up front.
        assert_eq!(
            entry
                .validate_input(Shape4::new(1, 1, 7, 8))
                .unwrap_err()
                .code(),
            "bad_request"
        );
        assert_eq!(
            entry
                .validate_input(Shape4::new(1, 3, 8, 8))
                .unwrap_err()
                .code(),
            "bad_request"
        );
        assert_eq!(
            entry
                .validate_input(Shape4::new(0, 1, 8, 8))
                .unwrap_err()
                .code(),
            "bad_request"
        );
    }

    #[test]
    fn sr4_accepts_odd_inputs_with_an_exact_4x_output_shape() {
        // ×4 super-resolution has granularity 1 (upscale-only trunk), so
        // odd inputs are legal — and with scale (4, 1) the output shape
        // arithmetic is exact, never a silent `h·sn/sd` round-down.
        let alg = Algebra::real();
        let spec = ModelSpec::Sr4Ernet {
            b: 1,
            r: 2,
            n_extra: 0,
            width: 8,
            channels_io: 1,
        };
        let reg = ModelRegistry::new();
        let entry = reg
            .register("sr4", spec, AlgebraSpec::of(&alg), spec.build(&alg, 5))
            .unwrap();
        assert_eq!(entry.topo().scale, (4, 1));
        let odd = Shape4::new(1, 1, 7, 9);
        entry.validate_input(odd).expect("odd sizes are aligned");
        let out = entry.output_shape(odd);
        assert_eq!((out.h, out.w), (28, 36), "exact 4x, no truncation");
        // The advertised shape matches what inference actually produces.
        let y = entry.infer(&Tensor::random_uniform(odd, 0.0, 1.0, 3));
        assert_eq!(y.shape(), out);
    }

    #[test]
    fn quant_attachment_loads_and_serves_both_precisions() {
        use ringcnn_quant::calibrate::calibrate_to_qmodel;
        use ringcnn_quant::quantized::QuantOptions;
        let dir = std::env::temp_dir().join(format!("ringcnn_qreg_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let alg = Algebra::real();
        let spec = demo_spec();
        let mut m = spec.build(&alg, 4);
        let file = export_model("vdsr_q", spec, AlgebraSpec::of(&alg), &mut m).unwrap();
        std::fs::write(dir.join("vdsr_q.json"), model_to_json(&file)).unwrap();
        let batch = Tensor::random_uniform(Shape4::new(2, 1, 12, 12), 0.0, 1.0, 6);
        let qfile = calibrate_to_qmodel(
            "vdsr_q",
            &spec.label(),
            &alg.label(),
            &mut m,
            &batch,
            QuantOptions::default(),
        )
        .unwrap();
        // Sorts *before* the float file: the entry still gets it.
        std::fs::write(
            dir.join("a_vdsr_q.q.json"),
            ringcnn_quant::serialize::qmodel_to_json(&qfile),
        )
        .unwrap();

        let reg = ModelRegistry::new();
        let names = reg.load_dir(&dir).unwrap();
        assert_eq!(
            names,
            vec!["vdsr_q".to_string()],
            "a qmodel file is not an entry"
        );
        let entry = reg.get("vdsr_q").unwrap();
        assert!(entry.has_quant());
        assert!(entry.quant_psnr().unwrap() > 10.0);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 9);
        // Quant execution matches the calibrated pipeline bit for bit.
        assert_eq!(
            entry
                .infer_precision(&x, Precision::Quant)
                .unwrap()
                .as_slice(),
            qfile.model.forward(&x).as_slice()
        );
        // Fp64 execution is untouched.
        assert_eq!(
            entry
                .infer_precision(&x, Precision::Fp64)
                .unwrap()
                .as_slice(),
            entry.infer(&x).as_slice()
        );
        // The first load was a reload pass: the next one finds both
        // files unchanged.
        let rep = reg.reload_pass().unwrap();
        assert!(rep.is_noop());
        assert_eq!(rep.unchanged, 2);
        // A qmodel without its float model is refused, naming the file.
        std::fs::remove_file(dir.join("vdsr_q.json")).unwrap();
        let lone = ModelRegistry::new();
        let err = lone.load_dir(&dir).unwrap_err();
        assert_eq!(err.code(), "load_error");
        assert!(err.to_string().contains("a_vdsr_q.q.json"), "{err}");
        assert!(lone.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quant_without_attachment_is_a_bad_request() {
        let alg = Algebra::real();
        let spec = demo_spec();
        let reg = ModelRegistry::new();
        let entry = reg
            .register("plain", spec, AlgebraSpec::of(&alg), spec.build(&alg, 2))
            .unwrap();
        let x = Tensor::zeros(Shape4::new(1, 1, 8, 8));
        assert_eq!(
            entry
                .infer_precision(&x, Precision::Quant)
                .unwrap_err()
                .code(),
            "bad_request"
        );
    }

    #[test]
    fn load_dir_roundtrips_and_rejects_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("ringcnn_reg_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let alg = Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4));
        let spec = demo_spec();
        let mut m = spec.build(&alg, 3);
        let file = export_model("vdsr_rh4", spec, AlgebraSpec::of(&alg), &mut m).unwrap();
        let json = model_to_json(&file);
        std::fs::write(dir.join("vdsr_rh4.json"), &json).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let reg = ModelRegistry::new();
        let names = reg.load_dir(&dir).unwrap();
        assert_eq!(names, vec!["vdsr_rh4".to_string()]);
        let entry = reg.get("vdsr_rh4").unwrap();
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 4);
        assert_eq!(
            entry.infer(&x).as_slice(),
            m.forward(&x, false).as_slice(),
            "loaded model must match the exported one exactly"
        );

        // A truncated file errors cleanly and aborts the directory load
        // whole: the good file that sorts before it is not registered,
        // and the directory is not watched.
        std::fs::write(dir.join("w_corrupt.json"), &json[..json.len() / 2]).unwrap();
        let reg2 = ModelRegistry::new();
        let err = reg2.load_dir(&dir).unwrap_err();
        assert_eq!(err.code(), "load_error", "{err}");
        assert_eq!(reg2.len(), 0, "a failed first load registers nothing");
        assert!(reg2.reload_pass().unwrap().is_noop());
        assert_eq!(reg2.len(), 0);
        // A name somebody registered programmatically is not the
        // directory's to take.
        std::fs::remove_file(dir.join("w_corrupt.json")).unwrap();
        let reg3 = ModelRegistry::new();
        reg3.register("vdsr_rh4", spec, AlgebraSpec::of(&alg), spec.build(&alg, 8))
            .unwrap();
        let err = reg3.load_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
        assert_eq!(reg3.get("vdsr_rh4").unwrap().version(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_files_declaring_one_name_are_refused_at_load_and_at_reload() {
        let dir = std::env::temp_dir().join(format!("ringcnn_dup_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let alg = Algebra::real();
        let spec = demo_spec();
        let export = |name: &str, seed: u64| {
            let mut m = spec.build(&alg, seed);
            model_to_json(&export_model(name, spec, AlgebraSpec::of(&alg), &mut m).unwrap())
        };
        std::fs::write(dir.join("a.json"), export("a", 1)).unwrap();
        std::fs::write(dir.join("a_copy.json"), export("a", 2)).unwrap();
        let refused = |err: ServeError| {
            assert_eq!(err.code(), "load_error");
            let text = err.to_string();
            assert!(
                text.contains("a.json") && text.contains("a_copy.json"),
                "both paths named: {text}"
            );
        };

        // At start-up…
        let reg = ModelRegistry::new();
        refused(reg.load_dir(&dir).unwrap_err());
        assert!(reg.is_empty());

        // …and by a hot reload (accepted at the parent, which then served
        // whichever path sorted last): first with `a.json` unchanged, its
        // name only remembered, then with both files parsed.
        std::fs::remove_file(dir.join("a_copy.json")).unwrap();
        reg.load_dir(&dir).unwrap();
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 3);
        let y = reg.get("a").unwrap().infer(&x);
        std::fs::write(dir.join("a_copy.json"), export("a", 2)).unwrap();
        refused(reg.reload_pass().unwrap_err());
        std::fs::write(dir.join("a.json"), export("a", 3)).unwrap();
        refused(reg.reload_pass().unwrap_err());
        let a = reg.get("a").unwrap();
        assert_eq!((reg.len(), a.version()), (1, 1), "nothing published");
        assert_eq!(a.infer(&x), y);
        assert_eq!(reg.models_reloaded(), 0);

        // Removing the impostor lets the pending change of `a` land.
        std::fs::remove_file(dir.join("a_copy.json")).unwrap();
        let rep = reg.reload_pass().unwrap();
        assert_eq!(rep.reloaded, vec!["a".to_string()]);
        assert_eq!(reg.get("a").unwrap().version(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_pass_swaps_changed_models_and_adds_new_ones() {
        let dir = std::env::temp_dir().join(format!("ringcnn_reload_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let alg = Algebra::real();
        let spec = demo_spec();
        let mut m1 = spec.build(&alg, 11);
        let f1 = export_model("a", spec, AlgebraSpec::of(&alg), &mut m1).unwrap();
        std::fs::write(dir.join("a.json"), model_to_json(&f1)).unwrap();

        let reg = ModelRegistry::new();
        reg.load_dir(&dir).unwrap();
        let old = reg.get("a").unwrap();
        assert_eq!(old.version(), 1);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 7);
        let y_old = old.infer(&x);

        // Unchanged files are a no-op pass.
        let rep = reg.reload_pass().unwrap();
        assert!(rep.is_noop());
        assert_eq!(rep.unchanged, 1);
        assert_eq!(reg.get("a").unwrap().version(), 1);

        // Re-export `a` with different weights and add a new model `b`.
        let mut m2 = spec.build(&alg, 12);
        let f2 = export_model("a", spec, AlgebraSpec::of(&alg), &mut m2).unwrap();
        std::fs::write(dir.join("a.json"), model_to_json(&f2)).unwrap();
        let mut mb = spec.build(&alg, 13);
        let fb = export_model("b", spec, AlgebraSpec::of(&alg), &mut mb).unwrap();
        std::fs::write(dir.join("b.json"), model_to_json(&fb)).unwrap();

        let rep = reg.reload_pass().unwrap();
        assert_eq!(rep.reloaded, vec!["a".to_string()]);
        assert_eq!(rep.added, vec!["b".to_string()]);
        let new = reg.get("a").unwrap();
        assert_eq!(new.version(), 2);
        assert_eq!(reg.get("b").unwrap().version(), 1);
        assert_eq!(new.infer(&x).as_slice(), m2.forward(&x, false).as_slice());
        // The pre-reload handle still serves the old weights bit-exact.
        assert_eq!(old.infer(&x).as_slice(), y_old.as_slice());
        assert_eq!(reg.models_reloaded(), 2);
        assert_eq!(reg.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_pass_rebuilds_on_qmodel_only_change() {
        use ringcnn_quant::calibrate::calibrate_to_qmodel;
        use ringcnn_quant::quantized::QuantOptions;
        let dir =
            std::env::temp_dir().join(format!("ringcnn_reload_q_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let alg = Algebra::real();
        let spec = demo_spec();
        let mut m = spec.build(&alg, 21);
        let file = export_model("q", spec, AlgebraSpec::of(&alg), &mut m).unwrap();
        std::fs::write(dir.join("q.json"), model_to_json(&file)).unwrap();
        let batch1 = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 31);
        let q1 = calibrate_to_qmodel(
            "q",
            &spec.label(),
            &alg.label(),
            &mut m,
            &batch1,
            QuantOptions::default(),
        )
        .unwrap();
        std::fs::write(
            dir.join("q.q.json"),
            ringcnn_quant::serialize::qmodel_to_json(&q1),
        )
        .unwrap();

        let reg = ModelRegistry::new();
        reg.load_dir(&dir).unwrap();
        assert!(reg.get("q").unwrap().has_quant());

        // Re-calibrate on a different batch: only the qmodel file
        // changes, and the model is rebuilt whole — a fresh versioned
        // entry from the unchanged float file and the new pipeline.
        let batch2 = Tensor::random_uniform(Shape4::new(2, 1, 12, 12), 0.0, 1.0, 32);
        let q2 = calibrate_to_qmodel(
            "q",
            &spec.label(),
            &alg.label(),
            &mut m,
            &batch2,
            QuantOptions::default(),
        )
        .unwrap();
        std::fs::write(
            dir.join("q.q.json"),
            ringcnn_quant::serialize::qmodel_to_json(&q2),
        )
        .unwrap();
        let rep = reg.reload_pass().unwrap();
        assert_eq!(rep.reloaded, vec!["q".to_string()]);
        let entry = reg.get("q").unwrap();
        assert_eq!(entry.version(), 2);
        assert!(entry.has_quant());
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 33);
        assert_eq!(
            entry
                .infer_precision(&x, Precision::Quant)
                .unwrap()
                .as_slice(),
            q2.model.forward(&x).as_slice()
        );
        // A programmatic registry (no watch dir) reloads as a clean no-op.
        let lone = ModelRegistry::new();
        lone.register("p", spec, AlgebraSpec::of(&alg), spec.build(&alg, 2))
            .unwrap();
        assert!(lone.reload_pass().unwrap().is_noop());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_pass_aborts_on_corrupt_file_and_retries_next_pass() {
        let dir =
            std::env::temp_dir().join(format!("ringcnn_reload_bad_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let alg = Algebra::real();
        let spec = demo_spec();
        let mut ma = spec.build(&alg, 41);
        let fa = export_model("a", spec, AlgebraSpec::of(&alg), &mut ma).unwrap();
        std::fs::write(dir.join("a.json"), model_to_json(&fa)).unwrap();
        let reg = ModelRegistry::new();
        reg.load_dir(&dir).unwrap();

        // A torn write aborts the pass; nothing is published.
        let mut mb = spec.build(&alg, 42);
        let fb = export_model("b", spec, AlgebraSpec::of(&alg), &mut mb).unwrap();
        let json = model_to_json(&fb);
        std::fs::write(dir.join("b.json"), &json[..json.len() / 2]).unwrap();
        let err = reg.reload_pass().unwrap_err();
        assert_eq!(err.code(), "load_error", "{err}");
        assert!(reg.get("b").is_none());
        assert_eq!(reg.get("a").unwrap().version(), 1);

        // Fingerprints were not advanced: fixing the file lands it on
        // the very next pass.
        std::fs::write(dir.join("b.json"), &json).unwrap();
        let rep = reg.reload_pass().unwrap();
        assert_eq!(rep.added, vec!["b".to_string()]);
        assert_eq!(reg.models_reloaded(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
