//! The wire protocol: one JSON object per `\n`-terminated line, in both
//! directions, over a plain TCP stream — and [`VERBS`], the only place a
//! verb's JSON name and frame bytes are written. This module's JSON
//! codec, the binary codec in [`crate::frame`], the client and the
//! tables of `docs/PROTOCOL.md` (the normative spec of both wires,
//! checked against [`VERBS`] cell by cell in `tests/docs.rs`) read it.
//!
//! A request names its verb; only `infer` and `trace` carry fields:
//!
//! ```json
//! {"verb":"infer","model":"ffdnet_real","precision":"quant","deadline_ms":25.0,"shape":[1,1,32,32],"data":[0.5,…]}
//! {"verb":"trace","n":4}
//! ```
//!
//! `precision` and `deadline_ms` are optional: with a budget, the
//! request may be rejected with the `deadline` error code, on arrival or
//! at dispatch (see [`crate::scheduler::Scheduler::submit_with`]).
//!
//! Every response carries `"ok"`. Successes echo the verb; failures
//! carry a stable `error` code (see [`ServeError::code`]) and a
//! human-readable `message`:
//!
//! ```json
//! {"ok":true,"verb":"infer","shape":[1,1,32,32],"data":[…],
//!  "queue_ms":0.4,"total_ms":2.1,"batch_size":4}
//! {"ok":false,"error":"overloaded","message":"queue full (256/256 requests)"}
//! ```
//!
//! Decoding is hand-rolled over the JSON [`Value`] tree (rather than
//! derived) so that missing or mistyped fields in *untrusted* input
//! surface as [`ServeError::BadRequest`] with a field name, never as a
//! panic, and unknown extra fields are ignored for forward
//! compatibility.

use crate::error::ServeError;
use crate::registry::{Precision, ReloadReport};
use crate::stats::StatsSnapshot;
use ringcnn_tensor::prelude::*;
use ringcnn_trace::span::TraceTree;
use serde::{Deserialize, Serialize, Value};

/// Which wire protocol a connection speaks. The server decides from the
/// first bytes of the stream (see [`crate::frame::negotiate`]); clients
/// pick one up front.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Wire {
    /// One JSON object per newline-terminated line (this module) — the
    /// original protocol, kept wire-compatible for old clients.
    #[default]
    Json,
    /// Length-prefixed binary frames with raw little-endian `f32`
    /// payloads (see [`crate::frame`]).
    Binary,
}

impl Wire {
    /// Stable label (CLI flags, bench entry names).
    pub fn label(self) -> &'static str {
        match self {
            Wire::Json => "json",
            Wire::Binary => "binary",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the unknown label.
    pub fn parse(s: &str) -> Result<Wire, ServeError> {
        match s {
            "json" => Ok(Wire::Json),
            "binary" => Ok(Wire::Binary),
            other => Err(ServeError::BadRequest(format!(
                "unknown protocol `{other}` (expected `json` or `binary`)"
            ))),
        }
    }
}

/// The typed key of a [`VERBS`] row; `id as usize` is the row's index
/// and the row's `purpose` says what the verb does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VerbId {
    Infer,
    ListModels,
    Stats,
    Health,
    Shutdown,
    Reload,
    Trace,
}

/// How a verb's success payload travels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body {
    /// No payload on either wire.
    None,
    /// One serde value: under this key of the JSON response object, and
    /// as the same JSON text filling one binary frame.
    Json(&'static str),
    /// Named JSON fields / the fixed binary `health` layout.
    Health,
    /// Named JSON fields / the streamed begin, tile, end frames.
    Infer,
}

/// The wire identity of one verb.
#[derive(Clone, Copy, Debug)]
pub struct Verb {
    /// Which [`Request`]/[`Response`] variants carry it.
    pub id: VerbId,
    /// The JSON `"verb"` value.
    pub name: &'static str,
    /// Verb byte of the request frame.
    pub request: u8,
    /// Verb byte(s) of the success response frame(s), in stream order.
    pub response: &'static [u8],
    /// Layout of the success payload.
    pub body: Body,
    /// One line for the `docs/PROTOCOL.md` Verbs table.
    pub purpose: &'static str,
}

/// Every verb, once. Both codecs, the client and the `docs/PROTOCOL.md`
/// tables read this table; nothing else spells a verb name or byte.
pub const VERBS: [Verb; 7] = [
    Verb {
        id: VerbId::Infer,
        name: "infer",
        request: 0x01,
        response: &[0x81, 0x82, 0x83],
        body: Body::Infer,
        purpose: "run one input through a model",
    },
    Verb {
        id: VerbId::ListModels,
        name: "list_models",
        request: 0x02,
        response: &[0x84],
        body: Body::Json("models"),
        purpose: "enumerate registered models",
    },
    Verb {
        id: VerbId::Stats,
        name: "stats",
        request: 0x03,
        response: &[0x85],
        body: Body::Json("stats"),
        purpose: "the stats snapshot",
    },
    Verb {
        id: VerbId::Health,
        name: "health",
        request: 0x04,
        response: &[0x86],
        body: Body::Health,
        purpose: "liveness/readiness probe",
    },
    Verb {
        id: VerbId::Shutdown,
        name: "shutdown",
        request: 0x05,
        response: &[0x87],
        body: Body::None,
        purpose: "drain and exit",
    },
    Verb {
        id: VerbId::Reload,
        name: "reload",
        request: 0x06,
        response: &[0x88],
        body: Body::Json("report"),
        purpose: "force a registry hot-reload pass",
    },
    Verb {
        id: VerbId::Trace,
        name: "trace",
        request: 0x07,
        response: &[0x89],
        body: Body::Json("slow"),
        purpose: "recent captured slow-request span trees",
    },
];

/// Verb byte of an error response frame (the JSON wire says
/// `"ok":false` instead).
pub const ERROR_BYTE: u8 = 0xFE;

/// Bit set on an `infer` request's precision byte when the payload
/// carries a trailing `deadline_ms: f64 LE` after the sample data.
pub const DEADLINE_FLAG: u8 = 0x80;

// What the codecs index without a check: `Verb::of` a row by its id,
// `frame` the begin/tile/end bytes of `infer` and byte 0 of the rest.
const _: () = {
    let mut i = 0;
    while i < VERBS.len() {
        assert!(VERBS[i].id as usize == i, "VERBS rows follow VerbId order");
        let infer = matches!(VERBS[i].body, Body::Infer);
        assert!(VERBS[i].response.len() == if infer { 3 } else { 1 });
        i += 1;
    }
};

impl Verb {
    /// The row of `id`.
    pub fn of(id: VerbId) -> Verb {
        VERBS[id as usize]
    }

    /// The row a predicate selects (by JSON name, by frame byte).
    pub fn find(pred: impl Fn(&Verb) -> bool) -> Option<Verb> {
        VERBS.into_iter().find(|v| pred(v))
    }
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run one input through a named model.
    Infer {
        /// Registry key.
        model: String,
        /// Which pipeline executes: `"fp64"` (default when the field is
        /// absent) or `"quant"` (needs a loaded `ringcnn-qmodel/v1`).
        precision: Precision,
        /// Input shape `[n, c, h, w]`.
        shape: Shape4,
        /// Row-major samples (`n·c·h·w` values).
        data: Vec<f32>,
        /// Optional latency budget: rejected with the `deadline` code
        /// on arrival when the scheduler predicts it is already blown,
        /// at dispatch when it ran out in the queue. Absent on the wire
        /// when `None` (old clients never send it, old servers ignore it).
        deadline_ms: Option<f64>,
    },
    /// List the registered models.
    ListModels,
    /// Service statistics.
    Stats,
    /// Liveness/readiness probe.
    Health,
    /// Force a registry hot-reload pass (admin verb).
    Reload,
    /// The most recent captured slow-request span trees (see
    /// `--trace-slow-ms`).
    Trace {
        /// How many trees, newest first (`0` = all retained).
        n: usize,
    },
    /// Ask the server to drain and exit.
    Shutdown,
}

/// One registered model, as reported by `list_models`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry key.
    pub name: String,
    /// Architecture label, e.g. `vdsr-d3c8`.
    pub arch: String,
    /// Algebra label, e.g. `(RH4, fcw)`.
    pub algebra: String,
    /// Effective convolution backend label.
    pub backend: String,
    /// Receptive-field radius (input pixels).
    pub radius: usize,
    /// Input H/W must be divisible by this.
    pub granularity: usize,
    /// Output pixels per input pixel, `[num, den]`.
    pub scale: (usize, usize),
    /// Stored real-valued parameter count.
    pub params: usize,
    /// I/O channel count an `infer` request must supply.
    pub channels_io: usize,
    /// Available precisions (`["fp64"]`, plus `"quant"` when a
    /// quantized pipeline is attached).
    pub precisions: Vec<String>,
    /// Calibration-time fp-vs-quant PSNR (dB) of the quantized pipeline,
    /// `None` without one.
    pub quant_psnr: Option<f64>,
    /// Hot-reload version counter: `1` at first registration, bumped on
    /// every successful reload of this model.
    pub version: u64,
}

/// `health` verb payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthReply {
    /// Whether the service admits work.
    pub healthy: bool,
    /// Registered model count.
    pub models: usize,
    /// Current queue depth.
    pub queue_depth: usize,
    /// The GEMM kernel variant the server selected at startup
    /// (honoring `RINGCNN_KERNEL`): `"avx2"` or `"scalar"`.
    pub kernel: String,
    /// Milliseconds since the server started.
    pub uptime_ms: f64,
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Inference result.
    Infer {
        /// Output shape.
        shape: Shape4,
        /// Row-major output samples.
        data: Vec<f32>,
        /// Admission → dispatch wait, milliseconds.
        queue_ms: f64,
        /// Admission → completion latency, milliseconds.
        total_ms: f64,
        /// Batch size this request rode in.
        batch_size: usize,
    },
    /// Registered models.
    ListModels(Vec<ModelInfo>),
    /// Service statistics.
    Stats(StatsSnapshot),
    /// Probe result.
    Health(HealthReply),
    /// Reload pass completed; what changed.
    Reload(ReloadReport),
    /// Captured slow-request span trees, newest first.
    Trace(Vec<TraceTree>),
    /// Shutdown acknowledged; the server drains and exits.
    Shutdown,
    /// The request failed.
    Error(ServeError),
}

// --- Value helpers ---------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value, ServeError> {
    v.field(key)
        .map_err(|_| ServeError::BadRequest(format!("missing field `{key}`")))
}

fn get_str(v: &Value, key: &str) -> Result<String, ServeError> {
    match get(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a string"
        ))),
    }
}

fn decode<T: Deserialize>(v: &Value, key: &str) -> Result<T, ServeError> {
    T::from_json_value(get(v, key)?)
        .map_err(|e| ServeError::BadRequest(format!("field `{key}`: {e}")))
}

fn shape_value(s: Shape4) -> Value {
    [s.n, s.c, s.h, s.w].to_json_value()
}

/// A shape off either wire. `Shape4::len` multiplies unchecked; reject
/// overflowing products here so a hostile shape like [2^32, 1, 2^32, 1]
/// cannot wrap to a small element count and slip past the data-length
/// check.
pub(crate) fn checked_shape(dims: [usize; 4]) -> Result<Shape4, ServeError> {
    dims.iter()
        .try_fold(1usize, |acc, d| acc.checked_mul(*d))
        .ok_or_else(|| ServeError::BadRequest(format!("shape {dims:?} element count overflows")))?;
    Ok(Shape4::new(dims[0], dims[1], dims[2], dims[3]))
}

fn decode_shape(v: &Value, key: &str) -> Result<Shape4, ServeError> {
    checked_shape(decode(v, key)?)
}

fn parse_line(line: &str) -> Result<Value, ServeError> {
    serde_json::from_str(line.trim())
        .map_err(|e| ServeError::BadRequest(format!("malformed JSON: {e}")))
}

/// The [`VERBS`] row a message's `"verb"` field names.
fn verb_of(v: &Value) -> Result<Verb, ServeError> {
    let name = get_str(v, "verb")?;
    Verb::find(|row| row.name == name)
        .ok_or_else(|| ServeError::BadRequest(format!("unknown verb `{name}`")))
}

// --- Request codec ---------------------------------------------------------

impl Request {
    /// The verb this request carries.
    pub fn verb(&self) -> Verb {
        Verb::of(match self {
            Request::Infer { .. } => VerbId::Infer,
            Request::ListModels => VerbId::ListModels,
            Request::Stats => VerbId::Stats,
            Request::Health => VerbId::Health,
            Request::Reload => VerbId::Reload,
            Request::Trace { .. } => VerbId::Trace,
            Request::Shutdown => VerbId::Shutdown,
        })
    }

    /// The request of a payload-less verb (`infer` and `trace` carry
    /// fields each codec decodes itself).
    pub(crate) fn bare(id: VerbId) -> Option<Request> {
        match id {
            VerbId::ListModels => Some(Request::ListModels),
            VerbId::Stats => Some(Request::Stats),
            VerbId::Health => Some(Request::Health),
            VerbId::Reload => Some(Request::Reload),
            VerbId::Shutdown => Some(Request::Shutdown),
            VerbId::Infer | VerbId::Trace => None,
        }
    }

    /// Renders the request as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut pairs = vec![("verb", Value::Str(self.verb().name.into()))];
        match self {
            Request::Infer {
                model,
                precision,
                shape,
                data,
                deadline_ms,
            } => {
                pairs.push(("model", Value::Str(model.clone())));
                pairs.push(("precision", Value::Str(precision.label().into())));
                // Emitted only when set: old servers never see the field.
                if let Some(d) = deadline_ms {
                    pairs.push(("deadline_ms", Value::F64(*d)));
                }
                pairs.push(("shape", shape_value(*shape)));
                pairs.push(("data", data.to_json_value()));
            }
            Request::Trace { n } => pairs.push(("n", Value::U64(*n as u64))),
            _ => {} // Payload-less: the verb is the whole message.
        }
        serde_json::to_string(&obj(pairs)).expect("request serializes")
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the malformed part.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let v = parse_line(line)?;
        let verb = verb_of(&v)?;
        match verb.id {
            VerbId::Infer => {
                let model = get_str(&v, "model")?;
                // Absent field = fp64 (wire compatibility with pre-quant
                // clients); present but malformed = bad_request.
                let precision = match v.field("precision") {
                    Ok(Value::Str(s)) => Precision::parse(s)?,
                    Ok(_) => {
                        return Err(ServeError::BadRequest(
                            "field `precision` must be a string".into(),
                        ))
                    }
                    Err(_) => Precision::Fp64,
                };
                // Absent field = no budget; present but mistyped =
                // bad_request (never silently dropped).
                let deadline_ms = match v.field("deadline_ms") {
                    Ok(Value::F64(d)) => Some(*d),
                    Ok(Value::U64(d)) => Some(*d as f64),
                    Ok(_) => {
                        return Err(ServeError::BadRequest(
                            "field `deadline_ms` must be a number".into(),
                        ))
                    }
                    Err(_) => None,
                };
                let shape = decode_shape(&v, "shape")?;
                let data: Vec<f32> = decode(&v, "data")?;
                if data.len() != shape.len() {
                    return Err(ServeError::BadRequest(format!(
                        "shape {shape} wants {} samples, got {}",
                        shape.len(),
                        data.len()
                    )));
                }
                Ok(Request::Infer {
                    model,
                    precision,
                    shape,
                    data,
                    deadline_ms,
                })
            }
            VerbId::Trace => {
                // Absent field = all retained trees; mistyped = bad_request.
                let n = match v.field("n") {
                    Ok(Value::U64(n)) => *n as usize,
                    Ok(Value::I64(n)) if *n >= 0 => *n as usize,
                    Ok(_) => {
                        return Err(ServeError::BadRequest(
                            "field `n` must be a non-negative integer".into(),
                        ))
                    }
                    Err(_) => 0,
                };
                Ok(Request::Trace { n })
            }
            id => Request::bare(id).ok_or_else(|| no_decoder(verb)),
        }
    }
}

/// A [`VERBS`] row names a payload this build has no decoder for: a bug
/// in the table, answered as `internal` rather than by a panic on the
/// reactor thread.
pub(crate) fn no_decoder(verb: Verb) -> ServeError {
    ServeError::Internal(format!("verb `{}` has no payload decoder", verb.name))
}

// --- Response codec --------------------------------------------------------

impl Response {
    /// For a response whose payload is at most one serde value
    /// ([`Body::Json`], [`Body::None`]): its verb and that value
    /// (`Null` for none). `None` for the bespoke layouts — `infer`,
    /// `health` and errors — which each codec matches itself.
    pub(crate) fn plain(&self) -> Option<(Verb, Value)> {
        let (id, value) = match self {
            Response::ListModels(models) => (VerbId::ListModels, models.to_json_value()),
            Response::Stats(stats) => (VerbId::Stats, stats.to_json_value()),
            Response::Reload(report) => (VerbId::Reload, report.to_json_value()),
            Response::Trace(trees) => (VerbId::Trace, trees.to_json_value()),
            Response::Shutdown => (VerbId::Shutdown, Value::Null),
            Response::Infer { .. } | Response::Health(_) | Response::Error(_) => return None,
        };
        Some((Verb::of(id), value))
    }

    /// [`Response::plain`] backwards: the typed response of `verb` from
    /// its decoded value.
    ///
    /// # Errors
    ///
    /// What the value fails to deserialize as, or the missing decoder.
    pub(crate) fn from_plain(verb: Verb, value: &Value) -> Result<Response, String> {
        fn de<T: Deserialize>(value: &Value, wrap: fn(T) -> Response) -> Result<Response, String> {
            T::from_json_value(value)
                .map(wrap)
                .map_err(|e| e.to_string())
        }
        match verb.id {
            VerbId::ListModels => de(value, Response::ListModels),
            VerbId::Stats => de(value, Response::Stats),
            VerbId::Reload => de(value, Response::Reload),
            VerbId::Trace => de(value, Response::Trace),
            VerbId::Shutdown => Ok(Response::Shutdown),
            VerbId::Infer | VerbId::Health => Err(no_decoder(verb).to_string()),
        }
    }

    /// Renders the response as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        // A success: `ok`, the verb, then the fields of the `body` object.
        let ok = |verb: Verb, body: Value| {
            let mut pairs = vec![
                ("ok".to_string(), Value::Bool(true)),
                ("verb".to_string(), Value::Str(verb.name.into())),
            ];
            if let Value::Object(fields) = body {
                pairs.extend(fields);
            }
            Value::Object(pairs)
        };
        let v = match self {
            Response::Infer {
                shape,
                data,
                queue_ms,
                total_ms,
                batch_size,
            } => ok(
                Verb::of(VerbId::Infer),
                obj(vec![
                    ("shape", shape_value(*shape)),
                    ("data", data.to_json_value()),
                    ("queue_ms", Value::F64(*queue_ms)),
                    ("total_ms", Value::F64(*total_ms)),
                    ("batch_size", Value::U64(*batch_size as u64)),
                ]),
            ),
            Response::Health(reply) => ok(Verb::of(VerbId::Health), reply.to_json_value()),
            Response::Error(e) => obj(vec![
                ("ok", Value::Bool(false)),
                ("error", Value::Str(e.code().into())),
                ("message", Value::Str(e.to_string())),
            ]),
            plain => {
                let (verb, value) = plain
                    .plain()
                    .expect("the bespoke layouts are matched above");
                match verb.body {
                    Body::Json(key) => ok(verb, obj(vec![(key, value)])),
                    _ => ok(verb, Value::Null),
                }
            }
        };
        serde_json::to_string(&v).expect("response serializes")
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the line is not a valid response
    /// (the transport gave us something else entirely).
    pub fn parse(line: &str) -> Result<Response, ServeError> {
        let v = parse_line(line)?;
        let ok = matches!(get(&v, "ok")?, Value::Bool(true));
        if !ok {
            let code = get_str(&v, "error")?;
            let message = get_str(&v, "message").unwrap_or_default();
            return Ok(Response::Error(ServeError::from_wire(&code, &message)));
        }
        let verb = verb_of(&v)?;
        match verb.body {
            Body::Infer => Ok(Response::Infer {
                shape: decode_shape(&v, "shape")?,
                data: decode(&v, "data")?,
                queue_ms: decode(&v, "queue_ms")?,
                total_ms: decode(&v, "total_ms")?,
                batch_size: decode(&v, "batch_size")?,
            }),
            Body::Health => HealthReply::from_json_value(&v)
                .map(Response::Health)
                .map_err(|e| ServeError::BadRequest(e.to_string())),
            Body::Json(key) => Response::from_plain(verb, get(&v, key)?)
                .map_err(|e| ServeError::BadRequest(format!("field `{key}`: {e}"))),
            Body::None => Response::from_plain(verb, &Value::Null).map_err(ServeError::BadRequest),
        }
    }
}

/// The one sample list both codecs' round-trip suites walk (this
/// module's and [`crate::frame`]'s), so a verb added to one wire cannot
/// be forgotten on the other.
#[cfg(test)]
pub(crate) mod samples {
    use super::*;
    use crate::stats::Metrics;
    use ringcnn_trace::span::SpanRec;

    pub(crate) fn infer(
        model: &str,
        precision: Precision,
        shape: Shape4,
        data: Vec<f32>,
        deadline_ms: Option<f64>,
    ) -> Request {
        Request::Infer {
            model: model.into(),
            precision,
            shape,
            data,
            deadline_ms,
        }
    }

    /// Floats whose decimal text is long: the bit-exactness probe.
    pub(crate) fn awkward_floats(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.137).sin() * 1e3 + 1.0e-7)
            .collect()
    }

    pub(crate) fn requests() -> Vec<Request> {
        let (fp64, quant) = (Precision::Fp64, Precision::Quant);
        let extremes = vec![f32::MIN_POSITIVE, -0.0, 1e30, -1e-30];
        vec![
            infer(
                "ffdnet_real",
                fp64,
                Shape4::new(1, 1, 2, 2),
                vec![0.25, -1.0, 3.5, 0.0],
                None,
            ),
            infer("m", quant, Shape4::new(2, 1, 1, 2), extremes, None),
            infer(
                "m",
                quant,
                Shape4::new(1, 1, 1, 2),
                vec![0.5, 1.5],
                Some(12.25),
            ),
            Request::ListModels,
            Request::Stats,
            Request::Health,
            Request::Reload,
            Request::Trace { n: 0 },
            Request::Trace { n: 7 },
            Request::Shutdown,
        ]
    }

    pub(crate) fn responses() -> Vec<Response> {
        vec![
            Response::Infer {
                shape: Shape4::new(1, 1, 96, 96), // 9216 samples → 3 tiles
                data: (0..9216).map(|i| i as f32 * 0.25).collect(),
                queue_ms: 0.5,
                total_ms: 1.5,
                batch_size: 4,
            },
            Response::ListModels(vec![ModelInfo {
                name: "m".into(),
                arch: "vdsr-d3c8".into(),
                algebra: "(RH4, fcw)".into(),
                backend: "transform".into(),
                radius: 3,
                granularity: 1,
                scale: (1, 1),
                params: 1234,
                channels_io: 1,
                precisions: vec!["fp64".into(), "quant".into()],
                quant_psnr: Some(31.5),
                version: 3,
            }]),
            Response::Stats(Metrics::new().snapshot()),
            Response::Health(HealthReply {
                healthy: true,
                models: 2,
                queue_depth: 7,
                kernel: "avx2".into(),
                uptime_ms: 98765.25,
            }),
            Response::Reload(ReloadReport {
                added: vec!["b".into()],
                reloaded: vec!["a".into()],
                unchanged: 2,
            }),
            Response::Trace(vec![TraceTree {
                trace_id: 42,
                total_ms: 6.5,
                spans: vec![SpanRec {
                    trace: 42,
                    id: 1,
                    parent: 0,
                    name: "request".into(),
                    start_us: 100,
                    dur_us: 6500,
                    tid: 1,
                    arg0: 12,
                    arg1: 3,
                }],
            }]),
            Response::Shutdown,
            Response::Error(ServeError::Overloaded { depth: 8, cap: 8 }),
            Response::Error(ServeError::BadRequest("shape".into())),
        ]
    }

    /// What a decoded response must equal: the one sent — except that
    /// the numbers behind `overloaded`/`deadline` do not cross the wire,
    /// only their code does.
    pub(crate) fn assert_survived(sent: &Response, back: &Response) {
        use ServeError::{Deadline, Overloaded};
        match (sent, back) {
            (Response::Error(a @ (Overloaded { .. } | Deadline { .. })), Response::Error(b)) => {
                assert_eq!(a.code(), b.code());
            }
            _ => assert_eq!(back, sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for r in samples::requests() {
            assert_eq!(Request::parse(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn infer_data_survives_the_wire_bit_exactly() {
        // f32 → JSON f64 text → f32 must be the identity (bit-exact
        // responses are part of the service contract).
        let data = samples::awkward_floats(256);
        let shape = Shape4::new(1, 1, 16, 16);
        let r = samples::infer("m", Precision::Fp64, shape, data.clone(), None);
        match Request::parse(&r.to_json()).unwrap() {
            Request::Infer { data: back, .. } => assert_eq!(back, data),
            _ => unreachable!(),
        }
    }

    #[test]
    fn responses_roundtrip() {
        for r in samples::responses() {
            let line = r.to_json();
            samples::assert_survived(&r, &Response::parse(&line).unwrap());
        }
    }

    #[test]
    fn absent_precision_defaults_to_fp64() {
        // Wire compatibility: pre-quant clients never send the field.
        let line = r#"{"verb":"infer","model":"m","shape":[1,1,1,1],"data":[0.5]}"#;
        match Request::parse(line).unwrap() {
            Request::Infer { precision, .. } => assert_eq!(precision, Precision::Fp64),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_bad_requests_not_panics() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"verb":"nope"}"#,
            r#"{"verb":"infer"}"#,
            r#"{"verb":"infer","model":"m","shape":[1,1,2,2],"data":[1.0]}"#,
            r#"{"verb":"infer","model":"m","shape":[1,1],"data":[]}"#,
            r#"{"verb":"infer","model":3,"shape":[1,1,1,1],"data":[1.0]}"#,
            r#"{"verb":5}"#,
            r#"{"verb":"infer","model":"m","precision":"int3","shape":[1,1,1,1],"data":[1.0]}"#,
            r#"{"verb":"infer","model":"m","precision":7,"shape":[1,1,1,1],"data":[1.0]}"#,
            r#"{"verb":"infer","model":"m","deadline_ms":"soon","shape":[1,1,1,1],"data":[1.0]}"#,
            "[1,2,3]",
            // Shape whose element product wraps usize: must be refused,
            // not wrapped to a small count that matches `data`.
            r#"{"verb":"infer","model":"m","shape":[4294967296,1,4294967296,1],"data":[]}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line:?} → {err}");
        }
    }
}
