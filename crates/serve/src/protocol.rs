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
//! Both codecs walk the top-level object one member at a time. This
//! module reads only the punctuation between members; each key and
//! value is read by the `serde_json` shim's parser, the one JSON grammar
//! of the workspace, which also bounds how deep a value may nest. The
//! first `data` member goes straight between the line and `Vec<f32>`,
//! one sample at a time, converted as the [`Value`] path converts it.
//! Every other member is kept as a [`Value`] and read by hand (rather
//! than derived), so that missing or mistyped fields in *untrusted*
//! input surface as [`ServeError::BadRequest`] with a field name, never
//! as a panic, and unknown extra fields are ignored for forward
//! compatibility.

use crate::error::{echo, ServeError};
use crate::registry::{Precision, ReloadReport};
use crate::stats::StatsSnapshot;
use ringcnn_tensor::prelude::*;
use ringcnn_trace::span::TraceTree;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

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
    /// Named JSON fields / one frame of shape, timings, batch size and
    /// the samples.
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
    /// Verb byte of the success response frame.
    pub response: u8,
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
        response: 0x81,
        body: Body::Infer,
        purpose: "run one input through a model",
    },
    Verb {
        id: VerbId::ListModels,
        name: "list_models",
        request: 0x02,
        response: 0x84,
        body: Body::Json("models"),
        purpose: "enumerate registered models",
    },
    Verb {
        id: VerbId::Stats,
        name: "stats",
        request: 0x03,
        response: 0x85,
        body: Body::Json("stats"),
        purpose: "the stats snapshot",
    },
    Verb {
        id: VerbId::Health,
        name: "health",
        request: 0x04,
        response: 0x86,
        body: Body::Health,
        purpose: "liveness/readiness probe",
    },
    Verb {
        id: VerbId::Shutdown,
        name: "shutdown",
        request: 0x05,
        response: 0x87,
        body: Body::None,
        purpose: "drain and exit",
    },
    Verb {
        id: VerbId::Reload,
        name: "reload",
        request: 0x06,
        response: 0x88,
        body: Body::Json("report"),
        purpose: "force a registry hot-reload pass",
    },
    Verb {
        id: VerbId::Trace,
        name: "trace",
        request: 0x07,
        response: 0x89,
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

// What `Verb::of` indexes without a check: a row by its id.
const _: () = {
    let mut i = 0;
    while i < VERBS.len() {
        assert!(VERBS[i].id as usize == i, "VERBS rows follow VerbId order");
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
    /// Milliseconds since the scheduler started (the clock of the
    /// `stats` snapshot's `uptime_ms`).
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

// --- Reading a line --------------------------------------------------------

/// A wire line's top-level object: `data`, the one member read straight
/// into samples, and every other member as a [`Value`] object.
struct Line {
    /// The first `data` member's samples, when it is a flat array of
    /// numbers and `null`s; `None` leaves it in `rest`.
    data: Option<Vec<f32>>,
    /// Every other member (a line that is not an object: its value).
    rest: Value,
}

fn malformed(e: impl fmt::Display) -> ServeError {
    ServeError::BadRequest(format!("malformed JSON: {e}"))
}

/// JSON whitespace, as the `Value` parser skips it.
fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while matches!(b.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// The JSON value at `s[start..]` (after any whitespace), and where in
/// `s` it ends.
fn parse_at(s: &str, start: usize) -> Result<(Value, usize), serde::Error> {
    serde_json::from_str_prefix(&s[start..]).map(|(value, len)| (value, start + len))
}

/// `data` read where it lies: `[` sample, … `]`, each sample parsed on
/// its own and converted as `Vec::<f32>::from_json_value` converts it
/// (a number through `f64`, `null` to NaN): a number straight from the
/// parser's number scan (`serde_json::number_prefix`), anything else
/// through a [`Value`]. The vector is sized by the commas before the
/// first `]`, i.e. by the line, never by the untrusted `shape`. `None`
/// for any other value: the caller reads it as a [`Value`] instead,
/// which accepts it or says what is wrong with it.
fn samples_at(s: &str, start: usize) -> Option<(Vec<f32>, usize)> {
    let b = s.as_bytes();
    if b.get(start) != Some(&b'[') {
        return None;
    }
    let close = start + b[start..].iter().position(|c| *c == b']')?;
    let commas = b[start..close].iter().filter(|c| **c == b',').count();
    let mut data = Vec::with_capacity(commas + 1);
    let mut pos = skip_ws(b, start + 1);
    if b.get(pos) == Some(&b']') {
        return Some((data, pos + 1));
    }
    loop {
        let (sample, end) = match b.get(pos) {
            Some(b'-' | b'0'..=b'9') => {
                let (v, len) = serde_json::number_prefix(&s[pos..]).ok()?;
                (v as f32, pos + len)
            }
            _ => {
                let (sample, end) = parse_at(s, pos).ok()?;
                (f32::from_json_value(&sample).ok()?, end)
            }
        };
        data.push(sample);
        pos = skip_ws(b, end);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b']') => return Some((data, pos + 1)),
            _ => return None,
        }
    }
}

impl Line {
    /// Walks one line's top-level object member by member: the
    /// punctuation between members here, each key and value by the
    /// `Value` parser (every member but `data` into a [`Value`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the line is not one JSON value.
    fn parse(line: &str) -> Result<Line, ServeError> {
        // JSON whitespace is Unicode whitespace: none is left at either end.
        let s = line.trim();
        let b = s.as_bytes();
        let expected = |what: &str, pos: usize| malformed(format!("expected {what} at byte {pos}"));
        if !s.starts_with('{') {
            let rest = serde_json::from_str(s).map_err(malformed)?;
            return Ok(Line { data: None, rest });
        }
        let (mut data, mut rest, mut seen_data) = (None, Vec::new(), false);
        let mut pos = skip_ws(b, 1);
        if b.get(pos) == Some(&b'}') {
            pos += 1;
        } else {
            loop {
                let (Value::Str(key), end) = parse_at(s, pos).map_err(malformed)? else {
                    return Err(expected("a string key", skip_ws(b, pos)));
                };
                pos = skip_ws(b, end);
                if b.get(pos) != Some(&b':') {
                    return Err(expected("`:`", pos));
                }
                pos = skip_ws(b, pos + 1);
                let direct = if key == "data" && !std::mem::replace(&mut seen_data, true) {
                    samples_at(s, pos)
                } else {
                    None
                };
                pos = match direct {
                    Some((samples, end)) => {
                        data = Some(samples);
                        end
                    }
                    None => {
                        let (value, end) = parse_at(s, pos).map_err(malformed)?;
                        rest.push((key, value));
                        end
                    }
                };
                pos = skip_ws(b, pos);
                match b.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b'}') => {
                        pos += 1;
                        break;
                    }
                    _ => return Err(expected("`,` or `}`", pos)),
                }
            }
        }
        if pos != b.len() {
            return Err(expected("the end of the line", pos));
        }
        Ok(Line {
            data,
            rest: Value::Object(rest),
        })
    }
}

/// A line's `data` samples: read off the line, or decoded from the
/// member in `rest` that was not a flat array of numbers (which names
/// its fault).
fn samples(data: Option<Vec<f32>>, rest: &Value) -> Result<Vec<f32>, ServeError> {
    match data {
        Some(data) => Ok(data),
        None => decode(rest, "data"),
    }
}

// --- Writing a line --------------------------------------------------------

/// Bytes per sample [`ObjectWriter::samples`] can write: the longest
/// `{:?}` of a widened `f32` (`-1.1754942106924411e-38`) and a comma.
const MAX_SAMPLE_BYTES: usize = 24;

/// What a line carrying `samples` can take, so it is written into one
/// allocation.
fn line_capacity(samples: usize) -> usize {
    256 + samples * MAX_SAMPLE_BYTES
}

/// `fmt::Write` onto a byte buffer, so a reply is written straight into
/// a connection's output.
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// One JSON object, written member by member in the bytes `serde_json`
/// gives its [`Value`] rendering.
struct ObjectWriter<'w> {
    out: &'w mut dyn fmt::Write,
    first: bool,
}

impl<'w> ObjectWriter<'w> {
    fn open(out: &'w mut dyn fmt::Write) -> Result<Self, fmt::Error> {
        out.write_char('{')?;
        Ok(ObjectWriter { out, first: true })
    }

    fn key(&mut self, key: &str) -> fmt::Result {
        if !std::mem::take(&mut self.first) {
            self.out.write_char(',')?;
        }
        self.out.write_str(&json(key)?)?;
        self.out.write_char(':')
    }

    fn member<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> fmt::Result {
        self.key(key)?;
        self.out.write_str(&json(value)?)
    }

    /// `data` from the slice: `{:?}` of each sample widened to `f64`,
    /// `null` when it is not finite.
    fn samples(&mut self, key: &str, data: &[f32]) -> fmt::Result {
        self.key(key)?;
        self.out.write_char('[')?;
        for (i, x) in data.iter().enumerate() {
            if i > 0 {
                self.out.write_char(',')?;
            }
            let x = f64::from(*x);
            if x.is_finite() {
                write!(self.out, "{x:?}")?;
            } else {
                self.out.write_str("null")?;
            }
        }
        self.out.write_char(']')
    }

    /// A success response opens with `ok` and the verb; the fields of
    /// its body follow.
    fn success(&mut self, id: VerbId) -> fmt::Result {
        self.member("ok", &true)?;
        self.member("verb", Verb::of(id).name)
    }

    fn close(self) -> fmt::Result {
        self.out.write_char('}')
    }
}

fn json<T: Serialize + ?Sized>(value: &T) -> Result<String, fmt::Error> {
    serde_json::to_string(value).map_err(|_| fmt::Error)
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

fn dims(s: Shape4) -> [usize; 4] {
    [s.n, s.c, s.h, s.w]
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

/// The [`VERBS`] row a message's `"verb"` field names.
fn verb_of(v: &Value) -> Result<Verb, ServeError> {
    let name = get_str(v, "verb")?;
    Verb::find(|row| row.name == name)
        .ok_or_else(|| ServeError::BadRequest(format!("unknown verb `{}`", echo(&name))))
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
        let samples = match self {
            Request::Infer { data, .. } => data.len(),
            _ => 0,
        };
        let mut out = String::with_capacity(line_capacity(samples));
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        let mut o = ObjectWriter::open(out)?;
        o.member("verb", self.verb().name)?;
        match self {
            Request::Infer {
                model,
                precision,
                shape,
                data,
                deadline_ms,
            } => {
                o.member("model", model)?;
                o.member("precision", precision.label())?;
                // Emitted only when set: old servers never see the field.
                if let Some(d) = deadline_ms {
                    o.member("deadline_ms", d)?;
                }
                o.member("shape", &dims(*shape))?;
                o.samples("data", data)?;
            }
            Request::Trace { n } => o.member("n", n)?,
            _ => {} // Payload-less: the verb is the whole message.
        }
        o.close()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the malformed part.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        Request::from_line(Line::parse(line)?)
    }

    fn from_line(Line { data, rest: v }: Line) -> Result<Request, ServeError> {
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
                    Ok(Value::I64(d)) => Some(*d as f64),
                    Ok(Value::U64(d)) => Some(*d as f64),
                    Ok(_) => {
                        return Err(ServeError::BadRequest(
                            "field `deadline_ms` must be a number".into(),
                        ))
                    }
                    Err(_) => None,
                };
                let shape = decode_shape(&v, "shape")?;
                let data = samples(data, &v)?;
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
        let mut out = String::with_capacity(line_capacity(self.samples()));
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// [`Response::to_json`] appended to `buf` (a connection's output),
    /// with no string in between.
    pub(crate) fn append_json(&self, buf: &mut Vec<u8>) {
        buf.reserve(line_capacity(self.samples()));
        self.write_json(&mut Bytes(buf))
            .expect("writing to a Vec cannot fail");
    }

    fn samples(&self) -> usize {
        match self {
            Response::Infer { data, .. } => data.len(),
            _ => 0,
        }
    }

    fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        let mut o = ObjectWriter::open(out)?;
        match self {
            Response::Infer {
                shape,
                data,
                queue_ms,
                total_ms,
                batch_size,
            } => {
                o.success(VerbId::Infer)?;
                o.member("shape", &dims(*shape))?;
                o.samples("data", data)?;
                o.member("queue_ms", queue_ms)?;
                o.member("total_ms", total_ms)?;
                o.member("batch_size", batch_size)?;
            }
            Response::Health(reply) => {
                o.success(VerbId::Health)?;
                if let Value::Object(fields) = reply.to_json_value() {
                    for (key, value) in &fields {
                        o.member(key, value)?;
                    }
                }
            }
            Response::Error(e) => {
                o.member("ok", &false)?;
                o.member("error", e.code())?;
                o.member("message", &e.to_string())?;
            }
            plain => {
                let (verb, value) = plain
                    .plain()
                    .expect("the bespoke layouts are matched above");
                o.success(verb.id)?;
                if let Body::Json(key) = verb.body {
                    o.member(key, &value)?;
                }
            }
        }
        o.close()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the line is not a valid response
    /// (the transport gave us something else entirely).
    pub fn parse(line: &str) -> Result<Response, ServeError> {
        Response::from_line(Line::parse(line)?)
    }

    fn from_line(Line { data, rest: v }: Line) -> Result<Response, ServeError> {
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
                data: samples(data, &v)?,
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

/// Where the first `\n` of `buf` is, scanning on from `*scanned` — how
/// much of `buf` is known to hold none — and, on a miss, recording that
/// none of it does: a line that arrives over many reads is scanned once,
/// not once per read. Whoever drains `buf` resets `*scanned` to 0.
pub(crate) fn find_newline(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let found = buf[*scanned..].iter().position(|b| *b == b'\n');
    if found.is_none() {
        *scanned = buf.len();
    }
    found.map(|n| *scanned + n)
}

/// The one sample list both codecs' round-trip suites walk (this
/// module's and [`crate::frame`]'s), so a verb added to one wire cannot
/// be forgotten on the other.
#[cfg(test)]
pub(crate) mod samples {
    use super::*;
    use crate::stats::{Counters, ModelCounters};
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

    /// The finite `f32`s at the ends of each range: ±`MAX`, the smallest
    /// normal, the smallest and largest subnormal, ±0, and two far
    /// exponents.
    pub(crate) fn extremes() -> Vec<f32> {
        vec![
            f32::MAX,
            -f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            -0.0,
            1e30,
            -1e-30,
        ]
    }

    pub(crate) fn requests() -> Vec<Request> {
        let (fp64, quant) = (Precision::Fp64, Precision::Quant);
        vec![
            infer(
                "ffdnet_real",
                fp64,
                Shape4::new(1, 1, 2, 2),
                vec![0.25, -1.0, 3.5, 0.0],
                None,
            ),
            infer("m", quant, Shape4::new(2, 1, 2, 2), extremes(), None),
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
                shape: Shape4::new(1, 1, 96, 96),
                data: (0..9216).map(|i| i as f32 * 0.25).collect(),
                queue_ms: 0.5,
                total_ms: 1.5,
                batch_size: 4,
            },
            Response::Infer {
                shape: Shape4::new(1, 2, 2, 2),
                data: extremes(),
                queue_ms: 0.0,
                total_ms: 1e-3,
                batch_size: 1,
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
            Response::Stats(Counters::default().snapshot(
                1500.5,
                2,
                (1, 1),
                vec![ModelCounters::default().stats("a", 1.5, 2, 1, 3)],
            )),
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
    use proptest::prelude::TestRng;

    /// The `Value` path the line codec replaced, kept as its oracle: the
    /// whole line parsed as one `Value` (so `data` is read by
    /// `Vec::<f32>::from_json_value`), and `data` written as
    /// `serde_json::to_string` renders its `to_json_value()`.
    mod oracle {
        use super::*;

        fn whole(line: &str) -> Result<Line, ServeError> {
            let rest = serde_json::from_str(line.trim()).map_err(malformed)?;
            Ok(Line { data: None, rest })
        }

        pub fn request(line: &str) -> Result<Request, ServeError> {
            Request::from_line(whole(line)?)
        }

        pub fn response(line: &str) -> Result<Response, ServeError> {
            Response::from_line(whole(line)?)
        }

        /// `line` re-rendered through one `Value` tree, its `data` member
        /// replaced by `data.to_json_value()`.
        pub fn render(line: &str, data: &[f32]) -> String {
            let Ok(Value::Object(mut members)) = serde_json::from_str(line) else {
                panic!("not an object: {line}");
            };
            for (key, value) in &mut members {
                if key == "data" {
                    *value = data.to_json_value();
                }
            }
            serde_json::to_string(&Value::Object(members)).unwrap()
        }
    }

    #[test]
    fn a_missed_newline_scan_resumes_at_its_offset() {
        let mut buf = b"{\"verb\":".to_vec();
        let mut scanned = 0;
        assert_eq!(find_newline(&buf, &mut scanned), None);
        assert_eq!(scanned, buf.len());
        // Bytes already scanned are not read again: a newline planted
        // among them (which a fresh scan would find) stays unseen…
        buf[2] = b'\n';
        buf.extend_from_slice(b"\"health\"}");
        assert_eq!(find_newline(&buf, &mut scanned), None);
        assert_eq!(scanned, buf.len());
        // …and the one that arrives next is found at its position in
        // the whole buffer.
        buf.extend_from_slice(b"\n{");
        assert_eq!(find_newline(&buf, &mut scanned), Some(buf.len() - 2));
        assert_eq!(find_newline(&buf, &mut 0), Some(2));
    }

    /// A decode with its `data` moved out as bit patterns (NaN equals
    /// itself), or the refusal's code.
    fn verdict<T>(
        decoded: Result<T, ServeError>,
        data: fn(&mut T) -> Option<&mut Vec<f32>>,
    ) -> Result<(T, Vec<u32>), &'static str> {
        let mut message = decoded.map_err(|e| e.code())?;
        let bits = data(&mut message).map_or(Vec::new(), |d| {
            std::mem::take(d).iter().map(|x| x.to_bits()).collect()
        });
        Ok((message, bits))
    }

    /// Both decoders give `line` the oracle's verdict and samples.
    fn agrees(line: &str) {
        fn request(r: &mut Request) -> Option<&mut Vec<f32>> {
            match r {
                Request::Infer { data, .. } => Some(data),
                _ => None,
            }
        }
        fn response(r: &mut Response) -> Option<&mut Vec<f32>> {
            match r {
                Response::Infer { data, .. } => Some(data),
                _ => None,
            }
        }
        assert_eq!(
            verdict(Request::parse(line), request),
            verdict(oracle::request(line), request),
            "request {line:?}"
        );
        assert_eq!(
            verdict(Response::parse(line), response),
            verdict(oracle::response(line), response),
            "response {line:?}"
        );
    }

    #[test]
    fn requests_roundtrip() {
        for r in samples::requests() {
            let line = r.to_json();
            if let Request::Infer { data, .. } = &r {
                assert_eq!(line, oracle::render(&line, data));
            }
            agrees(&line);
            assert_eq!(Request::parse(&line).unwrap(), r);
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
            if let Response::Infer { data, .. } = &r {
                assert_eq!(line, oracle::render(&line, data));
            }
            agrees(&line);
            samples::assert_survived(&r, &Response::parse(&line).unwrap());
        }
    }

    #[test]
    fn random_sample_bits_cross_the_wire_as_the_value_path_carries_them() {
        let mut rng = TestRng::deterministic("random_sample_bits");
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for round in 0..64 {
            let mut data: Vec<f32> = (0..61)
                .map(|_| f32::from_bits(rng.next_u64() as u32))
                .collect();
            data.extend_from_slice(&specials);
            let shape = Shape4::new(1, 1, 8, 9);
            let request = samples::infer("m", Precision::Fp64, shape, data.clone(), None);
            let response = Response::Infer {
                shape,
                data: data.clone(),
                queue_ms: round as f64,
                total_ms: 0.5,
                batch_size: 1,
            };
            for line in [request.to_json(), response.to_json()] {
                assert_eq!(line, oracle::render(&line, &data));
                agrees(&line);
            }
            // What crosses is every finite sample bit for bit, and NaN
            // for the rest.
            let Request::Infer { data: back, .. } = Request::parse(&request.to_json()).unwrap()
            else {
                unreachable!()
            };
            for (sent, got) in data.iter().zip(&back) {
                let want = if sent.is_finite() { *sent } else { f32::NAN };
                assert_eq!(got.to_bits(), want.to_bits(), "{sent:e}");
            }
        }
    }

    #[test]
    fn hand_spelled_lines_get_the_value_paths_verdict() {
        // (data text, sample count when it is a valid flat array)
        let spellings = [
            ("[]", 0),
            ("[ ]", 0),
            ("[1,-0,0,-00,007]", 5),
            ("[1e3, 1E-3 ,2.5e+2,\t-4.25e-1\n]", 4),
            (
                "[12345678901234567890,-9223372036854775808,18446744073709551616]",
                3,
            ),
            ("[3.4028235e38,3.4028236e38,1e39,-1e39]", 4),
            ("[1e-46,1.4e-45,-1.17549435e-38,1e-400]", 4),
            ("[null, 0.1 ,null]", 3),
            ("[0.30000000000000004,1.0000000000000002,16777217]", 3),
            ("[1.,-.5,.5]", 3),
            ("[1,]", 1),
            ("[,1]", 1),
            ("[1 2]", 1),
            ("[01x]", 1),
            ("[-]", 1),
            ("[1.e]", 1),
            ("[+1]", 1),
            ("[1e5.5]", 1),
            ("[Infinity]", 1),
            ("[NaN]", 1),
            ("[\"a\"]", 1),
            ("[[1]]", 1),
            ("[true]", 1),
            ("[null,]", 1),
            ("[nul]", 1),
            ("[nulll]", 1),
            ("[1", 1),
            ("[1,\"]\"]", 1),
            ("\"[1]\"", 1),
            ("5", 1),
            ("{}", 1),
            ("null", 1),
        ];
        for (data, n) in spellings {
            let shape = format!("[1,1,1,{n}]");
            for line in [
                format!(r#"{{"verb":"infer","model":"m","shape":{shape},"data":{data}}}"#),
                // `data` before `shape`, whitespace everywhere.
                format!(
                    "{{ \"data\" :\t{data} ,\n\"verb\":\"infer\" , \"shape\" : {shape},\"model\":\"m\" }}"
                ),
                // Unknown members, one with a bracket inside a string.
                format!(
                    r#"{{"verb":"infer","x":{{"y":[1,"]"]}},"model":"m","shape":{shape},"data":{data},"z":null}}"#
                ),
                // Duplicates: the first of each member wins.
                format!(
                    r#"{{"verb":"infer","model":"m","shape":{shape},"data":{data},"data":[9],"model":"n","shape":[1]}}"#
                ),
                // The key spelled with an escape is still `data`.
                format!(r#"{{"verb":"infer","model":"m","shape":{shape},"d\u0061ta":{data}}}"#),
                // `data` on a verb that ignores it.
                format!(r#"{{"verb":"health","data":{data}}}"#),
                format!(
                    r#"{{"ok":true,"verb":"infer","data":{data},"shape":{shape},"queue_ms":0.5,"total_ms":1,"batch_size":2}}"#
                ),
            ] {
                agrees(&line);
            }
        }
    }

    #[test]
    fn lines_that_are_not_one_object_get_the_value_paths_verdict() {
        for line in [
            "",
            "   ",
            "not json",
            "[1,2,3]",
            "\"verb\"",
            "{",
            "{}",
            "{} {}",
            "{}x",
            r#"{"verb":"health",}"#,
            r#"{"verb":"health" "n":1}"#,
            r#"{"verb":"health","n":1 2}"#,
            r#"{"verb":"health","n":tru}"#,
            r#"{"verb":"health","n":"\u00"}"#,
            r#"{"verb" "health"}"#,
            r#"{verb:"health"}"#,
            r#"{"verb":"health"}"#,
            " \t{\"verb\" : \"health\"}\r",
            r#"{"ok":true,"verb":"shutdown"}"#,
            r#"{"ok":false,"error":"overloaded","message":"x"}"#,
        ] {
            agrees(line);
        }
    }

    #[test]
    fn nesting_past_the_cap_is_refused_without_recursing() {
        let nested = |depth: usize| {
            format!(
                r#"{{"verb":"health","x":{}{}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        assert_eq!(
            Request::parse(&nested(serde_json::MAX_NESTING)).unwrap(),
            Request::Health
        );
        for line in [
            nested(serde_json::MAX_NESTING + 1),
            // Deep enough to overflow a recursive parser's stack.
            nested(1 << 20),
            "[".repeat(1 << 20),
        ] {
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err.code(), "bad_request");
            assert!(err.to_string().contains("nest"), "{err}");
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
    fn an_integer_deadline_is_a_number() {
        let line =
            r#"{"verb":"infer","model":"m","deadline_ms":25,"shape":[1,1,1,1],"data":[0.5]}"#;
        match Request::parse(line).unwrap() {
            Request::Infer { deadline_ms, .. } => assert_eq!(deadline_ms, Some(25.0)),
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
            r#"{"verb":"infer","model":"m","shape":[1,1,1,1],"data":["x"]}"#,
            r#"{"verb":"infer","model":"m","shape":[1,1,1,1],"data":[1.0,]}"#,
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
