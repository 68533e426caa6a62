//! The binary wire protocol: length-prefixed frames with little-endian
//! `f32` payloads, negotiated on the first bytes of a connection.
//!
//! # Negotiation
//!
//! A binary client opens with a 5-byte preamble — the magic `RCNB`
//! followed by the protocol version (currently [`VERSION`]). Anything
//! else (a `{`, whitespace, …) selects the line-JSON protocol, so old
//! clients keep working unchanged against the same port.
//!
//! # Frames
//!
//! ```text
//! ┌───────────────┬────────┬──────────────────────────────┐
//! │ len: u32 LE   │ verb:  │ payload (len − 1 bytes)      │
//! │ (verb+payload)│ u8     │                              │
//! └───────────────┴────────┴──────────────────────────────┘
//! ```
//!
//! The verb byte of every request and response frame is a column of
//! [`crate::protocol::VERBS`] (errors use [`ERROR_BYTE`]); this module
//! owns the payload layouts only.
//!
//! An `infer` request payload is `precision:u8, name_len:u16 LE, name,
//! shape:4×u32 LE, data:f32 LE × (n·c·h·w)` — pixels cross the wire as
//! raw IEEE-754 bits, so the round trip is bit-exact by construction
//! and costs a `memcpy` instead of ASCII float formatting. Bit `0x80`
//! of the precision byte ([`DEADLINE_FLAG`]) marks a request that
//! carries a latency budget: the payload then ends with a trailing
//! `deadline_ms: f64 LE` after the sample data. Requests without the
//! flag are byte-identical to the pre-deadline protocol.
//!
//! # Responses
//!
//! Every response is one frame. A successful `infer` carries `shape:4×u32,
//! queue_ms:f64, total_ms:f64, batch_size:u32, data:f32 × (n·c·h·w)`;
//! [`decode_response`] reads the samples out of the frame itself, so a
//! client sizes nothing from the shape a header announces.
//!
//! A [`Body::Json`] payload (`list_models`, `stats`, `reload`, `trace`)
//! is the line protocol's JSON rendered into one frame: they are
//! control-plane verbs where schema evolution matters more than
//! serialization cost. A `trace` request payload is `n: u32 LE` (how
//! many slow-request trees, `0` = all retained).

use crate::error::ServeError;
pub use crate::protocol::DEADLINE_FLAG;
use crate::protocol::{
    checked_shape, no_decoder, Body, HealthReply, Request, Response, Verb, VerbId, ERROR_BYTE,
};
use crate::registry::Precision;
use ringcnn_tensor::prelude::*;

/// Connection-preamble magic ("RingCNN Binary").
pub const MAGIC: [u8; 4] = *b"RCNB";
/// Wire protocol version carried in the preamble.
pub const VERSION: u8 = 2;

/// Frame header size (the `u32` length prefix).
pub const HEADER_BYTES: usize = 4;

/// Result of an incremental decode over a byte buffer.
#[derive(Debug)]
pub enum DecodeStep<T> {
    /// More bytes are needed; nothing consumed.
    Incomplete,
    /// One item decoded, consuming this many buffer bytes.
    Item(T, usize),
    /// The stream is unrecoverable (bad length, bad payload); the
    /// connection should answer the error and close.
    Fail(ServeError),
}

/// What the first bytes of a connection selected.
#[derive(Debug, PartialEq, Eq)]
pub enum Negotiation {
    /// Too few bytes to decide.
    NeedMore,
    /// Not the binary magic: line-JSON protocol (nothing consumed).
    Json,
    /// Binary preamble accepted; 5 bytes consumed.
    Binary,
    /// Binary magic with an unsupported version.
    BadVersion(u8),
}

/// Inspects the first bytes of a connection.
pub fn negotiate(buf: &[u8]) -> Negotiation {
    if buf.is_empty() {
        return Negotiation::NeedMore;
    }
    // The JSON protocol's first byte is `{` or whitespace; the magic's
    // first byte is unambiguous.
    let probe = buf.len().min(MAGIC.len());
    if buf[..probe] != MAGIC[..probe] {
        return Negotiation::Json;
    }
    if buf.len() < MAGIC.len() + 1 {
        return Negotiation::NeedMore;
    }
    let version = buf[MAGIC.len()];
    if version != VERSION {
        return Negotiation::BadVersion(version);
    }
    Negotiation::Binary
}

/// Appends the client preamble.
pub fn encode_preamble(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
}

// --- Little-endian cursor helpers ------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServeError> {
        if self.buf.len() < n {
            return Err(ServeError::BadRequest(format!(
                "frame truncated reading {what} ({} of {n} bytes left)",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ServeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ServeError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32s(&mut self, count: usize, what: &str) -> Result<Vec<f32>, ServeError> {
        let bytes = count.checked_mul(4).ok_or_else(|| {
            ServeError::BadRequest(format!("{what}: sample count {count} overflows"))
        })?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn str(&mut self, len: usize, what: &str) -> Result<String, ServeError> {
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ServeError::BadRequest(format!("{what} is not UTF-8")))
    }

    fn finish(&self, what: &str) -> Result<(), ServeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ServeError::BadRequest(format!(
                "{what}: {} trailing bytes after payload",
                self.buf.len()
            )))
        }
    }
}

fn push_f32s(out: &mut Vec<u8>, data: &[f32]) {
    out.reserve(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_shape(out: &mut Vec<u8>, s: Shape4) {
    for d in [s.n, s.c, s.h, s.w] {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
}

fn read_shape(r: &mut Reader<'_>) -> Result<Shape4, ServeError> {
    let n = r.u32("shape.n")? as usize;
    let c = r.u32("shape.c")? as usize;
    let h = r.u32("shape.h")? as usize;
    let w = r.u32("shape.w")? as usize;
    checked_shape([n, c, h, w])
}

/// Appends one frame: header, verb, payload built by `fill`.
fn frame(out: &mut Vec<u8>, verb: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let header_at = out.len();
    out.extend_from_slice(&[0; HEADER_BYTES]);
    out.push(verb);
    fill(out);
    let body_len = (out.len() - header_at - HEADER_BYTES) as u32;
    out[header_at..header_at + HEADER_BYTES].copy_from_slice(&body_len.to_le_bytes());
}

/// Splits off the next raw frame: `(verb, payload_start, consumed)`.
fn decode_raw(buf: &[u8], max_frame: usize) -> DecodeStep<(u8, usize, usize)> {
    if buf.len() < HEADER_BYTES {
        return DecodeStep::Incomplete;
    }
    let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if body_len == 0 {
        return DecodeStep::Fail(ServeError::BadRequest(
            "frame length 0 (a frame is at least a verb byte)".into(),
        ));
    }
    if body_len > max_frame {
        return DecodeStep::Fail(ServeError::BadRequest(format!(
            "frame of {body_len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    if buf.len() < HEADER_BYTES + body_len {
        return DecodeStep::Incomplete;
    }
    DecodeStep::Item(
        (buf[HEADER_BYTES], HEADER_BYTES + 1, HEADER_BYTES + body_len),
        HEADER_BYTES + body_len,
    )
}

// --- Requests --------------------------------------------------------------

/// Appends `req` as one binary frame.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    frame(out, req.verb().request, |out| match req {
        Request::Infer {
            model,
            precision,
            shape,
            data,
            deadline_ms,
        } => {
            let mut pbyte = precision.byte();
            if deadline_ms.is_some() {
                pbyte |= DEADLINE_FLAG;
            }
            out.push(pbyte);
            let name = model.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            push_shape(out, *shape);
            push_f32s(out, data);
            if let Some(d) = deadline_ms {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        Request::Trace { n } => out.extend_from_slice(&(*n as u32).to_le_bytes()),
        _ => {} // Payload-less: the verb byte is the whole body.
    });
}

/// Incrementally decodes the next request frame from `buf`.
pub fn decode_request(buf: &[u8], max_frame: usize) -> DecodeStep<Request> {
    let ((byte, payload_at, end), consumed) = match decode_raw(buf, max_frame) {
        DecodeStep::Item(item, consumed) => (item, consumed),
        DecodeStep::Incomplete => return DecodeStep::Incomplete,
        DecodeStep::Fail(e) => return DecodeStep::Fail(e),
    };
    let mut r = Reader::new(&buf[payload_at..end]);
    let Some(verb) = Verb::find(|row| row.request == byte) else {
        return DecodeStep::Fail(ServeError::BadRequest(format!(
            "unknown request verb byte 0x{byte:02x}"
        )));
    };
    let req = match verb.id {
        VerbId::Infer => (|| {
            let pbyte = r.u8("precision")?;
            let has_deadline = pbyte & DEADLINE_FLAG != 0;
            let low = pbyte & !DEADLINE_FLAG;
            let precision = Precision::from_byte(low).ok_or_else(|| {
                ServeError::BadRequest(format!("unknown precision byte 0x{low:02x}"))
            })?;
            let name_len = r.u16("model name length")? as usize;
            let model = r.str(name_len, "model name")?;
            let shape = read_shape(&mut r)?;
            let data = r.f32s(shape.len(), "sample data")?;
            let deadline_ms = if has_deadline {
                Some(r.f64("deadline_ms")?)
            } else {
                None
            };
            Ok(Request::Infer {
                model,
                precision,
                shape,
                data,
                deadline_ms,
            })
        })(),
        VerbId::Trace => r
            .u32("trace count")
            .map(|n| Request::Trace { n: n as usize }),
        id => Request::bare(id).ok_or_else(|| no_decoder(verb)),
    };
    match req.and_then(|req| r.finish(verb.name).map(|()| req)) {
        Ok(req) => DecodeStep::Item(req, consumed),
        Err(e) => DecodeStep::Fail(e),
    }
}

// --- Responses -------------------------------------------------------------

/// Appends `resp` as one binary frame.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Infer {
            shape,
            data,
            queue_ms,
            total_ms,
            batch_size,
        } => frame(out, Verb::of(VerbId::Infer).response, |out| {
            push_shape(out, *shape);
            out.extend_from_slice(&queue_ms.to_le_bytes());
            out.extend_from_slice(&total_ms.to_le_bytes());
            out.extend_from_slice(&(*batch_size as u32).to_le_bytes());
            push_f32s(out, data);
        }),
        Response::Health(h) => frame(out, Verb::of(VerbId::Health).response, |out| {
            out.push(u8::from(h.healthy));
            out.extend_from_slice(&(h.models as u32).to_le_bytes());
            out.extend_from_slice(&(h.queue_depth as u32).to_le_bytes());
            out.extend_from_slice(&h.uptime_ms.to_le_bytes());
            let k = h.kernel.as_bytes();
            out.push(k.len().min(255) as u8);
            out.extend_from_slice(&k[..k.len().min(255)]);
        }),
        Response::Error(e) => frame(out, ERROR_BYTE, |out| {
            let code = e.code().as_bytes();
            out.extend_from_slice(&(code.len() as u16).to_le_bytes());
            out.extend_from_slice(code);
            out.extend_from_slice(e.to_string().as_bytes());
        }),
        plain => {
            let (verb, value) = plain
                .plain()
                .expect("the bespoke layouts are matched above");
            frame(out, verb.response, |out| {
                if let Body::Json(_) = verb.body {
                    let json = serde_json::to_string(&value).expect("a serde value serializes");
                    out.extend_from_slice(json.as_bytes());
                }
            });
        }
    }
}

/// Incrementally decodes the next response frame from `buf`, of any
/// length its prefix declares (a reply is as large as the output it
/// carries). Nothing is sized from that length or from the announced
/// shape, so a caller holds only the bytes that arrived.
pub fn decode_response(buf: &[u8]) -> DecodeStep<Response> {
    let ((byte, payload_at, end), consumed) = match decode_raw(buf, usize::MAX) {
        DecodeStep::Item(item, consumed) => (item, consumed),
        DecodeStep::Incomplete => return DecodeStep::Incomplete,
        DecodeStep::Fail(e) => return DecodeStep::Fail(e),
    };
    match response(byte, &buf[payload_at..end]) {
        Ok(resp) => DecodeStep::Item(resp, consumed),
        Err(e) => DecodeStep::Fail(e),
    }
}

/// The response one frame's verb byte and payload hold.
fn response(byte: u8, payload: &[u8]) -> Result<Response, ServeError> {
    let mut r = Reader::new(payload);
    if byte == ERROR_BYTE {
        let code_len = r.u16("error code length")? as usize;
        let code = r.str(code_len, "error code")?;
        let message = r.str(payload.len() - 2 - code_len, "error message")?;
        return Ok(Response::Error(ServeError::from_wire(&code, &message)));
    }
    let Some(verb) = Verb::find(|row| row.response == byte) else {
        return Err(ServeError::Io(format!(
            "unknown response verb byte 0x{byte:02x}"
        )));
    };
    let resp = match verb.body {
        Body::Infer => {
            let shape = read_shape(&mut r)?;
            Response::Infer {
                shape,
                queue_ms: r.f64("queue_ms")?,
                total_ms: r.f64("total_ms")?,
                batch_size: r.u32("batch_size")? as usize,
                // Bounded by the bytes at hand, not by the shape.
                data: r.f32s(shape.len(), "infer data")?,
            }
        }
        Body::Health => Response::Health(HealthReply {
            healthy: r.u8("healthy")? != 0,
            models: r.u32("models")? as usize,
            queue_depth: r.u32("queue_depth")? as usize,
            uptime_ms: r.f64("uptime_ms")?,
            kernel: {
                let kernel_len = r.u8("kernel length")? as usize;
                r.str(kernel_len, "kernel label")?
            },
        }),
        Body::Json(_) | Body::None => {
            let malformed =
                |e: String| ServeError::Io(format!("malformed {} payload: {e}", verb.name));
            let value = if verb.body == Body::None {
                serde::Value::Null
            } else {
                let json = r.str(payload.len(), verb.name)?;
                serde_json::from_str(&json).map_err(|e| malformed(e.to_string()))?
            };
            Response::from_plain(verb, &value).map_err(malformed)?
        }
    };
    r.finish(verb.name).map(|()| resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::samples::{self, infer};
    use crate::server::MAX_LINE_BYTES;

    fn encoded(req: &Request) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_request(req, &mut bytes);
        bytes
    }

    fn encoded_response(resp: &Response) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_response(resp, &mut bytes);
        bytes
    }

    fn decode_one_request(bytes: &[u8]) -> Request {
        match decode_request(bytes, MAX_LINE_BYTES) {
            DecodeStep::Item(req, consumed) => {
                assert_eq!(consumed, bytes.len(), "must consume the whole frame");
                req
            }
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn decode_one_response(bytes: &[u8]) -> Response {
        match decode_response(bytes) {
            DecodeStep::Item(resp, consumed) => {
                assert_eq!(consumed, bytes.len(), "must consume the whole frame");
                resp
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }

    fn assert_refused(bytes: &[u8]) {
        match decode_request(bytes, MAX_LINE_BYTES) {
            DecodeStep::Fail(e) => assert_eq!(e.code(), "bad_request"),
            other => panic!("{other:?}"),
        }
    }

    /// `h`×`w` samples of 0.5 for model `m`.
    fn flat_infer(h: usize, w: usize, deadline_ms: Option<f64>) -> Request {
        let shape = Shape4::new(1, 1, h, w);
        infer("m", Precision::Fp64, shape, vec![0.5; h * w], deadline_ms)
    }

    #[test]
    fn negotiation_selects_by_first_bytes() {
        assert_eq!(negotiate(b""), Negotiation::NeedMore);
        assert_eq!(negotiate(b"R"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"RCNB"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"RCNB\x02"), Negotiation::Binary);
        assert_eq!(negotiate(b"RCNB\x01"), Negotiation::BadVersion(1));
        assert_eq!(negotiate(b"RCNB\x07"), Negotiation::BadVersion(7));
        assert_eq!(negotiate(b"{\"verb\":"), Negotiation::Json);
        assert_eq!(negotiate(b"RX"), Negotiation::Json);
    }

    #[test]
    fn requests_roundtrip() {
        for req in samples::requests() {
            assert_eq!(decode_one_request(&encoded(&req)), req);
        }
    }

    #[test]
    fn infer_data_survives_the_wire_bit_exactly() {
        let data = samples::awkward_floats(4096);
        let req = infer(
            "m",
            Precision::Fp64,
            Shape4::new(1, 1, 64, 64),
            data.clone(),
            None,
        );
        match decode_one_request(&encoded(&req)) {
            Request::Infer { data: back, .. } => {
                let a: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "raw IEEE-754 bits must survive");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_including_multi_tile_infer() {
        for resp in samples::responses() {
            let back = decode_one_response(&encoded_response(&resp));
            samples::assert_survived(&resp, &back);
        }
        // One sample past 16 MiB: a reply frame has no length cap.
        let mut data = samples::awkward_floats((16 << 20) / 4 + 1 - 8);
        data.extend(samples::extremes());
        let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let sent = bits(&data);
        let bytes = encoded_response(&Response::Infer {
            shape: Shape4::new(1, 1, 1, data.len()),
            data,
            queue_ms: 0.25,
            total_ms: 2.5,
            batch_size: 3,
        });
        match decode_one_response(&bytes) {
            Response::Infer { data, .. } => assert!(bits(&data) == sent, "bits differ"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn both_wires_decode_every_sample_alike() {
        // One description, two codecs: whatever a sample becomes on the
        // JSON wire it also becomes on the frame wire, relayed errors
        // included.
        for req in samples::requests() {
            let json = Request::parse(&req.to_json()).unwrap();
            assert_eq!(decode_one_request(&encoded(&req)), json);
        }
        for resp in samples::responses() {
            let json = Response::parse(&resp.to_json()).unwrap();
            assert_eq!(decode_one_response(&encoded_response(&resp)), json);
        }
    }

    #[test]
    fn deadline_flag_is_a_trailing_f64_and_absent_by_default() {
        // With a budget: precision byte carries DEADLINE_FLAG and the
        // payload ends with the f64 LE budget (the documented layout).
        let with = encoded(&flat_infer(1, 1, Some(12.25)));
        assert_eq!(with[HEADER_BYTES], Verb::of(VerbId::Infer).request);
        assert_eq!(with[HEADER_BYTES + 1], DEADLINE_FLAG);
        assert_eq!(with[with.len() - 8..], 12.25f64.to_le_bytes());

        // Without one: byte-identical to the pre-deadline protocol,
        // exactly 8 bytes shorter.
        let without = encoded(&flat_infer(1, 1, None));
        assert_eq!(without[HEADER_BYTES + 1], 0x00);
        assert_eq!(with.len(), without.len() + 8);
    }

    #[test]
    fn torn_prefixes_never_panic_and_are_incomplete() {
        let bytes = encoded(&flat_infer(4, 4, None));
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode_request(&bytes[..cut], MAX_LINE_BYTES),
                    DecodeStep::Incomplete
                ),
                "prefix of {cut} bytes must be Incomplete"
            );
        }
    }

    #[test]
    fn oversized_and_zero_length_frames_fail_cleanly() {
        let mut oversized = ((MAX_LINE_BYTES + 1) as u32).to_le_bytes().to_vec();
        oversized.push(Verb::of(VerbId::Health).request);
        assert_refused(&oversized);
        assert_refused(&0u32.to_le_bytes());
    }

    #[test]
    fn malformed_infer_payloads_are_bad_requests() {
        // Data shorter than the shape promises: truncate the payload but
        // fix up the length prefix so the frame is structurally complete.
        let bytes = encoded(&flat_infer(2, 2, None));
        let mut torn = bytes[..bytes.len() - 8].to_vec();
        let body_len = (torn.len() - HEADER_BYTES) as u32;
        torn[..HEADER_BYTES].copy_from_slice(&body_len.to_le_bytes());
        assert_refused(&torn);

        // Unknown verb byte.
        assert_refused(&[1, 0, 0, 0, 0x6F]);

        // Overflowing shape product.
        let mut frame_bytes = Vec::new();
        frame(&mut frame_bytes, Verb::of(VerbId::Infer).request, |out| {
            out.push(0);
            out.extend_from_slice(&1u16.to_le_bytes());
            out.push(b'm');
            for d in [u32::MAX, 2, u32::MAX, 2] {
                out.extend_from_slice(&d.to_le_bytes());
            }
        });
        assert_refused(&frame_bytes);
    }
}
