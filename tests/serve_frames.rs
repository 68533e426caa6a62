//! Robustness properties for both wire codecs: torn prefixes, corrupt
//! bytes, oversized frames, mid-frame disconnects, and pathologically
//! slow clients must produce `bad_request` (or a clean close) — never a
//! panic, never a stalled reactor.
//!
//! Codec-level properties exercise `frame::{decode_request,
//! ResponseAssembler}` directly; transport-level properties drive a live
//! server through raw sockets.

use proptest::prelude::*;
use ringcnn_nn::prelude::*;
use ringcnn_serve::frame::{self, DecodeStep};
use ringcnn_serve::prelude::*;
use ringcnn_tensor::prelude::*;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One tiny real-field VDSR: cheap enough to build per test.
fn tiny_registry() -> Arc<ModelRegistry> {
    let alg = Algebra::real();
    let spec = ModelSpec::Vdsr {
        depth: 2,
        width: 8,
        channels_io: 1,
    };
    let reg = ModelRegistry::new();
    reg.register("m", spec, AlgebraSpec::of(&alg), spec.build(&alg, 5))
        .unwrap();
    Arc::new(reg)
}

/// A valid encoded binary `infer` request for an `h`×`w` input.
fn encoded_infer(h: usize, w: usize, seed: u64) -> Vec<u8> {
    let x = Tensor::random_uniform(Shape4::new(1, 1, h, w), 0.0, 1.0, seed);
    let req = Request::Infer {
        model: "m".into(),
        precision: Precision::Fp64,
        shape: x.shape(),
        data: x.as_slice().to_vec(),
        deadline_ms: None,
    };
    let mut bytes = Vec::new();
    frame::encode_request(&req, &mut bytes);
    bytes
}

/// Reads binary responses off a raw socket until one completes (10 s
/// cap so a stalled server fails the test instead of hanging it).
fn read_binary_response(stream: &mut TcpStream) -> Result<Response, ServeError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut asm = frame::ResponseAssembler::new();
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let (consumed, resp) = asm.feed(&inbuf, 16 << 20, |_| {})?;
        inbuf.drain(..consumed);
        if let Some(resp) = resp {
            return Ok(resp);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ServeError::Io("closed".into())),
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ServeError::Io(e.to_string())),
        }
    }
}

/// Drains the socket to EOF (proving the server actively closed it).
fn read_to_eof(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
}

// --- Codec-level properties ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every torn prefix of a well-formed request is `Incomplete` —
    /// never a decode, never a failure, never a panic. The whole frame
    /// still round-trips.
    #[test]
    fn torn_request_prefixes_are_incomplete(
        h in 1usize..6,
        w in 1usize..6,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let bytes = encoded_infer(h, w, seed);
        match frame::decode_request(&bytes, 16 << 20) {
            DecodeStep::Item(Request::Infer { model, shape, .. }, consumed) => {
                prop_assert_eq!(model, "m");
                prop_assert_eq!(shape.len(), h * w);
                prop_assert_eq!(consumed, bytes.len());
            }
            _ => panic!("well-formed request must decode"),
        }
        let random_cut = (cut_frac * (bytes.len() - 1) as f64) as usize;
        for cut in [random_cut, 0, 1, 3, frame::HEADER_BYTES, bytes.len() - 1] {
            match frame::decode_request(&bytes[..cut], 16 << 20) {
                DecodeStep::Incomplete => {}
                DecodeStep::Item(..) => panic!("torn prefix ({cut} bytes) decoded"),
                DecodeStep::Fail(e) => panic!("torn prefix ({cut} bytes) failed: {e}"),
            }
        }
    }

    /// A flipped bit anywhere in a request frame decodes, reports
    /// `Incomplete`, or fails as `bad_request` — it never panics and
    /// never over-consumes the buffer.
    #[test]
    fn corrupted_request_bytes_never_panic(
        idx_frac in 0.0f64..1.0,
        bit in 0u8..8,
        seed in 0u64..1_000_000,
    ) {
        let mut bytes = encoded_infer(3, 3, seed);
        let idx = (idx_frac * (bytes.len() - 1) as f64) as usize;
        bytes[idx] ^= 1 << bit;
        match frame::decode_request(&bytes, 16 << 20) {
            DecodeStep::Incomplete => {} // e.g. the length prefix grew.
            DecodeStep::Item(_, consumed) => prop_assert!(consumed <= bytes.len()),
            DecodeStep::Fail(e) => prop_assert_eq!(e.code(), "bad_request"),
        }
    }

    /// Pure random garbage through every decoder entry point: anything
    /// but a panic is acceptable.
    #[test]
    fn random_garbage_never_panics_any_decoder(bytes in collection::vec(0u8..=255u8, 64)) {
        let _ = frame::negotiate(&bytes);
        let _ = frame::decode_request(&bytes, 4096);
        let mut asm = frame::ResponseAssembler::new();
        let _ = asm.feed(&bytes, 4096, |_| {});
    }

    /// A declared body length beyond the cap fails immediately as
    /// `bad_request` on both the request and response decoders — the
    /// decoder must not wait for (or allocate) the oversized body.
    #[test]
    fn oversized_declared_lengths_fail_immediately(excess in 1u32..1_000_000) {
        let max = 4096usize;
        let mut buf = (max as u32 + excess).to_le_bytes().to_vec();
        buf.push(0x01); // verb: infer
        match frame::decode_request(&buf, max) {
            DecodeStep::Fail(e) => prop_assert_eq!(e.code(), "bad_request"),
            _ => panic!("oversized frame must fail"),
        }
        let mut asm = frame::ResponseAssembler::new();
        match asm.feed(&buf, max, |_| {}) {
            Err(e) => prop_assert_eq!(e.code(), "bad_request"),
            Ok(_) => panic!("oversized response frame must fail"),
        }
    }
}

// --- Transport-level properties (live server, raw sockets) -----------------

/// Clients that vanish mid-frame (on both wires, at arbitrary cut
/// points) must not wedge the reactor: the server stays healthy and
/// keeps answering well-formed requests afterwards.
#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let server = Server::start(tiny_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut rng = TestRng::deterministic("mid_frame_disconnects");
    for case in 0..24u64 {
        let mut bytes = Vec::new();
        frame::encode_preamble(&mut bytes);
        let body = encoded_infer(4, 4, case);
        bytes.extend_from_slice(&body);
        // Cut anywhere: inside the preamble, the header, or the payload.
        let cut = 1 + (rng.next_u64() as usize) % (bytes.len() - 1);
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&bytes[..cut]).unwrap();
        drop(stream); // Mid-frame disconnect.

        // Torn JSON too: half a line, then gone.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"{\"verb\":\"inf").unwrap();
        drop(stream);
    }
    let mut client = Client::connect_wire(&addr, Wire::Binary).unwrap();
    assert!(client.health().unwrap().healthy);
    let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 77);
    assert!(client.infer("m", &x).is_ok());
    server.shutdown();
}

/// A 1-byte-at-a-time client (the slowest possible sender) must still
/// be served correctly on both wires: partial frames accumulate across
/// arbitrarily many reads.
#[test]
fn one_byte_at_a_time_clients_are_served() {
    let server = Server::start(tiny_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // Binary: preamble + infer request, dripped byte by byte.
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    bytes.extend_from_slice(&encoded_infer(4, 4, 9));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for b in &bytes {
        stream.write_all(std::slice::from_ref(b)).unwrap();
    }
    match read_binary_response(&mut stream).expect("dripped request must be answered") {
        Response::Infer { shape, data, .. } => {
            assert_eq!(shape.len(), 16);
            assert_eq!(data.len(), 16);
        }
        other => panic!("expected infer response, got {}", other.to_json()),
    }
    drop(stream);

    // JSON: a health round trip, dripped byte by byte.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for b in b"{\"verb\":\"health\"}\n" {
        stream.write_all(std::slice::from_ref(b)).unwrap();
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    std::io::BufReader::new(&stream)
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"healthy\":true"), "{line}");
    server.shutdown();
}

/// Oversized input on either wire gets a `bad_request` answer and then
/// a clean close — the server must refuse before buffering the body.
#[test]
fn oversized_requests_are_refused_then_closed() {
    let server = Server::start(
        tiny_registry(),
        ServerConfig {
            max_frame_bytes: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // Binary: a header declaring a 100 KiB body (none ever sent).
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut bytes = Vec::new();
    frame::encode_preamble(&mut bytes);
    bytes.extend_from_slice(&100_000u32.to_le_bytes());
    bytes.push(0x01);
    stream.write_all(&bytes).unwrap();
    match read_binary_response(&mut stream) {
        Ok(Response::Error(e)) => assert_eq!(e.code(), "bad_request", "{e}"),
        other => panic!("expected bad_request error frame, got {other:?}"),
    }
    read_to_eof(&mut stream);

    // JSON: an unterminated line past the cap.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&vec![b'a'; 8192]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    std::io::BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("bad_request"), "{line}");
    read_to_eof(&mut stream);
    server.shutdown();
}

/// PROTOCOL.md §Error codes: a frame the decoder refuses — intact or
/// not — is answered with one `bad_request` error frame and the
/// connection closes; the valid `health` frame queued behind it is never
/// answered. (The JSON wire resynchronizes at the newline instead:
/// `tests/serve.rs::protocol_errors_do_not_kill_the_connection`.)
#[test]
fn a_refused_intact_frame_is_answered_once_then_the_connection_closes() {
    let server = Server::start(tiny_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut health = Vec::new();
    frame::encode_request(&Request::Health, &mut health);

    let unknown_verb = [1, 0, 0, 0, 0x6F].to_vec();
    // precision byte 0x05, empty name, shape [0,0,0,0], no samples.
    let mut bad_precision = [20, 0, 0, 0, 0x01, 0x05, 0, 0].to_vec();
    bad_precision.extend_from_slice(&[0; 16]);
    let trailing_byte = [2, 0, 0, 0, health[4], 0xAA].to_vec();

    for (what, bad) in [
        ("unknown verb byte", unknown_verb),
        ("bad precision byte", bad_precision),
        ("trailing payload byte", trailing_byte),
    ] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut bytes = Vec::new();
        frame::encode_preamble(&mut bytes);
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(&health);
        stream.write_all(&bytes).unwrap();
        match read_binary_response(&mut stream) {
            Ok(Response::Error(e)) => assert_eq!(e.code(), "bad_request", "{what}: {e}"),
            other => panic!("{what}: expected a bad_request error frame, got {other:?}"),
        }
        // Exactly one answer: nothing but EOF follows.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean close");
        assert!(
            rest.is_empty(),
            "{what}: {} bytes after the error",
            rest.len()
        );
    }
    server.shutdown();
}

/// Negotiation edges: bytes that merely *resemble* the magic fall back
/// to JSON (and get a JSON `bad_request`, connection surviving); a
/// matching magic with an unknown version is answered with a binary
/// error frame and closed.
#[test]
fn bad_magic_falls_back_to_json_and_bad_version_is_refused() {
    let server = Server::start(tiny_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // "RCXB…" diverges from the magic at byte 2: JSON mode, one
    // bad_request line, and the connection keeps working.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"RCXB garbage\n").unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("bad_request"), "{line}");
    stream.write_all(b"{\"verb\":\"health\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"healthy\":true"), "{line}");
    drop(stream);

    // Correct magic, version 7: binary error frame, then close.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut preamble = frame::MAGIC.to_vec();
    preamble.push(7);
    stream.write_all(&preamble).unwrap();
    match read_binary_response(&mut stream) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code(), "bad_request", "{e}");
            assert!(e.to_string().contains("version"), "{e}");
        }
        other => panic!("expected version error frame, got {other:?}"),
    }
    read_to_eof(&mut stream);
    server.shutdown();
}
