//! Robustness properties for both wire codecs: torn prefixes, corrupt
//! bytes, oversized frames, mid-frame disconnects, and pathologically
//! slow clients must produce `bad_request` (or a clean close) — never a
//! panic, never a stalled reactor.
//!
//! Codec-level properties exercise `frame::{decode_request,
//! decode_response}` and the line codec's `Request::parse` /
//! `Response::parse` directly; transport-level properties drive a live
//! server (or a live client) through raw sockets.

use proptest::prelude::*;
use ringcnn_nn::prelude::*;
use ringcnn_serve::frame::{self, DecodeStep};
use ringcnn_serve::prelude::*;
use ringcnn_serve::protocol::{Verb, VerbId};
use ringcnn_serve::server::MAX_LINE_BYTES;
use ringcnn_tensor::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// The largest single block this thread has allocated since it last
    /// reset the count (const-initialised and without a destructor, so
    /// the allocator below can read it without allocating).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestBlock;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the thread-local count on the side
// never touches the memory handed out. (`realloc` and `alloc_zeroed`
// keep their default bodies, which go through `alloc` below.)
unsafe impl GlobalAlloc for LargestBlock {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|largest| largest.set(largest.get().max(layout.size())));
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestBlock = LargestBlock;

/// The largest block `f` allocates on this thread.
fn largest_block<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

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

/// A valid `infer` request line and a valid `infer` response line for an
/// `h`×`w` tile (no trailing newline).
fn json_infer_lines(h: usize, w: usize, seed: u64) -> [String; 2] {
    let x = Tensor::random_uniform(Shape4::new(1, 1, h, w), -1.0, 1.0, seed);
    let request = Request::Infer {
        model: "m".into(),
        precision: Precision::Quant,
        shape: x.shape(),
        data: x.as_slice().to_vec(),
        deadline_ms: Some(2.5),
    };
    let response = Response::Infer {
        shape: x.shape(),
        data: x.as_slice().to_vec(),
        queue_ms: 0.25,
        total_ms: 1.5,
        batch_size: 1,
    };
    [request.to_json(), response.to_json()]
}

/// Both line decoders on `bytes` (lossily read as UTF-8, as the reactor
/// and the client read a line): each answer is a message or a
/// `bad_request`.
fn line_decoders_answer(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    if let Err(e) = Request::parse(&line) {
        assert_eq!(e.code(), "bad_request", "{line:?}");
    }
    if let Err(e) = Response::parse(&line) {
        assert_eq!(e.code(), "bad_request", "{line:?}");
    }
}

/// Reads binary responses off a raw socket until one completes (10 s
/// cap so a stalled server fails the test instead of hanging it).
fn read_binary_response(stream: &mut TcpStream) -> Result<Response, ServeError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match frame::decode_response(&inbuf) {
            DecodeStep::Item(resp, _) => return Ok(resp),
            DecodeStep::Fail(e) => return Err(e),
            DecodeStep::Incomplete => {}
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
        // The same on the line wire: a flipped bit anywhere in a valid
        // infer line, request or response.
        for line in json_infer_lines(3, 3, seed) {
            let mut bytes = line.into_bytes();
            let idx = (idx_frac * (bytes.len() - 1) as f64) as usize;
            bytes[idx] ^= 1 << bit;
            line_decoders_answer(&bytes);
        }
    }

    /// Every torn prefix of a valid infer line is refused as
    /// `bad_request`: an object without its closing brace is no message.
    #[test]
    fn torn_json_lines_are_bad_requests(cut_frac in 0.0f64..1.0, seed in 0u64..1_000_000) {
        for line in json_infer_lines(3, 4, seed) {
            let random_cut = (cut_frac * (line.len() - 1) as f64) as usize;
            for cut in [random_cut, 0, 1, line.len() / 2, line.len() - 1] {
                let torn = &line.as_bytes()[..cut];
                line_decoders_answer(torn);
                let torn = String::from_utf8_lossy(torn);
                prop_assert!(Request::parse(&torn).is_err(), "{} bytes decoded", cut);
                prop_assert!(Response::parse(&torn).is_err(), "{} bytes decoded", cut);
            }
        }
    }

    /// Pure random garbage through every decoder entry point: anything
    /// but a panic is acceptable, and the line decoders answer with a
    /// message or a `bad_request`.
    #[test]
    fn random_garbage_never_panics_any_decoder(bytes in collection::vec(0u8..=255u8, 64)) {
        let _ = frame::negotiate(&bytes);
        let _ = frame::decode_request(&bytes, 4096);
        let _ = frame::decode_response(&bytes);
        line_decoders_answer(&bytes);
    }

    /// Garbage spelled in JSON's own alphabet reaches deeper into the
    /// line decoders than random bytes do.
    #[test]
    fn json_alphabet_garbage_is_answered(picks in collection::vec(0usize..24, 96)) {
        const ALPHABET: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "-", "0", "7", ".", "e",
            "null", "true", "\"data\"", "\"shape\"", "\"verb\"", "\"infer\"",
            "\"ok\"", "\"model\"", "1e400", "\u{e9}",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        line_decoders_answer(text.as_bytes());
        let object = format!("{{\"verb\":\"infer\",\"data\":[{text}");
        line_decoders_answer(object.as_bytes());
    }

    /// A declared body length beyond the cap fails immediately as
    /// `bad_request` on the request decoder — the decoder must not wait
    /// for (or allocate) the oversized body.
    #[test]
    fn oversized_declared_lengths_fail_immediately(excess in 1u32..1_000_000) {
        let max = 4096usize;
        let mut buf = (max as u32 + excess).to_le_bytes().to_vec();
        buf.push(0x01); // verb: infer
        match frame::decode_request(&buf, max) {
            DecodeStep::Fail(e) => prop_assert_eq!(e.code(), "bad_request"),
            _ => panic!("oversized frame must fail"),
        }
    }
}

/// A declared `shape` is untrusted: a line or a reply frame claiming
/// 2^40 samples and carrying one is refused by the sample count, and
/// nothing it allocates is sized from the shape (a 4 TiB request would
/// abort the process).
#[test]
fn a_huge_shape_with_one_sample_is_refused_without_allocating_for_it() {
    let line = r#"{"verb":"infer","model":"m","shape":[1048576,1048576,1,1],"data":[0.5]}"#;
    let (parsed, largest) = largest_block(|| Request::parse(line));
    let err = parsed.unwrap_err();
    assert_eq!(err.code(), "bad_request");
    assert!(err.to_string().contains("got 1"), "{err}");
    assert!(largest < 4 * line.len(), "a {largest}-byte block");
    let line = line.replace(
        r#""verb":"infer","model":"m""#,
        r#""ok":true,"verb":"infer""#,
    );
    let (parsed, largest) = largest_block(|| Response::parse(&line));
    assert!(parsed.is_err(), "{parsed:?}");
    assert!(largest < 4 * line.len(), "a {largest}-byte block");

    // The binary reply: a `0x81` frame with the same shape and sample.
    let lying = Response::Infer {
        shape: Shape4::new(1 << 20, 1 << 20, 1, 1),
        data: vec![0.5],
        queue_ms: 0.0,
        total_ms: 0.0,
        batch_size: 1,
    };
    let mut bytes = Vec::new();
    frame::encode_response(&lying, &mut bytes);
    let (decoded, largest) = largest_block(|| frame::decode_response(&bytes));
    assert!(matches!(decoded, DecodeStep::Fail(_)), "{decoded:?}");
    assert!(largest < 4 * bytes.len(), "a {largest}-byte block");
}

/// A `stats` reply whose JSON body nests 2^20 deep fails the decode at
/// the parser's nesting limit instead of overflowing the stack.
#[test]
fn a_json_body_nested_too_deep_is_refused_without_recursing() {
    let body = "[".repeat(1 << 20);
    let mut bytes = ((body.len() + 1) as u32).to_le_bytes().to_vec();
    bytes.push(Verb::of(VerbId::Stats).response);
    bytes.extend_from_slice(body.as_bytes());
    match frame::decode_response(&bytes) {
        DecodeStep::Fail(e) => assert!(e.to_string().contains("nest"), "{e}"),
        other => panic!("{other:?}"),
    }
}

/// A megabyte-long string (a member, a key, the verb) is read in one
/// pass over the line: the reactor answers such a line at once.
#[test]
fn a_megabyte_string_is_read_in_linear_time() {
    let long = "a".repeat(1 << 20);
    for (line, want) in [
        (
            format!(r#"{{"verb":"health","x":"{long}"}}"#),
            Ok(Request::Health),
        ),
        (
            format!(r#"{{"verb":"health","{long}":1}}"#),
            Ok(Request::Health),
        ),
        (format!(r#"{{"verb":"{long}"}}"#), Err("bad_request")),
    ] {
        let t0 = std::time::Instant::now();
        let got = Request::parse(&line).map_err(|e| e.code());
        let took = t0.elapsed();
        assert_eq!(got, want);
        assert!(took.as_secs_f64() < 1.0, "{took:?}");
    }
}

// --- Transport-level properties (live server, raw sockets) -----------------

/// A server that never ends its response line: the client refuses the
/// line once it passes [`MAX_LINE_BYTES`] instead of buffering without
/// bound.
#[test]
fn an_endless_response_line_is_refused_at_the_cap() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        std::io::BufReader::new(&stream)
            .read_line(&mut request)
            .unwrap();
        // Spaces and never a newline, until the client hangs up (it
        // reads only as far as the cap) or twice the cap has gone out.
        let chunk = vec![b' '; 1 << 16];
        for _ in 0..2 * MAX_LINE_BYTES / chunk.len() {
            if (&stream).write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut client = Client::connect(addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let err = client.health().unwrap_err();
    assert_eq!(err.code(), "bad_request", "{err}");
    assert!(err.to_string().contains("exceeds"), "{err}");
    drop(client);
    server.join().unwrap();
}

/// A megabyte-long verb, model or precision is answered with its code
/// and a short message: the reply quotes a bounded prefix of the name.
#[test]
fn megabyte_names_are_echoed_in_short_errors() {
    let server = Server::start(tiny_registry(), ServerConfig::default()).expect("bind");
    let long = "n".repeat(1 << 20);
    let infer = |model: &str, precision: &str| {
        format!(
            r#"{{"verb":"infer","model":"{model}","precision":"{precision}","shape":[1,1,1,1],"data":[1.0]}}"#
        )
    };
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    for (request, code) in [
        (format!(r#"{{"verb":"{long}"}}"#), "bad_request"),
        (infer(&long, "fp64"), "unknown_model"),
        (infer("m", &long), "bad_request"),
    ] {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::parse(&line) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.code(), code, "{e}");
                assert!(e.to_string().len() < 256, "{e}");
            }
            other => panic!("expected a {code} error, got {other:?}"),
        }
    }
    server.shutdown();
}

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

    // Correct magic, version 7 or the retired version 1: binary error
    // frame, then close.
    for version in [7, 1] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut preamble = frame::MAGIC.to_vec();
        preamble.push(version);
        stream.write_all(&preamble).unwrap();
        match read_binary_response(&mut stream) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.code(), "bad_request", "{e}");
                assert!(e.to_string().contains("version"), "{e}");
            }
            other => panic!("expected version error frame, got {other:?}"),
        }
        read_to_eof(&mut stream);
    }
    server.shutdown();
}
