//! Fleet-management integration suite: versioned hot reload under live
//! traffic, the reload/infer race (outputs must always be bit-exact
//! against *some* published version, never a torn mix), concurrent
//! `reload` verbs and a reload in flight at shutdown, and the
//! snapshot-outside-lock guarantee that a slow stats consumer cannot
//! stall admission.

use proptest::prelude::*;
use ringcnn_nn::prelude::*;
use ringcnn_nn::serialize::{export_model, model_to_json};
use ringcnn_serve::frame::{self, DecodeStep};
use ringcnn_serve::prelude::*;
use ringcnn_tensor::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn spec() -> ModelSpec {
    ModelSpec::Vdsr {
        depth: 2,
        width: 8,
        channels_io: 1,
    }
}

/// Writes `m.json` (the [`spec`] model built from `seed`) into `dir`.
fn write_model(dir: &Path, seed: u64) {
    let alg = Algebra::real();
    let mut model = spec().build(&alg, seed);
    let file = export_model("m", spec(), AlgebraSpec::of(&alg), &mut model).expect("export model");
    std::fs::write(dir.join("m.json"), model_to_json(&file)).expect("write model file");
}

/// The prepared reference forward for the [`spec`] model at `seed`.
fn reference(seed: u64) -> Sequential {
    let mut m = spec().build(&Algebra::real(), seed);
    m.prepare_inference();
    m
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ringcnn_fleet_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp model dir");
    dir
}

#[test]
fn hot_reload_under_load_swaps_versions_with_zero_failures() {
    // A server with the poll watcher enabled serves version 1 while four
    // client threads hammer it; mid-run the model file is rewritten with
    // different weights. Every response must be bit-exact against one of
    // the two published versions, no request may fail, and traffic after
    // the reload is observed must come from version 2.
    let dir = temp_dir("reload_load");
    write_model(&dir, 1);
    let registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load v1");
    let server = Server::start(
        Arc::new(registry),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            reload_poll: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let (ref_a, ref_b) = (reference(1), reference(2));
    let reloaded = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for client_id in 0..4u64 {
            let addr = addr.clone();
            let (ref_a, ref_b, reloaded) = (&ref_a, &ref_b, &reloaded);
            scope.spawn(move || {
                let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
                let mut i = 0u64;
                // Keep inferring until the reload is confirmed, then do a
                // few more guaranteed-post-reload requests.
                loop {
                    let done = reloaded.load(Ordering::SeqCst);
                    let x = Tensor::random_uniform(
                        Shape4::new(1, 1, 8, 8),
                        0.0,
                        1.0,
                        client_id * 10_000 + i,
                    );
                    let reply = c
                        .infer("m", &x)
                        .expect("no request may fail across a reload");
                    let a = ref_a.forward_infer(&x);
                    let b = ref_b.forward_infer(&x);
                    let out = reply.output.as_slice();
                    assert!(
                        out == a.as_slice() || out == b.as_slice(),
                        "client {client_id} request {i}: output matches neither \
                         published version — torn reload"
                    );
                    if done {
                        // The swap happened strictly before this request
                        // was admitted: it must be version 2's answer.
                        assert_eq!(
                            out,
                            b.as_slice(),
                            "post-reload request still served by the old version"
                        );
                        if i >= 3 {
                            break;
                        }
                    }
                    i += 1;
                }
            });
        }

        // Let version-1 traffic flow, then publish version 2.
        std::thread::sleep(Duration::from_millis(50));
        write_model(&dir, 2);
        let mut probe = Client::connect_retry(&addr, Duration::from_secs(5)).expect("probe");
        let t0 = Instant::now();
        loop {
            let snap = probe.stats().expect("stats");
            if snap.models_reloaded >= 1 {
                assert!(snap.reload_passes >= 1);
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "watcher never picked up the rewritten model file"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The version counter on the wire must have bumped too.
        let infos = probe.list_models().expect("list");
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].version, 2, "reload must bump the model version");
        reloaded.store(true, Ordering::SeqCst);
    });

    let mut probe = Client::connect(&addr).unwrap();
    let snap = probe.stats().unwrap();
    assert_eq!(snap.failed, 0, "zero failed requests across the reload");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_reload_verb_reports_and_applies_the_swap() {
    // No watcher: the `reload` admin verb alone must detect the change,
    // swap, and report it — and a second call must be a no-op.
    let dir = temp_dir("reload_verb");
    write_model(&dir, 7);
    let registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load");
    let server = Server::start(Arc::new(registry), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    for wire in [Wire::Json, Wire::Binary] {
        let mut c = Client::connect_wire(&addr, wire).unwrap();
        let report = c.reload().expect("reload verb");
        assert!(
            report.is_noop(),
            "{wire:?}: nothing changed yet: {report:?}"
        );
        write_model(&dir, 8);
        let report = c.reload().expect("reload verb after rewrite");
        assert_eq!(report.reloaded, vec!["m".to_string()], "{wire:?}");
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 5);
        assert_eq!(
            c.infer("m", &x).unwrap().output.as_slice(),
            reference(8).forward_infer(&x).as_slice(),
            "{wire:?}: traffic after an explicit reload must hit the new weights"
        );
        // Restore for the next wire's no-op check (content-hash based:
        // rewriting identical bytes is NOT a change).
        write_model(&dir, 7);
        c.reload().expect("restore");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Publishes the [`spec`] model at `seed` as `dir/m.json` atomically:
/// written beside `dir`, then renamed into it.
fn publish_model(dir: &Path, seed: u64) {
    let staging = dir.with_extension("staging");
    std::fs::create_dir_all(&staging).expect("create staging dir");
    write_model(&staging, seed);
    std::fs::rename(staging.join("m.json"), dir.join("m.json")).expect("rename into place");
}

/// A raw client connection that pipelines: a batch of requests goes out
/// in one write before any reply is read.
struct Pipe {
    stream: TcpStream,
    wire: Wire,
    inbuf: Vec<u8>,
}

impl Pipe {
    fn connect(addr: &str, wire: Wire) -> Pipe {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        if wire == Wire::Binary {
            let mut preamble = Vec::new();
            frame::encode_preamble(&mut preamble);
            stream.write_all(&preamble).expect("send preamble");
        }
        Pipe {
            stream,
            wire,
            inbuf: Vec::new(),
        }
    }

    fn send(&mut self, reqs: &[Request]) {
        let mut bytes = Vec::new();
        for req in reqs {
            match self.wire {
                Wire::Json => {
                    bytes.extend_from_slice(req.to_json().as_bytes());
                    bytes.push(b'\n');
                }
                Wire::Binary => frame::encode_request(req, &mut bytes),
            }
        }
        self.stream.write_all(&bytes).expect("send requests");
    }

    /// The next reply, or `None` at a clean EOF.
    fn receive(&mut self) -> Option<Response> {
        loop {
            match self.wire {
                Wire::Json => {
                    if let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
                        let line = String::from_utf8(line).expect("UTF-8 reply");
                        return Some(Response::parse(line.trim_end()).expect("reply line"));
                    }
                }
                Wire::Binary => match frame::decode_response(&self.inbuf) {
                    DecodeStep::Item(resp, consumed) => {
                        self.inbuf.drain(..consumed);
                        return Some(resp);
                    }
                    DecodeStep::Fail(e) => panic!("bad reply frame: {e}"),
                    DecodeStep::Incomplete => {}
                },
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read reply");
            if n == 0 {
                assert!(self.inbuf.is_empty(), "EOF inside a reply");
                return None;
            }
            self.inbuf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[test]
fn concurrent_reload_verbs_and_a_reload_in_flight_at_shutdown() {
    // No polling: every pass is a verb's. Two connections keep inferring
    // while version 2 is published and six connections, three per wire,
    // send `reload` at once, each pipelined with `list_models`.
    let dir = temp_dir("reload_many");
    write_model(&dir, 1);
    let registry = Arc::new(ModelRegistry::new());
    registry.load_dir(&dir).expect("load v1");
    let server = Server::start(registry.clone(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let (ref_a, ref_b) = (reference(1), reference(2));
    let stop = AtomicBool::new(false);
    let failures = AtomicUsize::new(0);
    let barrier = Barrier::new(6);

    std::thread::scope(|scope| {
        let inferring: Vec<_> = (0..2u64)
            .map(|client_id| {
                let (addr, ref_a, ref_b) = (&addr, &ref_a, &ref_b);
                let (stop, failures) = (&stop, &failures);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut served = 0u64;
                    while !stop.load(Ordering::SeqCst) || served == 0 {
                        let seed = client_id * 100_000 + served;
                        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, seed);
                        let Ok(reply) = c.infer("m", &x) else {
                            failures.fetch_add(1, Ordering::SeqCst);
                            continue;
                        };
                        let out = reply.output.as_slice();
                        assert!(
                            out == ref_a.forward_infer(&x).as_slice()
                                || out == ref_b.forward_infer(&x).as_slice(),
                            "client {client_id} request {served}: output matches neither version"
                        );
                        served += 1;
                    }
                })
            })
            .collect();

        publish_model(&dir, 2);
        let reloading: Vec<_> = [Wire::Json, Wire::Binary]
            .into_iter()
            .flat_map(|wire| [wire; 3])
            .map(|wire| {
                let (addr, barrier) = (&addr, &barrier);
                scope.spawn(move || {
                    let mut pipe = Pipe::connect(addr, wire);
                    barrier.wait();
                    pipe.send(&[Request::Reload, Request::ListModels]);
                    let report = match pipe.receive() {
                        Some(Response::Reload(report)) => report,
                        other => panic!("{wire:?}: the reload report comes first, got {other:?}"),
                    };
                    match pipe.receive() {
                        Some(Response::ListModels(infos)) => {
                            assert_eq!(infos[0].version, 2, "{wire:?}: answered after the swap")
                        }
                        other => panic!("{wire:?}: `list_models` comes second, got {other:?}"),
                    }
                    report
                })
            })
            .collect();
        let reports: Vec<ReloadReport> = reloading
            .into_iter()
            .map(|h| h.join().expect("reload client"))
            .collect();
        let swapped = ReloadReport {
            reloaded: vec!["m".to_string()],
            ..ReloadReport::default()
        };
        let unchanged = ReloadReport {
            unchanged: 1,
            ..ReloadReport::default()
        };
        assert_eq!(
            reports.iter().filter(|r| **r == swapped).count(),
            1,
            "exactly one pass swaps: {reports:?}"
        );
        assert_eq!(
            reports.iter().filter(|r| **r == unchanged).count(),
            5,
            "every other pass finds the file unchanged: {reports:?}"
        );
        stop.store(true, Ordering::SeqCst);
        for h in inferring {
            h.join().expect("infer client");
        }
    });
    assert_eq!(failures.load(Ordering::SeqCst), 0, "no infer may fail");
    let infos = Client::connect(&addr).unwrap().list_models().unwrap();
    assert_eq!(infos[0].version, 2);

    // A reload (of version 3, so the pass parses) in flight when another
    // connection shuts the server down is answered before its EOF. The
    // shutdown goes out once the verb's pass has begun, so the reactor
    // has read the verb by then.
    let mut last = Pipe::connect(&addr, Wire::Json);
    publish_model(&dir, 3);
    let passes = registry.reload_passes();
    last.send(&[Request::Reload]);
    let t0 = Instant::now();
    while registry.reload_passes() == passes {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the reload verb never reached the reload thread"
        );
        std::thread::yield_now();
    }
    Client::connect(&addr)
        .unwrap()
        .shutdown_server()
        .expect("shutdown ack");
    match last.receive() {
        Some(Response::Reload(report)) => assert_eq!(report.reloaded, vec!["m".to_string()]),
        other => panic!("the reload in flight at shutdown must be answered, got {other:?}"),
    }
    assert!(last.receive().is_none(), "EOF follows the reply");
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("Server::wait returns after a reload in flight at shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("staging"));
}

#[test]
fn polling_runs_while_the_server_is_waited_on() {
    // `ringcnn-serve` calls `Server::wait` right after start and waits
    // for the `shutdown` verb; polling must keep running all that time.
    let dir = temp_dir("poll_wait");
    write_model(&dir, 4);
    let registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load");
    let server = Server::start(
        Arc::new(registry),
        ServerConfig {
            reload_poll: Some(Duration::from_millis(5)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let waiting = std::thread::spawn(move || server.wait());
    publish_model(&dir, 5);
    let mut c = Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    while c.list_models().expect("list")[0].version < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "no polling pass picked up the rewritten model file"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    c.shutdown_server().expect("shutdown ack");
    waiting.join().expect("wait returns");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("staging"));
}

#[test]
fn a_model_file_nested_too_deep_fails_the_load_on_a_default_stack() {
    // The reload thread parses on a spawned thread's default stack: the
    // load must fail there, naming the file, not overflow it.
    let dir = temp_dir("evil");
    std::fs::write(dir.join("evil.json"), "[".repeat(1 << 20)).expect("write evil file");
    let loaded = {
        let dir = dir.clone();
        std::thread::spawn(move || ModelRegistry::new().load_dir(&dir).map(|_| ()))
            .join()
            .expect("the loading thread returns")
    };
    let err = loaded.unwrap_err();
    assert_eq!(err.code(), "load_error");
    let text = err.to_string();
    assert!(
        text.contains("evil.json") && text.contains("nest"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_model_file_nested_too_deep_is_refused_while_the_fleet_serves() {
    // A megabyte of `[` lands in the watched directory: every polling
    // pass and the `reload` verb refuse it on the reload thread's own
    // stack, and the models already loaded keep answering.
    let dir = temp_dir("too_deep");
    write_model(&dir, 6);
    let registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load");
    let server = Server::start(
        Arc::new(registry),
        ServerConfig {
            reload_poll: Some(Duration::from_millis(20)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let waiting = std::thread::spawn(move || server.wait());
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 11);
    let want = reference(6).forward_infer(&x);
    assert_eq!(c.infer("m", &x).expect("infer before").output, want);
    let passes = c.stats().expect("stats").reload_passes;
    std::fs::write(dir.join("deep.json"), "[".repeat(1 << 20)).expect("write deep file");
    // Polling passes run into the file and fail; the server goes on.
    let t0 = Instant::now();
    while c.stats().expect("stats").reload_passes < passes + 3 {
        assert!(t0.elapsed() < Duration::from_secs(30), "polling stopped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = c.reload().expect_err("the pass is refused");
    assert_eq!(err.code(), "load_error", "{err}");
    let text = err.to_string();
    assert!(
        text.contains("deep.json") && text.contains("nest"),
        "{text}"
    );
    assert_eq!(c.infer("m", &x).expect("infer after").output, want);
    assert!(c.health().expect("health").healthy);
    c.shutdown_server().expect("shutdown ack");
    waiting.join().expect("wait returns");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_stats_consumer_cannot_stall_admission() {
    // A connection that floods `stats` requests and never reads a byte
    // of the responses must not block the event loop or the admission
    // path: serialization happens on a snapshot outside the metrics and
    // queue locks, and unread bytes only back-pressure that one
    // connection. A well-behaved client's infers must keep completing
    // promptly the whole time.
    let dir = temp_dir("slow_stats");
    write_model(&dir, 3);
    let registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load");
    let server = Server::start(Arc::new(registry), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    use std::io::Write as _;
    let slow = std::net::TcpStream::connect(&addr).unwrap();
    // Push a large burst of stats requests without ever reading. The
    // responses pile up in the server's per-connection output buffer
    // (and this socket's kernel buffers), not under any shared lock.
    let burst: Vec<u8> = std::iter::repeat_with(|| "{\"verb\":\"stats\"}\n".bytes())
        .take(500)
        .flatten()
        .collect();
    (&slow).write_all(&burst).unwrap();

    let mut c = Client::connect(&addr).unwrap();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 9);
    let t0 = Instant::now();
    for _ in 0..20 {
        c.infer("m", &x)
            .expect("infer while a stats consumer stalls");
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "admission stalled behind a slow stats consumer: {:?}",
        t0.elapsed()
    );
    // The slow connection is still alive (not killed, just buffered).
    (&slow).write_all(b"{\"verb\":\"health\"}\n").unwrap();
    drop(slow);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The reload/infer race: while worker threads stream inferences
    /// through the scheduler, the model file is rewritten and
    /// `reload_pass` swaps it in. Every single output must be bit-exact
    /// against the seed-A or the seed-B reference — a torn result (half
    /// old weights, half new) is the bug this guards against.
    #[test]
    fn reload_race_outputs_match_some_published_version(
        seed_a in 0u64..500,
        delta in 1u64..500,
    ) {
        let seed_b = seed_a + delta;
        let dir = temp_dir(&format!("race_{seed_a}_{seed_b}"));
        write_model(&dir, seed_a);
        let registry = ModelRegistry::new();
        registry.load_dir(&dir).expect("load seed A");
        let registry = Arc::new(registry);
        let sched = Scheduler::start(
            registry.clone(),
            SchedulerConfig {
                workers: 2,
                max_batch: 4,
                max_wait: Duration::from_micros(200),
                queue_cap: 256,
                ..SchedulerConfig::default()
            },
        ).expect("scheduler starts");
        let (ref_a, ref_b) = (reference(seed_a), reference(seed_b));

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..3u64 {
                let sched = &sched;
                let (ref_a, ref_b) = (&ref_a, &ref_b);
                handles.push(scope.spawn(move || -> Result<(), String> {
                    for i in 0..12u64 {
                        let x = Tensor::random_uniform(
                            Shape4::new(1, 1, 8, 8), 0.0, 1.0, t * 1000 + i,
                        );
                        let out = sched
                            .infer("m", x.clone(), Precision::Fp64)
                            .map_err(|e| e.to_string())?;
                        let out = out.output;
                        if out.as_slice() != ref_a.forward_infer(&x).as_slice()
                            && out.as_slice() != ref_b.forward_infer(&x).as_slice()
                        {
                            return Err(format!("thread {t} request {i}: torn output"));
                        }
                    }
                    Ok(())
                }));
            }
            // Swap to seed B mid-stream.
            write_model(&dir, seed_b);
            let report = registry.reload_pass().expect("reload pass");
            prop_assert_eq!(report.reloaded, vec!["m".to_string()]);
            for h in handles {
                if let Err(e) = h.join().expect("infer thread panicked") {
                    panic!("{e}");
                }
            }
        });
        sched.shutdown();
        prop_assert_eq!(registry.get("m").expect("still registered").version(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
