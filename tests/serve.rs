//! Integration suite for the `ringcnn-serve` layer: scheduler batching
//! semantics, admission control, graceful drain, and end-to-end TCP
//! correctness against direct `forward_infer`.

use ringcnn_nn::prelude::*;
use ringcnn_serve::prelude::*;
use ringcnn_tensor::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn vdsr_spec() -> ModelSpec {
    ModelSpec::Vdsr {
        depth: 3,
        width: 8,
        channels_io: 1,
    }
}

fn ffdnet_spec() -> ModelSpec {
    ModelSpec::Ffdnet {
        depth: 3,
        width: 8,
        channels_io: 1,
    }
}

/// A registry with the two smoke models: FFDNet over the real field
/// (im2col) and VDSR over RH4 (transform).
fn smoke_registry() -> Arc<ModelRegistry> {
    let reg = ModelRegistry::new();
    let real = Algebra::real();
    reg.register(
        "ffdnet_real",
        ffdnet_spec(),
        AlgebraSpec::of(&real),
        ffdnet_spec().build(&real, 1),
    )
    .unwrap();
    let rh4 = Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4));
    reg.register(
        "vdsr_rh4",
        vdsr_spec(),
        AlgebraSpec::of(&rh4),
        vdsr_spec().build(&rh4, 2),
    )
    .unwrap();
    Arc::new(reg)
}

/// Reference models built with the same seeds as [`smoke_registry`].
fn reference_models() -> (Sequential, Sequential) {
    let mut ffd = ffdnet_spec().build(&Algebra::real(), 1);
    ffd.prepare_inference();
    let mut vdsr = vdsr_spec().build(
        &Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4)),
        2,
    );
    vdsr.prepare_inference();
    (ffd, vdsr)
}

// --- Scheduler semantics ---------------------------------------------------

#[test]
fn max_batch_flushes_before_max_wait() {
    // max_wait is far away (10 s); submitting max_batch requests must
    // flush promptly as one batch.
    let sched = Scheduler::start(
        smoke_registry(),
        SchedulerConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_secs(10),
            queue_cap: 64,
            ..SchedulerConfig::default()
        },
    )
    .expect("scheduler starts");
    let started = Instant::now();
    let pendings: Vec<_> = (0..4)
        .map(|i| {
            let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 10 + i);
            sched.submit("vdsr_rh4", x, Precision::Fp64).unwrap()
        })
        .collect();
    for p in pendings {
        let out = p.wait().unwrap();
        assert_eq!(out.batch_size, 4, "all four must ride one batch");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "batch-full flush must not wait for max_wait"
    );
    let stats = sched.metrics().snapshot();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, 4);
    sched.shutdown();
}

#[test]
fn max_wait_flushes_a_lone_request() {
    // The batch never fills; the lone request must still complete right
    // after max_wait.
    let sched = Scheduler::start(
        smoke_registry(),
        SchedulerConfig {
            workers: 1,
            max_batch: 64,
            max_wait: Duration::from_millis(30),
            queue_cap: 64,
            ..SchedulerConfig::default()
        },
    )
    .expect("scheduler starts");
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 3);
    let started = Instant::now();
    let out = sched.infer("vdsr_rh4", x, Precision::Fp64).unwrap();
    let waited = started.elapsed();
    assert_eq!(out.batch_size, 1);
    assert!(
        waited >= Duration::from_millis(25),
        "flush must honor max_wait, waited {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "flush must happen promptly after max_wait, waited {waited:?}"
    );
    sched.shutdown();
}

#[test]
fn full_queue_rejects_with_overloaded_and_drains_on_shutdown() {
    // One worker, batches that only flush at max_batch=8 or after 10 s:
    // with queue_cap=4 the fifth submission must be rejected
    // *immediately* (admission control), and shutdown must still answer
    // the four queued requests (graceful drain).
    let sched = Scheduler::start(
        smoke_registry(),
        SchedulerConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(10),
            queue_cap: 4,
            ..SchedulerConfig::default()
        },
    )
    .expect("scheduler starts");
    let x = |i: u64| Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, i);
    let pendings: Vec<_> = (0..4)
        .map(|i| {
            sched
                .submit("vdsr_rh4", x(i as u64), Precision::Fp64)
                .unwrap()
        })
        .collect();
    let started = Instant::now();
    match sched.submit("vdsr_rh4", x(99), Precision::Fp64) {
        Err(ServeError::Overloaded { depth, cap }) => {
            assert_eq!((depth, cap), (4, 4));
        }
        other => panic!("expected Overloaded, got {:?}", other.err()),
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "rejection must be immediate, not queued"
    );
    assert_eq!(sched.metrics().snapshot().rejected, 1);

    // Graceful drain: every admitted request completes with the right
    // answer even though the batch never filled.
    let (_, vdsr) = reference_models();
    sched.shutdown();
    for (i, p) in pendings.into_iter().enumerate() {
        let out = p.wait().unwrap();
        assert_eq!(
            out.output.as_slice(),
            vdsr.forward_infer(&x(i as u64)).as_slice(),
            "drained request {i} must still be answered correctly"
        );
    }
    let stats = sched.metrics().snapshot();
    assert_eq!(stats.completed, 4);
    // Submissions after shutdown are refused with the right code.
    assert_eq!(
        sched
            .submit("vdsr_rh4", x(0), Precision::Fp64)
            .unwrap_err()
            .code(),
        "shutting_down"
    );
}

#[test]
fn mixed_model_stream_batches_per_model_with_exact_results() {
    // Interleaved submissions for two models: batches must never mix
    // models, and every result must equal the direct forward.
    let sched = Scheduler::start(
        smoke_registry(),
        SchedulerConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            ..SchedulerConfig::default()
        },
    )
    .expect("scheduler starts");
    let (ffd, vdsr) = reference_models();
    let mut pendings = Vec::new();
    for i in 0..24u64 {
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 1000 + i);
        let model = if i % 2 == 0 {
            "ffdnet_real"
        } else {
            "vdsr_rh4"
        };
        pendings.push((
            model,
            x.clone(),
            sched.submit(model, x, Precision::Fp64).unwrap(),
        ));
    }
    for (model, x, p) in pendings {
        let out = p.wait().unwrap();
        let reference = if model == "ffdnet_real" { &ffd } else { &vdsr };
        assert_eq!(
            out.output.as_slice(),
            reference.forward_infer(&x).as_slice(),
            "batched result must be bit-identical for {model}"
        );
    }
    sched.shutdown();
}

// --- End-to-end over TCP ---------------------------------------------------

#[test]
fn concurrent_tcp_clients_get_bit_identical_results() {
    let server = Server::start(
        smoke_registry(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_batch: 8,
                max_wait: Duration::from_millis(2),
                queue_cap: 256,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let (ffd, vdsr) = reference_models();
    let ffd = Arc::new(ffd);
    let vdsr = Arc::new(vdsr);

    std::thread::scope(|scope| {
        for client_id in 0..6u64 {
            let addr = addr.clone();
            let ffd = ffd.clone();
            let vdsr = vdsr.clone();
            scope.spawn(move || {
                let mut client =
                    Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
                for i in 0..8u64 {
                    let seed = client_id * 100 + i;
                    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, seed);
                    let (model, reference): (&str, &Sequential) = if (client_id + i) % 2 == 0 {
                        ("ffdnet_real", &ffd)
                    } else {
                        ("vdsr_rh4", &vdsr)
                    };
                    let reply = client.infer(model, &x).expect("infer");
                    assert_eq!(
                        reply.output.as_slice(),
                        reference.forward_infer(&x).as_slice(),
                        "client {client_id} request {i} ({model}) must be bit-identical \
                         to direct forward_infer"
                    );
                    assert!(reply.batch_size >= 1);
                }
            });
        }
    });

    // The service observed batching (48 requests, 6-way concurrency,
    // max_batch 8): at least one multi-request batch must have formed.
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 48);
    assert_eq!(stats.failed, 0);
    // Batching accounting must be consistent (whether or not batches
    // actually formed is timing-dependent on a loaded 1-CPU runner).
    assert!(stats.batches >= 1 && stats.batches <= 48);
    assert!(stats.mean_batch >= 1.0 && stats.max_batch as f64 >= stats.mean_batch);
    let health = client.health().unwrap();
    assert!(health.healthy);
    assert_eq!(health.models, 2);
    // Everything completed: `health` must report the *live* (empty)
    // queue, not the stale depth the metrics atomic last observed.
    assert_eq!(health.queue_depth, 0);
    assert_eq!(stats.queue_depth, 0);
    server.shutdown();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let server = Server::start(smoke_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // Raw socket: send garbage, then a bad verb, then a good request.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let write = |line: &str| {
        let mut s = line.to_string();
        s.push('\n');
        (&stream).write_all(s.as_bytes()).unwrap();
    };
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    write("this is not json");
    assert!(read().contains("bad_request"));
    write(r#"{"verb":"frobnicate"}"#);
    assert!(read().contains("bad_request"));
    write(r#"{"verb":"infer","model":"nope","shape":[1,1,2,2],"data":[0,0,0,0]}"#);
    assert!(read().contains("unknown_model"));
    // FFDNet needs even sizes: shape validation happens before queueing.
    write(
        r#"{"verb":"infer","model":"ffdnet_real","shape":[1,1,3,4],"data":[0,0,0,0,0,0,0,0,0,0,0,0]}"#,
    );
    assert!(read().contains("bad_request"));
    // The connection still works after all those errors.
    write(r#"{"verb":"health"}"#);
    let line = read();
    assert!(
        line.contains("\"ok\":true") && line.contains("health"),
        "{line}"
    );
    server.shutdown();
}

#[test]
fn shutdown_verb_drains_and_stops_the_server() {
    let server = Server::start(
        smoke_registry(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 7);
    client.infer("vdsr_rh4", &x).unwrap();
    client.shutdown_server().unwrap();
    // wait() must return (bounded by the test harness timeout) and new
    // connections must fail afterwards.
    server.wait();
    assert!(
        Client::connect(&addr).is_err() || {
            // The OS may accept briefly on a reused port; a request must
            // fail either way.
            let mut c = Client::connect(&addr).unwrap();
            c.health().is_err()
        }
    );
}

#[test]
fn io_timeout_turns_a_wedged_server_into_a_timeout_error() {
    // A listener that never calls accept(): the kernel completes the TCP
    // handshake from the backlog, the client's small request lands in
    // the socket buffer, and then nothing ever answers — exactly the
    // wedged-server shape that used to hang `infer()` (and every
    // loadgen connection behind it) forever. With an I/O deadline the
    // round trip must fail fast with the `timeout` code.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind wedge");
    let addr = listener.local_addr().unwrap();
    let mut client =
        Client::connect_wire_with_timeout(addr, Wire::Json, Some(Duration::from_millis(200)))
            .expect("handshake completes from the backlog");
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 17);
    let started = Instant::now();
    match client.infer("vdsr_rh4", &x) {
        Err(ServeError::Timeout(_)) => {}
        other => panic!(
            "expected ServeError::Timeout from a wedged server, got {:?}",
            other.map(|r| r.batch_size)
        ),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the deadline must fire promptly, waited {:?}",
        started.elapsed()
    );
    // The same client with the deadline cleared would block forever —
    // prove the knob is the thing that saved us by checking a second
    // request also times out rather than, say, erroring on a dead
    // socket.
    assert_eq!(client.infer("vdsr_rh4", &x).unwrap_err().code(), "timeout");
}

// --- Binary wire protocol --------------------------------------------------

#[test]
fn binary_infer_is_bit_identical_to_json_and_direct_forward() {
    // The acceptance bar for the framed protocol: for the same model and
    // input, the f64 pipeline's answer must arrive bit-identical over
    // both wires (and match the direct forward).
    let server = Server::start(smoke_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let (ffd, vdsr) = reference_models();
    let mut json = Client::connect(&addr).unwrap();
    let mut binary = Client::connect_wire(&addr, Wire::Binary).unwrap();
    assert_eq!(json.wire(), Wire::Json);
    assert_eq!(binary.wire(), Wire::Binary);
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for (model, reference) in [("ffdnet_real", &ffd), ("vdsr_rh4", &vdsr)] {
        for seed in 0..3u64 {
            let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 7000 + seed);
            let j = json.infer(model, &x).expect("json infer");
            let b = binary.infer(model, &x).expect("binary infer");
            assert_eq!(j.output.shape(), b.output.shape());
            assert_eq!(
                bits(j.output.as_slice()),
                bits(b.output.as_slice()),
                "binary and JSON answers must be bit-identical for {model} seed {seed}"
            );
            assert_eq!(
                bits(b.output.as_slice()),
                bits(reference.forward_infer(&x).as_slice()),
                "wire answer must match direct forward_infer for {model} seed {seed}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn binary_wire_serves_every_verb() {
    let server = Server::start(smoke_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut c = Client::connect_wire(&addr, Wire::Binary).unwrap();
    let mut infos = c.list_models().unwrap();
    infos.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(infos.len(), 2);
    assert_eq!(infos[0].name, "ffdnet_real");
    assert_eq!(infos[1].name, "vdsr_rh4");
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 21);
    assert!(c.infer("vdsr_rh4", &x).unwrap().batch_size >= 1);
    let stats = c.stats().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    let health = c.health().unwrap();
    assert!(health.healthy);
    assert_eq!(health.models, 2);
    // `shutdown` is acknowledged on the same binary connection, then
    // the server drains and stops.
    c.shutdown_server().unwrap();
    server.wait();
}

#[test]
fn binary_infer_streams_tiles_in_order_and_reassembles_exactly() {
    // 96×96 single-channel output = 9216 samples = 3 tiles of 4096:
    // tiles must arrive in offset order, cover the output exactly once,
    // and concatenate to the final reply bit-for-bit.
    let server = Server::start(smoke_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut c = Client::connect_wire(&addr, Wire::Binary).unwrap();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 96, 96), 0.0, 1.0, 31);
    let mut tiles: Vec<(usize, Vec<f32>)> = Vec::new();
    let reply = c
        .infer_streaming("vdsr_rh4", &x, Precision::Fp64, |offset, data| {
            tiles.push((offset, data.to_vec()));
        })
        .expect("streaming infer");
    assert!(
        tiles.len() > 1,
        "a {}-sample output must stream as multiple tiles, got {}",
        reply.output.shape().len(),
        tiles.len()
    );
    let mut reassembled = Vec::new();
    for (offset, data) in &tiles {
        assert_eq!(
            *offset,
            reassembled.len(),
            "tiles must arrive contiguous and in order"
        );
        reassembled.extend_from_slice(data);
    }
    assert_eq!(reassembled, reply.output.as_slice());
    server.shutdown();
}

#[test]
fn loadgen_256_binary_connections_complete_with_zero_errors() {
    // The reactor must hold 256 concurrent framed connections on one
    // event loop with zero failed requests, then drain cleanly.
    let server = Server::start(
        smoke_registry(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_batch: 16,
                max_wait: Duration::from_millis(2),
                queue_cap: 1024,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let report = ringcnn_serve::loadgen::run(&LoadgenConfig {
        addr: server.addr().to_string(),
        connections: 256,
        requests: 512,
        models: vec!["vdsr_rh4".into()],
        hw: (8, 8),
        seed: 11,
        warmup: 0,
        precision: Precision::Fp64,
        wire: Wire::Binary,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    assert_eq!(report.errors, 0, "no request may fail at 256 connections");
    assert_eq!(report.completed, 512);
    server.shutdown();
}

#[test]
fn trigger_shutdown_works_on_a_wildcard_bind() {
    // The old implementation poked the acceptor by connecting to the
    // server's own address — which is not connectable when bound to
    // `0.0.0.0`. The wakeup fd must stop the reactor promptly there,
    // and close out live connections.
    let server = Server::start(
        smoke_registry(),
        ServerConfig {
            addr: "0.0.0.0:0".into(),
            ..ServerConfig::default()
        },
    )
    .expect("bind wildcard");
    let port = server.addr().port();
    let mut c = Client::connect_wire(("127.0.0.1", port), Wire::Binary).unwrap();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 13);
    c.infer("vdsr_rh4", &x).unwrap();
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "wildcard-bound server must stop promptly via the wakeup fd"
    );
    // The drained server closed the connection; the next round trip
    // must fail rather than hang.
    assert!(c.health().is_err());
}

// --- Loadgen harness -------------------------------------------------------

#[test]
fn loadgen_round_trips_with_zero_errors() {
    let server = Server::start(
        smoke_registry(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_batch: 8,
                max_wait: Duration::from_millis(2),
                queue_cap: 256,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let report = ringcnn_serve::loadgen::run(&LoadgenConfig {
        addr: server.addr().to_string(),
        connections: 4,
        requests: 40,
        models: vec!["ffdnet_real".into(), "vdsr_rh4".into()],
        hw: (8, 8),
        seed: 5,
        warmup: 1,
        precision: Precision::Fp64,
        wire: Wire::Json,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    assert_eq!(report.errors, 0);
    assert_eq!(report.completed, 40);
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency_ms.p50 > 0.0 && report.latency_ms.p99 >= report.latency_ms.p50);
    let counts: usize = report.per_model.iter().map(|(_, n)| n).sum();
    assert_eq!(counts, 40);
    server.shutdown();
}

// --- Fleet scheduling ------------------------------------------------------

/// An identity layer that holds whichever worker runs it at two
/// barriers the test waits at too: the first says the worker is inside,
/// the second lets it go.
#[derive(Clone)]
struct Gate(Arc<[std::sync::Barrier; 2]>);

impl Layer for Gate {
    fn name(&self) -> String {
        "gate".into()
    }

    fn forward_infer(&self, input: &Tensor) -> Tensor {
        self.0[0].wait();
        self.0[1].wait();
        input.clone()
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        dout.clone()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn weighted_fair_lets_a_weighted_model_jump_a_hot_backlog() {
    // One worker, one-request batches: while a "plug" request holds the
    // worker inside a gated model, enqueue six hot-model requests and
    // then two requests for a weight-4 model, then open the gate.
    // Weighted fair scheduling must serve the weighted model ahead of
    // most of the backlog (in plain arrival order the two late arrivals
    // would drain dead last). Nothing here is timed: the worker cannot
    // leave the gate before the backlog stands, and the dequeue order is
    // read off what the service reports for each request.
    let registry = smoke_registry();
    let gate = Gate(Arc::new([2, 2].map(std::sync::Barrier::new)));
    let plug_model = Sequential::new().with(Box::new(gate.clone()));
    let real = AlgebraSpec::of(&Algebra::real());
    registry
        .register("plug", ffdnet_spec(), real, plug_model)
        .unwrap();
    let sched = Scheduler::start(
        registry,
        SchedulerConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(0),
            queue_cap: 64,
            ..SchedulerConfig::default()
        },
    )
    .expect("scheduler starts");
    sched.set_model_weight("ffdnet_real", 1);
    sched.set_model_weight("vdsr_rh4", 4);
    let frame = |seed| Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, seed);
    let plug = sched.submit("plug", frame(40), Precision::Fp64).unwrap();
    gate.0[0].wait();

    // Submission order: hot×6, cold×2, each with the instant it was
    // submitted at.
    let backlog: Vec<_> = (0..8u64)
        .map(|i| {
            let model = if i < 6 { "ffdnet_real" } else { "vdsr_rh4" };
            let (input, at) = (frame(50 + i), Instant::now());
            (at, sched.submit(model, input, Precision::Fp64).unwrap())
        })
        .collect();
    assert_eq!(sched.queue_len(), 8, "the worker is held in the plug");
    gate.0[1].wait();
    plug.wait().unwrap();

    // A request left the queue `queue_ms` after it was admitted.
    let mut dequeued: Vec<_> = backlog
        .into_iter()
        .enumerate()
        .map(|(i, (at, pending))| {
            let out = pending.wait().unwrap();
            assert!(out.queue_ms <= out.total_ms, "request {i}: {out:?}");
            (at + Duration::from_secs_f64(out.queue_ms / 1e3), i)
        })
        .collect();
    dequeued.sort();
    let order: Vec<usize> = dequeued.into_iter().map(|(_, i)| i).collect();
    // All three queues stand at the plug's virtual time; the oldest head
    // breaks the tie, then the weight-4 queue advances by 1/4 per take
    // and the hot one by 1: hot, cold, cold, hot×5.
    assert_eq!(
        order,
        [0, 6, 7, 1, 2, 3, 4, 5],
        "weighted fairness is not jumping the hot backlog"
    );
    sched.shutdown();
}

// --- Request tracing -------------------------------------------------------

#[test]
fn traced_request_yields_complete_stage_tree_and_trace_verb_round_trips() {
    use ringcnn_trace::span;
    let server = Server::start(
        smoke_registry(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 1,
                max_batch: 1,
                max_wait: Duration::from_millis(0),
                queue_cap: 64,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let prev_sample = span::sample_every();
    span::set_sample_every(1);
    span::set_slow_threshold_ms(Some(0.0));
    // Binary wire: decode/encode are memcpy-cheap, so the stage sum is
    // dominated by the same interval `total_ms` measures.
    let mut client = Client::connect_wire(&addr, Wire::Binary).unwrap();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 77);
    let reply = client.infer("ffdnet_real", &x).expect("traced infer");
    // Freeze capture before reading, so concurrently running tests in
    // this binary (sampled at 1 while the overrides were live) cannot
    // keep appending trees between the reads below.
    span::set_slow_threshold_ms(None);
    span::set_sample_every(prev_sample);

    let trees = client.trace(0).expect("trace verb");
    let tree = trees
        .iter()
        .find(|t| (t.total_ms - reply.total_ms).abs() < 1e-6)
        .unwrap_or_else(|| {
            panic!(
                "no captured tree matches total_ms {:.3} ({} trees captured)",
                reply.total_ms,
                trees.len()
            )
        });
    let root = tree
        .spans
        .iter()
        .find(|s| s.parent == 0 && s.name == "request")
        .unwrap_or_else(|| panic!("tree has no request root: {}", tree.summary()));
    let stage = |name: &str| {
        tree.spans
            .iter()
            .find(|s| s.parent == root.id && s.name == name)
            .unwrap_or_else(|| panic!("stage `{name}` missing from tree: {}", tree.summary()))
    };
    let sum_ms: f64 = ["decode", "queue_wait", "batch", "kernel", "encode"]
        .iter()
        .map(|n| stage(n).dur_us as f64 / 1e3)
        .sum();
    assert!(
        (sum_ms - tree.total_ms).abs() <= 0.10 * tree.total_ms.max(0.5),
        "stage durations ({sum_ms:.3} ms) must sum within 10% of total_ms ({:.3} ms): {}",
        tree.total_ms,
        tree.summary()
    );
    // The kernel span carries GEMM attribution (tiles executed).
    assert!(
        stage("kernel").arg0 > 0,
        "kernel span must attribute GEMM tiles: {}",
        tree.summary()
    );

    // The slow ring is frozen now, so both wires must serve the exact
    // same trees, and a bounded fetch is the newest-first prefix.
    let mut json = Client::connect(&addr).unwrap();
    let json_trees = json.trace(0).expect("json trace");
    let bin_trees = client.trace(0).expect("binary trace");
    assert_eq!(
        json_trees, bin_trees,
        "trace verb must round-trip identically over both wires"
    );
    let one = json.trace(1).unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(one[0], json_trees[0]);
    server.shutdown();
}

#[test]
fn deadline_rejection_over_both_wires() {
    let server = Server::start(smoke_registry(), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut json = Client::connect(&addr).unwrap();
    let mut binary = Client::connect_wire(&addr, Wire::Binary).unwrap();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 70);

    // No latency history yet: admission has no estimate, so even a tiny
    // budget is admitted (never reject blind) — and a microsecond then
    // runs out in the queue, which dispatch answers with the same code.
    let shed_at_dispatch = match json.infer_deadline("vdsr_rh4", &x, Precision::Fp64, 0.001) {
        Ok(_) => 0,
        Err(e) => {
            assert_eq!(e.code(), "deadline", "{e}");
            1
        }
    };
    // Seed the EWMA with a couple of completions.
    for _ in 0..2 {
        json.infer("vdsr_rh4", &x).unwrap();
    }
    // A zero budget can never be met once an estimate exists.
    assert_eq!(
        json.infer_deadline("vdsr_rh4", &x, Precision::Fp64, 0.0)
            .unwrap_err()
            .code(),
        "deadline",
        "JSON wire must reject an unmeetable budget on arrival"
    );
    assert_eq!(
        binary
            .infer_deadline("vdsr_rh4", &x, Precision::Fp64, 0.0)
            .unwrap_err()
            .code(),
        "deadline",
        "binary wire must carry the deadline flag and reject too"
    );
    // A generous budget sails through on both wires.
    json.infer_deadline("vdsr_rh4", &x, Precision::Fp64, 60_000.0)
        .expect("generous budget (json)");
    binary
        .infer_deadline("vdsr_rh4", &x, Precision::Fp64, 60_000.0)
        .expect("generous budget (binary)");

    // stats v2 accounts the sheds per model and globally.
    let snap = json.stats().unwrap();
    assert_eq!(snap.deadline_rejected, 2 + shed_at_dispatch);
    let m = snap.model("vdsr_rh4").expect("per-model stats");
    assert_eq!(m.deadline_rejected, 2 + shed_at_dispatch);
    assert!(m.ewma_ms > 0.0, "EWMA must be published");
    assert_eq!(m.version, 1);
    server.shutdown();
}
