//! The two serve workloads: an in-process `Server` (one worker, batches
//! of up to 4, 1 ms flush timer) driven over loopback TCP by two real
//! `Client` connections from this process — open loop on the binary
//! wire, closed loop on line-JSON.

use crate::frame::{psnr_db, MODEL_SEED};
use crate::host;
use crate::inputs::{self, SplitMix64};
use crate::load::{closed_loop, latencies_ms, open_loop, Sample};
use crate::metrics::{Outcome, Values};
use crate::probes;
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted};
use crate::Sizes;
use ringcnn::prelude::{Algebra, ConvBackend, Layer, RingKind};
use ringcnn::tensor::prelude::Tensor;
use ringcnn_serve::frame;
use ringcnn_serve::prelude::{
    AlgebraSpec, Client, ModelRegistry, ModelSpec, Precision, Request, Response, SchedulerConfig,
    Server, ServerConfig, StatsSnapshot, Wire,
};
use ringcnn_trace::span;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load comes from this one process, over this many connections.
const CONNECTIONS: usize = 2;
/// Open-loop arrivals per second and connection: 120 req/s offered in
/// all, about 40 % of what the closed loop sustains on the reference
/// host. Queueing multiplies every slowdown of the host, so the rate
/// stays well below capacity even in its slow phases.
const OPEN_LOOP_RATE: f64 = 60.0;
/// Every `CHECK_EVERY`-th reply of a connection is compared with a
/// local inference of the same tensor.
const CHECK_EVERY: usize = 16;
/// JSON replies carry decimal floats; binary replies must be bit-exact.
const JSON_TOLERANCE: f32 = 1e-5;

struct ModelDef {
    name: &'static str,
    spec: ModelSpec,
    algebra: Algebra,
}

pub struct ServeWorkload {
    pub name: &'static str,
    wire: Wire,
    /// Open loop at this many requests per second per connection;
    /// `None` is a closed loop.
    rate_per_connection: Option<f64>,
    models: fn() -> Vec<ModelDef>,
}

/// The frame workloads' DnERNet (HD30: B3 R2 N0 w16).
const DN_ERNET: ModelSpec = ModelSpec::DnErnet {
    b: 3,
    r: 2,
    n_extra: 0,
    width: 16,
    channels_io: 1,
};

pub const SERVE_WORKLOADS: &[ServeWorkload] = &[
    ServeWorkload {
        name: "serve_open_tiles",
        wire: Wire::Binary,
        rate_per_connection: Some(OPEN_LOOP_RATE),
        models: || {
            vec![
                ModelDef {
                    name: "dn_rh4",
                    spec: DN_ERNET,
                    algebra: Algebra::with_fcw(RingKind::Rh(4)),
                },
                ModelDef {
                    name: "dn_ri4fh",
                    spec: DN_ERNET,
                    algebra: Algebra::ri_fh(4),
                },
            ]
        },
    },
    ServeWorkload {
        name: "serve_closed_json",
        wire: Wire::Json,
        rate_per_connection: None,
        models: || {
            vec![ModelDef {
                name: "ffdnet_real",
                spec: ModelSpec::Ffdnet {
                    depth: 3,
                    width: 8,
                    channels_io: 1,
                },
                algebra: Algebra::real(),
            }]
        },
    },
];

/// The running server with its connections; building it is what
/// `setup_s` times.
struct Ready {
    server: Server,
    registry: Arc<ModelRegistry>,
    models: Vec<ModelDef>,
    tiles: Vec<Tensor>,
    clients: Vec<Client>,
    control: Client,
}

fn set_up(w: &ServeWorkload, seed: u64, sizes: &Sizes) -> Ready {
    let clean = inputs::clean_frames(seed, sizes.request_hw, sizes.frames);
    let tiles = inputs::noisy(&clean, seed);
    let models = (w.models)();
    let registry = ModelRegistry::new();
    for m in &models {
        registry
            .register(
                m.name,
                m.spec,
                AlgebraSpec::of(&m.algebra),
                m.spec.build(&m.algebra, MODEL_SEED),
            )
            .expect("model names are distinct");
    }
    let registry = Arc::new(registry);
    let server = Server::start(
        registry.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 1,
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port");
    let connect = |wire| {
        Client::connect_wire_with_timeout(server.addr(), wire, Some(Duration::from_secs(30)))
            .expect("connect to the in-process server")
    };
    let clients = (0..CONNECTIONS).map(|_| connect(w.wire)).collect();
    let control = connect(Wire::Json);
    Ready {
        server,
        registry,
        models,
        tiles,
        clients,
        control,
    }
}

impl Ready {
    fn shut_down(self) {
        drop(self.clients);
        drop(self.control);
        self.server.shutdown();
    }
}

/// What a reply must equal (`local`: the registry's own entry on the
/// same tensor) and the naive-backend oracle its PSNR is taken against;
/// both indexed `[model][tile]`.
struct Expected {
    local: Vec<Vec<Tensor>>,
    naive: Vec<Vec<Tensor>>,
}

fn expected(ready: &Ready) -> Expected {
    let mut local = Vec::new();
    let mut naive = Vec::new();
    for m in &ready.models {
        let entry = ready.registry.get(m.name).expect("model was registered");
        local.push(ready.tiles.iter().map(|t| entry.infer(t)).collect());
        let algebra = m.algebra.clone().with_backend(ConvBackend::Naive);
        let mut oracle = m.spec.build(&algebra, MODEL_SEED);
        oracle.prepare_inference();
        naive.push(
            ready
                .tiles
                .iter()
                .map(|t| oracle.forward_infer(t))
                .collect(),
        );
    }
    Expected { local, naive }
}

struct Pass {
    samples: Vec<Sample>,
    wall_s: f64,
    cpu_s: f64,
    /// How many replies were checked, and their mean PSNR against the
    /// naive oracle.
    checked: u64,
    psnr: f64,
}

/// Drives every connection for `seconds`. `stream` separates the
/// seeded choices of the warm-up, measured and traced passes.
fn run_pass(
    w: &ServeWorkload,
    ready: &mut Ready,
    expected: &Expected,
    seed: u64,
    stream: u64,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Pass {
    let (models, tiles) = (&ready.models, &ready.tiles);
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let per_connection: Vec<(Vec<Sample>, u64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let conn_seed = inputs::derive(seed, 300 + 16 * stream + c as u64);
                    let mut rng = SplitMix64::new(conn_seed);
                    let (mut checked, mut psnr_sum) = (0u64, 0.0f64);
                    let mut call = |k: usize| {
                        let mi = (k + c) % models.len();
                        let ti = (rng.next_u64() % tiles.len() as u64) as usize;
                        let infer = |client: &mut Client| client.infer(models[mi].name, &tiles[ti]);
                        let reply = match rec {
                            None => infer(client),
                            Some(rec) => {
                                let op = (c * 1_000_000 + k) as u64;
                                rec.span("op", op, 0, |id| {
                                    rec.span("client_call", op, id, |_| infer(client))
                                })
                            }
                        };
                        let Ok(reply) = reply else {
                            return false;
                        };
                        let mut ok = true;
                        if k % CHECK_EVERY == 0 {
                            let want = &expected.local[mi][ti];
                            ok = reply.output.shape() == want.shape()
                                && match w.wire {
                                    Wire::Binary => reply.output.as_slice() == want.as_slice(),
                                    Wire::Json => reply
                                        .output
                                        .as_slice()
                                        .iter()
                                        .zip(want.as_slice())
                                        .all(|(a, b)| (a - b).abs() <= JSON_TOLERANCE),
                                };
                            if ok {
                                checked += 1;
                                psnr_sum += psnr_db(reply.output.mse(&expected.naive[mi][ti]));
                            }
                        }
                        ok
                    };
                    let samples = match w.rate_per_connection {
                        Some(rate) => {
                            let schedule = inputs::poisson_schedule(conn_seed, rate, seconds);
                            open_loop(&schedule, start, &mut call)
                        }
                        None => closed_loop(seconds, start, &mut call),
                    };
                    (samples, checked, psnr_sum)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });
    let cpu_s = host::cpu_seconds() - cpu0;
    let mut samples = Vec::new();
    let (mut checked, mut psnr_sum) = (0, 0.0);
    for (s, c, p) in per_connection {
        samples.extend(s);
        checked += c;
        psnr_sum += p;
    }
    Pass {
        wall_s: samples.iter().map(|s| s.done_s).fold(0.0, f64::max),
        samples,
        cpu_s,
        checked,
        psnr: psnr_sum / checked.max(1) as f64,
    }
}

fn failed(pass: &Pass) -> u64 {
    pass.samples.iter().filter(|s| !s.ok).count() as u64
}

/// The speed numbers of an untraced pass — demoted to diagnostics, see
/// `metrics::END_TO_END` — under the issue's names. `cpu_ms_per_op`
/// includes the in-process client threads.
fn set_speed(values: &mut Values, pass: &Pass) {
    let attempted = pass.samples.len() as u64;
    let ok = (attempted - failed(pass)) as f64;
    let latency = latencies_ms(&pass.samples);
    values.set("throughput_rps", ok / pass.wall_s);
    values.set("latency_p50_ms", percentile(&latency, 0.50));
    values.set("latency_p90_ms", percentile(&latency, 0.90));
    values.set("cpu_ms_per_op", pass.cpu_s * 1e3 / attempted.max(1) as f64);
    println!(
        "pass untraced wall_s={:.3} requests={attempted} latency_samples={} checked={}",
        pass.wall_s,
        latency.len(),
        pass.checked
    );
}

/// The measured pass: tracing off; the end-to-end metrics, and the
/// speed diagnostics beside them.
pub fn measure(w: &ServeWorkload, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    span::set_sample_every(0);
    let (mut ready, setup_s) =
        crate::timed_set_ups(sizes, || set_up(w, seed, sizes), Ready::shut_down);
    let expected = expected(&ready);
    let warm = sizes.warmup_share * seconds;
    run_pass(w, &mut ready, &expected, seed, 0, warm, None);
    // From here on the mark is the measured pass's own: the repeated
    // set-ups and the naive-backend oracle do not count.
    host::reset_peak_rss();
    let pass = run_pass(w, &mut ready, &expected, seed, 1, seconds, None);
    let peak_rss_mb = host::peak_rss_mib();
    ready.shut_down();

    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("oracle_psnr_db", pass.psnr);
    set_speed(&mut values, &pass);
    Outcome {
        attempted: pass.samples.len() as u64,
        failed: failed(&pass),
        values,
    }
}

/// Median duration in ms of the program's spans named `name`.
fn stage_ms(program: &[span::SpanRec], name: &str) -> f64 {
    let d: Vec<f64> = program
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_us as f64 / 1e3)
        .collect();
    median(&d)
}

/// Median wall time in µs of `calls` calls of `f`.
fn probe_us(rec: &Recorder, name: &str, calls: usize, f: impl FnMut()) -> f64 {
    probes::probe(rec, name, calls, f) * 1e3
}

/// Direct calls of both codecs on one request/response of the workload.
fn codec_probes(
    w: &ServeWorkload,
    ready: &Ready,
    expected: &Expected,
    calls: usize,
    rec: &Recorder,
    values: &mut Values,
) {
    let tile = &ready.tiles[0];
    let out = &expected.local[0][0];
    let request = Request::Infer {
        model: ready.models[0].name.into(),
        precision: Precision::Fp64,
        shape: tile.shape(),
        data: tile.as_slice().to_vec(),
        deadline_ms: None,
    };
    let response = Response::Infer {
        shape: out.shape(),
        data: out.as_slice().to_vec(),
        queue_ms: 0.25,
        total_ms: 1.5,
        batch_size: 2,
    };
    let mut buf = Vec::new();
    let us = probe_us(rec, "frame::encode_request", calls, || {
        buf.clear();
        frame::encode_request(&request, &mut buf);
    });
    values.set("serve.frame.encode_request_us", us);
    let request_frame = buf.clone();
    let us = probe_us(rec, "frame::decode_request", calls, || {
        black_box(frame::decode_request(&request_frame, usize::MAX));
    });
    values.set("serve.frame.decode_request_us", us);
    let us = probe_us(rec, "frame::encode_response", calls, || {
        buf.clear();
        frame::encode_response(&response, &mut buf);
    });
    values.set("serve.frame.encode_response_us", us);
    let response_frame_len = buf.len();

    let mut line = String::new();
    let us = probe_us(rec, "Request::to_json", calls, || {
        line = request.to_json();
    });
    values.set("serve.protocol.request_to_json_us", us);
    let us = probe_us(rec, "Request::parse", calls, || {
        black_box(Request::parse(&line).is_ok());
    });
    values.set("serve.protocol.request_parse_us", us);
    let mut reply_line = String::new();
    let us = probe_us(rec, "Response::to_json", calls, || {
        reply_line = response.to_json();
    });
    values.set("serve.protocol.response_to_json_us", us);
    values.set(
        "serve.wire.bytes_per_request",
        match w.wire {
            Wire::Binary => (request_frame.len() + response_frame_len) as f64,
            Wire::Json => (line.len() + reply_line.len() + 2) as f64,
        },
    );
}

/// The traced pass: per-layer metrics only. An untraced twin pass gives
/// the scheduler and client rows and the tracing-overhead reference.
pub fn trace(w: &ServeWorkload, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let rec = Recorder::new();
    let mut values = Values::default();
    span::set_sample_every(0);
    let mut ready = set_up(w, seed, sizes);
    let expected = expected(&ready);
    let warm = sizes.warmup_share * seconds;
    run_pass(w, &mut ready, &expected, seed, 0, warm, None);

    let stats = |ready: &mut Ready| -> StatsSnapshot {
        ready.control.stats().expect("the stats verb answers")
    };
    let before = stats(&mut ready);
    let untraced = run_pass(w, &mut ready, &expected, seed, 2, 0.5 * seconds, None);
    set_speed(&mut values, &untraced);
    let after = stats(&mut ready);
    values.set(
        "serve.scheduler.mean_batch",
        (after.completed - before.completed) as f64
            / (after.batches - before.batches).max(1) as f64,
    );
    values.set("serve.scheduler.max_batch", after.max_batch as f64);
    values.set("serve.scheduler.queue_wait_p50_ms", after.queue_wait_ms.p50);
    values.set(
        "serve.scheduler.rejected",
        (after.rejected - before.rejected) as f64,
    );

    // serve.client: how late the generator ran and whether it fell
    // further behind as the pass went on (growth > 0: the fixed rate is
    // past capacity).
    let latency = latencies_ms(&untraced.samples);
    let mut by_time = untraced.samples.clone();
    by_time.sort_by(|a, b| a.intended_s.total_cmp(&b.intended_s));
    let lag: Vec<f64> = by_time
        .iter()
        .map(|s| (s.sent_s - s.intended_s) * 1e3)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let quarter = (lag.len() / 4).clamp(1, lag.len());
    values.set(
        "serve.client.send_lag_p90_ms",
        percentile(&sorted(lag.clone()), 0.90),
    );
    values.set(
        "serve.client.backlog_growth_ms",
        mean(&lag[lag.len() - quarter..]) - mean(&lag[..quarter]),
    );
    values.set("serve.client.latency_p99_ms", percentile(&latency, 0.99));
    values.set("serve.client.latency_max_ms", percentile(&latency, 1.0));

    // The traced pass: every request sampled, the span rings pulled
    // while it runs (they hold the latest 4096 spans per thread).
    span::set_sample_every(1);
    let gemm_before = ringcnn::tensor::gemm::profile::snapshot();
    let stop = AtomicBool::new(false);
    let traced = std::thread::scope(|scope| {
        let puller = scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                rec.pull_program_spans();
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let pass = run_pass(w, &mut ready, &expected, seed, 3, 0.3 * seconds, Some(&rec));
        stop.store(true, Ordering::SeqCst);
        puller.join().expect("the span puller panicked");
        pass
    });
    span::set_sample_every(0);
    let gemm = ringcnn::tensor::gemm::profile::snapshot().delta_since(&gemm_before);

    codec_probes(w, &ready, &expected, sizes.calls, &rec, &mut values);
    // Layer probes on a local copy of the first model, at request size.
    let first = &ready.models[0];
    let mut local = first.spec.build(&first.algebra, MODEL_SEED);
    local.prepare_inference();
    probes::float_probes(
        &mut local,
        &first.algebra,
        &ready.tiles[0],
        sizes.calls,
        &rec,
        &mut values,
    );
    crate::set_loc(&mut values);
    ready.shut_down();

    let program = crate::write_trace(w.name, &rec);

    let request_ms = stage_ms(&program, "request");
    let kernel_ms = stage_ms(&program, "kernel");
    values.set("serve.decode_ms", stage_ms(&program, "decode"));
    values.set("serve.queue_wait_ms", stage_ms(&program, "queue_wait"));
    values.set("serve.batch_ms", stage_ms(&program, "batch"));
    values.set("serve.kernel_ms", kernel_ms);
    values.set("serve.encode_ms", stage_ms(&program, "encode"));
    values.set("serve.request_ms", request_ms);
    values.set("serve.kernel_share", kernel_ms / request_ms.max(1e-9));
    let traced_latency = latencies_ms(&traced.samples);
    values.set(
        "serve.unattributed_ms",
        percentile(&traced_latency, 0.50) - request_ms,
    );
    const STAGES: [&str; 6] = [
        "decode",
        "queue_wait",
        "batch",
        "kernel",
        "encode",
        "request",
    ];
    let stage_spans = program
        .iter()
        .filter(|r| STAGES.contains(&r.name.as_str()))
        .count();
    let ops = traced_latency.len().max(1) as f64;
    values.set(
        "trace.span_loss_share",
        (1.0 - stage_spans as f64 / (STAGES.len() as f64 * ops)).max(0.0),
    );
    let rate = |p: &Pass| (p.samples.len() as u64 - failed(p)) as f64 / p.wall_s;
    values.set(
        "trace.overhead_share",
        1.0 - rate(&traced) / rate(&untraced),
    );
    probes::set_gemm_counters(&mut values, &gemm, ops);

    println!(
        "pass traced requests={} untraced_twin_requests={} latency_samples={}",
        traced.samples.len(),
        untraced.samples.len(),
        latency.len()
    );
    Outcome {
        attempted: (untraced.samples.len() + traced.samples.len()) as u64,
        failed: failed(&untraced) + failed(&traced),
        values,
    }
}
