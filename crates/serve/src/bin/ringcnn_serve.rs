//! The `ringcnn-serve` daemon: loads a directory of `ringcnn-model/v1`
//! files and serves them over TCP — line-JSON or the binary frame
//! protocol, negotiated per connection on its first bytes.
//!
//! ```text
//! ringcnn-serve --models <dir> [--addr 127.0.0.1:7841] [--workers 2]
//!               [--max-batch 8] [--max-wait-ms 2] [--queue-cap 256]
//!               [--model-queue-cap 0] [--weight model=N,...]
//!               [--reload-poll-ms 0]
//!               [--max-frame-mb 16] [--trace-slow-ms F] [--trace-out FILE]
//! ringcnn-serve --export-demo <dir> [--demo-seed N]
//!                                     # write two demo models (float
//!                                     # ringcnn-model/v1 + calibrated
//!                                     # ringcnn-qmodel/v1 each) and exit
//! ```
//!
//! `--reload-poll-ms N` (N > 0) starts the hot-reload watcher: changed
//! or added model files under `--models` are swapped in atomically
//! without dropping a request. A client can also force a pass with the
//! `reload` verb. `--demo-seed` varies the exported demo weights, which
//! is how the CI reload-under-load phase produces a *different* version
//! of the same models to reload into.
//!
//! `--trace-slow-ms F` traces every request (sampling forced to 1) and
//! captures the span tree of any request slower than `F` ms (0 = all),
//! served back by the `trace` verb and logged at `debug` level.
//! `--trace-out FILE` writes every recorded span as chrome://tracing
//! JSON on clean shutdown. Log verbosity comes from `RINGCNN_LOG`
//! (`error|warn|info|debug`); tracing of unconfigured servers is
//! sampled per `RINGCNN_TRACE_SAMPLE` (default every 64th request).
//!
//! An argument outside this list, a flag without its value or a value
//! that does not parse exits non-zero with the usage line — never a
//! silently applied default.
//!
//! The process runs until a client sends the `shutdown` verb, then
//! drains every admitted request and exits 0 — which is what the CI
//! smoke job asserts with `wait $PID`.

use ringcnn_nn::prelude::*;
use ringcnn_serve::cli::{parse_flags, parsed, value};
use ringcnn_serve::prelude::*;
use ringcnn_trace::span;
use ringcnn_trace::{chrome, rc_error, rc_info};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: ringcnn-serve --models <dir> [--addr A] [--workers N] \
     [--max-batch N] [--max-wait-ms F] [--queue-cap N] [--model-queue-cap N] \
     [--weight model=N,...] [--reload-poll-ms N] [--max-frame-mb N] \
     [--trace-slow-ms F] [--trace-out FILE]\n\
     \x20      ringcnn-serve --export-demo <dir> [--demo-seed N]";

/// Every flag takes a value; anything else on the command line is an
/// error.
const VALUED: &[&str] = &[
    "--models",
    "--addr",
    "--workers",
    "--max-batch",
    "--max-wait-ms",
    "--queue-cap",
    "--model-queue-cap",
    "--weight",
    "--reload-poll-ms",
    "--max-frame-mb",
    "--trace-slow-ms",
    "--trace-out",
    "--export-demo",
    "--demo-seed",
];

/// The two demo models the smoke path serves: an FFDNet denoiser over
/// the real field and a VDSR restorer over `RH4` (transform backend) —
/// two architectures, two algebras, two backends.
fn demo_models() -> Vec<(String, ModelSpec, Algebra)> {
    vec![
        (
            "ffdnet_real".into(),
            ModelSpec::Ffdnet {
                depth: 3,
                width: 8,
                channels_io: 1,
            },
            Algebra::real(),
        ),
        (
            "vdsr_rh4".into(),
            ModelSpec::Vdsr {
                depth: 3,
                width: 8,
                channels_io: 1,
            },
            Algebra::with_fcw(ringcnn_algebra::ring::RingKind::Rh(4)),
        ),
    ]
}

fn export_demo(dir: &str, seed: u64) -> Result<(), ServeError> {
    use ringcnn_quant::prelude::*;
    use ringcnn_tensor::prelude::*;
    std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
    for (i, (name, spec, alg)) in demo_models().into_iter().enumerate() {
        let mut model = spec.build(&alg, seed + i as u64);
        let file =
            ringcnn_nn::serialize::export_model(&name, spec, AlgebraSpec::of(&alg), &mut model)
                .map_err(|e| ServeError::Load(e.to_string()))?;
        let path = std::path::Path::new(dir).join(format!("{name}.json"));
        std::fs::write(&path, ringcnn_nn::serialize::model_to_json(&file))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        println!("wrote {}", path.display());

        // Calibrate the same model on a synthetic batch and export the
        // quantized pipeline beside it, so the demo directory serves
        // both precisions out of the box.
        let batch = Tensor::random_uniform(
            Shape4::new(4, spec.channels_io(), 32, 32),
            0.0,
            1.0,
            300 + i as u64,
        );
        let qfile = calibrate_to_qmodel(
            &name,
            &spec.label(),
            &alg.label(),
            &mut model,
            &batch,
            QuantOptions::default(),
        )
        .map_err(|e| ServeError::Load(e.to_string()))?;
        let qpath = std::path::Path::new(dir).join(format!("{name}.q.json"));
        std::fs::write(&qpath, qmodel_to_json(&qfile))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        println!(
            "wrote {} (calibration fp-vs-quant {:.1} dB)",
            qpath.display(),
            qfile.calibration_psnr
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    run(&args).unwrap_or_else(|e| {
        // lint:allow(no-print): CLI usage text belongs on stderr, not
        // in the structured log stream.
        eprintln!("ringcnn-serve: {e}\n{USAGE}");
        ExitCode::FAILURE
    })
}

/// `Err` is a command-line error (reported with the usage line);
/// run-time failures log their own error and return a failure code.
fn run(args: &[String]) -> Result<ExitCode, String> {
    // Refuse a typo'd RINGCNN_KERNEL before any work: the operator
    // asked for a specific GEMM backend, and silently serving with a
    // different one invalidates whatever they were measuring.
    if let Err(e) = ringcnn_tensor::gemm::validate_env_kernel() {
        rc_error!("serve", "invalid kernel selection", error = e);
        return Ok(ExitCode::FAILURE);
    }

    let flags = parse_flags(args, VALUED, &[])?;
    if let Some(dir) = value(&flags, "--export-demo") {
        let seed = parsed(&flags, "--demo-seed")?.unwrap_or(100u64);
        return Ok(match export_demo(dir, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                rc_error!("serve", "export-demo failed", error = e.to_string());
                ExitCode::FAILURE
            }
        });
    }
    let model_dir = value(&flags, "--models").ok_or("--models <dir> is required")?;

    // Tracing: either flag forces every request to be traced (sampling
    // 1); the slow threshold decides which trees the ring retains for
    // the `trace` verb.
    let trace_slow_ms: Option<f64> = parsed(&flags, "--trace-slow-ms")?;
    let trace_out = value(&flags, "--trace-out");
    if trace_slow_ms.is_some() || trace_out.is_some() {
        span::set_sample_every(1);
    }
    if let Some(thr) = trace_slow_ms {
        span::set_slow_threshold_ms(Some(thr));
    }

    let cfg = ServerConfig {
        addr: value(&flags, "--addr").unwrap_or("127.0.0.1:7841").into(),
        scheduler: SchedulerConfig {
            workers: parsed(&flags, "--workers")?.unwrap_or(2),
            max_batch: parsed(&flags, "--max-batch")?.unwrap_or(8),
            max_wait: Duration::from_secs_f64(
                parsed(&flags, "--max-wait-ms")?.unwrap_or(2.0f64).max(0.0) / 1e3,
            ),
            queue_cap: parsed(&flags, "--queue-cap")?.unwrap_or(256),
            model_queue_cap: parsed(&flags, "--model-queue-cap")?.unwrap_or(0),
            ..SchedulerConfig::default()
        },
        max_frame_bytes: parsed(&flags, "--max-frame-mb")?.unwrap_or(16usize).max(1) << 20,
        reload_poll: match parsed(&flags, "--reload-poll-ms")?.unwrap_or(0u64) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    };
    // `--weight m=4,other=1`: fair-scheduling weights by model name.
    let weights: Vec<(&str, u32)> = value(&flags, "--weight")
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|spec| {
            spec.split_once('=')
                .and_then(|(name, w)| Some((name.trim(), w.trim().parse().ok()?)))
                .ok_or(format!("bad value `{spec}` for --weight (want model=N)"))
        })
        .collect::<Result<_, _>>()?;

    let registry = ModelRegistry::new();
    match registry.load_dir(std::path::Path::new(model_dir)) {
        Ok(names) if !names.is_empty() => {
            for e in registry.entries() {
                let t = e.topo();
                rc_info!(
                    "serve",
                    "loaded model",
                    name = e.name(),
                    arch = e.spec().label(),
                    algebra = e.algebra().label(),
                    backend = e.algebra().algebra().conv_backend().label(),
                    radius = t.radius,
                    granularity = t.granularity,
                    params = e.num_params(),
                    quant_psnr = e.quant_psnr(),
                );
            }
        }
        Ok(_) => {
            rc_error!("serve", "no model files", dir = model_dir);
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => {
            rc_error!("serve", "model load failed", error = e.to_string());
            return Ok(ExitCode::FAILURE);
        }
    }

    let server = match Server::start(Arc::new(registry), cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            rc_error!("serve", "start failed", error = e.to_string());
            return Ok(ExitCode::FAILURE);
        }
    };
    for (name, w) in weights {
        server.scheduler().set_model_weight(name, w);
    }
    rc_info!(
        "serve",
        "listening",
        addr = server.addr(),
        workers = cfg.scheduler.workers,
        max_batch = cfg.scheduler.max_batch,
        max_wait = cfg.scheduler.max_wait,
        queue_cap = cfg.scheduler.queue_cap,
        reload_poll = cfg.reload_poll,
        pool_threads = ringcnn_nn::runtime::num_threads(),
        kernel = ringcnn_tensor::gemm::active_kernel().label(),
        trace_slow_ms = trace_slow_ms,
        sample_every = span::sample_every(),
    );

    // Runs until a client sends `shutdown`; then drains and exits.
    server.wait();
    if let Some(path) = trace_out {
        match chrome::export(std::path::Path::new(path)) {
            Ok(()) => rc_info!("serve", "wrote chrome trace", path = path),
            Err(e) => rc_error!(
                "serve",
                "chrome trace export failed",
                path = path,
                error = e.to_string(),
            ),
        }
    }
    rc_info!("serve", "drained and stopped");
    Ok(ExitCode::SUCCESS)
}
