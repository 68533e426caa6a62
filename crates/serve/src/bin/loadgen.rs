//! Closed-loop load-test client for `ringcnn-serve`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7841 [--connections 4] [--requests 200]
//!         [--models a,b] [--hw 32x32] [--warmup 2] [--seed 1]
//!         [--precision fp64|quant] [--protocol json|binary]
//!         [--deadline-ms F] [--reload] [--io-timeout-ms N]
//!         [--shutdown]
//! ```
//!
//! Prints p50/p95/p99 latency, throughput, and mean batch size; exits
//! non-zero if **any** request failed (the smoke job's zero-error
//! assertion). `--models` defaults to every model the server lists.
//! `--deadline-ms F` attaches a latency budget to every request;
//! admission sheds (`deadline` code) are reported separately and do NOT
//! fail the run — that is the SLO machinery working. `--reload` forces
//! a registry hot-reload pass before the run and prints the report.
//! `--shutdown` sends the `shutdown` verb at the end so a scripted
//! server run can `wait` on a clean exit. After every run the harness
//! asserts the stats snapshot's invariants against the server (histogram
//! totals vs completion counters, published bucket edges). An argument outside
//! the list above, a flag without its value or a value that does not
//! parse exits non-zero with the usage line. Performance numbers come
//! from the repo benchmark (`crates/bench/src/bin/benchmark`), not from
//! this tool.

use ringcnn_serve::cli::{parse_flags, parsed, value};
use ringcnn_serve::client::Client;
use ringcnn_serve::loadgen::{self, LoadgenConfig};
use ringcnn_serve::protocol::Wire;
use ringcnn_serve::registry::Precision;
use ringcnn_trace::rc_error;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--connections N] [--requests N] \
     [--models a,b] [--hw HxW] [--warmup N] [--seed N] \
     [--precision fp64|quant] [--protocol json|binary] \
     [--deadline-ms F] [--reload] [--io-timeout-ms N] [--shutdown]";

const VALUED: &[&str] = &[
    "--addr",
    "--connections",
    "--requests",
    "--models",
    "--hw",
    "--warmup",
    "--seed",
    "--precision",
    "--protocol",
    "--deadline-ms",
    "--io-timeout-ms",
];
const SWITCHES: &[&str] = &["--reload", "--shutdown"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    run(&args).unwrap_or_else(|e| {
        // lint:allow(no-print): CLI usage text belongs on stderr, not
        // in the structured log stream.
        eprintln!("loadgen: {e}\n{USAGE}");
        ExitCode::FAILURE
    })
}

/// `Err` is a command-line error (reported with the usage line);
/// run-time failures log their own error and return a failure code.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, VALUED, SWITCHES)?;
    let addr = value(&flags, "--addr").ok_or("--addr HOST:PORT is required")?;
    let precision = match value(&flags, "--precision") {
        None => Precision::Fp64,
        Some(p) => Precision::parse(p).map_err(|e| format!("bad --precision: {e}"))?,
    };
    let wire = match value(&flags, "--protocol") {
        None => Wire::Json,
        Some(w) => Wire::parse(w).map_err(|e| format!("bad --protocol: {e}"))?,
    };
    let hw = {
        let s = value(&flags, "--hw").unwrap_or("32x32");
        s.split_once('x')
            .and_then(|(h, w)| Some((h.parse().ok()?, w.parse().ok()?)))
            .ok_or(format!("bad value `{s}` for --hw (want e.g. 32x32)"))?
    };

    let models: Vec<String> = match value(&flags, "--models") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => {
            // Default to everything the server serves.
            match Client::connect_retry(addr, Duration::from_secs(5))
                .and_then(|mut c| c.list_models())
            {
                Ok(infos) => infos.into_iter().map(|i| i.name).collect(),
                Err(e) => {
                    rc_error!("loadgen", "cannot list models", error = e.to_string());
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
    };

    let cfg = LoadgenConfig {
        addr: addr.to_string(),
        connections: parsed(&flags, "--connections")?.unwrap_or(4),
        requests: parsed(&flags, "--requests")?.unwrap_or(200),
        models,
        hw,
        seed: parsed(&flags, "--seed")?.unwrap_or(1),
        warmup: parsed(&flags, "--warmup")?.unwrap_or(2),
        precision,
        wire,
        // 0 disables the deadline (debugging); any other value replaces
        // the 60 s default.
        io_timeout: match parsed(&flags, "--io-timeout-ms")?.unwrap_or(60_000u64) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        deadline_ms: parsed(&flags, "--deadline-ms")?,
    };

    if value(&flags, "--reload").is_some() {
        match Client::connect_retry(addr, Duration::from_secs(5)).and_then(|mut c| c.reload()) {
            Ok(report) => println!(
                "reload: reloaded {:?}, added {:?}, {} unchanged",
                report.reloaded, report.added, report.unchanged
            ),
            Err(e) => {
                rc_error!("loadgen", "reload failed", error = e.to_string());
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    println!(
        "loadgen: {} connection(s), {} request(s), models {:?}, input {}x{}, precision {}, protocol {}",
        cfg.connections,
        cfg.requests,
        cfg.models,
        cfg.hw.0,
        cfg.hw.1,
        cfg.precision.label(),
        cfg.wire.label()
    );
    let report = match loadgen::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            rc_error!("loadgen", "run failed", error = e.to_string());
            return Ok(ExitCode::FAILURE);
        }
    };

    println!(
        "completed {} requests in {:.1} ms  ({:.1} req/s, {:.3} ms/req, mean batch {:.2})",
        report.completed,
        report.elapsed_ms,
        report.throughput_rps,
        report.ms_per_request,
        report.mean_batch
    );
    println!(
        "latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}  mean {:.3}  max {:.3}",
        report.latency_ms.p50,
        report.latency_ms.p95,
        report.latency_ms.p99,
        report.latency_ms.mean,
        report.latency_ms.max
    );
    for (model, n) in &report.per_model {
        println!("  {model}: {n} completed");
    }
    if report.deadline_rejected > 0 {
        println!(
            "deadline admission shed {} request(s) (not failures)",
            report.deadline_rejected
        );
    }
    if report.errors > 0 {
        rc_error!("loadgen", "requests failed", errors = report.errors);
    }

    if value(&flags, "--shutdown").is_some() {
        match Client::connect_retry(addr, Duration::from_secs(5))
            .and_then(|mut c| c.shutdown_server())
        {
            Ok(()) => println!("sent shutdown"),
            Err(e) => {
                rc_error!("loadgen", "shutdown failed", error = e.to_string());
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    Ok(if report.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
