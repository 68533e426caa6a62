//! Closed-loop load generator: N connections, each issuing its next
//! request as soon as the previous one completes — the harness behind
//! the `loadgen` bin and the serve smoke tests. After every run it
//! asserts the server's `stats` invariants.
//!
//! Closed-loop is the right shape for measuring a batching scheduler:
//! offered concurrency equals the connection count, so comparing
//! `connections = 1` against `connections = K` isolates exactly what
//! micro-batching buys (per-request time should *drop* as batches form).

use crate::client::Client;
use crate::error::ServeError;
use crate::lock_unpoisoned;
use crate::protocol::Wire;
use crate::registry::Precision;
use crate::stats::{LatencyStats, ModelStats};
use ringcnn_tensor::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load-run knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7841`.
    pub addr: String,
    /// Concurrent connections (the offered concurrency).
    pub connections: usize,
    /// Total measured requests across all connections.
    pub requests: usize,
    /// Models to round-robin over (must be non-empty).
    pub models: Vec<String>,
    /// Input height/width (channels come from each model's
    /// `channels_io`; batch is 1 per request).
    pub hw: (usize, usize),
    /// RNG seed for the request tensors.
    pub seed: u64,
    /// Per-connection warm-up requests excluded from the measurement.
    pub warmup: usize,
    /// Execution precision every request asks for ([`Precision::Fp64`]
    /// by default; `Quant` measures the integer pipeline).
    pub precision: Precision,
    /// Wire protocol every connection speaks ([`Wire::Json`] by
    /// default; [`Wire::Binary`] measures the framed f32 path).
    pub wire: Wire,
    /// Read/write deadline applied to every connection (probe included).
    /// `Some` by default: a wedged server fails requests with
    /// [`ServeError::Timeout`] instead of hanging the whole run forever.
    /// `None` disables the deadline (not recommended outside debugging).
    pub io_timeout: Option<Duration>,
    /// When set, every request carries this `deadline_ms` budget, and
    /// admission rejections with the `deadline` code are counted in
    /// [`LoadgenReport::deadline_rejected`] instead of
    /// [`LoadgenReport::errors`] — shed load is the feature working,
    /// not a failure.
    pub deadline_ms: Option<f64>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 4,
            requests: 200,
            models: Vec::new(),
            hw: (32, 32),
            seed: 1,
            warmup: 2,
            precision: Precision::Fp64,
            wire: Wire::Json,
            io_timeout: Some(Duration::from_secs(60)),
            deadline_ms: None,
        }
    }
}

/// What a load run observed.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Measured requests completed successfully.
    pub completed: usize,
    /// Requests that failed (any error, including `overloaded`).
    pub errors: usize,
    /// Requests shed by deadline-aware admission (the `deadline` wire
    /// code) — counted separately from `errors` because rejecting work
    /// that cannot meet its budget is the intended behavior.
    pub deadline_rejected: usize,
    /// Wall-clock of the measured phase, milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Mean milliseconds per request (`elapsed / completed`).
    pub ms_per_request: f64,
    /// Client-observed latency distribution.
    pub latency_ms: LatencyStats,
    /// Mean server-reported batch size over the measured requests.
    pub mean_batch: f64,
    /// Per-model completed counts, in `models` order.
    pub per_model: Vec<(String, usize)>,
}

/// Runs a closed-loop load phase.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on an empty model list, or the first
/// connection failure. Individual request failures do NOT abort the
/// run — they are counted in [`LoadgenReport::errors`].
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    if cfg.models.is_empty() {
        return Err(ServeError::BadRequest(
            "loadgen needs at least one model".into(),
        ));
    }
    let channels: Vec<usize> = {
        // One probe connection discovers each model's channel count.
        let mut probe = Client::connect_retry(&cfg.addr, Duration::from_secs(5))?;
        probe.set_io_timeout(cfg.io_timeout)?;
        let infos = probe.list_models()?;
        cfg.models
            .iter()
            .map(|m| {
                infos
                    .iter()
                    .find(|i| &i.name == m)
                    .map(|i| i.channels_io)
                    .ok_or_else(|| ServeError::UnknownModel(m.clone()))
            })
            .collect::<Result<_, _>>()?
    };

    let connections = cfg.connections.max(1);
    let per_conn = cfg.requests.div_ceil(connections);
    let next_model = Arc::new(AtomicUsize::new(0));
    let results: Arc<Mutex<Vec<ConnResult>>> = Arc::default();
    std::thread::scope(|scope| -> Result<(), ServeError> {
        let mut handles = Vec::new();
        for conn_id in 0..connections {
            let cfg = &*cfg;
            let channels = &channels;
            let next_model = next_model.clone();
            let results = results.clone();
            handles.push(scope.spawn(move || -> Result<(), ServeError> {
                let mut client =
                    Client::connect_retry_wire(&cfg.addr, Duration::from_secs(5), cfg.wire)?;
                client.set_io_timeout(cfg.io_timeout)?;
                let mut r = ConnResult::new(cfg.models.len());
                for i in 0..(cfg.warmup + per_conn) {
                    if i == cfg.warmup {
                        // The measured window starts after this
                        // connection's warm-up; aggregation spans
                        // min(start)..max(end) across connections so
                        // warm-up wall time never pollutes
                        // `ms_per_request`.
                        r.measure_start = Some(Instant::now());
                    }
                    // ordering: round-robin pick — only the modulo
                    // distribution across connections matters.
                    let midx = next_model.fetch_add(1, Ordering::Relaxed) % cfg.models.len();
                    let model = &cfg.models[midx];
                    let x = Tensor::random_uniform(
                        Shape4::new(1, channels[midx], cfg.hw.0, cfg.hw.1),
                        0.0,
                        1.0,
                        cfg.seed
                            .wrapping_add(conn_id as u64 * 10_007)
                            .wrapping_add(i as u64),
                    );
                    let t0 = Instant::now();
                    let measured = i >= cfg.warmup;
                    let reply = match cfg.deadline_ms {
                        Some(d) => client.infer_deadline(model, &x, cfg.precision, d),
                        None => client.infer_with(model, &x, cfg.precision),
                    };
                    match reply {
                        Ok(reply) => {
                            if measured {
                                r.latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                                r.batch_sum += reply.batch_size as f64;
                                r.per_model[midx] += 1;
                            }
                        }
                        Err(ServeError::Deadline { .. }) if measured => r.deadline_rejected += 1,
                        Err(_) if measured => r.errors += 1,
                        Err(_) => {}
                    }
                }
                r.measure_end = Some(Instant::now());
                lock_unpoisoned(results.lock()).push(r);
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| ServeError::Internal("loadgen thread panicked".into()))??;
        }
        Ok(())
    })?;

    let results = lock_unpoisoned(results.lock());
    let mut latencies = Vec::new();
    let mut errors = 0;
    let mut deadline_rejected = 0;
    let mut batch_sum = 0.0;
    let mut per_model = vec![0usize; cfg.models.len()];
    let mut window: Option<(Instant, Instant)> = None;
    for r in results.iter() {
        latencies.extend_from_slice(&r.latencies);
        errors += r.errors;
        deadline_rejected += r.deadline_rejected;
        batch_sum += r.batch_sum;
        for (acc, n) in per_model.iter_mut().zip(&r.per_model) {
            *acc += n;
        }
        if let (Some(s), Some(e)) = (r.measure_start, r.measure_end) {
            window = Some(match window {
                None => (s, e),
                Some((ws, we)) => (ws.min(s), we.max(e)),
            });
        }
    }
    let elapsed_ms = window
        .map(|(s, e)| e.duration_since(s).as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let completed = latencies.len();
    assert_stats_invariants(cfg)?;
    Ok(LoadgenReport {
        completed,
        errors,
        deadline_rejected,
        elapsed_ms,
        throughput_rps: completed as f64 / (elapsed_ms / 1e3).max(1e-9),
        ms_per_request: if completed > 0 {
            elapsed_ms / completed as f64
        } else {
            f64::INFINITY
        },
        latency_ms: LatencyStats::of(latencies.into_iter()),
        mean_batch: if completed > 0 {
            batch_sum / completed as f64
        } else {
            0.0
        },
        per_model: cfg.models.iter().cloned().zip(per_model).collect(),
    })
}

/// Post-run stats-snapshot sanity: the server's own accounting must be
/// internally consistent with what this run (and any prior traffic)
/// observed (per-model counts summing to the global ones, histogram
/// totals, bucket layout). Asserted, not returned: a violation is a
/// server bug, and CI catches a server whose accounting drifts from its
/// responses.
///
/// # Errors
///
/// Transport failures fetching the snapshot.
fn assert_stats_invariants(cfg: &LoadgenConfig) -> Result<(), ServeError> {
    let mut probe = Client::connect_retry_wire(&cfg.addr, Duration::from_secs(5), cfg.wire)?;
    probe.set_io_timeout(cfg.io_timeout)?;
    let snap = probe.stats()?;
    assert_eq!(
        snap.bucket_edges_ms.len(),
        crate::stats::HIST_BUCKETS - 1,
        "the stats snapshot must publish the histogram bucket edges"
    );
    for m in &snap.per_model {
        assert_eq!(
            m.histogram.len(),
            crate::stats::HIST_BUCKETS,
            "model {}: histogram bucket count",
            m.name
        );
        let hist_total: u64 = m.histogram.iter().sum();
        assert_eq!(
            hist_total, m.completed,
            "model {}: histogram totals must equal completed requests",
            m.name
        );
        assert!(
            m.version >= 1,
            "model {}: registered models have version >= 1",
            m.name
        );
    }
    let sum = |count: fn(&ModelStats) -> u64| snap.per_model.iter().map(count).sum::<u64>();
    assert_eq!(
        [
            sum(|m| m.completed),
            sum(|m| m.rejected),
            sum(|m| m.deadline_rejected)
        ],
        [snap.completed, snap.rejected, snap.deadline_rejected],
        "per-model completed, rejected and deadline_rejected must sum to the global counters"
    );
    Ok(())
}

struct ConnResult {
    latencies: Vec<f64>,
    errors: usize,
    deadline_rejected: usize,
    batch_sum: f64,
    per_model: Vec<usize>,
    /// When this connection entered its measured phase (post-warm-up).
    measure_start: Option<Instant>,
    /// When this connection finished its last request.
    measure_end: Option<Instant>,
}

impl ConnResult {
    fn new(models: usize) -> Self {
        Self {
            latencies: Vec::new(),
            errors: 0,
            deadline_rejected: 0,
            batch_sum: 0.0,
            per_model: vec![0; models],
            measure_start: None,
            measure_end: None,
        }
    }
}
