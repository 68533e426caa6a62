//! Service metrics: lock-light counters updated on the hot path and a
//! serializable [`StatsSnapshot`] for the `stats` verb.
//!
//! Two complementary latency views coexist in the stats snapshot:
//!
//! * a fixed-capacity ring of the most recent completions (a sliding
//!   window, not an all-time record) feeding the global percentiles, so
//!   `stats` reflects *current* behavior even on a long-lived server;
//! * per-model **log-spaced histograms** ([`latency_bucket_edges_ms`])
//!   accumulated since startup, so tail shifts survive the window and
//!   two snapshots can be subtracted to get an interval distribution.
//!
//! Per-model state also carries a total-latency EWMA that the scheduler
//! reads for deadline-aware admission, and rejection counters split by
//! cause (queue overload vs. blown `deadline_ms` budget).
//!
//! The snapshot also has a kernel-profiling view: the runtime-selected
//! GEMM kernel label plus the process-wide [`ringcnn_tensor::gemm::profile`]
//! counters (panel packs, L1-hot panel reuses, register tiles executed,
//! blocked-kernel dispatches), so two snapshots subtract to an
//! interval's worth of kernel work.
//!
//! Snapshot discipline: [`Metrics::snapshot`] copies raw data out under
//! each internal lock and does all sorting/percentile math *after*
//! dropping it, so a caller serializing a large snapshot can never
//! stall the admission path that shares these locks.

use crate::lock_unpoisoned;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Completions kept for the latency window.
const LATENCY_WINDOW: usize = 4096;

/// Buckets per latency histogram (the last one is the overflow bucket).
pub const HIST_BUCKETS: usize = 24;

/// Smoothing factor of the per-model latency EWMA the deadline
/// admission check consults (≈ the last ~10 completions dominate).
const EWMA_ALPHA: f64 = 0.2;

/// Upper-inclusive edges (milliseconds) of the log-spaced latency
/// histogram buckets: `0.0625 · 2^i` for `i = 0..HIST_BUCKETS-1`
/// (62.5 µs up to ~262 s); a sample above the last edge lands in the
/// final overflow bucket. Fixed at compile time so histograms from any
/// two servers (or snapshots) are directly comparable.
pub fn latency_bucket_edges_ms() -> Vec<f64> {
    (0..HIST_BUCKETS - 1)
        .map(|i| 0.0625 * f64::powi(2.0, i as i32))
        .collect()
}

/// Histogram bucket index of a total-latency sample.
fn bucket_of(ms: f64) -> usize {
    // Equivalent to a log2 search over `latency_bucket_edges_ms`, but
    // branch-cheap on the completion hot path.
    let mut edge = 0.0625;
    for i in 0..HIST_BUCKETS - 1 {
        if ms <= edge {
            return i;
        }
        edge *= 2.0;
    }
    HIST_BUCKETS - 1
}

/// Per-model counters, all updated under one short-held mutex.
#[derive(Clone)]
struct ModelMetrics {
    completed: u64,
    rejected: u64,
    deadline_rejected: u64,
    /// Total-latency EWMA, `None` until the first completion.
    ewma_ms: Option<f64>,
    hist: [u64; HIST_BUCKETS],
}

impl Default for ModelMetrics {
    fn default() -> Self {
        Self {
            completed: 0,
            rejected: 0,
            deadline_rejected: 0,
            ewma_ms: None,
            hist: [0; HIST_BUCKETS],
        }
    }
}

/// Shared, interior-mutable service counters.
pub struct Metrics {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_rejected: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    max_batch: AtomicU64,
    queue_depth: AtomicUsize,
    window: Mutex<Window>,
    /// Per-model counters keyed by name — O(1) on the completion hot
    /// path regardless of how many models are registered.
    per_model: Mutex<HashMap<String, ModelMetrics>>,
}

struct Window {
    /// `(queue_ms, total_ms)` of recent completions, ring-ordered.
    samples: Vec<(f32, f32)>,
    next: usize,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            window: Mutex::new(Window {
                samples: Vec::new(),
                next: 0,
            }),
            per_model: Mutex::new(HashMap::new()),
        }
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// One request admitted into the queue (depth after the push).
    pub fn record_submit(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// One request refused by admission control (queue pressure).
    /// `model` is `None` when rejection happened before the model was
    /// resolved (e.g. a global shutting-down refusal).
    pub fn record_rejected(&self, model: Option<&str>) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(model) = model {
            lock_unpoisoned(self.per_model.lock())
                .entry(model.into())
                .or_default()
                .rejected += 1;
        }
    }

    /// One request refused because its `deadline_ms` budget was already
    /// predicted blown at arrival.
    pub fn record_deadline_rejected(&self, model: &str) {
        self.deadline_rejected.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(self.per_model.lock())
            .entry(model.into())
            .or_default()
            .deadline_rejected += 1;
    }

    /// One batch dispatched to the pool (queue depth after the take).
    pub fn record_batch(&self, size: usize, depth: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// One request completed successfully.
    pub fn record_completion(&self, model: &str, queue_ms: f64, total_ms: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        {
            let mut w = lock_unpoisoned(self.window.lock());
            let sample = (queue_ms as f32, total_ms as f32);
            if w.samples.len() < LATENCY_WINDOW {
                w.samples.push(sample);
            } else {
                let i = w.next;
                w.samples[i] = sample;
            }
            w.next = (w.next + 1) % LATENCY_WINDOW;
        }
        let mut pm = lock_unpoisoned(self.per_model.lock());
        let m = pm.entry(model.into()).or_default();
        m.completed += 1;
        m.hist[bucket_of(total_ms)] += 1;
        m.ewma_ms = Some(match m.ewma_ms {
            Some(prev) => prev + EWMA_ALPHA * (total_ms - prev),
            None => total_ms,
        });
    }

    /// One request that failed inside the service (not a rejection).
    pub fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Current queue depth as last observed by the scheduler.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The model's total-latency EWMA, if it has completed anything yet
    /// (what deadline-aware admission consults).
    pub fn ewma_ms(&self, model: &str) -> Option<f64> {
        lock_unpoisoned(self.per_model.lock())
            .get(model)
            .and_then(|m| m.ewma_ms)
    }

    /// A consistent-enough point-in-time snapshot.
    ///
    /// Raw samples and per-model maps are *copied out* under their
    /// locks; sorting, percentiles, and QPS math all run after the
    /// locks drop, so a slow `stats` consumer cannot stall the
    /// admission/completion paths that share them. Scheduler-owned
    /// fields (live per-model queue depth, weight, registry version,
    /// reload counters) are zero here and filled in by
    /// `Scheduler::stats_snapshot`.
    pub fn snapshot(&self) -> StatsSnapshot {
        // Copy the window out, then compute percentiles lock-free.
        let samples: Vec<(f32, f32)> = {
            let w = lock_unpoisoned(self.window.lock());
            w.samples.clone()
        };
        let queue_wait_ms = LatencyStats::of(samples.iter().map(|s| f64::from(s.0)));
        let latency_ms = LatencyStats::of(samples.iter().map(|s| f64::from(s.1)));
        let per_model_raw: Vec<(String, ModelMetrics)> = {
            let pm = lock_unpoisoned(self.per_model.lock());
            pm.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let uptime_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let uptime_s = (uptime_ms / 1e3).max(1e-9);
        // Name-sorted so the wire payload is deterministic (a HashMap
        // iterates in arbitrary order).
        let mut per_model: Vec<ModelStats> = per_model_raw
            .into_iter()
            .map(|(name, m)| ModelStats {
                name,
                completed: m.completed,
                rejected: m.rejected,
                deadline_rejected: m.deadline_rejected,
                qps: m.completed as f64 / uptime_s,
                ewma_ms: m.ewma_ms.unwrap_or(0.0),
                queue_depth: 0,
                weight: 0,
                version: 0,
                histogram: m.hist.to_vec(),
            })
            .collect();
        per_model.sort_by(|a, b| a.name.cmp(&b.name));
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_jobs = self.batched_jobs.load(Ordering::Relaxed);
        let gemm = ringcnn_tensor::gemm::profile::snapshot();
        StatsSnapshot {
            kernel: ringcnn_tensor::gemm::active_kernel().label().to_string(),
            gemm_panel_packs: gemm.panel_packs,
            gemm_panel_reuses: gemm.panel_reuses,
            gemm_tiles: gemm.tiles,
            gemm_dispatches: gemm.total_dispatches(),
            uptime_ms,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_rejected: self.deadline_rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches > 0 {
                batched_jobs as f64 / batches as f64
            } else {
                0.0
            },
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            reload_passes: 0,
            models_reloaded: 0,
            queue_wait_ms,
            latency_ms,
            bucket_edges_ms: latency_bucket_edges_ms(),
            per_model,
        }
    }
}

/// Latency distribution over the sliding window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// Computes the stats of a sample set (zeros when empty).
    ///
    /// Percentiles use the nearest-rank definition: the p-th percentile
    /// is the smallest sample with at least `p·n` samples at or below
    /// it, i.e. index `ceil(p·n) - 1` of the sorted vector. (The old
    /// `((n-1)·p).round()` interpolation-index rounded *up* through the
    /// `.round()` at every half step, reporting one rank high — p50 of
    /// `1..=100` came back 51 instead of 50.)
    pub fn of(samples: impl Iterator<Item = f64>) -> LatencyStats {
        let mut v: Vec<f64> = samples.collect();
        if v.is_empty() {
            return LatencyStats::default();
        }
        v.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            let rank = (p * v.len() as f64).ceil() as usize;
            v[rank.clamp(1, v.len()) - 1]
        };
        LatencyStats {
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            max: *v.last().unwrap(),
        }
    }
}

/// Per-model statistics of the stats snapshot: rates, rejections, admission
/// EWMA, live queue depth, published version, and an all-time
/// log-spaced latency histogram whose bucket edges are
/// `StatsSnapshot::bucket_edges_ms`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Requests completed.
    pub completed: u64,
    /// Requests refused by queue-pressure admission control.
    pub rejected: u64,
    /// Requests refused because their `deadline_ms` was predicted blown.
    pub deadline_rejected: u64,
    /// Completions per second of uptime.
    pub qps: f64,
    /// Total-latency EWMA (ms) consulted by deadline admission;
    /// 0 until the first completion.
    pub ewma_ms: f64,
    /// Jobs currently queued for this model (live, scheduler-filled).
    pub queue_depth: usize,
    /// Fair-scheduling weight (scheduler-filled).
    pub weight: u64,
    /// Registry publish version (bumped by hot reload; scheduler-filled).
    pub version: u64,
    /// Completions per latency bucket, `HIST_BUCKETS` long; the last
    /// bucket is overflow. `sum(histogram) == completed` always.
    pub histogram: Vec<u64>,
}

/// Point-in-time service statistics (the `stats` verb payload).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Runtime-selected GEMM kernel label (`RINGCNN_KERNEL` honored).
    pub kernel: String,
    /// GEMM B-panel packs since process start.
    pub gemm_panel_packs: u64,
    /// GEMM L1-hot panel reuses since process start (a packed panel
    /// revisited by another row-block without repacking).
    pub gemm_panel_reuses: u64,
    /// GEMM register tiles executed since process start.
    pub gemm_tiles: u64,
    /// GEMM products dispatched to a blocked kernel since process start.
    pub gemm_dispatches: u64,
    /// Milliseconds since the metrics were created.
    pub uptime_ms: f64,
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests refused by queue-pressure admission control.
    pub rejected: u64,
    /// Requests refused at arrival for a blown `deadline_ms` budget.
    pub deadline_rejected: u64,
    /// Requests failed inside the service.
    pub failed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean jobs per batch.
    pub mean_batch: f64,
    /// Largest batch dispatched.
    pub max_batch: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Hot-reload passes run (forced `reload` verb + poll watcher).
    pub reload_passes: u64,
    /// Model versions published by reload passes (added + reloaded).
    pub models_reloaded: u64,
    /// Queue-wait distribution (admission → batch dispatch).
    pub queue_wait_ms: LatencyStats,
    /// Total-latency distribution (admission → completion).
    pub latency_ms: LatencyStats,
    /// Upper-inclusive edges (ms) of the per-model histogram buckets;
    /// `per_model[i].histogram` has one more entry (the overflow bucket).
    pub bucket_edges_ms: Vec<f64>,
    /// Per-model statistics, name-sorted.
    pub per_model: Vec<ModelStats>,
}

impl StatsSnapshot {
    /// The stats of one model, if it has any recorded activity.
    pub fn model(&self, name: &str) -> Option<&ModelStats> {
        self.per_model.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_on_even_windows() {
        // 100 samples: p50 = the 50th smallest = 50, NOT 51 (the old
        // rounding bias).
        let s = LatencyStats::of((1..=100).map(f64::from));
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);

        // 4 samples: ceil(0.5·4) = 2nd smallest.
        let s = LatencyStats::of((1..=4).map(f64::from));
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0); // ceil(0.95·4) = 4th
        assert_eq!(s.p99, 4.0);

        assert_eq!(
            LatencyStats::of(std::iter::empty()),
            LatencyStats::default()
        );
    }

    #[test]
    fn percentiles_are_nearest_rank_on_odd_windows() {
        // 5 samples: ceil(0.5·5) = 3rd smallest — the true median.
        let s = LatencyStats::of((1..=5).map(f64::from));
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 5.0); // ceil(0.95·5) = ceil(4.75) = 5th
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.max, 5.0);

        // 101 samples: p50 = 51st smallest = 51 (both definitions agree
        // on odd windows; pins that the fix didn't skew these).
        let s = LatencyStats::of((1..=101).map(f64::from));
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p95, 96.0); // ceil(0.95·101) = ceil(95.95) = 96th
        assert_eq!(s.p99, 100.0); // ceil(0.99·101) = ceil(99.99) = 100th

        // A single sample is every percentile.
        let s = LatencyStats::of(std::iter::once(7.0));
        assert_eq!((s.p50, s.p95, s.p99, s.max), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let m = Metrics::new();
        m.record_submit(1);
        m.record_submit(2);
        m.record_rejected(Some("a"));
        m.record_deadline_rejected("a");
        m.record_batch(2, 0);
        m.record_completion("a", 0.5, 2.0);
        m.record_completion("a", 1.5, 4.0);
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.deadline_rejected, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_batch, 2.0);
        assert_eq!(s.max_batch, 2);
        let a = s.model("a").expect("model a has stats");
        assert_eq!(a.completed, 2);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.deadline_rejected, 1);
        assert!(a.qps > 0.0);
        assert_eq!(a.histogram.len(), HIST_BUCKETS);
        assert_eq!(a.histogram.iter().sum::<u64>(), a.completed);
        assert_eq!(s.bucket_edges_ms.len(), HIST_BUCKETS - 1);
        assert_eq!(s.latency_ms.max, 4.0);
        assert_eq!(s.queue_wait_ms.max, 1.5);
        // Snapshot serializes for the wire.
        let json = serde_json::to_string(&s).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.submitted, 2);
        assert_eq!(back.model("a").unwrap().histogram, a.histogram);
    }

    #[test]
    fn ewma_tracks_completions_and_feeds_admission() {
        let m = Metrics::new();
        assert_eq!(m.ewma_ms("a"), None);
        m.record_completion("a", 0.0, 10.0);
        assert_eq!(m.ewma_ms("a"), Some(10.0), "first sample seeds the EWMA");
        m.record_completion("a", 0.0, 20.0);
        let e = m.ewma_ms("a").unwrap();
        assert!((e - 12.0).abs() < 1e-12, "10 + 0.2·(20-10) = 12, got {e}");
    }

    #[test]
    fn histogram_buckets_are_log_spaced_with_overflow() {
        let edges = latency_bucket_edges_ms();
        assert_eq!(edges.len(), HIST_BUCKETS - 1);
        assert_eq!(edges[0], 0.0625);
        for w in edges.windows(2) {
            assert_eq!(w[1], w[0] * 2.0, "log-2 spacing");
        }
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.0625), 0);
        assert_eq!(bucket_of(0.07), 1);
        assert_eq!(bucket_of(1.0), 4); // 0.0625·2^4 = 1.0, inclusive edge
        assert_eq!(bucket_of(f64::MAX), HIST_BUCKETS - 1);
        // Every edge maps onto its own bucket (inclusive upper bound).
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(bucket_of(*e), i);
        }
    }

    #[test]
    fn snapshot_reports_kernel_and_monotonic_gemm_counters() {
        let a = Metrics::new().snapshot();
        assert!(!a.kernel.is_empty(), "kernel label must be published");
        // The profile counters are process-wide and monotonic: a later
        // snapshot can never regress, whatever other tests are running.
        let b = Metrics::new().snapshot();
        assert!(b.gemm_panel_packs >= a.gemm_panel_packs);
        assert!(b.gemm_panel_reuses >= a.gemm_panel_reuses);
        assert!(b.gemm_tiles >= a.gemm_tiles);
        assert!(b.gemm_dispatches >= a.gemm_dispatches);
    }

    #[test]
    fn per_model_snapshot_is_name_sorted_regardless_of_arrival_order() {
        let m = Metrics::new();
        for model in ["zeta", "alpha", "zeta", "mid"] {
            m.record_completion(model, 0.0, 1.0);
        }
        let snap = m.snapshot();
        let names: Vec<&str> = snap.per_model.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn window_wraps_without_growing() {
        let m = Metrics::new();
        for i in 0..(LATENCY_WINDOW + 10) {
            m.record_completion("m", 0.0, i as f64);
        }
        let w = m.window.lock().unwrap();
        assert_eq!(w.samples.len(), LATENCY_WINDOW);
    }
}
