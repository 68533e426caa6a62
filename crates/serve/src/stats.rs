//! Service statistics: the counters the scheduler keeps and the
//! serializable [`StatsSnapshot`] of the `stats` verb.
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
//! One owner: the counters here are plain data. Each model's
//! `ModelCounters` sit beside its queue and the global `Counters`
//! (with the latency window) in the scheduler's queue state, so every
//! update happens under the queue mutex admission and dispatch already
//! hold. `Scheduler::stats_snapshot` copies them out under one
//! acquisition — one consistent read, in which the per-model counts sum
//! to the global ones — and `Counters::snapshot` does the sorting and
//! percentile math after the lock is released, so a slow `stats`
//! consumer cannot stall admission.

use serde::{Deserialize, Serialize};

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

/// One model's counters, kept beside its queue.
#[derive(Clone, Default)]
pub(crate) struct ModelCounters {
    completed: u64,
    rejected: u64,
    deadline_rejected: u64,
    /// Total-latency EWMA, `None` until the first completion.
    pub(crate) ewma_ms: Option<f64>,
    hist: [u64; HIST_BUCKETS],
}

impl ModelCounters {
    /// Whether anything was ever counted for this model.
    pub(crate) fn is_idle(&self) -> bool {
        self.completed + self.rejected + self.deadline_rejected == 0
    }

    /// This model's row of the snapshot.
    pub(crate) fn stats(
        &self,
        name: &str,
        uptime_s: f64,
        queue_depth: usize,
        weight: u32,
        version: u64,
    ) -> ModelStats {
        ModelStats {
            name: name.to_string(),
            completed: self.completed,
            rejected: self.rejected,
            deadline_rejected: self.deadline_rejected,
            qps: self.completed as f64 / uptime_s.max(1e-9),
            ewma_ms: self.ewma_ms.unwrap_or(0.0),
            queue_depth,
            weight: u64::from(weight),
            version,
            histogram: self.hist.to_vec(),
        }
    }
}

/// The global counters and the latency window, kept in the queue state.
/// Every per-model count is recorded here and in its [`ModelCounters`]
/// by one call, so the two never disagree.
#[derive(Clone, Default)]
pub(crate) struct Counters {
    pub(crate) submitted: u64,
    completed: u64,
    rejected: u64,
    deadline_rejected: u64,
    failed: u64,
    batches: u64,
    batched_jobs: u64,
    max_batch: u64,
    /// `(queue_ms, total_ms)` of recent completions, ring-ordered.
    window: Vec<(f32, f32)>,
    next: usize,
}

impl Counters {
    /// One request refused by admission control (queue pressure).
    pub(crate) fn record_rejected(&mut self, model: &mut ModelCounters) {
        self.rejected += 1;
        model.rejected += 1;
    }

    /// One request refused for its `deadline_ms` budget: predicted blown
    /// at arrival, or run out in the queue.
    pub(crate) fn record_deadline_rejected(&mut self, model: &mut ModelCounters) {
        self.deadline_rejected += 1;
        model.deadline_rejected += 1;
    }

    /// One batch of `size` jobs handed to a model.
    pub(crate) fn record_batch(&mut self, size: usize) {
        self.batches += 1;
        self.batched_jobs += size as u64;
        self.max_batch = self.max_batch.max(size as u64);
    }

    /// One request completed successfully.
    pub(crate) fn record_completion(
        &mut self,
        model: &mut ModelCounters,
        queue_ms: f64,
        total_ms: f64,
    ) {
        self.completed += 1;
        let sample = (queue_ms as f32, total_ms as f32);
        if self.window.len() < LATENCY_WINDOW {
            self.window.push(sample);
        } else {
            self.window[self.next] = sample;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
        model.completed += 1;
        model.hist[bucket_of(total_ms)] += 1;
        model.ewma_ms = Some(match model.ewma_ms {
            Some(prev) => prev + EWMA_ALPHA * (total_ms - prev),
            None => total_ms,
        });
    }

    /// One request that failed inside the service (not a rejection).
    pub(crate) fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// The snapshot of a copy of these counters, taken under the queue
    /// lock by `Scheduler::stats_snapshot` (the one caller) together with
    /// the live `queue_depth`, the per-model rows and the registry's
    /// `(reload_passes, models_reloaded)`. Percentiles and the name sort
    /// run here, after that lock is released.
    pub(crate) fn snapshot(
        &self,
        uptime_ms: f64,
        queue_depth: usize,
        (reload_passes, models_reloaded): (u64, u64),
        mut per_model: Vec<ModelStats>,
    ) -> StatsSnapshot {
        // Name-sorted so the wire payload is deterministic (the queue
        // state's map iterates in arbitrary order).
        per_model.sort_by(|a, b| a.name.cmp(&b.name));
        let gemm = ringcnn_tensor::gemm::profile::snapshot();
        StatsSnapshot {
            kernel: ringcnn_tensor::gemm::active_kernel().label().to_string(),
            gemm_panel_packs: gemm.panel_packs,
            gemm_panel_reuses: gemm.panel_reuses,
            gemm_tiles: gemm.tiles,
            gemm_dispatches: gemm.total_dispatches(),
            uptime_ms,
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            deadline_rejected: self.deadline_rejected,
            failed: self.failed,
            batches: self.batches,
            mean_batch: if self.batches > 0 {
                self.batched_jobs as f64 / self.batches as f64
            } else {
                0.0
            },
            max_batch: self.max_batch,
            queue_depth,
            reload_passes,
            models_reloaded,
            queue_wait_ms: LatencyStats::of(self.window.iter().map(|s| f64::from(s.0))),
            latency_ms: LatencyStats::of(self.window.iter().map(|s| f64::from(s.1))),
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
    /// Jobs queued for this model at snapshot time.
    pub queue_depth: usize,
    /// Fair-scheduling weight.
    pub weight: u64,
    /// Registry publish version (bumped by hot reload; 0 once the model
    /// is no longer registered).
    pub version: u64,
    /// Completions per latency bucket, `HIST_BUCKETS` long; the last
    /// bucket is overflow. `sum(histogram) == completed` always.
    pub histogram: Vec<u64>,
}

/// Point-in-time service statistics (the `stats` verb payload), read
/// under one acquisition of the scheduler's queue lock.
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
    /// Milliseconds since the scheduler started.
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
    /// Batches that reached a model (jobs whose budget ran out in the
    /// queue are not counted; a batch of only those is no batch).
    pub batches: u64,
    /// Mean jobs per batch.
    pub mean_batch: f64,
    /// Largest batch that reached a model.
    pub max_batch: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Hot-reload passes run (`reload` verbs + polling passes).
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
        let (mut c, mut a) = (Counters::default(), ModelCounters::default());
        c.submitted = 2;
        c.record_rejected(&mut a);
        c.record_deadline_rejected(&mut a);
        c.record_batch(2);
        c.record_completion(&mut a, 0.5, 2.0);
        c.record_completion(&mut a, 1.5, 4.0);
        let s = c.snapshot(10.0, 3, (4, 5), vec![a.stats("a", 1e-2, 1, 2, 7)]);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.deadline_rejected, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_batch, 2.0);
        assert_eq!(s.max_batch, 2);
        assert_eq!(
            (s.queue_depth, s.reload_passes, s.models_reloaded),
            (3, 4, 5)
        );
        let a = s.model("a").expect("model a has stats");
        assert_eq!(a.completed, 2);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.deadline_rejected, 1);
        assert_eq!(a.qps, 200.0);
        assert_eq!((a.queue_depth, a.weight, a.version), (1, 2, 7));
        assert_eq!(a.histogram.len(), HIST_BUCKETS);
        assert_eq!(a.histogram.iter().sum::<u64>(), a.completed);
        assert_eq!(s.bucket_edges_ms.len(), HIST_BUCKETS - 1);
        assert_eq!(s.latency_ms.max, 4.0);
        assert_eq!(s.queue_wait_ms.max, 1.5);
    }

    #[test]
    fn ewma_tracks_completions_and_feeds_admission() {
        let (mut c, mut m) = (Counters::default(), ModelCounters::default());
        assert_eq!(m.ewma_ms, None);
        c.record_completion(&mut m, 0.0, 10.0);
        assert_eq!(m.ewma_ms, Some(10.0), "first sample seeds the EWMA");
        c.record_completion(&mut m, 0.0, 20.0);
        let e = m.ewma_ms.unwrap();
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
        let snap = || Counters::default().snapshot(0.0, 0, (0, 0), Vec::new());
        let a = snap();
        assert!(!a.kernel.is_empty(), "kernel label must be published");
        // The profile counters are process-wide and monotonic: a later
        // snapshot can never regress, whatever other tests are running.
        let b = snap();
        assert!(b.gemm_panel_packs >= a.gemm_panel_packs);
        assert!(b.gemm_panel_reuses >= a.gemm_panel_reuses);
        assert!(b.gemm_tiles >= a.gemm_tiles);
        assert!(b.gemm_dispatches >= a.gemm_dispatches);
    }

    #[test]
    fn per_model_snapshot_is_name_sorted_regardless_of_arrival_order() {
        let rows =
            ["zeta", "alpha", "mid"].map(|name| ModelCounters::default().stats(name, 1.0, 0, 1, 1));
        let snap = Counters::default().snapshot(0.0, 0, (0, 0), rows.to_vec());
        let names: Vec<&str> = snap.per_model.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn window_wraps_without_growing() {
        let (mut c, mut m) = (Counters::default(), ModelCounters::default());
        for i in 0..(LATENCY_WINDOW + 10) {
            c.record_completion(&mut m, 0.0, i as f64);
        }
        assert_eq!(c.window.len(), LATENCY_WINDOW);
    }
}
