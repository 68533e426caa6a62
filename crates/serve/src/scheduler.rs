//! The dynamic micro-batching scheduler: bounded per-model queues,
//! weighted fair batch selection, deadline-aware admission, and worker
//! threads that fan each batch out across the shared thread pool.
//!
//! # Batching policy
//!
//! Requests join the queue of their model. A model group is
//! *flush-ready* once [`SchedulerConfig::max_batch`] requests are
//! waiting or its oldest request has waited
//! [`SchedulerConfig::max_wait`]. Until some group is ready, workers
//! sleep on the queue's condition variable with a deadline at the
//! earliest flush time — so a lone request never waits longer than
//! `max_wait`, and a burst coalesces into one batch that amortizes
//! per-dispatch overhead and keeps every pool thread busy (one
//! `forward_infer` task per request over the one prepared model).
//!
//! # Fair scheduling
//!
//! Among flush-ready groups a worker picks the one with the smallest
//! *virtual time*: each dispatch advances the group's clock by
//! `batch_len / weight`, so over time every model receives service
//! proportional to its weight ([`Scheduler::set_model_weight`]) and a
//! single hot model cannot starve a cold one — the cold model's clock
//! lags, so its next ready batch preempts the hot queue. A group that
//! was idle is capped to the global virtual clock when it becomes busy
//! again (no banking "credit" while idle). Groups whose clocks are
//! equal dispatch in arrival order of their oldest request.
//!
//! # Admission control
//!
//! The queue is bounded globally ([`SchedulerConfig::queue_cap`]) and
//! optionally per model ([`SchedulerConfig::model_queue_cap`]): when
//! either bound is hit, [`Scheduler::submit`] returns
//! [`ServeError::Overloaded`] *immediately* instead of queueing
//! unbounded latency. A request may carry a `deadline_ms` budget
//! ([`Scheduler::submit_with`]): admission consults the model's
//! total-latency EWMA and rejects on arrival
//! ([`ServeError::Deadline`]) when the predicted completion time
//! already exceeds the budget — queueing doomed work would only steal
//! service from requests that can still make their deadlines — and a
//! budget that runs out in the queue is answered the same way when its
//! batch is dispatched, without reaching a worker. On
//! [`Scheduler::shutdown`] new work is refused
//! ([`ServeError::ShuttingDown`]) and every already-admitted request is
//! drained before the workers exit.
//!
//! # Statistics
//!
//! The queue state owns every serving counter (see [`crate::stats`]),
//! updated under the queue mutex admission and dispatch already take —
//! a batch's completions under one acquisition, before any of its
//! replies goes out — so [`Scheduler::stats_snapshot`] reads one
//! consistent state.

use crate::error::ServeError;
use crate::lock_unpoisoned;
use crate::registry::{ModelEntry, ModelRegistry, Precision};
use crate::stats::{Counters, ModelCounters, StatsSnapshot};
use rayon::prelude::*;
use ringcnn_tensor::prelude::*;
use ringcnn_trace::clock;
use ringcnn_trace::span::{self, SpanCtx};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduler knobs.
///
/// # Example
///
/// ```
/// use ringcnn_serve::prelude::*;
///
/// // Bound each model to 64 queued requests on top of the global cap.
/// let cfg = SchedulerConfig {
///     workers: 2,
///     model_queue_cap: 64,
///     ..SchedulerConfig::default()
/// };
/// assert_eq!(cfg.queue_cap, 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads forming and dispatching batches. Each dispatch
    /// itself parallelizes across the shared rayon pool, so a small
    /// worker count (2) already keeps the pool saturated; more workers
    /// mainly help when many distinct models are hot at once.
    pub workers: usize,
    /// Flush a model group once this many requests are waiting.
    pub max_batch: usize,
    /// Flush a model group once its oldest request has waited this long.
    pub max_wait: Duration,
    /// Bounded global queue capacity (admission control).
    pub queue_cap: usize,
    /// Per-model queue bound on top of `queue_cap`; `0` disables it
    /// (the default — a single-model deployment keeps the old
    /// semantics). With it set, one model's backlog saturates its own
    /// bound and starts rejecting while other models keep admitting.
    pub model_queue_cap: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            model_queue_cap: 0,
        }
    }
}

/// A completed inference with its service-side timing.
#[derive(Debug)]
pub struct InferOutput {
    /// The model output.
    pub output: Tensor,
    /// Admission → batch-dispatch wait.
    pub queue_ms: f64,
    /// Admission → completion latency.
    pub total_ms: f64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
}

/// How a completed job hands its result back: one callback, invoked on
/// the scheduler worker that produced the result (so the reactor's
/// serialization happens on the worker, never on the reactor thread;
/// the blocking [`Pending`] path's callback sends on its channel).
pub(crate) type Done = Box<dyn FnOnce(Result<InferOutput, ServeError>) + Send + Sync>;

/// Trace attribution riding with a sampled job: the request's root
/// span (to parent the scheduler-side stage spans onto) plus the
/// admission timestamp on the trace clock, stamped at queue push so
/// the `queue_wait` span closes exactly at batch dispatch.
#[derive(Clone, Copy)]
struct JobTrace {
    ctx: SpanCtx,
    enqueued_us: u64,
}

struct Job {
    /// The entry `Arc` captured at admission: a concurrent hot-reload
    /// swap does not retarget queued work, so every response is
    /// bit-exact against the version that admitted it.
    entry: Arc<ModelEntry>,
    precision: Precision,
    input: Tensor,
    enqueued: Instant,
    /// The request's budget, counted from `enqueued`: admission predicted
    /// it could be met, dispatch checks that it still can.
    deadline_ms: Option<f64>,
    /// Global arrival number — FIFO order within a group, tie-break
    /// across groups.
    seq: u64,
    /// `Some` iff the request was elected by the trace sampler.
    trace: Option<JobTrace>,
    done: Done,
}

/// One model's queue plus its fair-queueing state and its counters.
struct ModelQueue {
    jobs: VecDeque<Job>,
    /// Fair-scheduling weight: 1 until [`Scheduler::set_model_weight`].
    weight: u32,
    /// Virtual time already served to this model (jobs / weight).
    vtime: f64,
    counters: ModelCounters,
}

impl ModelQueue {
    fn new(weight: u32, vtime: f64) -> Self {
        Self {
            jobs: VecDeque::new(),
            weight,
            vtime,
            counters: ModelCounters::default(),
        }
    }
}

struct QueueState {
    /// Per-model queues keyed by model name. Entries persist when a
    /// queue drains so weights and virtual clocks survive idleness.
    groups: HashMap<String, ModelQueue>,
    /// Total queued jobs across all groups (the global bound).
    total: usize,
    /// Next arrival number.
    next_seq: u64,
    /// max over groups of served virtual time; newly-busy groups are
    /// capped to this so idling never banks credit.
    vclock: f64,
    shutting_down: bool,
    counters: Counters,
}

impl QueueState {
    fn new() -> Self {
        Self {
            groups: HashMap::new(),
            total: 0,
            next_seq: 0,
            vclock: 0.0,
            shutting_down: false,
            counters: Counters::default(),
        }
    }

    /// `model`'s queue, created idle (weight 1, at the global clock) if
    /// it has none yet, and the global counters beside it.
    fn group(&mut self, model: &str) -> (&mut ModelQueue, &mut Counters) {
        let vclock = self.vclock;
        let q = self
            .groups
            .entry(model.to_string())
            .or_insert_with(|| ModelQueue::new(1, vclock));
        (q, &mut self.counters)
    }
}

struct Shared {
    cfg: SchedulerConfig,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    /// The one uptime anchor of `stats` and `health`.
    started: Instant,
}

/// A pending inference: resolve with [`Pending::wait`].
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<InferOutput, ServeError>>,
}

impl Pending {
    /// Blocks until the batch containing this request completes.
    ///
    /// # Errors
    ///
    /// Whatever the service decided ([`ServeError::Internal`] if the
    /// worker vanished).
    pub fn wait(self) -> Result<InferOutput, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Internal("worker dropped the request".into())))
    }
}

/// The running scheduler (share via `Arc`; [`Scheduler::shutdown`]
/// drains and joins).
pub struct Scheduler {
    shared: Arc<Shared>,
    registry: Arc<ModelRegistry>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns the worker threads and returns the running scheduler.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when a worker thread cannot be spawned
    /// (thread exhaustion); any workers already started are drained
    /// and joined before returning, so nothing is left running.
    pub fn start(
        registry: Arc<ModelRegistry>,
        cfg: SchedulerConfig,
    ) -> Result<Scheduler, ServeError> {
        let cfg = SchedulerConfig {
            workers: cfg.workers.max(1),
            max_batch: cfg.max_batch.max(1),
            queue_cap: cfg.queue_cap.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(QueueState::new()),
            work_cv: Condvar::new(),
            started: Instant::now(),
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let worker_shared = shared.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unwind the partial pool: wake every worker that
                    // did start and let it observe the shutdown flag.
                    {
                        let mut st = lock_unpoisoned(shared.state.lock());
                        st.shutting_down = true;
                    }
                    shared.work_cv.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(ServeError::Internal(format!(
                        "cannot spawn scheduler worker {i}: {e}"
                    )));
                }
            }
        }
        Ok(Scheduler {
            shared,
            registry,
            workers: Mutex::new(workers),
        })
    }

    /// The model registry this scheduler serves.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The effective configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.shared.cfg
    }

    /// The number of requests queued *right now* (briefly locks the
    /// queue), as the `health` verb reports it.
    pub fn queue_len(&self) -> usize {
        lock_unpoisoned(self.shared.state.lock()).total
    }

    /// Milliseconds since the scheduler started: the `uptime_ms` of both
    /// `stats` and `health`.
    pub(crate) fn uptime_ms(&self) -> f64 {
        self.shared.started.elapsed().as_secs_f64() * 1e3
    }

    /// Sets a model's fair-scheduling weight (clamped ≥ 1): a model
    /// with weight `w` receives `w×` the service share of a weight-1
    /// model under contention. May be called before the model has any
    /// traffic, and takes effect on the next dispatch.
    pub fn set_model_weight(&self, model: &str, weight: u32) {
        let mut st = lock_unpoisoned(self.shared.state.lock());
        st.group(model).0.weight = weight.max(1);
    }

    /// Submits a request (non-blocking). The returned [`Pending`]
    /// resolves when the request's batch completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::BadRequest`] (shape,
    /// or `quant` precision without an attached quantized pipeline),
    /// [`ServeError::Overloaded`] (global or per-model queue full), or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(
        &self,
        model: &str,
        input: Tensor,
        precision: Precision,
    ) -> Result<Pending, ServeError> {
        self.submit_with(model, input, precision, None)
    }

    /// [`Scheduler::submit`] with an optional `deadline_ms` budget:
    /// when the model's latency EWMA predicts the budget is already
    /// blown at arrival, the request is rejected with
    /// [`ServeError::Deadline`] instead of queueing doomed work. A
    /// model with no completions yet always admits (no evidence to
    /// reject on). The budget is checked again at dispatch: if it ran
    /// out in the queue, [`Pending::wait`] returns the same error and
    /// the model never runs.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit`], plus [`ServeError::Deadline`] and
    /// [`ServeError::BadRequest`] for a non-finite or negative budget.
    pub fn submit_with(
        &self,
        model: &str,
        input: Tensor,
        precision: Precision,
        deadline_ms: Option<f64>,
    ) -> Result<Pending, ServeError> {
        let (tx, rx) = mpsc::channel();
        // Ambient propagation: an in-process caller holding an open span
        // (tests, embedded use) gets the scheduler stages parented onto
        // it; the reactor path passes its root explicitly instead.
        let trace = span::current();
        self.submit_done(
            model,
            input,
            precision,
            deadline_ms,
            trace,
            // The submitter may have gone away (dropped `Pending`) —
            // dropping the result is correct then.
            Box::new(move |result| drop(tx.send(result))),
        )?;
        Ok(Pending { rx })
    }

    /// [`Scheduler::submit_with`] with an explicit completion carrier —
    /// the reactor passes a callback that serializes the result
    /// and flushed from the worker thread that produced them — and an
    /// optional trace context: when the request was elected by the
    /// sampler, the scheduler records `queue_wait`, `batch`, and
    /// `kernel` stage spans parented onto `trace`.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit_with`]. On error, `done` is dropped
    /// unused (the caller still holds the failure).
    pub(crate) fn submit_done(
        &self,
        model: &str,
        input: Tensor,
        precision: Precision,
        deadline_ms: Option<f64>,
        trace: Option<SpanCtx>,
        done: Done,
    ) -> Result<(), ServeError> {
        let entry = self
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.into()))?;
        entry.validate_input(input.shape())?;
        if precision == Precision::Quant {
            entry.quant_pipeline()?;
        }
        if let Some(budget) = deadline_ms {
            if !budget.is_finite() || budget < 0.0 {
                return Err(ServeError::BadRequest(format!(
                    "deadline_ms must be a non-negative finite number, got {budget}"
                )));
            }
        }
        let cfg = &self.shared.cfg;
        {
            let mut st = lock_unpoisoned(self.shared.state.lock());
            if st.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            let (total, vclock, seq) = (st.total, st.vclock, st.next_seq);
            let (q, counters) = st.group(model);
            let group_len = q.jobs.len();
            let overload = if total >= cfg.queue_cap {
                Some((total, cfg.queue_cap))
            } else if cfg.model_queue_cap > 0 && group_len >= cfg.model_queue_cap {
                Some((group_len, cfg.model_queue_cap))
            } else {
                None
            };
            if let Some((depth, cap)) = overload {
                counters.record_rejected(&mut q.counters);
                return Err(ServeError::Overloaded { depth, cap });
            }
            if let (Some(budget), Some(ewma)) = (deadline_ms, q.counters.ewma_ms) {
                // Estimated completion: one EWMA of service time per
                // full batch already queued ahead, plus this request's
                // own. Coarse but monotone in backlog, which is what
                // reject-on-arrival needs.
                let batches_ahead = (group_len / cfg.max_batch) as f64;
                let estimate = ewma * (1.0 + batches_ahead);
                if estimate > budget {
                    counters.record_deadline_rejected(&mut q.counters);
                    return Err(ServeError::Deadline {
                        budget_ms: budget.round() as u64,
                        estimate_ms: estimate.round() as u64,
                    });
                }
            }
            counters.submitted += 1;
            if q.jobs.is_empty() && q.vtime < vclock {
                // Re-busy after idling: no banked credit.
                q.vtime = vclock;
            }
            q.jobs.push_back(Job {
                entry,
                precision,
                input,
                enqueued: Instant::now(),
                deadline_ms,
                seq,
                trace: trace.map(|ctx| JobTrace {
                    ctx,
                    enqueued_us: clock::now_us(),
                }),
                done,
            });
            st.next_seq += 1;
            st.total += 1;
        }
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Blocking submit-and-wait convenience.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit`] and [`Pending::wait`].
    pub fn infer(
        &self,
        model: &str,
        input: Tensor,
        precision: Precision,
    ) -> Result<InferOutput, ServeError> {
        self.submit(model, input, precision)?.wait()
    }

    /// The stats snapshot: every counter, the live global and
    /// per-model queue depths, fair weights, registry versions and
    /// reload counters. Registered models with no traffic yet are
    /// included with zeroed counters so the fleet inventory is always
    /// complete.
    ///
    /// One consistent read: the counters are copied under one
    /// acquisition of the queue lock, so the per-model counts sum to the
    /// global ones. The registry is read before that lock, and sorting
    /// and percentiles run after it, so a `stats` consumer cannot stall
    /// admission.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let entries = self.registry.entries();
        let reloads = (
            self.registry.reload_passes(),
            self.registry.models_reloaded(),
        );
        let version = |name: &str| {
            entries
                .iter()
                .find(|e| e.name() == name)
                .map(|e| e.version())
        };
        let uptime_ms = self.uptime_ms();
        let (counters, mut per_model, queue_depth) = {
            let st = lock_unpoisoned(self.shared.state.lock());
            let per_model: Vec<_> = st
                .groups
                .iter()
                .filter(|(name, q)| !q.counters.is_idle() || version(name).is_some())
                .map(|(name, q)| {
                    let version = version(name).unwrap_or(0);
                    q.counters
                        .stats(name, uptime_ms / 1e3, q.jobs.len(), q.weight, version)
                })
                .collect();
            (st.counters.clone(), per_model, st.total)
        };
        for e in &entries {
            if !per_model.iter().any(|m| m.name == e.name()) {
                let idle = ModelCounters::default();
                per_model.push(idle.stats(e.name(), uptime_ms / 1e3, 0, 1, e.version()));
            }
        }
        counters.snapshot(uptime_ms, queue_depth, reloads, per_model)
    }

    /// Stops admitting work, drains every already-queued request, and
    /// joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = lock_unpoisoned(self.shared.state.lock());
            st.shutting_down = true;
        }
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = lock_unpoisoned(self.workers.lock()).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// A flush-ready batch: jobs of one model, removed from that model's
/// queue: the ready group with the smallest virtual time, the older
/// head request breaking ties. Shutdown makes every non-empty group
/// ready — that is the drain.
fn try_take_batch(st: &mut QueueState, cfg: &SchedulerConfig) -> Option<Vec<Job>> {
    if st.total == 0 {
        return None;
    }
    let now = Instant::now();
    // (vtime, oldest seq) of the best ready group so far.
    let mut best: Option<(f64, u64, String)> = None;
    for (name, q) in &st.groups {
        let Some(oldest) = q.jobs.front() else {
            continue;
        };
        let ready = st.shutting_down
            || q.jobs.len() >= cfg.max_batch
            || cfg.max_batch == 1
            || now.duration_since(oldest.enqueued) >= cfg.max_wait;
        if !ready {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bv, bs, _)) => q.vtime < *bv || (q.vtime == *bv && oldest.seq < *bs),
        };
        if better {
            best = Some((q.vtime, oldest.seq, name.clone()));
        }
    }
    let (_, _, name) = best?;
    // The group must exist — `best` was chosen from `st.groups` under
    // the same lock — but `?` keeps the invariant panic-free: a bug
    // here would skip one batch scan, not kill a worker thread.
    let q = st.groups.get_mut(&name)?;
    let take = q.jobs.len().min(cfg.max_batch);
    let batch: Vec<Job> = q.jobs.drain(..take).collect();
    st.total -= take;
    q.vtime += take as f64 / f64::from(q.weight.max(1));
    if q.vtime > st.vclock {
        st.vclock = q.vtime;
    }
    Some(batch)
}

/// The earliest `max_wait` flush deadline across queued work, for the
/// worker's timed condvar wait.
fn next_flush_deadline(st: &QueueState, cfg: &SchedulerConfig) -> Option<Instant> {
    st.groups
        .values()
        .filter_map(|q| q.jobs.front())
        .map(|j| j.enqueued + cfg.max_wait)
        .min()
}

fn worker_loop(shared: &Shared) {
    loop {
        let (expired, batch, dispatched) = {
            let mut st = lock_unpoisoned(shared.state.lock());
            loop {
                if let Some(batch) = try_take_batch(&mut st, &shared.cfg) {
                    break dispatch(&mut st, batch);
                }
                if st.total == 0 {
                    if st.shutting_down {
                        return;
                    }
                    st = lock_unpoisoned(shared.work_cv.wait(st));
                } else {
                    // Sleep until the earliest flush deadline; new
                    // submissions notify and re-run the scan. `total >
                    // 0` implies a queued job, so the fallback arm is
                    // unreachable — but if that invariant ever broke,
                    // a spurious `max_wait` sleep beats a dead worker.
                    let deadline = next_flush_deadline(&st, &shared.cfg)
                        .unwrap_or_else(|| Instant::now() + shared.cfg.max_wait);
                    let wait = deadline
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_micros(50));
                    st = lock_unpoisoned(shared.work_cv.wait_timeout(st, wait)).0;
                }
            }
        };
        for (job, err) in expired {
            (job.done)(Err(err));
        }
        if !batch.is_empty() {
            execute_batch(shared, batch, dispatched);
        }
        // A batch may have left flush-ready work behind (group larger
        // than max_batch, or other models): let a sibling pick it up
        // without waiting for the next submission.
        shared.work_cv.notify_one();
    }
}

/// Splits a taken batch at its dispatch instant and counts it, under the
/// queue lock: a budget that ran out in the queue is refused as
/// admission would have refused it (its reply goes out after the lock
/// is released) instead of burning a worker on a reply nobody is
/// waiting for; the rest is one batch that reaches a model.
fn dispatch(st: &mut QueueState, batch: Vec<Job>) -> (Vec<(Job, ServeError)>, Vec<Job>, Instant) {
    let dispatched = Instant::now();
    let waited_ms = |job: &Job| dispatched.duration_since(job.enqueued).as_secs_f64() * 1e3;
    let (expired, batch): (Vec<Job>, Vec<Job>) = batch.into_iter().partition(|job| {
        job.deadline_ms
            .is_some_and(|budget| waited_ms(job) >= budget)
    });
    let expired = expired
        .into_iter()
        .map(|job| {
            let (q, counters) = st.group(job.entry.name());
            counters.record_deadline_rejected(&mut q.counters);
            let err = ServeError::Deadline {
                budget_ms: job.deadline_ms.unwrap_or(0.0).round() as u64,
                estimate_ms: waited_ms(&job).round() as u64,
            };
            (job, err)
        })
        .collect();
    if !batch.is_empty() {
        st.counters.record_batch(batch.len());
    }
    (expired, batch, dispatched)
}

fn execute_batch(shared: &Shared, batch: Vec<Job>, dispatched: Instant) {
    let dispatch_us = clock::now_us();
    let size = batch.len();
    // Close every sampled job's queue-wait interval at the dispatch
    // stamp shared by the whole batch (one manual record per job; the
    // rings absorb these wait-free).
    for job in &batch {
        if let Some(t) = &job.trace {
            span::record_manual(
                t.ctx.trace,
                t.ctx.span,
                "queue_wait",
                t.enqueued_us,
                dispatch_us,
            );
        }
    }
    // One task per frame across the shared pool: every frame reads the
    // same prepared model, so cached transform plans are built zero
    // times on this path.
    // A batch may mix precisions of one model: each job runs its own
    // pipeline (both are shared immutable state), and admission already
    // guaranteed the quantized pipeline exists where requested.
    let outputs: Vec<std::thread::Result<Result<Tensor, ServeError>>> = batch
        .par_iter()
        .map(|job| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // `batch` = dispatch → this task actually starting on a
                // pool thread; `kernel` = the inference itself, with the
                // process-wide GEMM counter delta over its interval as
                // attribution args (exact per-request only when one
                // request runs at a time — see `gemm::profile`).
                let span = job.trace.as_ref().map(|t| {
                    span::record_manual(
                        t.ctx.trace,
                        t.ctx.span,
                        "batch",
                        dispatch_us,
                        clock::now_us(),
                    );
                    span::span_in(t.ctx, "kernel")
                });
                let before = span
                    .as_ref()
                    .map(|_| ringcnn_tensor::gemm::profile::snapshot());
                let out = job.entry.infer_precision(&job.input, job.precision);
                if let (Some(sp), Some(before)) = (&span, &before) {
                    let d = ringcnn_tensor::gemm::profile::snapshot().delta_since(before);
                    sp.set_args(d.tiles, d.panel_packs);
                }
                out
            }))
        })
        .collect();
    let results: Vec<Result<InferOutput, ServeError>> = batch
        .iter()
        .zip(outputs)
        .map(|(job, out)| match out {
            Ok(Ok(output)) => Ok(InferOutput {
                output,
                queue_ms: dispatched.duration_since(job.enqueued).as_secs_f64() * 1e3,
                total_ms: job.enqueued.elapsed().as_secs_f64() * 1e3,
                batch_size: size,
            }),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(ServeError::Internal(format!(
                "inference panicked for model `{}`",
                job.entry.name()
            ))),
        })
        .collect();
    // The whole batch is counted under one acquisition, before any of
    // its replies goes out.
    {
        let mut st = lock_unpoisoned(shared.state.lock());
        for (job, result) in batch.iter().zip(&results) {
            let (q, counters) = st.group(job.entry.name());
            match result {
                Ok(out) => counters.record_completion(&mut q.counters, out.queue_ms, out.total_ms),
                Err(_) => counters.record_failure(),
            }
        }
    }
    for (job, result) in batch.into_iter().zip(results) {
        (job.done)(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;
    use ringcnn_nn::prelude::*;
    use ringcnn_nn::serialize::{AlgebraSpec, ModelSpec};

    fn registry_with(names: &[&str]) -> Arc<ModelRegistry> {
        let alg = Algebra::real();
        let spec = ModelSpec::Vdsr {
            depth: 2,
            width: 8,
            channels_io: 1,
        };
        let reg = ModelRegistry::new();
        for (i, n) in names.iter().enumerate() {
            reg.register(n, spec, AlgebraSpec::of(&alg), spec.build(&alg, i as u64))
                .unwrap();
        }
        Arc::new(reg)
    }

    /// Pushes a ready (already past `max_wait`) job the way `submit_done`
    /// would, without a live scheduler.
    fn push_ready(st: &mut QueueState, reg: &ModelRegistry, name: &str, weight: u32) {
        let seq = st.next_seq;
        st.next_seq += 1;
        let vclock = st.vclock;
        let q = st
            .groups
            .entry(name.to_string())
            .or_insert_with(|| ModelQueue::new(weight, vclock));
        q.jobs.push_back(Job {
            entry: reg.get(name).unwrap(),
            precision: Precision::Fp64,
            input: Tensor::zeros(Shape4::new(1, 1, 4, 4)),
            enqueued: Instant::now() - Duration::from_secs(1),
            deadline_ms: None,
            seq,
            trace: None,
            done: Box::new(|_| {}),
        });
        st.total += 1;
    }

    #[test]
    fn unknown_model_and_bad_shape_are_rejected_up_front() {
        let sched = Scheduler::start(registry_with(&["m"]), SchedulerConfig::default())
            .expect("scheduler starts");
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        assert_eq!(
            sched
                .infer("nope", x.clone(), Precision::Fp64)
                .unwrap_err()
                .code(),
            "unknown_model"
        );
        let bad = Tensor::zeros(Shape4::new(1, 3, 4, 4));
        assert_eq!(
            sched.infer("m", bad, Precision::Fp64).unwrap_err().code(),
            "bad_request"
        );
        assert_eq!(
            sched
                .infer("m", x.clone(), Precision::Fp64)
                .unwrap()
                .output
                .shape(),
            x.shape()
        );
        sched.shutdown();
        assert_eq!(
            sched.infer("m", x, Precision::Fp64).unwrap_err().code(),
            "shutting_down"
        );
    }

    #[test]
    fn equal_clocks_take_the_oldest_head_capped_at_max_batch() {
        // Equal weights, max_batch 2, arrivals a0 b1 a2 b3 b4 a5.
        let reg = registry_with(&["a", "b"]);
        let mut st = QueueState::new();
        for name in ["a", "b", "a", "b", "b", "a"] {
            push_ready(&mut st, &reg, name, 1);
        }
        let cfg = SchedulerConfig {
            max_batch: 2,
            ..SchedulerConfig::default()
        };
        let mut take = || {
            let batch = try_take_batch(&mut st, &cfg).unwrap();
            let name = batch[0].entry.name().to_string();
            assert!(batch.iter().all(|j| j.entry.name() == name));
            (name, batch.iter().map(|j| j.seq).collect::<Vec<_>>())
        };
        // Both clocks 0: a holds the older head. Capped at max_batch,
        // FIFO within the group (a5 stays queued).
        assert_eq!(take(), ("a".to_string(), vec![0, 2]));
        // b's clock (0) now lags a's (2).
        assert_eq!(take(), ("b".to_string(), vec![1, 3]));
        // Both clocks 2: b4 is older than a5.
        assert_eq!(take(), ("b".to_string(), vec![4]));
        assert_eq!(take(), ("a".to_string(), vec![5]));
        assert_eq!(st.total, 0);
    }

    #[test]
    fn weighted_fair_interleaves_by_weight() {
        // a (weight 2) vs b (weight 1), max_batch 1, everything ready:
        // virtual time advances by 1/2 per a-dispatch and 1/1 per
        // b-dispatch, giving the exact drain order a b a a b a.
        // (Power-of-two weights keep the f64 clock arithmetic exact.)
        let reg = registry_with(&["a", "b"]);
        let mut st = QueueState::new();
        for name in ["a", "a", "a", "a", "b", "b"] {
            push_ready(&mut st, &reg, name, if name == "a" { 2 } else { 1 });
        }
        let cfg = SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        };
        let mut order = Vec::new();
        while let Some(batch) = try_take_batch(&mut st, &cfg) {
            assert_eq!(batch.len(), 1);
            order.push(batch[0].entry.name().to_string());
        }
        assert_eq!(order, ["a", "b", "a", "a", "b", "a"]);
        assert_eq!(st.total, 0);
    }

    #[test]
    fn idle_model_does_not_bank_credit() {
        // Serve a for a while, then let b arrive: b's clock is capped to
        // the global vclock (not zero), so it gets its fair share going
        // forward but no retroactive burst.
        let reg = registry_with(&["a", "b"]);
        let mut st = QueueState::new();
        let cfg = SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        };
        for _ in 0..4 {
            push_ready(&mut st, &reg, "a", 1);
        }
        for _ in 0..4 {
            try_take_batch(&mut st, &cfg).unwrap();
        }
        assert_eq!(st.vclock, 4.0);
        // b was registered idle via set_model_weight-style insertion at
        // vclock 0 — simulate the submit path's re-busy cap.
        push_ready(&mut st, &reg, "b", 1);
        let q = st.groups.get_mut("b").unwrap();
        if q.vtime < st.vclock {
            q.vtime = st.vclock;
        }
        push_ready(&mut st, &reg, "a", 1);
        // Tie on vtime (both 4.0): arrival order breaks it — b first.
        let batch = try_take_batch(&mut st, &cfg).unwrap();
        assert_eq!(batch[0].entry.name(), "b");
    }

    #[test]
    fn not_ready_group_is_not_taken() {
        let reg = registry_with(&["a"]);
        let mut st = QueueState::new();
        st.group("a").0.jobs.push_back(Job {
            entry: reg.get("a").unwrap(),
            precision: Precision::Fp64,
            input: Tensor::zeros(Shape4::new(1, 1, 4, 4)),
            enqueued: Instant::now(),
            deadline_ms: None,
            seq: 0,
            trace: None,
            done: Box::new(|_| {}),
        });
        st.total = 1;
        let cfg = SchedulerConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(10),
            ..SchedulerConfig::default()
        };
        assert!(
            try_take_batch(&mut st, &cfg).is_none(),
            "must wait for the batch to fill"
        );
        // …until shutdown, which flushes unconditionally.
        st.shutting_down = true;
        assert_eq!(try_take_batch(&mut st, &cfg).unwrap().len(), 1);
    }

    #[test]
    fn per_model_cap_rejects_without_touching_other_models() {
        // max_wait long + max_batch large keeps submissions queued, so
        // the per-model bound is observable deterministically.
        let sched = Scheduler::start(
            registry_with(&["hot", "cold"]),
            SchedulerConfig {
                workers: 1,
                max_batch: 64,
                max_wait: Duration::from_secs(30),
                queue_cap: 256,
                model_queue_cap: 2,
            },
        )
        .expect("scheduler starts");
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        let p1 = sched.submit("hot", x.clone(), Precision::Fp64).unwrap();
        let p2 = sched.submit("hot", x.clone(), Precision::Fp64).unwrap();
        let err = sched.submit("hot", x.clone(), Precision::Fp64).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded { depth: 2, cap: 2 },
            "per-model bound, not the global 256"
        );
        // The other model still admits.
        let p3 = sched.submit("cold", x, Precision::Fp64).unwrap();
        sched.shutdown(); // drains all three
        assert!(p1.wait().is_ok());
        assert!(p2.wait().is_ok());
        assert!(p3.wait().is_ok());
        let snap = sched.stats_snapshot();
        assert_eq!(snap.model("hot").unwrap().rejected, 1);
        assert_eq!(snap.model("cold").unwrap().rejected, 0);
    }

    #[test]
    fn deadline_admission_rejects_on_blown_budget() {
        let sched = Scheduler::start(registry_with(&["m"]), SchedulerConfig::default())
            .expect("scheduler starts");
        let x = Tensor::zeros(Shape4::new(1, 1, 8, 8));
        // No EWMA yet: even a tiny budget admits (no evidence); whether
        // a microsecond then outlasts the queue is dispatch's call.
        let tiny = sched.submit_with("m", x.clone(), Precision::Fp64, Some(0.001));
        let shed_at_dispatch = u64::from(tiny.unwrap().wait().is_err());
        sched.infer("m", x.clone(), Precision::Fp64).unwrap();
        // Now the EWMA is seeded; an impossible budget rejects on
        // arrival with the dedicated wire code.
        let err = sched
            .submit_with("m", x.clone(), Precision::Fp64, Some(0.0))
            .unwrap_err();
        assert_eq!(err.code(), "deadline", "{err}");
        // A generous budget still admits.
        sched
            .submit_with("m", x.clone(), Precision::Fp64, Some(60_000.0))
            .unwrap()
            .wait()
            .unwrap();
        // Garbage budgets are bad requests, not rejections.
        assert_eq!(
            sched
                .submit_with("m", x.clone(), Precision::Fp64, Some(-1.0))
                .unwrap_err()
                .code(),
            "bad_request"
        );
        assert_eq!(
            sched
                .submit_with("m", x, Precision::Fp64, Some(f64::NAN))
                .unwrap_err()
                .code(),
            "bad_request"
        );
        let snap = sched.stats_snapshot();
        assert_eq!(snap.deadline_rejected, 1 + shed_at_dispatch);
        let m = snap.model("m").unwrap();
        assert_eq!(m.deadline_rejected, 1 + shed_at_dispatch);
        sched.shutdown();
    }

    #[test]
    fn a_budget_that_runs_out_in_the_queue_is_answered_at_dispatch_and_never_run() {
        let cfg = SchedulerConfig {
            workers: 1,
            max_batch: 1,
            ..SchedulerConfig::default()
        };
        let sched =
            Scheduler::start(registry_with(&["busy", "doomed"]), cfg).expect("scheduler starts");
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        // The only worker blocks in this job's completion callback…
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let hold = Box::new(move |_| {
            entered_tx.send(()).unwrap();
            lock_unpoisoned(released.lock()).recv().unwrap();
        });
        sched
            .submit_done("busy", x.clone(), Precision::Fp64, None, None, hold)
            .unwrap();
        entered.recv().unwrap();
        // …so this one waits in the queue (admitted: no history to
        // refuse it on) while its millisecond of wall time runs out.
        let doomed = sched.submit_with("doomed", x, Precision::Fp64, Some(1.0));
        std::thread::sleep(Duration::from_millis(5));
        release.send(()).unwrap();
        match doomed.unwrap().wait().unwrap_err() {
            ServeError::Deadline {
                budget_ms: 1,
                estimate_ms,
            } => assert!(estimate_ms >= 5, "{estimate_ms}"),
            other => panic!("expected `deadline` for a 1 ms budget, got {other}"),
        }
        // Only `busy` ever reached a model: one batch, not two.
        let snap = sched.stats_snapshot();
        assert_eq!((snap.deadline_rejected, snap.completed), (1, 1));
        assert_eq!(snap.model("doomed").unwrap().deadline_rejected, 1);
        assert_eq!((snap.batches, snap.max_batch), (1, 1));
        sched.shutdown();
    }

    #[test]
    fn sampled_jobs_record_scheduler_stage_spans() {
        let sched = Scheduler::start(registry_with(&["m"]), SchedulerConfig::default())
            .expect("scheduler starts");
        let trace = span::mint_forced();
        {
            // Ambient propagation: the open root on the submitting thread
            // is what `submit_with` captures.
            let _root = span::root_span(trace, "request");
            sched
                .infer("m", Tensor::zeros(Shape4::new(1, 1, 4, 4)), Precision::Fp64)
                .unwrap();
        }
        let spans = span::spans_of(trace.id());
        let root = spans.iter().find(|s| s.name == "request").expect("root");
        for stage in ["queue_wait", "batch", "kernel"] {
            let s = spans
                .iter()
                .find(|s| s.name == stage)
                .unwrap_or_else(|| panic!("stage `{stage}` recorded"));
            assert_eq!(s.parent, root.id, "stage `{stage}` parents onto the root");
            assert_eq!(s.trace, trace.id());
        }
        sched.shutdown();
    }

    #[test]
    fn stats_snapshot_includes_idle_models_with_versions_and_weights() {
        let sched = Scheduler::start(
            registry_with(&["served", "idle"]),
            SchedulerConfig::default(),
        )
        .expect("scheduler starts");
        sched.set_model_weight("served", 3);
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        sched.infer("served", x, Precision::Fp64).unwrap();
        let snap = sched.stats_snapshot();
        let served = snap.model("served").unwrap();
        assert_eq!(served.completed, 1);
        assert_eq!(served.weight, 3);
        assert_eq!(served.version, 1);
        assert_eq!(served.histogram.iter().sum::<u64>(), 1);
        let idle = snap.model("idle").expect("idle model is still inventoried");
        assert_eq!(idle.completed, 0);
        assert_eq!(idle.version, 1);
        assert_eq!(idle.weight, 1, "default weight");
        // Name-sorted output.
        let names: Vec<&str> = snap.per_model.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["idle", "served"]);
        sched.shutdown();
    }

    #[test]
    fn snapshots_taken_under_load_never_tear() {
        // Completions, overload rejections (queue cap 2) and arrival-time
        // deadline rejections (a zero budget once the EWMA is seeded)
        // race a thread that takes snapshots.
        let cfg = SchedulerConfig {
            queue_cap: 2,
            ..SchedulerConfig::default()
        };
        let sched = Scheduler::start(registry_with(&["a", "b"]), cfg).expect("scheduler starts");
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        for model in ["a", "b"] {
            sched.infer(model, x.clone(), Precision::Fp64).unwrap();
        }
        let check = |snap: &StatsSnapshot| {
            let sum = |f: fn(&ModelStats) -> u64| snap.per_model.iter().map(f).sum::<u64>();
            assert_eq!(sum(|m| m.completed), snap.completed);
            assert_eq!(sum(|m| m.rejected), snap.rejected);
            assert_eq!(sum(|m| m.deadline_rejected), snap.deadline_rejected);
            for m in &snap.per_model {
                assert_eq!(m.histogram.iter().sum::<u64>(), m.completed, "{}", m.name);
            }
        };
        let running = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while running.load(std::sync::atomic::Ordering::SeqCst) {
                    check(&sched.stats_snapshot());
                }
            });
            let submit = |model| {
                let pending: Vec<_> = (0..300)
                    .filter_map(|i| {
                        let budget = (i % 3 == 0).then_some(0.0);
                        sched
                            .submit_with(model, x.clone(), Precision::Fp64, budget)
                            .ok()
                    })
                    .collect();
                pending.into_iter().for_each(|p| drop(p.wait()));
            };
            for t in ["a", "b"].map(|model| scope.spawn(move || submit(model))) {
                t.join().unwrap();
            }
            running.store(false, std::sync::atomic::Ordering::SeqCst);
        });
        let snap = sched.stats_snapshot();
        check(&snap);
        assert!(snap.completed > 2 && snap.rejected > 0 && snap.deadline_rejected > 0);
        sched.shutdown();
    }
}
