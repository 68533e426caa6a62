//! The span recorder: per-thread fixed-capacity seqlock rings of
//! completed spans, hierarchical span IDs, 1-in-N request sampling, and
//! a capture ring of the most recent slow-request trees.
//!
//! # Recording model
//!
//! A span is recorded **once, at close** — the RAII [`SpanGuard`] (or
//! [`record_manual`] for intervals measured by other code) packs the
//! finished record into the calling thread's ring. Each ring is a
//! single-producer seqlock: the owning thread's write is wait-free
//! (two sequence bumps and seven relaxed stores, no allocation — the
//! ring never grows past [`RING_CAP`], overflow overwrites the oldest
//! slot), and snapshot readers on other threads retry or skip any slot
//! they catch mid-write. Rings are registered globally and outlive
//! their threads, so a snapshot taken at shutdown still sees every
//! worker's spans.
//!
//! # Hierarchy and propagation
//!
//! Span IDs are process-unique; every span carries its parent's ID
//! (`0` = root), so a flat snapshot reassembles into a tree. Within a
//! thread, nesting is automatic ([`child_span`] parents onto the
//! innermost open guard); across threads (reactor → scheduler worker →
//! pool), the parent travels explicitly as a [`SpanCtx`] and the far
//! side opens with [`span_in`].

use crate::clock;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans kept per recording thread. Overflow keeps the newest spans;
/// the ring never reallocates after construction.
pub const RING_CAP: usize = 4096;

/// Slow-request trees kept for the `trace` wire verb.
pub const SLOW_CAP: usize = 32;

/// Default request sampling: 1 in this many requests records spans
/// (overridable via `RINGCNN_TRACE_SAMPLE`; `0` disables, `1` = all).
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

const WORDS: usize = 7;

// ---------------------------------------------------------------------------
// Name interning: span names are `&'static str`, stored once in a
// global table so a record packs a u32 index instead of a pointer.
// ---------------------------------------------------------------------------

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern(name: &'static str) -> u32 {
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

fn name_of(idx: u32) -> String {
    let names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    names
        .get(idx as usize)
        .map_or_else(|| format!("?{idx}"), |n| (*n).to_string())
}

// ---------------------------------------------------------------------------
// The seqlock ring.
//
// lint:seqlock — ringcnn-lint checks that this file's relaxed
// operations are each justified and that the protocol still pairs
// Acquire with Release (the fences and seq stores below).
// ---------------------------------------------------------------------------

struct Slot {
    /// Even = stable generation, odd = write in progress. A never-written
    /// slot is generation 0 with an all-zero payload (trace 0 = empty).
    seq: AtomicU32,
    w: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU32::new(0),
            w: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct ThreadRing {
    tid: u32,
    /// Total spans ever written by the owner (monotonic).
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl ThreadRing {
    fn new(tid: u32) -> Self {
        ThreadRing {
            tid,
            head: AtomicU64::new(0),
            slots: (0..RING_CAP).map(|_| Slot::new()).collect(),
        }
    }

    /// Single-producer push (owner thread only): seqlock write of one
    /// packed record into the next slot, overwriting the oldest.
    fn push(&self, words: [u64; WORDS]) {
        // ordering: single-writer — only the owner thread ever stores
        // to `head` or `seq`, so these two loads read values this same
        // thread wrote and need no synchronization.
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i as usize) % RING_CAP];
        // ordering: same single-writer argument as the `head` load.
        let s = slot.seq.load(Ordering::Relaxed);
        // ordering: the odd-seq store may be relaxed because the
        // Release *fence* below orders it (and nothing else needs to
        // order against it from the writer side); a reader that misses
        // it at worst admits a record the seq recheck then rejects.
        slot.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // ordering: payload stores are relaxed by seqlock design — the
        // trailing Release store of the even seq publishes them, and
        // the reader's Acquire fence + seq recheck discards any torn
        // read it could still observe.
        for (w, v) in slot.w.iter().zip(words) {
            // ordering: seqlock payload (see above).
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(s.wrapping_add(2), Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Seqlock read of one slot; `None` when empty or caught mid-write.
    fn read(&self, at: usize) -> Option<SpanRec> {
        let slot = &self.slots[at];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 % 2 != 0 {
            return None;
        }
        // ordering: relaxed payload loads are the seqlock read side —
        // validity comes from the seq recheck below, not from these
        // loads themselves; a torn read is detected and discarded.
        let words: [u64; WORDS] = std::array::from_fn(|k| slot.w[k].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        // ordering: the Acquire fence above orders this recheck after
        // the payload loads; the load itself can therefore be relaxed.
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 != s2 || words[0] == 0 {
            return None;
        }
        Some(SpanRec {
            trace: words[0],
            id: (words[1] >> 32) as u32,
            parent: words[1] as u32,
            name: name_of((words[4] >> 32) as u32),
            start_us: words[2],
            dur_us: words[3],
            tid: words[4] as u32,
            arg0: words[5],
            arg1: words[6],
        })
    }
}

static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    static MY_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    static CURRENT: Cell<Option<SpanCtx>> = const { Cell::new(None) };
}

fn with_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
            let ring = Arc::new(ThreadRing::new(rings.len() as u32 + 1));
            rings.push(ring.clone());
            ring
        });
        f(ring)
    })
}

// ---------------------------------------------------------------------------
// IDs, sampling, slow threshold.
// ---------------------------------------------------------------------------

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(u64::MAX); // MAX = read env first
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);
static SLOW_BITS: AtomicU64 = AtomicU64::new(u64::MAX); // MAX = disabled

/// A minted per-request trace ID (nonzero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw nonzero ID.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// A position in a span tree — what crosses threads: the reactor hands
/// the scheduler `(trace, parent span)`, the worker opens children
/// under it with [`span_in`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// The request's trace ID.
    pub trace: u64,
    /// The span to parent onto.
    pub span: u32,
}

/// Sets the request sampling rate: record spans for 1 in `n` requests
/// (`0` disables tracing, `1` records every request).
pub fn set_sample_every(n: u64) {
    // ordering: an isolated config cell — readers only need to see
    // *some* recent value, and no other data is published with it.
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// The effective sampling rate (env `RINGCNN_TRACE_SAMPLE` on first
/// use, default [`DEFAULT_SAMPLE_EVERY`]).
pub fn sample_every() -> u64 {
    // ordering: config-cell read; a racing first-use just re-parses
    // the env var to the same value.
    let n = SAMPLE_EVERY.load(Ordering::Relaxed);
    if n != u64::MAX {
        return n;
    }
    let n = std::env::var("RINGCNN_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_SAMPLE_EVERY);
    // ordering: idempotent cache fill — every racer stores the same
    // parsed value, so publication order is irrelevant.
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
    n
}

/// Mints a trace ID for a new request iff the sampler elects it.
pub fn mint() -> Option<TraceId> {
    let n = sample_every();
    if n == 0 {
        return None;
    }
    // ordering: a statistical round-robin counter — only the modulo
    // distribution matters, not any cross-thread ordering.
    if SAMPLE_TICK.fetch_add(1, Ordering::Relaxed) % n != 0 {
        return None;
    }
    Some(mint_forced())
}

/// Mints a trace ID unconditionally (tests, forced triage).
pub fn mint_forced() -> TraceId {
    // ordering: ID mints only need uniqueness, which the atomic RMW
    // gives at any ordering.
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

/// Sets the slow-request threshold: a finished request at or above this
/// many milliseconds has its span tree captured for the `trace` verb
/// (and returned to the caller for logging). `None` disables capture.
pub fn set_slow_threshold_ms(thr: Option<f64>) {
    let bits = thr.map_or(u64::MAX, f64::to_bits);
    // ordering: isolated config cell, same argument as the sampler.
    SLOW_BITS.store(bits, Ordering::Relaxed);
}

/// The current slow-request threshold, if capture is enabled.
pub fn slow_threshold_ms() -> Option<f64> {
    // ordering: config-cell read; the whole threshold fits one word.
    let bits = SLOW_BITS.load(Ordering::Relaxed);
    (bits != u64::MAX).then(|| f64::from_bits(bits))
}

// ---------------------------------------------------------------------------
// Guards.
// ---------------------------------------------------------------------------

/// An open span; records into the thread's ring on drop and restores
/// the previous innermost span. Not `Send` — a span closes on the
/// thread that opened it (cross-thread stages open their own guards
/// via [`span_in`]).
pub struct SpanGuard {
    trace: u64,
    id: u32,
    parent: u32,
    name_idx: u32,
    start_us: u64,
    args: Cell<(u64, u64)>,
    prev: Option<SpanCtx>,
    _not_send: std::marker::PhantomData<*const ()>,
}

fn open(trace: u64, parent: u32, name: &'static str) -> SpanGuard {
    // ordering: ID mint — uniqueness comes from the RMW itself.
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(Some(SpanCtx { trace, span: id })));
    SpanGuard {
        trace,
        id,
        parent,
        name_idx: intern(name),
        start_us: clock::now_us(),
        args: Cell::new((0, 0)),
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Opens a root span (parent 0) for a freshly minted request trace.
pub fn root_span(trace: TraceId, name: &'static str) -> SpanGuard {
    open(trace.0, 0, name)
}

/// Opens a child of the innermost open span on this thread, or `None`
/// when no trace is active here (the zero-cost path for unsampled
/// requests).
pub fn child_span(name: &'static str) -> Option<SpanGuard> {
    current().map(|ctx| open(ctx.trace, ctx.span, name))
}

/// Opens a child of an explicit [`SpanCtx`] carried from another
/// thread.
pub fn span_in(ctx: SpanCtx, name: &'static str) -> SpanGuard {
    open(ctx.trace, ctx.span, name)
}

/// The innermost open span on this thread, if any.
pub fn current() -> Option<SpanCtx> {
    CURRENT.with(Cell::get)
}

impl SpanGuard {
    /// This span as a parent context for another thread.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx {
            trace: self.trace,
            span: self.id,
        }
    }

    /// Attaches two free attribution words (e.g. GEMM tiles executed /
    /// panel packs observed during the span).
    pub fn set_args(&self, arg0: u64, arg1: u64) {
        self.args.set((arg0, arg1));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = clock::now_us().saturating_sub(self.start_us);
        let (arg0, arg1) = self.args.get();
        with_ring(|ring| {
            ring.push([
                self.trace,
                ((self.id as u64) << 32) | self.parent as u64,
                self.start_us,
                dur,
                ((self.name_idx as u64) << 32) | ring.tid as u64,
                arg0,
                arg1,
            ]);
        });
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Allocates a span ID without recording anything, for a span whose
/// interval only becomes known on another thread (the serve reactor
/// reserves the request root at decode and records it from the
/// worker-side completion via [`record_manual_id`], so the finished
/// tree is guaranteed to contain its root).
pub fn reserve_root(trace: TraceId) -> SpanCtx {
    SpanCtx {
        trace: trace.0,
        // ordering: ID mint — uniqueness comes from the RMW itself.
        span: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
    }
}

/// Records a span whose interval was measured elsewhere (e.g. queue
/// wait, stamped at admission and closed at dispatch). Returns the new
/// span's ID.
pub fn record_manual(
    trace: u64,
    parent: u32,
    name: &'static str,
    start_us: u64,
    end_us: u64,
) -> u32 {
    // ordering: ID mint — uniqueness comes from the RMW itself.
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    record_manual_id(id, trace, parent, name, start_us, end_us);
    id
}

/// [`record_manual`] with a pre-reserved span ID (see [`reserve_root`]).
pub fn record_manual_id(
    id: u32,
    trace: u64,
    parent: u32,
    name: &'static str,
    start_us: u64,
    end_us: u64,
) {
    let name_idx = intern(name);
    with_ring(|ring| {
        ring.push([
            trace,
            ((id as u64) << 32) | parent as u64,
            start_us,
            end_us.saturating_sub(start_us),
            ((name_idx as u64) << 32) | ring.tid as u64,
            0,
            0,
        ]);
    });
}

// ---------------------------------------------------------------------------
// Snapshots and trees.
// ---------------------------------------------------------------------------

/// One completed span, as read back out of the rings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRec {
    /// Owning trace ID.
    pub trace: u64,
    /// Process-unique span ID.
    pub id: u32,
    /// Parent span ID (`0` = root).
    pub parent: u32,
    /// Stage name (`decode`, `queue_wait`, `batch`, `kernel`, …).
    pub name: String,
    /// Trace-clock start, microseconds (see [`crate::clock`]).
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Recording thread's ring ID (stable per thread, compact).
    pub tid: u32,
    /// Free attribution word (kernel spans: GEMM tiles executed).
    pub arg0: u64,
    /// Free attribution word (kernel spans: B-panel packs).
    pub arg1: u64,
}

/// Every valid span currently held in any thread's ring, sorted by
/// start time. Writers are not paused; a slot caught mid-write is
/// skipped.
pub fn snapshot() -> Vec<SpanRec> {
    let rings: Vec<Arc<ThreadRing>> = RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut out = Vec::new();
    for ring in rings {
        let filled = (ring.head.load(Ordering::Acquire) as usize).min(RING_CAP);
        for at in 0..filled {
            if let Some(rec) = ring.read(at) {
                out.push(rec);
            }
        }
    }
    out.sort_by_key(|r| (r.start_us, r.id));
    out
}

/// The spans of one trace, sorted by start time.
pub fn spans_of(trace: u64) -> Vec<SpanRec> {
    let mut spans = snapshot();
    spans.retain(|r| r.trace == trace);
    spans
}

/// One request's complete stage tree: a flat span list linked by
/// `parent` IDs (the wire form of the `trace` verb).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceTree {
    /// The request's trace ID.
    pub trace_id: u64,
    /// End-to-end request latency as reported to the client.
    pub total_ms: f64,
    /// Spans sorted by start time; `parent == 0` marks the root.
    pub spans: Vec<SpanRec>,
}

impl TraceTree {
    /// One-line rendering for the slow-request log: every span as
    /// `name:durms`, start-ordered, nesting shown by `>` depth markers.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            // Depth = parent-chain length (bounded walk: a broken link
            // in a torn snapshot must not loop).
            let mut depth = 0usize;
            let mut at = s.parent;
            while at != 0 && depth < 16 {
                depth += 1;
                at = self
                    .spans
                    .iter()
                    .find(|p| p.id == at)
                    .map_or(0, |p| p.parent);
            }
            for _ in 0..depth {
                out.push('>');
            }
            out.push_str(&format!("{}:{:.3}ms", s.name, s.dur_us as f64 / 1e3));
        }
        out
    }
}

/// Assembles the tree of one trace from the live rings.
pub fn build_tree(trace: u64, total_ms: f64) -> TraceTree {
    TraceTree {
        trace_id: trace,
        total_ms,
        spans: spans_of(trace),
    }
}

static SLOW: Mutex<VecDeque<TraceTree>> = Mutex::new(VecDeque::new());

/// Closes out a finished request: when slow-request capture is enabled
/// and `total_ms` meets the threshold, the trace's tree is assembled,
/// pushed onto the recent-slow ring (newest [`SLOW_CAP`] kept), and
/// returned so the caller can log it.
pub fn finish_request(trace: u64, total_ms: f64) -> Option<TraceTree> {
    let thr = slow_threshold_ms()?;
    if total_ms < thr {
        return None;
    }
    let tree = build_tree(trace, total_ms);
    let mut slow = SLOW.lock().unwrap_or_else(|e| e.into_inner());
    if slow.len() >= SLOW_CAP {
        slow.pop_front();
    }
    slow.push_back(tree.clone());
    Some(tree)
}

/// The `n` most recent captured slow-request trees, newest first
/// (`n == 0` = all retained).
pub fn recent_slow(n: usize) -> Vec<TraceTree> {
    let slow = SLOW.lock().unwrap_or_else(|e| e.into_inner());
    let take = if n == 0 {
        slow.len()
    } else {
        n.min(slow.len())
    };
    slow.iter().rev().take(take).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_guards_close_in_order_and_link_parents() {
        let trace = mint_forced();
        let (root_id, mid_id, leaf_id);
        {
            let root = root_span(trace, "request");
            root_id = root.ctx().span;
            {
                let mid = child_span("outer").expect("trace active");
                mid_id = mid.ctx().span;
                let leaf = child_span("inner").expect("trace active");
                leaf_id = leaf.ctx().span;
                drop(leaf);
                // After the leaf closes, the mid span is innermost again.
                assert_eq!(current().unwrap().span, mid_id);
            }
            assert_eq!(current().unwrap().span, root_id);
        }
        assert_eq!(current(), None);
        let spans = spans_of(trace.id());
        assert_eq!(spans.len(), 3);
        let by_id = |id: u32| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(by_id(root_id).parent, 0);
        assert_eq!(by_id(mid_id).parent, root_id);
        assert_eq!(by_id(leaf_id).parent, mid_id);
        // Children nest within their parents' intervals.
        let (r, m, l) = (by_id(root_id), by_id(mid_id), by_id(leaf_id));
        assert!(m.start_us >= r.start_us);
        assert!(l.start_us >= m.start_us);
        assert!(l.start_us + l.dur_us <= m.start_us + m.dur_us + 1);
    }

    #[test]
    fn overflow_keeps_the_newest_spans_without_reallocating() {
        // Overflow behavior is per-thread ring state, so run on a
        // dedicated thread whose ring this test owns entirely.
        let trace = mint_forced();
        std::thread::spawn(move || {
            for i in 0..(RING_CAP as u64 + 100) {
                let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
                with_ring(|ring| {
                    let cap_before = ring.slots.capacity();
                    ring.push([trace.id(), (id as u64) << 32, i, 1, ring.tid as u64, 0, 0]);
                    assert_eq!(ring.slots.capacity(), cap_before, "ring must never grow");
                    assert_eq!(ring.slots.len(), RING_CAP);
                });
            }
        })
        .join()
        .unwrap();
        let spans = spans_of(trace.id());
        assert_eq!(spans.len(), RING_CAP, "exactly one ring of spans survives");
        // `start_us` encodes the write index: the oldest 100 are gone,
        // the newest RING_CAP all present.
        let starts: Vec<u64> = spans.iter().map(|s| s.start_us).collect();
        assert_eq!(*starts.iter().min().unwrap(), 100);
        assert_eq!(*starts.iter().max().unwrap(), RING_CAP as u64 + 99);
    }

    #[test]
    fn manual_records_and_args_survive_the_ring() {
        let trace = mint_forced();
        let root = {
            let g = root_span(trace, "request");
            g.set_args(7, 9);
            g.ctx().span
        };
        let qid = record_manual(trace.id(), root, "queue_wait", 100, 350);
        let spans = spans_of(trace.id());
        let q = spans.iter().find(|s| s.id == qid).unwrap();
        assert_eq!((q.start_us, q.dur_us, q.parent), (100, 250, root));
        assert_eq!(q.name, "queue_wait");
        let r = spans.iter().find(|s| s.id == root).unwrap();
        assert_eq!((r.arg0, r.arg1), (7, 9));
    }

    #[test]
    fn slow_capture_honors_threshold_and_ring_bound() {
        // The slow ring is global; use distinctive totals to find ours.
        set_slow_threshold_ms(Some(5.0));
        let fast = mint_forced();
        record_manual(fast.id(), 0, "request", 0, 10);
        assert!(finish_request(fast.id(), 4.9).is_none(), "below threshold");
        let slow = mint_forced();
        record_manual(slow.id(), 0, "request", 0, 10);
        let tree = finish_request(slow.id(), 6.25).expect("captured");
        assert_eq!(tree.trace_id, slow.id());
        assert_eq!(tree.total_ms, 6.25);
        assert_eq!(tree.spans.len(), 1);
        assert!(recent_slow(0).iter().any(|t| t.trace_id == slow.id()));
        assert!(recent_slow(0).len() <= SLOW_CAP);
        set_slow_threshold_ms(None);
        assert!(finish_request(slow.id(), 1e9).is_none(), "capture disabled");
    }

    #[test]
    fn concurrent_recording_from_many_threads_is_race_free() {
        // Writers hammer their own rings while a reader snapshots
        // mid-flight; every fully-written span must come back intact.
        for threads in [2usize, 4, 8] {
            let trace = mint_forced();
            let per_thread = 200u64;
            std::thread::scope(|s| {
                for t in 0..threads {
                    s.spawn(move || {
                        for i in 0..per_thread {
                            let g = root_span(trace, "worker");
                            g.set_args(t as u64, i);
                        }
                    });
                }
                // Concurrent snapshots must never tear a record.
                for _ in 0..20 {
                    for rec in spans_of(trace.id()) {
                        assert_eq!(rec.name, "worker");
                        assert!(rec.arg0 < threads as u64);
                        assert!(rec.arg1 < per_thread);
                    }
                }
            });
            let spans = spans_of(trace.id());
            assert_eq!(spans.len(), threads * per_thread as usize);
            for t in 0..threads as u64 {
                assert_eq!(
                    spans.iter().filter(|s| s.arg0 == t).count() as u64,
                    per_thread
                );
            }
        }
    }

    #[test]
    fn sampling_elects_one_in_n() {
        // Drive the shared tick through full cycles; exactly one mint
        // per cycle regardless of phase.
        set_sample_every(8);
        let minted: usize = (0..64).filter_map(|_| mint()).count();
        assert_eq!(minted, 8);
        set_sample_every(0);
        assert!(mint().is_none(), "0 disables tracing");
        set_sample_every(1);
        assert!(mint().is_some(), "1 records everything");
        set_sample_every(DEFAULT_SAMPLE_EVERY);
    }
}
