//! The two load shapes of the serve workloads, over any `call` — the
//! real client in the benchmark, a stub in the tests. A call returns
//! whether it succeeded.

use crate::stats::sorted;
use std::time::{Duration, Instant};

/// One request as its connection saw it; times are seconds since the
/// start of the pass.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub intended_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    /// Whether the call succeeded and, where it was checked, matched.
    pub ok: bool,
}

/// Open loop: request `k` is due at `start + schedule[k]`. A connection
/// that is behind sends at once; either way the sample keeps the
/// *intended* time, so the wait a stall imposes on the requests queued
/// behind it is measured and not omitted.
pub fn open_loop(
    schedule: &[f64],
    start: Instant,
    mut call: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    schedule
        .iter()
        .enumerate()
        .map(|(k, &intended_s)| {
            let due = start + Duration::from_secs_f64(intended_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent_s = start.elapsed().as_secs_f64();
            let ok = call(k);
            Sample {
                intended_s,
                sent_s,
                done_s: start.elapsed().as_secs_f64(),
                ok,
            }
        })
        .collect()
}

/// Closed loop: the next request leaves when the previous reply is in.
pub fn closed_loop(
    seconds: f64,
    start: Instant,
    mut call: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let sent_s = start.elapsed().as_secs_f64();
        let ok = call(samples.len());
        samples.push(Sample {
            intended_s: sent_s,
            sent_s,
            done_s: start.elapsed().as_secs_f64(),
            ok,
        });
    }
    samples
}

/// Latency of the successful samples in ms, ascending, measured from
/// the intended send time.
pub fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.done_s - s.intended_s) * 1e3)
            .collect(),
    )
}
