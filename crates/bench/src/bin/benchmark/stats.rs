//! Order statistics the benchmark reports: nearest-rank percentiles for
//! latency samples, and the median/quartile summary the A/A check and
//! `--repeat` print (the same quartile rule as Python's
//! `statistics.quantiles(values, n=4)`, which is what the PR driver
//! applies to ten runs).

/// Sorts a sample ascending (`total_cmp`, so a stray NaN cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p·n` samples at or below it (index `ceil(p·n) − 1`).
/// An empty sample reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). An empty sample reads 0.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (position `k·(n+1)/4`, linear interpolation, clamped to the sample):
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the driver holds against a metric's bound.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2.abs()
}
