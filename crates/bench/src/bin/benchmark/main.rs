//! The repo benchmark: five imaging workloads that each make a different
//! crate do most of the work, the end-to-end metrics measured with
//! tracing off (three bounded, the speed numbers as diagnostics), and a
//! separate traced pass that fills a per-crate layer table. It drives
//! the system only through public functions and claims
//! no gain — it is the ruler later perf and simplicity PRs are measured
//! with. `README.md` beside this file is the manual.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one pass
//! benchmark --workload NAME | --all  [--aa] [--repeat N]       driver
//! ```
//!
//! One pass is one process (the pool size, `VmHWM` and the set-up time
//! are per process); the driver modes re-execute this binary per pass.

mod frame;
mod host;
mod inputs;
mod load;
mod metrics;
mod probes;
mod serve;
mod spans;
mod stats;

use metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one pass measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: f64 = 10.0;

/// Most set-ups one measured pass times.
const MAX_SETUPS: usize = 101;

/// Input sizes and repetition counts of a pass.
pub struct Sizes {
    /// Frame height and width in output pixels (SR inputs are a
    /// quarter of it).
    frame_hw: usize,
    /// Core tile of the denoisers, in input pixels.
    tile_dn: usize,
    /// Core tile of the SR model, in (low-resolution) input pixels.
    tile_sr: usize,
    /// Request tile height and width of the serve workloads.
    request_hw: usize,
    /// Distinct frames (or request tiles) cycled per workload.
    frames: usize,
    /// Least number of set-ups timed per measured pass; `setup_s` is
    /// their median.
    setups: usize,
    /// Set-ups repeat until they have taken this many seconds in all
    /// (and at most [`MAX_SETUPS`] times), so the median of a 2 ms
    /// set-up and of a 100 ms one both span the host's fast swings.
    setup_seconds: f64,
    /// Calls per probe; timings are medians over them.
    calls: usize,
    /// Warm-up length as a share of the pass length.
    warmup_share: f64,
}

impl Sizes {
    /// The sizes every reported number is measured at.
    const FULL: Sizes = Sizes {
        frame_hw: 256,
        tile_dn: 64,
        tile_sr: 32,
        request_hw: 64,
        frames: 8,
        setups: 9,
        setup_seconds: 3.0,
        calls: 50,
        warmup_share: 0.15,
    };
    /// `--quick`: a smoke run small enough for an unoptimised build.
    /// Its numbers are not measurements.
    const QUICK: Sizes = Sizes {
        frame_hw: 64,
        tile_dn: 32,
        tile_sr: 8,
        request_hw: 32,
        frames: 2,
        setups: 1,
        setup_seconds: 0.0,
        calls: 3,
        warmup_share: 0.15,
    };
}

/// Writes everything `rec` holds to the workload's chrome trace,
/// `results/benchmark/<workload>.trace.json` under the working
/// directory, and returns the program's own spans for the span rows.
pub fn write_trace(workload: &str, rec: &spans::Recorder) -> Vec<ringcnn_trace::span::SpanRec> {
    let (own, program) = rec.take();
    let path = PathBuf::from("results/benchmark").join(format!("{workload}.trace.json"));
    match spans::write_chrome(&path, &own, &program) {
        Ok(()) => println!("trace {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
    program
}

/// Runs complete set-ups, tearing each down before the next — at least
/// `sizes.setups`, then until `sizes.setup_seconds` have gone by — and
/// returns the last with the median set-up time in seconds.
pub fn timed_set_ups<T>(
    sizes: &Sizes,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::new();
    let mut ready = None;
    let start = std::time::Instant::now();
    while times.len() < sizes.setups.max(1)
        || (start.elapsed().as_secs_f64() < sizes.setup_seconds && times.len() < MAX_SETUPS)
    {
        if let Some(previous) = ready.take() {
            tear_down(previous);
        }
        let t = std::time::Instant::now();
        ready = Some(set_up());
        times.push(t.elapsed().as_secs_f64());
    }
    let sorted = stats::sorted(times.clone());
    println!(
        "set-ups timed={} seconds min={} p25={} median={} max={}",
        times.len(),
        sorted[0],
        stats::percentile(&sorted, 0.25),
        stats::median(&times),
        sorted[sorted.len() - 1]
    );
    (
        ready.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

/// The `loc.*` rows: a count, compared exactly.
pub fn set_loc(values: &mut Values) {
    const CRATES: [(&str, &str); 12] = [
        ("loc.algebra", "algebra"),
        ("loc.tensor", "tensor"),
        ("loc.imaging", "imaging"),
        ("loc.nn", "nn"),
        ("loc.quant", "quant"),
        ("loc.core", "core"),
        ("loc.hw", "hw"),
        ("loc.esim", "esim"),
        ("loc.serve", "serve"),
        ("loc.trace", "trace"),
        ("loc.bench", "bench"),
        ("loc.lint", "lint"),
    ];
    let mut total = 0;
    for (metric, name) in CRATES {
        let n = host::crate_loc(name);
        total += n;
        values.set(metric, n as f64);
    }
    values.set("loc.total", total as f64);
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    aa: bool,
    repeat: usize,
    quick: bool,
    t1_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        aa: false,
        repeat: 1,
        quick: false,
        t1_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workloads.push(name);
            }
            "--all" => args.workloads = WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--aa" => args.aa = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            "--t1-child" => args.t1_child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("name a workload with --workload or pass --all".into());
    }
    Ok(args)
}

/// One pass of one workload in this process; the result line is the
/// last line of stdout.
fn run_pass(args: &Args, workload: &str, traced: bool) -> Result<bool, String> {
    let threads = if args.t1_child { 1 } else { host::POOL_THREADS };
    host::guard(threads, args.quick)?;
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let frame_w = frame::FRAME_WORKLOADS.iter().find(|w| w.name == workload);
    if args.t1_child {
        let w = frame_w.ok_or("--t1-child needs a frame workload")?;
        frame::t1_child(w, args.seed, args.seconds, &sizes);
        return Ok(true);
    }
    println!(
        "benchmark workload={workload} seed={} seconds={} trace={}{}",
        args.seed,
        args.seconds,
        u8::from(traced),
        if args.quick {
            " quick (not a measurement)"
        } else {
            ""
        }
    );
    println!("{}", host::fingerprint(args.seed));
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("why {}", w.why);
    }
    let outcome = match frame_w {
        Some(w) if traced => frame::trace(w, args.seed, args.seconds, &sizes, args.quick),
        Some(w) => frame::measure(w, args.seed, args.seconds, &sizes),
        None => {
            let w = serve::SERVE_WORKLOADS
                .iter()
                .find(|w| w.name == workload)
                .expect("every workload is a frame or a serve workload");
            if traced {
                serve::trace(w, args.seed, args.seconds, &sizes)
            } else {
                serve::measure(w, args.seed, args.seconds, &sizes)
            }
        }
    };
    let table = if traced { PER_LAYER } else { END_TO_END };
    metrics::print_outcome(&outcome, table);
    Ok(outcome.failed == 0)
}

/// Runs one pass as a child process, echoes its report and returns the
/// values of its result line followed by those of its `diagnostic`
/// lines, or `None` when it failed.
fn child_pass(args: &Args, workload: &str, seed: u64, traced: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text.trim_end().rsplit_once('\n')?;
    println!("{report}");
    if !out.status.success() {
        println!("{line}");
        return None;
    }
    let result: serde::Value = serde_json::from_str(line).ok()?;
    let serde::Value::Object(fields) = result.field("metrics").ok()? else {
        return None;
    };
    let mut values: Vec<(String, f64)> = fields
        .iter()
        .map(|(name, m)| Some((name.clone(), m.field("value").ok()?.as_f64().ok()?)))
        .collect::<Option<_>>()?;
    for l in report.lines() {
        let mut words = l.split_whitespace();
        if let (Some("diagnostic"), Some(name), Some("="), Some(v)) =
            (words.next(), words.next(), words.next(), words.next())
        {
            values.push((name.to_string(), v.parse().ok()?));
        }
    }
    Some(values)
}

/// `--all`, `--aa`, `--repeat N`: every selected workload, each pass in
/// a process of its own. Plain: one measured and one traced pass. With
/// `--repeat N` the measured pass runs under N consecutive seeds and
/// the median, quartiles and spread (IQR / median) of every end-to-end
/// metric and speed diagnostic are printed. With `--aa` all of that
/// runs twice, and — as the PR driver does — every bounded metric's
/// spread (`setup_s` excepted) and the difference of its two medians
/// must stay within its bound. Diagnostics get the same lines without a
/// verdict.
fn drive(args: &Args) -> bool {
    let mut ok = true;
    for workload in &args.workloads {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for _ in 0..if args.aa { 2 } else { 1 } {
            let runs: Vec<_> = (0..args.repeat as u64)
                .filter_map(|i| child_pass(args, workload, args.seed + i, false))
                .collect();
            ok &= runs.len() == args.repeat;
            sets.push(runs);
        }
        if !args.aa {
            ok &= child_pass(args, workload, args.seed, true).is_some();
        }
        let Some(first) = sets[0].first() else {
            continue;
        };
        for (name, _) in first {
            let m = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|m| m.name == name)
                .expect("a pass prints metrics of the tables only");
            let column = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect()
            };
            // `holds(x)`: the verdict on a spread or a difference, and
            // whether it counts; diagnostics have no bound to hold.
            let mut holds = |x: f64, gated: bool| match m.bound {
                Some(bound) if x <= bound => format!("bound={bound} ok"),
                Some(bound) if gated => {
                    ok = false;
                    format!("bound={bound} EXCEEDS")
                }
                Some(bound) => format!("bound={bound} exceeds (not gated)"),
                None => "diagnostic".to_string(),
            };
            for (i, set) in sets.iter().enumerate() {
                let v = column(set);
                if v.len() < 2 {
                    continue;
                }
                let [q1, q2, q3] = stats::quartiles(&v);
                let spread = stats::spread(&v);
                println!(
                    "repeat {workload} set={i} {name} n={} q1={q1} median={q2} q3={q3} {} \
                     spread={spread:.4} {}",
                    v.len(),
                    m.unit,
                    holds(spread, args.aa && name != "setup_s"),
                );
            }
            if let [a, b] = &sets[..] {
                let (a, b) = (stats::median(&column(a)), stats::median(&column(b)));
                let diff = (b - a).abs() / a.abs();
                println!(
                    "aa {workload} {name} first={a} second={b} {} diff={diff:.4} {}",
                    m.unit,
                    holds(diff, true)
                );
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1 && !args.aa && args.repeat == 1;
    let result = match args.trace {
        Some(traced) if single => run_pass(&args, &args.workloads[0], traced),
        None if args.t1_child && single => run_pass(&args, &args.workloads[0], false),
        Some(_) => Err("--trace selects one pass of one workload; \
                        drop it to run both passes, --aa or --repeat"
            .into()),
        None => Ok(drive(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
