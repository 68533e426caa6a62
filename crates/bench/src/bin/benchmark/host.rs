//! Host fingerprint, run guards and the process counters the end-to-end
//! metrics read (`/proc/self/stat`, `/proc/self/status`), plus the
//! source-line count of the `loc.*` rows.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The inference pool size every workload runs with.
pub const POOL_THREADS: usize = 2;

/// Fixes the rayon pool at [`POOL_THREADS`] (the pool is sized once, on
/// first use, from `RINGCNN_THREADS`) and refuses configurations whose
/// numbers would not be comparable. `allow_debug` is the `--quick`
/// smoke mode, whose numbers are not measurements.
pub fn guard(threads: usize, allow_debug: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !allow_debug {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    if std::env::var_os("RINGCNN_KERNEL").is_some() {
        return Err("refusing to run with RINGCNN_KERNEL set: \
                    the benchmark measures the auto-selected kernel"
            .into());
    }
    match std::env::var("RINGCNN_THREADS") {
        Ok(v) if v.trim() != threads.to_string() => {
            return Err(format!(
                "refusing to run with RINGCNN_THREADS={v}: every workload uses a pool of {threads}"
            ));
        }
        // Set before anything touches the pool; no other thread exists yet.
        _ => std::env::set_var("RINGCNN_THREADS", threads.to_string()),
    }
    let pool = ringcnn_nn::runtime::num_threads();
    if pool != threads {
        return Err(format!(
            "the pool came up with {pool} threads, not {threads}"
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One line that travels with every result, so numbers from different
/// hosts or configurations cannot be confused.
pub fn fingerprint(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host cpu=\"{cpu}\" nproc={nproc} kernel={} pool={} rustc=\"{}\" commit={} seed={seed}",
        ringcnn::tensor::gemm::active_kernel().label(),
        ringcnn_nn::runtime::num_threads(),
        command_line("rustc", &["-V"], None),
        command_line(
            "git",
            &["rev-parse", "--short", "HEAD"],
            Some(Path::new(env!("CARGO_MANIFEST_DIR")))
        ),
    )
}

/// Process CPU time (user + system) in seconds. `/proc/self/stat`
/// counts in clock ticks of 1/100 s on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis with field 3.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Resets the peak resident set size to the current one (`5` to
/// `/proc/self/clear_refs`), so that [`peak_rss_mib`] read at the end of
/// a pass is the peak *of that pass*: what the benchmark allocated for
/// itself beforehand (repeated set-ups, calibration frames) cannot set
/// the mark. A kernel that refuses the reset is reported, not hidden.
pub fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        println!("note: VmHWM could not be reset; peak_rss_mb covers the whole process");
    }
}

/// Peak resident set size (`VmHWM`) in MiB since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `crates/` directory, found from either manifest the benchmark
/// builds under (`crates/bench` or the benchmark's own directory).
fn crates_dir() -> Option<PathBuf> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|d| d.file_name().is_some_and(|n| n == "crates") && d.join("bench").is_dir())
        .map(Path::to_path_buf)
}

fn count_lines(dir: &Path, skip: &Path, total: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path == skip {
            continue;
        }
        if path.is_dir() {
            count_lines(&path, skip, total);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            *total += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        }
    }
}

/// Non-blank Rust lines under `crates/<name>/src`, the benchmark's own
/// directory excluded; 0 when the sources are not where the build left
/// them.
pub fn crate_loc(name: &str) -> u64 {
    let Some(crates) = crates_dir() else {
        return 0;
    };
    let mut total = 0;
    count_lines(
        &crates.join(name).join("src"),
        &crates.join("bench/src/bin/benchmark"),
        &mut total,
    );
    total
}
