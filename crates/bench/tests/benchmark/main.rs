//! Tests of the repo benchmark (`src/bin/benchmark`): its order
//! statistics, its seeded inputs, the open-loop timing rule, the
//! agreement between its metric tables and `BENCHMARK.json`, and a
//! `--quick` smoke run of every workload and pass.
//!
//! The benchmark's leaf modules are compiled into this test by path, so
//! the functions under test are the ones the bin runs.

#[path = "../../src/bin/benchmark/inputs.rs"]
mod inputs;
#[path = "../../src/bin/benchmark/load.rs"]
mod load;
#[allow(dead_code)] // The bin's value printing is exercised by the smoke runs.
#[path = "../../src/bin/benchmark/metrics.rs"]
mod metrics;
#[path = "../../src/bin/benchmark/stats.rs"]
mod stats;

use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[test]
fn percentiles_are_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 0.50), 50.0);
    assert_eq!(stats::percentile(&v, 0.90), 90.0);
    assert_eq!(stats::percentile(&v, 0.99), 99.0);
    assert_eq!(stats::percentile(&v, 1.0), 100.0);
    // The smallest value with at least p·n samples at or below it.
    assert_eq!(stats::percentile(&[1.0, 2.0, 3.0], 0.50), 2.0);
    assert_eq!(stats::percentile(&[1.0, 2.0, 3.0, 4.0], 0.50), 2.0);
    assert_eq!(stats::percentile(&[7.0], 0.90), 7.0);
    assert_eq!(stats::percentile(&[], 0.90), 0.0);
}

#[test]
fn quartiles_follow_the_exclusive_method_of_the_driver() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(
        stats::quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]),
        [1.5, 3.0, 4.5]
    );
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!((stats::spread(&v) - 1.0).abs() < 1e-12);
}

#[test]
fn schedules_and_frames_are_functions_of_the_seed() {
    let a = inputs::poisson_schedule(11, 100.0, 2.0);
    assert_eq!(a, inputs::poisson_schedule(11, 100.0, 2.0));
    assert_ne!(a, inputs::poisson_schedule(12, 100.0, 2.0));
    // The count is the offered load, the same under every seed.
    assert_eq!(a.len(), 200);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|t| (0.0..2.0).contains(t)));

    let frames = inputs::clean_frames(3, 16, 6);
    let again = inputs::clean_frames(3, 16, 6);
    let other = inputs::clean_frames(4, 16, 6);
    for i in 0..frames.len() {
        assert_eq!(frames[i].as_slice(), again[i].as_slice());
        assert_ne!(frames[i].as_slice(), other[i].as_slice());
    }
    let noisy = inputs::noisy(&frames, 3);
    assert_eq!(noisy[0].as_slice(), inputs::noisy(&frames, 3)[0].as_slice());
    assert_ne!(noisy[0].as_slice(), frames[0].as_slice());
    let shape = inputs::low_res(&frames)[0].shape();
    assert_eq!(
        (shape.h, shape.w),
        (4, 4),
        "SR inputs are a quarter the size"
    );
}

/// A stub server that stalls once for 200 ms while requests keep coming
/// due every 10 ms: the open loop must charge the stall to the ~20
/// requests queued behind it, which timing from the actual send would
/// hide as one slow sample. Every assertion holds on a host of any
/// speed: a sleep never returns early, so the queued requests' waits
/// are lower bounds, and a busy host only adds to the few samples that
/// may be slow from their actual send.
#[test]
fn open_loop_times_from_the_intended_send() {
    let schedule: Vec<f64> = (0..100).map(|k| f64::from(k) * 0.010).collect();
    let stalled = load::open_loop(&schedule, Instant::now(), |k| {
        if k == 20 {
            std::thread::sleep(Duration::from_millis(200));
        }
        true
    });
    // Requests 20..40 wait at least 200, 190, …, 10 ms; rank 90 of 100
    // is the tenth-shortest of those waits.
    let from_intended = load::latencies_ms(&stalled);
    let p90 = stats::percentile(&from_intended, 0.90);
    assert!(p90 >= 80.0, "p90 from the intended send time is {p90} ms");
    let waited = from_intended.iter().filter(|ms| **ms >= 50.0).count();
    assert!(waited >= 15, "{waited} requests were charged the stall");
    let late = stalled.iter().filter(|s| s.sent_s - s.intended_s > 0.005);
    assert!(late.count() >= 15, "the queued requests were sent late");
    // Timed from the actual send, the same run shows one slow sample
    // (a busy host may add a few, never the whole queue).
    let from_send: Vec<f64> = stalled
        .iter()
        .map(|s| (s.done_s - s.sent_s) * 1e3)
        .collect();
    assert!(from_send.iter().any(|ms| *ms >= 200.0));
    assert!(from_send.iter().filter(|ms| **ms >= 50.0).count() <= 5);
}

#[test]
fn closed_loop_sends_on_completion() {
    let samples = load::closed_loop(0.05, Instant::now(), |_| true);
    assert!(!samples.is_empty());
    assert!(samples.iter().all(|s| s.intended_s == s.sent_s && s.ok));
    assert!(samples.windows(2).all(|w| w[0].done_s <= w[1].sent_s));
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn text(v: &Value, key: &str) -> String {
    match v.field(key) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("field `{key}` is not a string: {other:?}"),
    }
}

fn items<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.field(key) {
        Ok(Value::Array(a)) => a,
        other => panic!("field `{key}` is not an array: {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

/// `BENCHMARK.json` restates the bin's tables; neither may drift.
#[test]
fn benchmark_json_and_the_tables_agree() {
    let json = benchmark_json();

    let workloads = items(&json, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
        assert!(w.why.chars().count() <= 200 && !w.why.contains('\n'));
    }

    let check = |key: &str, table: &[Metric]| {
        let listed = items(&json, key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
            let better = if m.lower_is_better { "lower" } else { "higher" };
            assert_eq!(text(j, "better"), better, "{}", m.name);
            match m.bound {
                Some(b) => {
                    let listed = j.field("bound").and_then(Value::as_f64).expect("bound");
                    assert_eq!(listed, b, "{}", m.name);
                    assert!(b > 0.0 && b <= 0.25);
                }
                None => assert!(j.field("bound").is_err(), "{}", m.name),
            }
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        .collect();
    assert!(names.iter().all(|n| legal_name(n)));
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let paths: Vec<String> = items(&json, "paths")
        .iter()
        .map(|p| match p {
            Value::Str(s) => s.clone(),
            other => panic!("a path is a string, not {other:?}"),
        })
        .collect();
    assert_eq!(
        paths,
        [
            "crates/bench/src/bin/benchmark",
            "crates/bench/tests/benchmark"
        ]
    );
}

/// The lines of one table of a manifest, comments and blanks dropped.
fn manifest_table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != format!("[{header}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// `name = { path = "…" }` entries of a manifest table, the paths
/// resolved against `base`.
fn path_dependencies(manifest: &str, header: &str, base: &Path) -> Vec<(String, PathBuf)> {
    manifest_table(manifest, header)
        .iter()
        .filter_map(|l| {
            let (name, rest) = l.split_once('=')?;
            let path = rest.split('"').nth(1)?;
            let dir = base
                .join(path)
                .canonicalize()
                .expect("a dependency path exists");
            Some((name.trim().to_string(), dir))
        })
        .collect()
}

/// `BENCHMARK.json` builds the benchmark as a package of its own (the
/// PR driver's contract), tier-1 as a bin of `ringcnn-bench`. The two
/// manifests must describe one program: the same dependencies at the
/// same paths, the same lints, the same release profile.
#[test]
fn the_standalone_manifest_mirrors_the_workspace() {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let own_dir = bench_dir.join("src/bin/benchmark");
    let root_dir = bench_dir.join("../..");
    let read = |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let own = read(own_dir.join("Cargo.toml"));
    let bench = read(bench_dir.join("Cargo.toml"));
    let root = read(root_dir.join("Cargo.toml"));

    assert_eq!(
        manifest_table(&own, "profile.release"),
        manifest_table(&root, "profile.release")
    );
    assert_eq!(
        manifest_table(&own, "lints.clippy"),
        manifest_table(&root, "workspace.lints.clippy")
    );
    let workspace = path_dependencies(&root, "workspace.dependencies", &root_dir);
    let inherited = manifest_table(&bench, "dependencies");
    let mine = path_dependencies(&own, "dependencies", &own_dir);
    assert!(!mine.is_empty());
    for dependency in &mine {
        assert!(
            workspace.contains(dependency),
            "{dependency:?} is not the workspace's"
        );
        assert!(
            inherited.contains(&format!("{}.workspace = true", dependency.0)),
            "ringcnn-bench does not depend on {}",
            dependency.0
        );
    }
}

/// Runs one `--quick` pass in `dir` and returns the metrics of its
/// result line, checking that the line names exactly the metrics of
/// `table`, once each, and reports no failed operation.
fn quick_pass(dir: &Path, workload: &str, traced: bool, table: &[Metric]) -> Vec<(String, f64)> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--workload", workload, "--seed", "5"])
        .args([
            "--seconds",
            "0.25",
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env_remove("RINGCNN_THREADS")
        .env_remove("RINGCNN_KERNEL")
        .current_dir(dir)
        .output()
        .expect("spawn the benchmark bin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={traced} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(line).expect("the result line is JSON");
    let Value::Object(keys) = &result else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let count = |key: &str| result.field(key).and_then(Value::as_u64).ok();
    assert_eq!(result.field("correct").ok(), Some(&Value::Bool(true)));
    assert!(count("attempted").is_some_and(|n| n >= 1));
    assert_eq!(count("failed"), Some(0));
    let Ok(Value::Object(metrics)) = result.field("metrics") else {
        panic!("metrics is an object");
    };
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let listed: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(emitted, listed, "{workload} trace={traced}");
    metrics
        .iter()
        .zip(table)
        .map(|((name, m), def)| {
            assert_eq!(text(m, "unit"), def.unit, "{name}");
            let value = m.field("value").and_then(Value::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            // Every metric is also printed by name with its unit.
            assert_eq!(
                stdout
                    .lines()
                    .filter(|l| l.starts_with(&format!("metric {name} = ")))
                    .count(),
                1,
                "{name}"
            );
            (name.clone(), value)
        })
        .collect()
}

/// Both passes of every workload at `--quick` size, one after the other
/// so that no two pools of 2 share the 2-core host. Only structure is
/// asserted — the metric set, the trace file, exact counts; the bin
/// itself panics on a layer walk that misses a leaf. Timing ratios
/// (`nn.model.walk_coverage` within 0.9–1.1) are printed by the release
/// traced pass and recorded in the README, not asserted on an
/// unoptimised build.
#[test]
fn quick_smoke_of_every_workload_and_pass() {
    let dir = std::env::temp_dir().join(format!("ringcnn-benchmark-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    for w in WORKLOADS {
        let measured = quick_pass(&dir, w.name, false, END_TO_END);
        assert!(
            measured.iter().all(|(_, v)| *v > 0.0),
            "end-to-end metrics are never 0: {measured:?}"
        );
        let traced = quick_pass(&dir, w.name, true, PER_LAYER);
        assert!(dir
            .join(format!("results/benchmark/{}.trace.json", w.name))
            .is_file());
        let value = |name: &str| traced.iter().find(|(n, _)| n == name).expect(name).1;
        assert!(value("loc.total") > 10_000.0 && value("loc.bench") > 1_000.0);
        assert!(value("tensor.gemm.tiles_per_op") > 0.0);
        assert!(value("nn.model.walk_coverage") > 0.0);
        assert!(value("cpu_ms_per_op") > 0.0);
        // The speed diagnostics are scoped as the issue scopes them.
        let frame = w.name.starts_with("frame_");
        for name in ["mpixels_per_s", "frame_ms_p50"] {
            assert_eq!(value(name) > 0.0, frame, "{name} on {}", w.name);
        }
        for name in ["throughput_rps", "latency_p50_ms", "latency_p90_ms"] {
            assert_eq!(value(name) > 0.0, !frame, "{name} on {}", w.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_bin_refuses_configurations_it_cannot_compare() {
    let run = |args: &[&str], env: Option<(&str, &str)>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_benchmark"));
        cmd.args(args)
            .env_remove("RINGCNN_THREADS")
            .env_remove("RINGCNN_KERNEL");
        if let Some((k, v)) = env {
            cmd.env(k, v);
        }
        cmd.output().expect("spawn the benchmark bin")
    };
    let pass = ["--quick", "--workload", "serve_closed_json", "--trace", "0"];
    let refused = |out: &std::process::Output, why: &str| {
        assert!(!out.status.success());
        assert!(out.stdout.is_empty(), "no result line on a refusal");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(why), "{err}");
    };
    refused(
        &run(&pass, Some(("RINGCNN_THREADS", "4"))),
        "RINGCNN_THREADS",
    );
    refused(
        &run(&pass, Some(("RINGCNN_KERNEL", "scalar"))),
        "RINGCNN_KERNEL",
    );
    refused(
        &run(&["--workload", "no_such_workload"], None),
        "unknown workload",
    );
    refused(&run(&[], None), "--workload");
    // Tests build unoptimised: without --quick that alone is refused.
    if cfg!(debug_assertions) {
        refused(&run(&pass[1..], None), "debug build");
    }
}
