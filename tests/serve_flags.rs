//! Command-line validation of the two serve bins: a flag the bin does
//! not accept and a value that does not parse are hard errors (nonzero
//! exit, the flag and the bad value on stderr, the usage line) — never
//! a silently applied default. A script that still passes a flag retired
//! with the legacy perf trajectory must fail loudly, not run without it.
//!
//! Attached to the `ringcnn-serve` package so `CARGO_BIN_EXE_*`
//! resolves both binaries; the exit path only exists in a subprocess.
//! Flags are spelled without their dashes so the retired ones do not
//! read as live flags to a grep over the tree.

use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_ringcnn-serve");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");

/// Runs `bin <base…> --<flag> [value]`, asserts it is refused with the
/// flag and the usage line on stderr, and returns stderr.
fn refused(bin: &str, base: &[&str], flag: &str, value: Option<&str>) -> String {
    let flag = format!("--{flag}");
    let out = Command::new(bin)
        .args(base)
        .arg(&flag)
        .args(value)
        .env_remove("RINGCNN_KERNEL")
        .env("RINGCNN_LOG", "error")
        .output()
        .expect("spawn bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{bin} {flag} {value:?} must exit nonzero:\n{stderr}"
    );
    // The usage line lists every accepted flag, so the flag must be
    // named by the error line before it.
    let (error, usage) = stderr.split_once('\n').unwrap_or((&stderr, ""));
    assert!(
        error.contains(&flag) && usage.starts_with("usage:"),
        "stderr must name {flag}, then print the usage line:\n{stderr}"
    );
    stderr.into_owned()
}

#[test]
fn ringcnn_serve_refuses_unknown_flags_and_unparsable_values() {
    // `--models` points nowhere: a bin that got past its flags would
    // fail on the missing directory without naming the flag.
    let base = ["--models", "/nonexistent/ringcnn-models"];
    refused(SERVE, &base, "policy", Some("fifo"));
    refused(SERVE, &base, "no-such-flag", None);
    refused(SERVE, &base, "workers", None);
    let stderr = refused(SERVE, &base, "workers", Some("two"));
    assert!(stderr.contains("`two`"), "bad value not named:\n{stderr}");
}

#[test]
fn loadgen_refuses_unknown_flags_and_unparsable_values() {
    // Port 1 refuses connections: a bin that got past its flags would
    // fail on the connect without naming the flag.
    let base = ["--addr", "127.0.0.1:1", "--models", "m"];
    refused(LOADGEN, &base, "bench-out", Some("x"));
    let stderr = refused(LOADGEN, &base, "connections", Some("many"));
    assert!(stderr.contains("`many`"), "bad value not named:\n{stderr}");
    refused(LOADGEN, &base, "hw", Some("32by32"));
}

#[test]
fn a_valid_export_demo_command_line_still_succeeds() {
    let dir = std::env::temp_dir().join(format!("ringcnn-serve-flags-{}", std::process::id()));
    let out = Command::new(SERVE)
        .arg("--export-demo")
        .arg(&dir)
        .args(["--demo-seed", "7"])
        .env_remove("RINGCNN_KERNEL")
        .env("RINGCNN_LOG", "error")
        .output()
        .expect("spawn ringcnn-serve");
    assert!(
        out.status.success(),
        "--export-demo <tmp> --demo-seed 7 must succeed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("ffdnet_real.json").is_file());
    assert!(dir.join("vdsr_rh4.q.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
