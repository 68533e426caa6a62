//! `RINGCNN_KERNEL` startup validation: a typo'd backend request must
//! be a hard error (nonzero exit naming the variable), never a silent
//! fallback — an operator asking for `scalar` and silently getting
//! `avx2` invalidates whatever comparison they were running.
//!
//! Attached to the `ringcnn-serve` package so `CARGO_BIN_EXE_*`
//! resolves the server binary. These tests drive the bin as a
//! subprocess: the env var is read at process startup, so an in-process
//! test could not exercise the exit path.

use std::process::Command;

fn serve_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ringcnn-serve"))
}

#[test]
fn invalid_kernel_value_is_a_startup_error() {
    // A typo, and the two tiers retired with the one-driver GEMM.
    for bogus in ["avx512_totally_real", "reference", "sse2"] {
        let out = serve_cmd()
            .env("RINGCNN_KERNEL", bogus)
            .env("RINGCNN_LOG", "error")
            .output()
            .expect("spawn ringcnn-serve");
        assert!(
            !out.status.success(),
            "RINGCNN_KERNEL={bogus} must exit nonzero, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("RINGCNN_KERNEL") && stderr.contains(bogus),
            "stderr must name the variable and the bad value:\n{stderr}"
        );
        for accepted in ringcnn_tensor::gemm::KERNEL_ENV_VALUES {
            assert!(
                stderr.contains(accepted),
                "stderr must list `{accepted}` as accepted:\n{stderr}"
            );
        }
    }
}

#[test]
fn valid_kernel_value_reaches_normal_argument_handling() {
    // With a *valid* kernel and no --models, the bin must get past the
    // kernel gate and fail on the missing argument instead (usage text,
    // no mention of RINGCNN_KERNEL).
    let out = serve_cmd()
        .env("RINGCNN_KERNEL", "scalar")
        .env("RINGCNN_LOG", "error")
        .output()
        .expect("spawn ringcnn-serve");
    assert!(!out.status.success(), "no --models is still a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage:"),
        "expected the usage text, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("RINGCNN_KERNEL"),
        "a valid kernel must not trip the startup gate:\n{stderr}"
    );
}

#[test]
fn auto_and_unset_are_accepted() {
    for value in [None, Some("auto"), Some("")] {
        let mut cmd = serve_cmd();
        cmd.env_remove("RINGCNN_KERNEL").env("RINGCNN_LOG", "error");
        if let Some(v) = value {
            cmd.env("RINGCNN_KERNEL", v);
        }
        let out = cmd.output().expect("spawn ringcnn-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:") && !stderr.contains("RINGCNN_KERNEL"),
            "value {value:?} must pass the gate and hit the usage error:\n{stderr}"
        );
    }
}
