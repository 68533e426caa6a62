//! Golden stdout of the paper bins that need no training: each bin runs
//! at its default quick scale in a scratch directory, and what it prints
//! must equal its file under `tests/golden/` byte for byte. A refactor
//! that must not move a printed number keeps these files as they are; a
//! change that means to move one regenerates the file from the bin's
//! release stdout and says why.
//!
//! `esim_validation` and `fig13_quantization` train models and take tens
//! of seconds in the debug build, so they are not pinned here.

/// `(name, executable, golden stdout)` of each pinned bin.
macro_rules! pinned {
    ($($bin:ident),* $(,)?) => {
        [$((
            stringify!($bin),
            env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            include_str!(concat!("golden/", stringify!($bin), ".out")),
        )),*]
    };
}

#[test]
fn paper_bins_print_their_golden_stdout() {
    let bins = pinned![
        table1_rings,
        table2_fast_algorithms,
        table3_settings,
        table5_layout,
        table6_breakdown,
        table7_diffy,
        table8_sparsity_accels,
        fig14_efficiency,
        hw_sweep,
        blocked_inference,
        ring_search,
    ];
    let dir = std::env::temp_dir().join(format!("ringcnn-bench-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut moved = Vec::new();
    for (name, exe, golden) in bins {
        let out = std::process::Command::new(exe)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("run {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let diverged = stdout.lines().zip(golden.lines()).position(|(a, b)| a != b);
        match diverged {
            Some(line) => moved.push(format!("{name}: line {} differs", line + 1)),
            None if stdout != golden => moved.push(format!("{name}: length differs")),
            None => {}
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(moved.is_empty(), "stdout moved: {moved:?}");
}
