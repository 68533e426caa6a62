//! Tier-1 gate: the workspace tree is lint-clean.
//!
//! Attached to the `ringcnn-lint` crate (`[[test]] path` in its
//! Cargo.toml), same convention as the facade and serve suites. This
//! is the enforcement arm of `cargo run -p ringcnn-lint`: any
//! violation — an undocumented `unsafe`, an unjustified
//! `Ordering::Relaxed`, a stray `eprintln!` in the serve layer — fails
//! tier-1 with the full `path:line: [rule] message` diagnostics in the
//! assert output.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_tree_is_lint_clean() {
    let violations = ringcnn_lint::lint_workspace(&repo_root()).expect("lint walk reads the tree");
    assert!(
        violations.is_empty(),
        "ringcnn-lint found {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_is_documented_in_analysis_md() {
    let doc = std::fs::read_to_string(repo_root().join("docs/ANALYSIS.md"))
        .expect("docs/ANALYSIS.md exists");
    let missing: Vec<&str> = ringcnn_lint::RULES
        .iter()
        .map(|r| r.name)
        .filter(|name| !doc.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/ANALYSIS.md does not document rule(s): {missing:?}"
    );
}
