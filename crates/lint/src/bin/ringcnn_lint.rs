//! `cargo run -p ringcnn-lint` — lint the workspace tree.
//!
//! Walks `crates/` and `shims/` from the repo root (found by walking
//! up from the current directory, or pass it as the one argument),
//! prints one `path:line: [rule] message` diagnostic per violation,
//! and exits nonzero when anything is wrong. `--rules` prints the
//! rule catalog instead.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    for arg in &mut args {
        match arg.as_str() {
            "--rules" => {
                for rule in ringcnn_lint::RULES {
                    println!("{:<18} {}", rule.name, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: ringcnn-lint [--rules] [REPO_ROOT]");
                return ExitCode::SUCCESS;
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match ringcnn_lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "ringcnn-lint: no repo root (crates/ + docs/ANALYSIS.md) above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    run(&root)
}

fn run(root: &Path) -> ExitCode {
    match ringcnn_lint::lint_workspace(root) {
        Ok(violations) if violations.is_empty() => {
            println!("ringcnn-lint: clean ({} rules)", ringcnn_lint::RULES.len());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("ringcnn-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ringcnn-lint: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}
