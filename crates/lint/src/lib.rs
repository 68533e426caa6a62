//! `ringcnn-lint` — workspace-specific static analysis for the
//! RingCNN repro.
//!
//! The perf-critical layers PRs 6–9 added (AVX2 GEMM
//! micro-kernels, raw epoll, the rayon shim's borrowed-job hand-off,
//! the seqlock span ring) are exactly the code a reviewer cannot
//! re-verify by eye on every change. This crate machine-checks the
//! invariants that keep them honest: every `unsafe` carries a SAFETY
//! rationale, every `Ordering::Relaxed` outside the profiling
//! allowlist justifies itself, seqlock files pair Acquire/Release, and
//! the serve layer stays free of ad-hoc prints and event-loop panics.
//!
//! Std-only by construction: a hand-rolled token scanner
//! ([`scan`]) understands comments, strings, raw strings, and
//! lifetimes — enough lexical Rust that no rule can be fooled by an
//! `unsafe` inside a string literal — without `syn` or any crates.io
//! dependency (the container is offline).
//!
//! Violations are suppressible inline with
//! `// lint:allow(<rule>): <reason>`; the reason is mandatory and the
//! suppression syntax is itself linted. See `docs/ANALYSIS.md` for
//! the rule catalog and how to add a rule.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based; `0` when the finding is file- or doc-scoped.
    pub line: usize,
    pub message: String,
}

impl Violation {
    pub fn new(
        rule: &'static str,
        path: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Violation {
            rule,
            path: path.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A catalog entry; `docs/ANALYSIS.md` must document every rule by
/// name (enforced by `tests/lint.rs`).
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
}

/// Every rule the linter can emit.
pub const RULES: &[Rule] = &[
    Rule {
        name: "safety-comment",
        summary: "every `unsafe` block/fn/impl is preceded by a `// SAFETY:` (or `/// # Safety`) rationale",
    },
    Rule {
        name: "ordering-comment",
        summary: "every `Ordering::Relaxed` outside an allowlisted module carries an `// ordering:` justification",
    },
    Rule {
        name: "seqlock-pairing",
        summary: "a file tagged `lint:seqlock` must use both Acquire and Release orderings",
    },
    Rule {
        name: "no-print",
        summary: "no `eprintln!` in crates/serve, and no `println!` outside its bins",
    },
    Rule {
        name: "no-unwrap",
        summary: "no `.unwrap()`/`.expect(` in reactor.rs/scheduler.rs non-test code",
    },
    Rule {
        name: "no-sleep",
        summary: "no `thread::sleep` in reactor.rs/scheduler.rs non-test code",
    },
    Rule {
        name: "suppression",
        summary: "`lint:allow(<rule>): <reason>` must name a suppressible rule and give a reason",
    },
];

/// Lints one Rust source file. `rel` is the repo-relative path with
/// `/` separators (rule scoping is path-based).
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    rules::check_file(rel, &scan::scan(src))
}

/// Lints the whole tree: every `.rs` file under `crates/` and
/// `shims/`. Results are ordered by path, then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["crates", "shims"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_source(&rel, &src));
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root: walks upward from `start` to the first
/// directory containing both `crates/` and `docs/ANALYSIS.md`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("crates").is_dir() && d.join("docs/ANALYSIS.md").is_file() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}
