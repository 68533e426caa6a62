//! The per-file token rules: SAFETY coverage for `unsafe`, ordering
//! justifications for `Ordering::Relaxed`, seqlock Acquire/Release
//! pairing, and the serve-layer forbidden-API checks — plus the
//! `// lint:allow(<rule>): <reason>` suppression machinery, which is
//! itself a rule (a suppression without a reason is a violation).

use crate::scan::{self, Scanned};
use crate::Violation;

/// Rules that may be suppressed inline. `suppression` is deliberately
/// absent: suppressing it would be self-defeating.
pub const SUPPRESSIBLE: &[&str] = &[
    "safety-comment",
    "ordering-comment",
    "seqlock-pairing",
    "no-print",
    "no-unwrap",
    "no-sleep",
    "no-downcast",
];

/// `Ordering::Relaxed` sites that never need a per-line justification:
/// `(path suffix, module path prefix, rationale)`.
const RELAXED_ALLOWLIST: &[(&str, &str, &str)] = &[(
    "crates/tensor/src/gemm.rs",
    "profile",
    "monotonic profiling counters, read only for human-facing stats",
)];

/// What `no-downcast` flags in the crates whose walks over a model read
/// what a layer is from `Layer::describe()`.
const DOWNCASTS: [&str; 3] = ["downcast_mut", "downcast_ref", ".is::<"];
const NO_DOWNCAST: &str = "downcast in a crate that walks models: read `Layer::describe()` instead";

/// What `one-tile-walk` flags, and the files that write it once: the
/// edge rule of a window (what the rest of the program reads, and the
/// margin a convolution keeps of it) in the step program's one driver,
/// the cutting of a frame into sections and their stitching in the
/// runtime.
const TILE_WALK: [(&str, &[&str]); 4] = [
    ("reads(&", &["program.rs"]),
    ("min(keep)", &["program.rs"]),
    ("extract_window(", &["runtime.rs"]),
    ("paste_window(", &["runtime.rs"]),
];
const ONE_TILE_WALK: &str =
    "a second block flow: stream a window through `program::stream`, or compile a step for it";

/// An inline `// lint:allow(rule): reason` annotation, resolved to the
/// line of code it covers.
struct Suppression {
    rule: String,
    /// 0-indexed line the suppression exempts (its own line when that
    /// line has code, otherwise the next code-bearing line).
    covers: usize,
}

/// Runs every token rule over one scanned file. `rel` is the
/// repo-relative path with `/` separators.
pub fn check_file(rel: &str, scanned: &Scanned) -> Vec<Violation> {
    let mut out = Vec::new();
    let suppressions = collect_suppressions(rel, scanned, &mut out);
    let suppressed = |rule: &str, idx: usize| {
        suppressions
            .iter()
            .any(|s| s.rule == rule && s.covers == idx)
    };

    let in_serve = rel.starts_with("crates/serve/");
    let walks_models = ["nn", "quant", "esim", "serve"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let in_bin = rel.contains("/src/bin/");
    let walks_tiles = ["nn", "quant", "esim"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let panic_free = rel.ends_with("crates/serve/src/reactor.rs")
        || rel.ends_with("crates/serve/src/scheduler.rs");
    let mut seqlock_marker: Option<usize> = None;

    for (idx, line) in scanned.lines.iter().enumerate() {
        if line.comment.contains("lint:seqlock") {
            seqlock_marker = Some(idx);
        }
        if line.in_test {
            continue;
        }
        let code = &line.code;

        if scan::contains_word(code, "unsafe")
            && !has_annotation(scanned, idx, &["SAFETY:", "# Safety"])
            && !suppressed("safety-comment", idx)
        {
            out.push(Violation::new(
                "safety-comment",
                rel,
                idx + 1,
                "`unsafe` without a `// SAFETY:` (or `/// # Safety`) rationale",
            ));
        }

        if scan::contains_word(code, "Relaxed")
            && !relaxed_allowlisted(rel, &line.module)
            && !has_annotation(scanned, idx, &["ordering:"])
            && !suppressed("ordering-comment", idx)
        {
            out.push(Violation::new(
                "ordering-comment",
                rel,
                idx + 1,
                "`Ordering::Relaxed` outside an allowlisted module without an `// ordering:` justification",
            ));
        }

        if in_serve {
            if scan::contains_word(code, "eprintln") && !suppressed("no-print", idx) {
                out.push(Violation::new(
                    "no-print",
                    rel,
                    idx + 1,
                    "`eprintln!` in crates/serve — route diagnostics through the structured logger",
                ));
            }
            if !in_bin && scan::contains_word(code, "println") && !suppressed("no-print", idx) {
                out.push(Violation::new(
                    "no-print",
                    rel,
                    idx + 1,
                    "`println!` in crates/serve library code — only bins own stdout",
                ));
            }
        }

        let downcast = DOWNCASTS.iter().any(|d| code.contains(d));
        if walks_models && downcast && !suppressed("no-downcast", idx) {
            out.push(Violation::new("no-downcast", rel, idx + 1, NO_DOWNCAST));
        }

        let tile_walk = |(t, homes): &(&str, &[&str])| {
            code.contains(t) && !homes.iter().any(|f| rel.ends_with(f))
        };
        if walks_tiles && TILE_WALK.iter().any(tile_walk) {
            out.push(Violation::new("one-tile-walk", rel, idx + 1, ONE_TILE_WALK));
        }

        if panic_free {
            if (code.contains(".unwrap()") || code.contains(".expect("))
                && !suppressed("no-unwrap", idx)
            {
                out.push(Violation::new(
                    "no-unwrap",
                    rel,
                    idx + 1,
                    "`.unwrap()`/`.expect(` in reactor/scheduler non-test code — a panic here kills the event loop",
                ));
            }
            if code.contains("thread::sleep") && !suppressed("no-sleep", idx) {
                out.push(Violation::new(
                    "no-sleep",
                    rel,
                    idx + 1,
                    "`thread::sleep` in reactor/scheduler non-test code — blocks the event loop",
                ));
            }
        }
    }

    if let Some(marker) = seqlock_marker {
        let has = |word: &str| {
            scanned
                .lines
                .iter()
                .any(|l| !l.in_test && scan::contains_word(&l.code, word))
        };
        for side in ["Acquire", "Release"] {
            if !has(side) {
                out.push(Violation::new(
                    "seqlock-pairing",
                    rel,
                    marker + 1,
                    format!(
                        "file is tagged `lint:seqlock` but its non-test code never uses `Ordering::{side}`"
                    ),
                ));
            }
        }
    }

    out
}

/// True when `rel`/`module` falls under a [`RELAXED_ALLOWLIST`] entry.
fn relaxed_allowlisted(rel: &str, module: &str) -> bool {
    RELAXED_ALLOWLIST.iter().any(|(suffix, module_prefix, _)| {
        rel.ends_with(suffix)
            && (module == *module_prefix || module.starts_with(&format!("{module_prefix}::")))
    })
}

/// Whether the comment attached to line `idx` contains any of
/// `needles`: a trailing comment anywhere in the enclosing multi-line
/// statement (hoisted to the line whose predecessor ends with `;`,
/// `{`, or `}`), or the contiguous run of comment/blank/attribute
/// lines directly above that statement. The walk stops at the first
/// unrelated code line, so adjacent sites each need their own
/// annotation.
fn has_annotation(scanned: &Scanned, idx: usize, needles: &[&str]) -> bool {
    let hit = |text: &str| needles.iter().any(|n| text.contains(n));
    // Hoist to the first line of the statement `idx` belongs to.
    let mut start = idx;
    while start > 0 {
        let prev = scanned.lines[start - 1].code.trim();
        if prev.is_empty()
            || prev.starts_with("#[")
            || prev.starts_with("#![")
            || prev.ends_with(';')
            || prev.ends_with('{')
            || prev.ends_with('}')
        {
            break;
        }
        start -= 1;
    }
    if (start..=idx).any(|i| hit(&scanned.lines[i].comment)) {
        return true;
    }
    let mut i = start;
    while i > 0 {
        i -= 1;
        let line = &scanned.lines[i];
        let code = line.code.trim();
        if !(code.is_empty() || code.starts_with("#[") || code.starts_with("#![")) {
            return false;
        }
        if hit(&line.comment) {
            return true;
        }
    }
    false
}

/// Extracts every `lint:allow(rule): reason` comment, resolving the
/// line each one covers. Malformed suppressions (unknown rule, missing
/// reason) are reported as `suppression` violations.
fn collect_suppressions(
    rel: &str,
    scanned: &Scanned,
    out: &mut Vec<Violation>,
) -> Vec<Suppression> {
    let mut found = Vec::new();
    for (idx, line) in scanned.lines.iter().enumerate() {
        // A directive is a comment that *starts* with `lint:allow` —
        // prose that merely mentions the syntax (docs, this file) is
        // not one. A misplaced directive can't open a silent hole: the
        // violation it failed to suppress still fires.
        let comment = line.comment.trim_start();
        let Some(rest) = comment.strip_prefix("lint:allow") else {
            continue;
        };
        let Some(open) = rest.strip_prefix('(') else {
            out.push(Violation::new(
                "suppression",
                rel,
                idx + 1,
                "malformed suppression: expected `lint:allow(<rule>): <reason>`",
            ));
            continue;
        };
        let Some(close) = open.find(')') else {
            out.push(Violation::new(
                "suppression",
                rel,
                idx + 1,
                "malformed suppression: unterminated `lint:allow(`",
            ));
            continue;
        };
        let rule = open[..close].trim().to_string();
        let after = &open[close + 1..];
        if !SUPPRESSIBLE.contains(&rule.as_str()) {
            out.push(Violation::new(
                "suppression",
                rel,
                idx + 1,
                format!("suppression names unknown or unsuppressible rule `{rule}`"),
            ));
            continue;
        }
        let reason_ok = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            out.push(Violation::new(
                "suppression",
                rel,
                idx + 1,
                format!(
                    "suppression of `{rule}` has no reason — write `lint:allow({rule}): <why>`"
                ),
            ));
            continue;
        }
        found.push(Suppression {
            rule,
            covers: covered_line(scanned, idx),
        });
    }
    found
}

/// The line a suppression written on line `idx` covers: `idx` itself
/// when it carries code (a trailing comment), else the next line with
/// code, skipping blank, comment-only, and attribute lines.
fn covered_line(scanned: &Scanned, idx: usize) -> usize {
    if !scanned.lines[idx].code.trim().is_empty() {
        return idx;
    }
    let mut i = idx + 1;
    while i < scanned.lines.len() {
        let code = scanned.lines[i].code.trim();
        if !(code.is_empty() || code.starts_with("#[") || code.starts_with("#![")) {
            return i;
        }
        i += 1;
    }
    idx
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    /// Rule names emitted for a fixture, in order.
    fn rules_for(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).iter().map(|v| v.rule).collect()
    }

    // --- safety-comment -------------------------------------------------

    #[test]
    fn undocumented_unsafe_is_flagged_with_file_and_line() {
        let src = "fn f() {\n    let x = unsafe { danger() };\n}\n";
        let vs = lint_source("crates/x/src/a.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "safety-comment");
        assert_eq!(vs[0].path, "crates/x/src/a.rs");
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_trailing_passes() {
        let above = "// SAFETY: pointer is valid\nlet x = unsafe { d() };\n";
        let trailing = "let x = unsafe { d() }; // SAFETY: valid\n";
        let doc = "/// # Safety\n///\n/// Caller checks len.\n#[inline]\npub unsafe fn f() {}\n";
        assert!(rules_for("crates/x/src/a.rs", above).is_empty());
        assert!(rules_for("crates/x/src/a.rs", trailing).is_empty());
        assert!(rules_for("crates/x/src/a.rs", doc).is_empty());
    }

    #[test]
    fn adjacent_unsafe_sites_each_need_their_own_comment() {
        let src = "\
// SAFETY: first syscall is fine
let a = unsafe { s1() };
let b = unsafe { s2() };
";
        let vs = lint_source("crates/x/src/a.rs", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn unsafe_in_strings_comments_and_tests_is_ignored() {
        let src = "\
let s = \"unsafe { in_a_string() }\";
// a comment mentioning unsafe code
#[cfg(test)]
mod tests {
    fn t() { let x = unsafe { fine_in_tests() }; }
}
";
        assert!(rules_for("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn multiline_statement_hoists_to_its_leading_comment() {
        let src = "\
// ordering: monotonic counter
counter.fetch_add(
    1,
    Ordering::Relaxed,
);
";
        assert!(rules_for("crates/x/src/a.rs", src).is_empty());
    }

    // --- ordering-comment ----------------------------------------------

    #[test]
    fn bare_relaxed_is_flagged_and_justified_relaxed_passes() {
        let bad = "let v = c.load(Ordering::Relaxed);\n";
        let good =
            "// ordering: stat counter, staleness fine\nlet v = c.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules_for("crates/x/src/a.rs", bad),
            vec!["ordering-comment"]
        );
        assert!(rules_for("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn relaxed_allowlist_is_module_scoped() {
        let src = "\
pub mod profile {
    pub fn hit() { C.fetch_add(1, Ordering::Relaxed); }
}
pub fn outside() { C.fetch_add(1, Ordering::Relaxed); }
";
        let vs = lint_source("crates/tensor/src/gemm.rs", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 4, "only the site outside `profile` fires");
        // The same source in a non-allowlisted file fires twice.
        assert_eq!(lint_source("crates/x/src/a.rs", src).len(), 2);
    }

    // --- seqlock-pairing -------------------------------------------------

    #[test]
    fn seqlock_tag_requires_acquire_release_pair() {
        let ok = "\
// lint:seqlock
// ordering: seqlock sides are fenced
fn rw() { s.store(1, Ordering::Release); s.load(Ordering::Acquire); }
";
        let missing = "// lint:seqlock\nfn w() { s.store(1, Ordering::Release); }\n";
        assert!(rules_for("crates/x/src/a.rs", ok).is_empty());
        assert_eq!(
            rules_for("crates/x/src/a.rs", missing),
            vec!["seqlock-pairing"],
            "Release without Acquire must fire"
        );
    }

    // --- no-print ---------------------------------------------------------

    #[test]
    fn print_rules_scope_to_serve_and_its_bins() {
        let e = "fn f() { eprintln!(\"x\"); }\n";
        let p = "fn f() { println!(\"x\"); }\n";
        // eprintln!: forbidden everywhere under crates/serve.
        assert_eq!(
            rules_for("crates/serve/src/reactor_util.rs", e),
            vec!["no-print"]
        );
        assert_eq!(
            rules_for("crates/serve/src/bin/tool.rs", e),
            vec!["no-print"]
        );
        // println!: forbidden in the library, a bin's stdout is its own.
        assert_eq!(
            rules_for("crates/serve/src/frame_util.rs", p),
            vec!["no-print"]
        );
        assert!(rules_for("crates/serve/src/bin/tool.rs", p).is_empty());
        // Other crates may print (the bench harness does).
        assert!(rules_for("crates/bench/src/lib.rs", e).is_empty());
        // `eprintln!` must not double-fire the `println` word match.
        assert_eq!(rules_for("crates/serve/src/frame_util.rs", e).len(), 1);
    }

    // --- no-unwrap / no-sleep --------------------------------------------

    #[test]
    fn panic_and_sleep_rules_cover_only_the_event_loop_files() {
        let src = "\
fn f() {
    x.unwrap();
    y.expect(\"msg\");
    std::thread::sleep(d);
    z.unwrap_or_else(|e| e.into_inner());
    w.unwrap_or(0);
}
";
        let vs = lint_source("crates/serve/src/scheduler.rs", src);
        let rules: Vec<_> = vs.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            vec![("no-unwrap", 2), ("no-unwrap", 3), ("no-sleep", 4)],
            "unwrap_or / unwrap_or_else are fine; got {vs:?}"
        );
        assert!(
            lint_source("crates/serve/src/registry.rs", src).is_empty(),
            "rule is scoped to reactor.rs/scheduler.rs"
        );
    }

    #[test]
    fn test_modules_in_scoped_files_may_unwrap() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules_for("crates/serve/src/reactor.rs", src).is_empty());
    }

    // --- no-downcast -------------------------------------------------------

    #[test]
    fn downcasts_are_flagged_in_the_crates_that_walk_models_outside_tests() {
        let src = "\
let _ = l.as_any_mut().downcast_mut::<Conv2d>();
let _ = a.downcast_ref::<Relu>() || l.as_any_mut().is::<Relu>();
#[cfg(test)]
mod tests {
    fn t() { l.as_any_mut().downcast_mut::<Conv2d>(); }
}
";
        for krate in ["nn", "quant", "esim", "serve"] {
            let vs = lint_source(&format!("crates/{krate}/src/a.rs"), src);
            let rules: Vec<_> = vs.iter().map(|v| (v.rule, v.line)).collect();
            assert_eq!(rules, [("no-downcast", 1), ("no-downcast", 2)], "{krate}");
        }
        // Pruning (core) and the benchmark may downcast.
        assert!(rules_for("crates/core/src/pruning.rs", src).is_empty());
        assert!(rules_for("crates/bench/src/bin/benchmark/probes.rs", src).is_empty());
    }

    // --- one-tile-walk -----------------------------------------------------

    #[test]
    fn tile_arithmetic_is_flagged_outside_the_driver() {
        let src = "\
let keep = reads(&program[i + 1..], 0).div_ceil(num);
let margin = margin.map(|m| m.min(keep) * num / den);
let cut = margin.map(|m| m - m.min(keep));
#[cfg(test)]
mod tests {
    fn t() { let n = reads(&rest, 0); }
}
";
        for path in [
            "crates/nn/src/layers/conv.rs",
            "crates/nn/src/runtime.rs",
            "crates/quant/src/quantized.rs",
            "crates/esim/src/blocks.rs",
        ] {
            let vs = lint_source(path, src);
            let rules: Vec<_> = vs.iter().map(|v| (v.rule, v.line)).collect();
            assert_eq!(
                rules,
                [
                    ("one-tile-walk", 1),
                    ("one-tile-walk", 2),
                    ("one-tile-walk", 3)
                ],
                "{path}"
            );
        }
        // The driver and the tests outside `src` may.
        for path in [
            "crates/nn/src/program.rs",
            "crates/esim/tests/accounting.rs",
        ] {
            assert!(rules_for(path, src).is_empty(), "{path}");
        }
    }

    #[test]
    fn cutting_a_frame_into_tiles_is_flagged_outside_the_runtime() {
        let src = "let t = x.extract_window(n, ext);\nout.paste_window(0, y, x, &t, w);\n";
        for path in ["crates/esim/src/blocks.rs", "crates/nn/src/program.rs"] {
            assert_eq!(rules_for(path, src), ["one-tile-walk"; 2], "{path}");
        }
        // The runtime may, and so may the tensor crate that defines them.
        for path in ["crates/nn/src/runtime.rs", "crates/tensor/src/tile.rs"] {
            assert!(rules_for(path, src).is_empty(), "{path}");
        }
    }

    // --- suppression ------------------------------------------------------

    #[test]
    fn valid_suppression_silences_trailing_and_next_line() {
        let trailing = "x.unwrap(); // lint:allow(no-unwrap): poisoned lock is fatal anyway\n";
        let above = "\
// lint:allow(no-unwrap): poisoned lock is fatal anyway
x.unwrap();
";
        assert!(rules_for("crates/serve/src/scheduler.rs", trailing).is_empty());
        assert!(rules_for("crates/serve/src/scheduler.rs", above).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_itself_a_violation() {
        let src = "x.unwrap(); // lint:allow(no-unwrap)\n";
        let rules = rules_for("crates/serve/src/scheduler.rs", src);
        assert!(rules.contains(&"suppression"), "{rules:?}");
        assert!(
            rules.contains(&"no-unwrap"),
            "a malformed suppression must not suppress: {rules:?}"
        );
        let empty_reason = "x.unwrap(); // lint:allow(no-unwrap):   \n";
        assert!(rules_for("crates/serve/src/scheduler.rs", empty_reason).contains(&"suppression"));
    }

    #[test]
    fn suppression_of_unknown_or_unsuppressible_rule_is_rejected() {
        for rule in ["not-a-rule", "suppression"] {
            let src = format!("x.unwrap(); // lint:allow({rule}): because\n");
            let rules = rules_for("crates/serve/src/scheduler.rs", &src);
            assert!(rules.contains(&"suppression"), "{rule}: {rules:?}");
        }
    }

    #[test]
    fn suppression_covers_exactly_one_rule_and_one_line() {
        let wrong_rule = "x.unwrap(); // lint:allow(no-sleep): wrong rule named\n";
        assert!(rules_for("crates/serve/src/scheduler.rs", wrong_rule).contains(&"no-unwrap"));
        let wrong_line = "\
// lint:allow(no-unwrap): only covers the next code line
x.unwrap();
y.unwrap();
";
        let vs = lint_source("crates/serve/src/scheduler.rs", wrong_line);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_directive() {
        let src = "//! Suppress with `// lint:allow(<rule>): <reason>` comments.\n";
        assert!(rules_for("crates/x/src/a.rs", src).is_empty());
    }
}
