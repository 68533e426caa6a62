//! # ringcnn-bench
//!
//! Experiment harness regenerating every table and figure of the RingCNN
//! paper. Each `src/bin/` target is named after the artifact it
//! reproduces (`table1_rings`, `fig09_ring_quality`, …) and prints a
//! markdown table; `--json` additionally writes machine-readable results
//! to `results/`.
//!
//! Flags shared by the experiment bins:
//!
//! - `--standard`: run at the larger experiment scale (CPU-minutes per
//!   model) instead of the quick default.
//! - `--json`: write `results/<bin>.json`.
//!
//! `src/bin/benchmark/` is the repo benchmark — the one program that
//! produces or gates a performance number. It has its own README and
//! shares nothing with this library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ringcnn::prelude::ExperimentScale;
use serde::Serialize;
use std::path::PathBuf;

/// Parsed common flags.
#[derive(Clone, Debug)]
pub struct Flags {
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// Whether `--standard` was passed.
    pub standard: bool,
    /// Whether to write JSON results.
    pub json: bool,
}

/// Parses the common flags from `std::env::args`.
pub fn flags() -> Flags {
    let args: Vec<String> = std::env::args().collect();
    flags_from(&args)
}

/// Parses the common flags from an explicit argument list (the first
/// element is conventionally the program name and is never a flag match).
pub fn flags_from(args: &[String]) -> Flags {
    let standard = args.iter().skip(1).any(|a| a == "--standard");
    Flags {
        scale: if standard {
            ExperimentScale::standard()
        } else {
            ExperimentScale::quick()
        },
        standard,
        json: args.iter().skip(1).any(|a| a == "--json"),
    }
}

/// Prints a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Writes a JSON result file under `results/` when `--json` is active.
pub fn save_json<T: Serialize>(flags: &Flags, name: &str, value: &T) {
    if !flags.json {
        return;
    }
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("cannot write {}: {e}", path.display());
            } else {
                println!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("serialization failed: {e}"),
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // banker-free simple rounding
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
