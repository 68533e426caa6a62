//! Documentation honesty checks: every relative link under `docs/` and
//! `README.md` must resolve to a real file, the verb, error-code and
//! control-plane tables of `docs/PROTOCOL.md` must equal the serve
//! crate's `VERBS`/`CODES` tables cell by cell and its precision cells
//! the `PRECISIONS` table, the byte layouts it
//! documents must match what the frame codec actually emits, the
//! `RINGCNN_KERNEL` values the runbook lists must be the ones the parser
//! accepts, every benchmark row a document cites must be a row
//! `BENCHMARK.json` declares, and no document names an identifier a
//! later PR deleted.

use ringcnn_serve::error::{ServeError, WireCode};
use ringcnn_serve::frame;
use ringcnn_serve::protocol::{Body, Request, Verb, ERROR_BYTE, VERBS};
use ringcnn_serve::registry::{Precision, PRECISIONS};
use ringcnn_tensor::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/serve; docs live two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Extracts `](target)` markdown link targets from `text`.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                out.push(text[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// `README.md` and every `docs/*.md`.
fn markdown_docs() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ directory exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(
        files.len() >= 4,
        "expected README.md plus at least three docs/*.md files, found {files:?}"
    );
    files
}

#[test]
fn docs_relative_links_all_resolve() {
    let files = markdown_docs();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read doc");
        let base = file.parent().expect("doc has a parent dir");
        for target in link_targets(&text) {
            // External links and pure intra-page anchors are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or(&target);
            let resolved = base.join(path_part);
            assert!(
                resolved.exists(),
                "{}: dead relative link `{target}` (resolved {})",
                file.display(),
                resolved.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "the docs tree should be cross-linked; only {checked} relative links found"
    );
}

/// PR 16 deleted the file-by-file load path of the registry and the
/// non-Linux poller, PR 21 and PR 23 the three ways to run a layer
/// inside a chain and the per-type kernel cells of the conv layers, PR 25
/// the simulator's own integer datapath, the wide plane store and the
/// width options, PR 13 the perf-regression gate; the simulator's own
/// engine geometry, the runtime's batch and one-shot entry points, the
/// simulator's whole-frame path, the facade's second FRCONV and the
/// registry's format-tag peek (a parse of every file on every pass), the
/// binary wire's tile stream and the second channel walk (the
/// `out_channels` methods and the integer chain's shape walk) went later.
/// No document may still send a reader to them.
#[test]
fn docs_name_no_deleted_identifier() {
    let mut files = markdown_docs();
    files.push(repo_root().join(".claude/skills/verify/SKILL.md"));
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read doc");
        for gone in [
            "register_qmodel",
            "register_file",
            "load_path",
            "watch_dir",
            "poll/portable",
            "forward_infer_shuffled",
            "forward_infer_owned",
            "Layer::forward_tile",
            "DepthwiseKernel",
            "RingKernel",
            "block_diagonal_weights",
            "contract_weight_grad",
            "windex",
            "run_conv_tiled",
            "run_layers_public",
            "Storage::",
            "wide_format",
            "weight_bits",
            "feature_bits",
            "default_weight",
            "perf-regression gate",
            "pixel_shuffle_factor",
            "qlayers_topo",
            "Layer::children",
            "Layer::kernel_radius",
            "Layer::spatial_scale",
            "Lanes",
            "Lanes::I64",
            "conv_streaming_i64",
            "ConvStreaming",
            "LaneProof::invalid",
            "run_chain",
            "run_layer",
            "run_stage",
            "qlayers_shapes",
            "receptive_halo",
            "dram_gbs_at",
            "EngineGeometry",
            "run_batch",
            "tiled_forward",
            "simulate_blocked",
            "BlockedReport",
            "memory::dram_bytes_per_frame",
            "frconv_forward",
            "peek_format_tag",
            "Metrics::snapshot",
            "Scheduler::metrics",
            "record_submit",
            "infer_streaming",
            "ResponseAssembler",
            "TILE_SAMPLES",
            "WatcherStop",
            "spawn_reload_watcher",
            "serve-reload-watch",
            "walk_shapes",
            "Layer::out_channels",
            "InferenceModel::out_channels",
            "QuantizedModel::out_channels",
        ] {
            assert!(
                !text.contains(gone),
                "{}: names `{gone}`, which no longer exists",
                file.display()
            );
        }
    }
}

#[test]
fn operations_lists_exactly_the_accepted_kernel_values() {
    let text = std::fs::read_to_string(repo_root().join("docs/OPERATIONS.md")).expect("read doc");
    let row = text
        .lines()
        .find(|l| l.starts_with("| `RINGCNN_KERNEL` |"))
        .expect("the environment table has a RINGCNN_KERNEL row");
    // The values are the row's `code` spans that are bare lower-case
    // words, up to the first full stop (the rest of the row is prose
    // naming other things).
    let values = row.split_once("` |").expect("row has an effect cell").1;
    let values = values.split('.').next().expect("a first sentence");
    let listed: Vec<&str> = values
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|w| {
            w.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
        .collect();
    assert_eq!(listed, ringcnn_tensor::gemm::KERNEL_ENV_VALUES, "{row}");
}

#[test]
fn cited_benchmark_rows_are_declared_in_benchmark_json() {
    // Docs cite measurements as `workload/metric`. Every code span
    // whose first half is a workload of BENCHMARK.json must name one of
    // its metrics in the second half.
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        let Ok(Value::Array(rows)) = json.field(key) else {
            panic!("BENCHMARK.json has a `{key}` array");
        };
        rows.iter()
            .map(|row| match row.field("name") {
                Ok(Value::Str(name)) => name.clone(),
                _ => panic!("every `{key}` row has a name"),
            })
            .collect()
    };
    let workloads = names("workloads");
    let metrics = [names("end_to_end"), names("per_layer")].concat();
    let mut cited = 0usize;
    for doc in ["docs/PERFORMANCE.md", "docs/OPERATIONS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for span in text.split('`').skip(1).step_by(2) {
            let Some((workload, metric)) = span.split_once('/') else {
                continue;
            };
            if workloads.iter().any(|w| w == workload) {
                assert!(
                    metrics.iter().any(|m| m == metric),
                    "{doc}: `{span}` cites a metric BENCHMARK.json does not declare"
                );
                cited += 1;
            }
        }
    }
    assert!(
        cited >= 20,
        "the two documents should cite their benchmark rows; found {cited}"
    );
}

// --- docs/PROTOCOL.md tables against the serve crate's tables --------------

fn cells(row: &str) -> Vec<&str> {
    row.trim_matches('|').split('|').map(str::trim).collect()
}

/// Differences, in both directions, between the first table under
/// `heading` and the markdown rows the code implies, matched on their
/// first cell. A wanted cell ending in `…` asks for that prefix only;
/// columns the wanted rows leave out are prose.
fn table_diffs(doc: &str, heading: &str, want: &[String]) -> Vec<String> {
    let mut table = doc
        .lines()
        .skip_while(|l| !l.starts_with('#') || l.trim_start_matches('#').trim() != heading)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(cells);
    let columns = table.next().unwrap_or_default();
    let rows: Vec<Vec<&str>> = table.skip(1).collect(); // Past the separator.
    let want: Vec<Vec<&str>> = want.iter().map(|w| cells(w)).collect();
    let mut out = Vec::new();
    for w in &want {
        let Some(d) = rows.iter().find(|d| d[0] == w[0]) else {
            out.push(format!("{heading}: the document has no row {}", w[0]));
            continue;
        };
        for (j, wanted) in w.iter().enumerate() {
            let cell = d.get(j).copied().unwrap_or_default();
            let agrees = match wanted.strip_suffix('…') {
                Some(prefix) => cell.starts_with(prefix),
                None => cell == *wanted,
            };
            if !agrees {
                let (row, column) = (w[0], columns[j]);
                out.push(format!(
                    "{heading}: row {row}, column {column}: the document says {cell}, the code {wanted}"
                ));
            }
        }
    }
    for d in rows.iter().filter(|d| !want.iter().any(|w| w[0] == d[0])) {
        out.push(format!("{heading}: the code has no row {}", d[0]));
    }
    out
}

/// Every disagreement between PROTOCOL.md's *Verbs*, *Error codes* and
/// *Control-plane responses* tables and the given verb and code tables.
fn protocol_table_diffs(doc: &str, verbs: &[Verb], codes: &[WireCode]) -> Vec<String> {
    let hex = |b: &u8| format!("`0x{b:02X}`");
    let error = hex(&ERROR_BYTE);
    let mut verb_rows = Vec::new();
    let mut payload_rows = vec![format!("| {error} error | `code_len: u16 LE`… |")];
    for v in verbs {
        let (name, request, purpose) = (v.name, hex(&v.request), v.purpose);
        let response = hex(&v.response);
        verb_rows.push(format!(
            "| {name} | `{name}` | {request} | {response} | {purpose} |"
        ));
        let payload = match v.body {
            Body::Infer => continue, // Its frame has a section of its own.
            Body::None => "empty".to_string(),
            Body::Json(key) => format!("the JSON `{key}`…"),
            Body::Health => "`healthy: u8`…".to_string(),
        };
        payload_rows.push(format!("| {response} {name} | {payload} |"));
    }
    let code_rows: Vec<String> = codes.iter().map(|(c, _)| format!("| `{c}` |")).collect();
    [
        table_diffs(doc, "Verbs", &verb_rows),
        table_diffs(doc, "Error codes", &code_rows),
        table_diffs(doc, "Control-plane responses", &payload_rows),
    ]
    .concat()
}

fn protocol_md() -> String {
    std::fs::read_to_string(repo_root().join("docs/PROTOCOL.md")).expect("read doc")
}

#[test]
fn protocol_tables_match_the_verb_and_error_tables() {
    let diffs = protocol_table_diffs(&protocol_md(), &VERBS, &ServeError::CODES);
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn broken_protocol_tables_are_named_by_row_and_column() {
    // A swapped request byte, a misspelt error row and an extra verb in
    // the document; one changed response byte in the code.
    let doc = protocol_md()
        .replace("| `infer` | `0x01` |", "| `infer` | `0x02` |")
        .replace("| `timeout` |", "| `time_out` |")
        .replace(
            "| trace | `trace` |",
            "| plan | `plan` | `0x08` |\n| trace | `trace` |",
        );
    let mut verbs = VERBS;
    verbs[2].response = 0x95;
    let diffs = protocol_table_diffs(&doc, &verbs, &ServeError::CODES).join("\n");
    for diagnostic in [
        "Verbs: row infer, column request byte: the document says `0x02`, the code `0x01`",
        "Verbs: row stats, column response byte: the document says `0x85`, the code `0x95`",
        "Verbs: the code has no row plan",
        "Error codes: the document has no row `timeout`",
        "Error codes: the code has no row `time_out`",
        "Control-plane responses: the document has no row `0x95` stats",
        "Control-plane responses: the code has no row `0x85` stats",
    ] {
        assert!(diffs.contains(diagnostic), "no {diagnostic:?} in:\n{diffs}");
    }
}

#[test]
fn protocol_precision_cells_match_the_precision_table() {
    let doc = protocol_md();
    // The `precision` request field: its JSON values are the row's
    // quoted code spans.
    let row = doc.lines().find(|l| l.starts_with("| `precision` |"));
    let row = row.expect("a `precision` field row");
    let values: Vec<&str> = row.split('`').skip(1).step_by(2).collect();
    let values: Vec<&str> = values.into_iter().filter(|v| v.starts_with('"')).collect();
    let want: Vec<String> = PRECISIONS.iter().map(|p| format!("\"{}\"", p.1)).collect();
    assert_eq!(values, want, "{row}");
    // The `infer` frame's precision byte: `low bits: 0 = fp64, 1 = quant`.
    let line = doc.lines().find(|l| l.starts_with("precision: u8"));
    let line = line.expect("the infer frame's precision byte");
    let low = line.split_once("low bits: ").expect("the low bits").1;
    let want: Vec<String> = PRECISIONS
        .iter()
        .map(|p| format!("{} = {}", p.2, p.1))
        .collect();
    assert_eq!(low.trim(), want.join(", "), "{line}");
    for (precision, name, byte) in PRECISIONS {
        assert_eq!((precision.label(), precision.byte()), (name, byte));
        assert_eq!(Precision::parse(name).ok(), Precision::from_byte(byte));
    }
}

#[test]
fn deadline_rows_say_where_the_budget_is_checked() {
    // The scheduler checks a budget twice — on arrival and when the
    // request's batch is taken — and answers `deadline` both times.
    let doc = protocol_md();
    for row in ["| `deadline` |", "| `deadline_ms` |"] {
        let line = doc.lines().find(|l| l.starts_with(row)).expect(row);
        assert!(
            line.contains("at admission and again at dispatch"),
            "{line}"
        );
    }
}

// --- docs/PROTOCOL.md byte layouts, spot-checked against the codec --------

#[test]
fn documented_preamble_and_simple_verb_frames_match_the_codec() {
    // PROTOCOL.md: the client preamble is the 5 bytes `RCNB` + 0x02.
    let mut preamble = Vec::new();
    frame::encode_preamble(&mut preamble);
    assert_eq!(preamble, b"RCNB\x02", "documented preamble bytes");

    // PROTOCOL.md: a body-less request frame is `len=1 (u32 LE)` + verb
    // byte; `list_models` is verb 0x02.
    let mut buf = Vec::new();
    frame::encode_request(&Request::ListModels, &mut buf);
    assert_eq!(buf, [1, 0, 0, 0, 0x02], "documented list_models frame");

    for (req, verb) in [
        (Request::Stats, 0x03u8),
        (Request::Health, 0x04),
        (Request::Shutdown, 0x05),
        (Request::Reload, 0x06),
    ] {
        let mut buf = Vec::new();
        frame::encode_request(&req, &mut buf);
        assert_eq!(
            buf,
            [1, 0, 0, 0, verb],
            "documented frame for {req:?} (verb 0x{verb:02x})"
        );
    }

    // PROTOCOL.md: the trace request is verb 0x07 carrying `n: u32 LE`;
    // `trace n=0` is the 9 bytes `05 00 00 00 07 00 00 00 00`.
    let mut buf = Vec::new();
    frame::encode_request(&Request::Trace { n: 0 }, &mut buf);
    assert_eq!(
        buf,
        [5, 0, 0, 0, 0x07, 0, 0, 0, 0],
        "documented trace n=0 frame"
    );
    let mut buf = Vec::new();
    frame::encode_request(&Request::Trace { n: 5 }, &mut buf);
    assert_eq!(
        buf,
        [5, 0, 0, 0, 0x07, 5, 0, 0, 0],
        "documented trace n=5 frame (u32 LE count)"
    );
}

#[test]
fn documented_infer_frame_layout_matches_the_codec() {
    // PROTOCOL.md documents the infer body as: verb 0x01, precision
    // byte (bit 0x80 = deadline flag), u16 LE name length + name bytes,
    // 4×u32 LE shape, f32 LE samples, then (iff the flag is set) one
    // f64 LE `deadline_ms` trailer.
    let x = Tensor::random_uniform(Shape4::new(1, 1, 2, 2), 0.0, 1.0, 1);
    let req = |deadline_ms| Request::Infer {
        model: "m".into(),
        precision: Precision::Fp64,
        shape: x.shape(),
        data: x.as_slice().to_vec(),
        deadline_ms,
    };
    let mut plain = Vec::new();
    frame::encode_request(&req(None), &mut plain);
    let body_len = u32::from_le_bytes(plain[..4].try_into().unwrap()) as usize;
    assert_eq!(body_len, plain.len() - 4, "length prefix covers the body");
    assert_eq!(plain[4], 0x01, "infer verb byte");
    assert_eq!(plain[5], 0x00, "fp64 precision byte, no deadline flag");
    assert_eq!(&plain[6..8], [1u8, 0], "u16 LE name length");
    assert_eq!(plain[8], b'm');
    let shape: Vec<u32> = plain[9..25]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(shape, [1, 1, 2, 2], "4xu32 LE shape");
    assert_eq!(plain.len(), 25 + 4 * 4, "4 f32 samples close the body");

    let mut with = Vec::new();
    frame::encode_request(&req(Some(12.5)), &mut with);
    assert_eq!(
        with[5],
        frame::DEADLINE_FLAG,
        "deadline flag is bit 0x80 of the precision byte"
    );
    assert_eq!(
        with.len(),
        plain.len() + 8,
        "the deadline adds exactly one trailing f64"
    );
    assert_eq!(
        &with[with.len() - 8..],
        12.5f64.to_le_bytes(),
        "trailing f64 LE deadline_ms"
    );
}
