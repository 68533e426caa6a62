//! The benchmark's own in-memory spans, recorded around its calls into
//! each layer during the traced pass — `op` (one frame or request) and
//! under it `walk`, `leaf:<layer>`, `probe:<fn>` or `client_call` — and
//! the chrome-trace writer that merges them with the program's own
//! spans (server stages, runtime tiles) when the workload ends.
//! End-to-end numbers never come from here.

use ringcnn_trace::clock::now_us;
use ringcnn_trace::span::SpanRec;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// One completed benchmark span. `parent` is 0 for a root; spans of one
/// frame or request share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Thread-safe span list; client threads and the main thread push to
/// the same recorder. It also collects the program's own spans out of
/// the `ringcnn-trace` rings, which hold only the latest 4096 per
/// thread and so must be pulled while the pass runs.
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    program: Mutex<BTreeMap<u32, SpanRec>>,
    next_id: AtomicU32,
}

const POISONED: &str = "span list poisoned: a recording thread panicked";

impl Recorder {
    pub fn new() -> Self {
        Self {
            spans: Mutex::new(Vec::new()),
            program: Mutex::new(BTreeMap::new()),
            next_id: AtomicU32::new(1),
        }
    }

    /// Merges whatever the program's span rings hold right now (span
    /// ids are process-unique, so a span seen twice is kept once).
    pub fn pull_program_spans(&self) {
        let snapshot = ringcnn_trace::span::snapshot();
        let mut program = self.program.lock().expect(POISONED);
        for rec in snapshot {
            program.insert(rec.id, rec);
        }
    }

    /// Runs `f` inside a span on the trace clock (the clock the server's
    /// spans use, so both kinds line up in one file). `f` receives the
    /// span's id to parent children onto.
    pub fn span<R>(&self, name: &str, op: u64, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let start_us = now_us();
        let out = f(id);
        let span = Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_us,
            end_us: now_us(),
        };
        self.spans.lock().expect(POISONED).push(span);
        out
    }

    /// Everything recorded: the benchmark's spans and the program's.
    pub fn take(&self) -> (Vec<Span>, Vec<SpanRec>) {
        self.pull_program_spans();
        let own = std::mem::take(&mut *self.spans.lock().expect(POISONED));
        let program = std::mem::take(&mut *self.program.lock().expect(POISONED));
        (own, program.into_values().collect())
    }
}

/// Span names are layer and function names; quotes and backslashes are
/// all JSON could trip over.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes benchmark spans (pid 2) and program spans (pid 1) as one
/// chrome://tracing document.
pub fn write_chrome(path: &Path, own: &[Span], program: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !std::mem::replace(&mut first, false) {
            out.write_all(b",")?;
        }
        out.write_all(b"\n")
    };
    for s in own {
        sep(&mut out)?;
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":1,\
             \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
            escape(&s.name),
            s.start_us,
            s.end_us.saturating_sub(s.start_us),
            s.op,
            s.id,
            s.parent
        )?;
    }
    for r in program {
        sep(&mut out)?;
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"program\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
            escape(&r.name),
            r.start_us,
            r.dur_us,
            r.tid,
            r.trace,
            r.id,
            r.parent
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
