//! In-memory span recorder for the traced run.
//!
//! Each thread records into its own buffer; spans are written out once,
//! when the run ends. A span carries its name, start, end, parent, and
//! the id of the cell or decision it belongs to. A layer's self time is
//! its span's duration minus the time its child spans cover.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Id of a span that belongs to no cell or decision.
pub const NO_ID: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Start recording on this thread, with timestamps relative to `epoch`
/// (shared across threads so their spans line up).
pub fn start(epoch: Instant) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = epoch;
        r.spans.clear();
        r.stack.clear();
    });
}

/// Stop recording on this thread and take its spans.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Nanoseconds since the recording epoch.
pub fn now() -> u64 {
    REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Run `f` inside a span nested under the innermost open span. With
/// recording off this is a plain call.
pub fn span<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let start = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        r.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end = end;
            r.stack.pop();
        });
    }
    out
}

/// Record an already-finished span whose times were taken by the
/// caller (the socket and journal wrappers). Returns its index.
pub fn record(name: &'static str, id: u64, parent: u32, start: u64, end: u64) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        r.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        Some(idx)
    })
}

/// Re-parent the journal spans recorded at or after index `from` (the
/// appends made while serving one command) under that command's busy
/// span, which the socket wrapper emits only once the reply starts.
pub fn adopt(from: usize, parent: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let n = r.spans.len();
        for s in &mut r.spans[from.min(n)..] {
            if s.parent == NO_PARENT && s.name.starts_with("serve.log") {
                s.parent = parent;
            }
        }
    })
}

pub fn len() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            if let Some(c) = child.get_mut(s.parent as usize) {
                *c += s.dur();
            }
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Write spans as tab-separated lines: id, parent, name, start, end.
pub fn write_out(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "#index\tid\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let id = if s.id == NO_ID { -1 } else { s.id as i64 };
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(w, "{i}\t{id}\t{parent}\t{}\t{}\t{}", s.name, s.start, s.end)?;
    }
    w.flush()
}
