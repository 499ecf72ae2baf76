//! In-memory span recording for the traced run.
//!
//! A span is `(id, parent, name, request id, start, end)`.  Spans are
//! opened around each call the benchmark makes into a layer (and, inside
//! the benchmark's transports, around the session pump), kept in memory,
//! and written as JSONL when the run ends.  A span's self time is its
//! duration minus the time its child spans cover.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use asr_pagesim::IoSnapshot;

use crate::common::{median, Outcome};
use crate::Config;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Index in the recorder.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified call name, e.g. `server.pump`.
    pub name: &'static str,
    /// The benchmark request (op index) the span serves.
    pub req: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// The span store for one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<u32>>,
    req: Cell<u64>,
}

impl Recorder {
    /// An empty recorder, shareable with transports.
    pub fn new() -> Rc<Self> {
        Rc::new(Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            stack: RefCell::new(Vec::new()),
            req: Cell::new(0),
        })
    }

    /// Set the request id later spans are stamped with.
    pub fn set_req(&self, req: u64) {
        self.req.set(req);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            let parent = self.stack.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(SpanRec {
                id,
                parent,
                name,
                req: self.req.get(),
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inclusive durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span named `name`: duration minus the
    /// durations of its direct children.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(child[s.id as usize]) as f64 / 1e3)
            .collect()
    }

    /// Distinct span names in first-seen order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in self.spans.borrow().iter() {
            if !out.contains(&s.name) {
                out.push(s.name);
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when a recorder is attached, bare otherwise.
pub fn maybe_span<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

/// Per-op page deltas on the primary.
pub fn io_delta(before: &IoSnapshot, after: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        buffer_hits: after.buffer_hits - before.buffer_hits,
        batch_probes: after.batch_probes - before.batch_probes,
        batch_pages_saved: after.batch_pages_saved - before.batch_pages_saved,
    }
}

/// Write the spans and print the per-name ledger.
pub fn finish_trace(cfg: &Config, rec: &Recorder, out: &mut Outcome) {
    for name in rec.names() {
        let incl = rec.durations_us(name);
        let own = rec.self_us(name);
        out.note(format!(
            "span {name}: n={} median {:.2} us, self {:.2} us",
            incl.len(),
            median(&incl),
            median(&own)
        ));
    }
    let path = cfg
        .trace_dir
        .join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            rec.len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans: could not write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new();
        rec.span("outer", || {
            rec.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            })
        });
        let outer = rec.durations_us("outer")[0];
        let outer_self = rec.self_us("outer")[0];
        let inner = rec.durations_us("inner")[0];
        assert!(inner >= 3000.0);
        assert!((outer - inner - outer_self).abs() < 1.0);
        assert_eq!(rec.names(), vec!["outer", "inner"]);
    }
}
