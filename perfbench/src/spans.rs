//! In-memory span recorder for traced runs.
//!
//! Spans sit at the boundaries the benchmark itself calls (a `run_link`
//! call, an observer callback, a socket request), never inside the
//! program. They are kept in a pre-sized vector and written as JSONL once
//! the run ends. A disabled recorder (untraced runs) records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder, used as a child's parent.
pub type SpanRef = usize;

/// One timed interval. Spans of one frame, chunk or job share `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<SpanRef>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Spans {
            origin,
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Nanoseconds since the recorder's origin.
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its reference (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanRef> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`close`](Spans::close).
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
    ) -> Option<SpanRef> {
        self.record(name, id, parent, start, start)
    }

    pub fn close(&mut self, span: Option<SpanRef>, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Appends another recorder's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span: `{"i","name","id","parent","start_ns","end_ns"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
