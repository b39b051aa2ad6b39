//! In-memory spans for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions; nothing inside the crates is instrumented.
//! Each generator thread owns a [`SpanLog`] with a fixed capacity, so
//! tracing never grows memory with run length; spans past the capacity
//! are counted, not kept. [`write_spans`] writes them out as JSON lines
//! when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A bounded per-thread span buffer. Ids are unique across threads:
/// the thread index sits in the top bits.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

/// Spans kept per thread.
pub const SPANS_PER_THREAD: usize = 1 << 15;

impl SpanLog {
    pub fn new(epoch: Instant, thread: u64, cap: usize) -> Self {
        Self { epoch, next_id: (thread << 48) | 1, spans: Vec::with_capacity(cap), cap, dropped: 0 }
    }

    /// An empty log for another thread, sharing this log's epoch.
    pub fn fork(&self, thread: u64, cap: usize) -> Self {
        Self::new(self.epoch, thread, cap)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < self.cap {
            self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        } else {
            self.dropped += 1;
        }
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id from [`Self::reserve_id`].
    pub fn record_with_id(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        let room = self.cap.saturating_sub(self.spans.len());
        self.dropped += other.spans.len().saturating_sub(room) as u64;
        self.spans.extend(other.spans.into_iter().take(room));
    }
}

/// Writes every kept span as one JSON object per line.
pub fn write_spans(path: &std::path::Path, header: &str, log: &SpanLog) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in log.spans() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
