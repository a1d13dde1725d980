//! An in-memory span recorder for the traced pass.
//!
//! Spans are recorded around calls into the catalog's layers from the
//! benchmark's side of those calls: name, start, end, parent span and
//! request id. They stay in memory until [`Tracer::write_tsv`] writes
//! them out at exit; the per-layer metrics are derived from them.

use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Record `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent, req);
        r
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Durations (ns) of the spans called `name`, keyed by request id.
    pub fn by_req(&self, name: &str) -> std::collections::BTreeMap<u64, u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.req, s.ns()))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as tab-separated `id name start end parent req`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }

    /// Record a span whose ends were measured by the caller; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            req,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Record a span of `secs` seconds starting at `start`.
    pub fn record_secs(
        &mut self,
        name: &'static str,
        start: Instant,
        secs: f64,
        parent: u32,
        req: u64,
    ) -> u32 {
        let end = start + std::time::Duration::from_secs_f64(secs);
        self.record(name, start, end, parent, req)
    }
}
