//! Closed-loop execution: every operation is timed from the client's
//! side, checked, and counted.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::ops::{check, Op, Target};
use crate::speed;
use crate::stats::{median, quantile};
use crate::trace::{Tracer, ROOT};
use crate::workloads::Stream;

/// Counts every operation and check of a run, and remembers which
/// creates and deletes the catalog acknowledged.
#[derive(Default)]
pub struct Runner {
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged creates not since deleted.
    pub live: BTreeSet<u64>,
    /// Acknowledged deletes.
    pub deleted: BTreeSet<u64>,
    pub tracer: Option<Tracer>,
}

pub struct Outcome {
    pub lat_ns: u64,
    pub check_ns: u64,
}

impl Runner {
    /// Count one check made outside an operation.
    pub fn checked(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Report the first few failures; the count says the rest.
    fn note(&self, msg: String) {
        if self.failed <= 10 {
            eprintln!("FAILED: {msg}");
        }
    }

    pub fn exec(&mut self, t: &mut dyn Target, op: &Op, n: u64) -> Outcome {
        self.exec_span(t, op, n, None)
    }

    /// Run one operation; with a tracer and `span = (name, request)`,
    /// record the call as a span.
    pub fn exec_span(
        &mut self,
        t: &mut dyn Target,
        op: &Op,
        n: u64,
        span: Option<(&'static str, u64)>,
    ) -> Outcome {
        let t0 = Instant::now();
        let reply = t.call(op);
        let t1 = Instant::now();
        if let (Some(tr), Some((name, req))) = (self.tracer.as_mut(), span) {
            tr.record(name, t0, t1, ROOT, req);
        }
        let verdict = reply.and_then(|r| check(op, &r, n));
        self.attempted += 1;
        match (&verdict, op) {
            (Ok(()), Op::Create { i }) => {
                self.live.insert(*i);
            }
            (Ok(()), Op::Delete { i }) => {
                self.live.remove(i);
                self.deleted.insert(*i);
            }
            (Ok(()), _) => {}
            (Err(e), _) => {
                self.failed += 1;
                let msg = format!("{op:?}: {e}");
                self.note(msg);
            }
        }
        Outcome {
            lat_ns: (t1 - t0).as_nanos() as u64,
            check_ns: t1.elapsed().as_nanos() as u64,
        }
    }
}

/// One slice of a measured phase. Latencies and busy time are at the
/// nominal host speed (see [`speed`]).
#[derive(Default)]
pub struct Window {
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    pub ops: u64,
    /// Wall time minus the time spent checking answers and running the
    /// reference task.
    pub busy_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Reference-task times measured during the window.
    pub refs: Vec<u64>,
}

impl Window {
    pub fn ops_s(&self) -> f64 {
        self.ops as f64 / (self.busy_ns as f64 / 1e9)
    }
}

/// Per-operation span names for a traced phase: (read, write).
pub type SpanNames = Option<(&'static str, &'static str)>;

/// The operations of one tick, held until the reference task that ends
/// the tick says how fast the host ran through it.
#[derive(Default)]
struct Tick {
    reads: Vec<u64>,
    writes: Vec<u64>,
    busy_ns: u64,
}

impl Tick {
    /// Move the tick into `w`, scaled by the mean of the reference times
    /// measured before and after it.
    fn close(&mut self, w: &mut Window, ref_before: u64, ref_after: u64) {
        let f = speed::factor((ref_before + ref_after) / 2);
        let scale = |ns: u64| (ns as f64 * f) as u64;
        w.reads.extend(self.reads.drain(..).map(scale));
        w.writes.extend(self.writes.drain(..).map(scale));
        w.busy_ns += scale(std::mem::take(&mut self.busy_ns));
        w.refs.push(ref_after);
    }
}

fn run_window(
    runner: &mut Runner,
    t: &mut dyn Target,
    n: u64,
    spans: SpanNames,
    mut next: impl FnMut() -> Option<Op>,
    until: Option<Instant>,
) -> Window {
    let mut w = Window::default();
    let (a0, b0) = alloc::snapshot();
    let mut tick = Tick::default();
    let mut ref_before = speed::reference_ns();
    let mut tick_start = Instant::now();
    let mut check_ns = 0;
    loop {
        let now = Instant::now();
        let done = until.is_some_and(|u| now >= u);
        let op = if done { None } else { next() };
        if op.is_none() || now - tick_start >= speed::TICK {
            tick.busy_ns = ((now - tick_start).as_nanos() as u64).saturating_sub(check_ns);
            let ref_after = speed::reference_ns();
            tick.close(&mut w, ref_before, ref_after);
            (ref_before, check_ns, tick_start) = (ref_after, 0, Instant::now());
        }
        let Some(op) = op else { break };
        let span = spans.map(|(r, wr)| (if op.is_write() { wr } else { r }, runner.attempted));
        let o = runner.exec_span(t, &op, n, span);
        check_ns += o.check_ns;
        if op.is_write() {
            &mut tick.writes
        } else {
            &mut tick.reads
        }
        .push(o.lat_ns);
        w.ops += 1;
    }
    w.busy_ns = w.busy_ns.max(1);
    let (a1, b1) = alloc::snapshot();
    (w.allocs, w.alloc_bytes) = (a1 - a0, b1 - b0);
    w
}

/// Run `stream` for `secs` seconds in `windows` equal slices.
pub fn timed(
    runner: &mut Runner,
    t: &mut dyn Target,
    stream: &mut Stream,
    n: u64,
    secs: f64,
    windows: usize,
    spans: SpanNames,
) -> Vec<Window> {
    let slice = Duration::from_secs_f64(secs / windows as f64);
    let start = Instant::now();
    (1..=windows as u32)
        .map(|k| {
            run_window(
                runner,
                t,
                n,
                spans,
                || Some(stream.next_op()),
                Some(start + slice * k),
            )
        })
        .collect()
}

/// Run a fixed list of operations in `windows` equal slices.
pub fn counted(
    runner: &mut Runner,
    t: &mut dyn Target,
    ops: &[Op],
    n: u64,
    windows: usize,
) -> Vec<Window> {
    let per = ops.len().div_ceil(windows.max(1)).max(1);
    ops.chunks(per)
        .map(|chunk| {
            let mut it = chunk.iter().cloned();
            run_window(runner, t, n, None, || it.next(), None)
        })
        .collect()
}

/// The median over windows of a per-window figure.
pub fn over(ws: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    median(&ws.iter().map(f).collect::<Vec<_>>())
}

/// Median reference-task time (µs) over every tick of `ws`.
pub fn reference_us(ws: &[Window]) -> f64 {
    let mut refs: Vec<u64> = ws.iter().flat_map(|w| w.refs.iter().copied()).collect();
    quantile(&mut refs, 0.5) as f64 / 1e3
}

/// Median over windows of the `q` latency quantile (µs) of reads or
/// writes, and the total sample count.
pub fn lat_us(ws: &[Window], writes: bool, q: f64) -> (f64, usize) {
    let per: Vec<f64> = ws
        .iter()
        .map(|w| if writes { &w.writes } else { &w.reads })
        .filter(|v| !v.is_empty())
        .map(|v| quantile(&mut v.clone(), q) as f64 / 1e3)
        .collect();
    let n = ws
        .iter()
        .map(|w| {
            if writes {
                w.writes.len()
            } else {
                w.reads.len()
            }
        })
        .sum();
    (median(&per), n)
}
