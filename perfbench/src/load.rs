//! The closed-loop load generator shared by the in-process and HTTP
//! workloads.
//!
//! Each caller runs on its own thread and issues its next operation
//! only after the previous one returned. `drive` times each
//! [`Caller::call`] and nothing else; bookkeeping happens in
//! [`Caller::account`] and [`Caller::chore`], outside the timed region.
//! The generator's own time per operation (everything between one
//! call's return and the next call's start, chores excluded) is
//! reported as `bench.client_self_ns`.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::hist::Sliced;
use crate::trace::{Span, SpanLog, SPANS_PER_THREAD};
use crate::Outcome;

/// Length of one measurement slice.
pub const SLICE: Duration = Duration::from_millis(500);

/// The traced run alternates this many untraced and traced windows,
/// each this share of `--seconds`.
pub const TRACE_ROUNDS: usize = 4;
pub const TRACE_ROUND: f64 = 0.06;

/// One closed-loop client.
pub trait Caller: Send {
    type Out;
    /// The allowed cpu (by index) caller `index`'s thread is pinned to.
    fn cpu(index: usize) -> usize;
    /// The timed operation. `now` is the end of the previous operation,
    /// read outside the timed region.
    fn call(&mut self, now: Instant) -> Self::Out;
    /// Checks and tallies a result; returns the span name for the
    /// operation, or `Err` when it failed (non-2xx, IO error, timeout).
    fn account(&mut self, out: Self::Out) -> Result<&'static str, ()>;
    /// Untimed operator work after operation number `seq` of this
    /// window (e.g. an eviction sweep), excluded from both latency and
    /// generator self time.
    fn chore(&mut self, _seq: u64) {}
}

/// What one window measured, for one caller or pooled over all.
pub struct Window {
    pub sliced: Sliced,
    pub ok: u64,
    pub failed: u64,
    pub self_ns: u64,
    pub elapsed: Duration,
}

impl Window {
    fn new(window: Duration) -> Self {
        let slices = window.as_nanos().div_ceil(SLICE.as_nanos()).max(1) as usize;
        Self {
            sliced: Sliced::new(slices, SLICE.as_nanos() as u64),
            ok: 0,
            failed: 0,
            self_ns: 0,
            elapsed: Duration::ZERO,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    /// Generator time per operation, in ns.
    pub fn client_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.attempted().max(1) as f64
    }

    /// Completed operations per second over the whole window.
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// Adds another window of the same length to this one.
    pub fn absorb(&mut self, other: &Window) {
        self.sliced.merge(&other.sliced);
        self.ok += other.ok;
        self.failed += other.failed;
        self.self_ns += other.self_ns;
        self.elapsed += other.elapsed;
    }
}

fn caller_loop<C: Caller>(
    caller: &mut C,
    index: u64,
    start: Instant,
    window: Duration,
    mut spans: Option<&mut SpanLog>,
) -> Window {
    let mut out = Window::new(window);
    let deadline = start + window;
    let parent = spans.as_mut().map_or(0, |s| s.reserve_id());
    let mut prev_end = Instant::now();
    let mut seq = 0u64;
    loop {
        let t0 = Instant::now();
        let result = caller.call(prev_end);
        let t1 = Instant::now();
        out.self_ns += t0.saturating_duration_since(prev_end).as_nanos() as u64;
        match caller.account(result) {
            Ok(name) => {
                out.ok += 1;
                let at = t1.saturating_duration_since(start).as_nanos() as u64;
                out.sliced.record(at, t1.duration_since(t0).as_nanos() as u64);
                if let Some(log) = spans.as_mut() {
                    let (s, e) = (log.at(t0), log.at(t1));
                    log.record(name, parent, (index << 40) | seq, s, e);
                }
            }
            Err(()) => out.failed += 1,
        }
        seq += 1;
        if t1 >= deadline {
            break;
        }
        caller.chore(seq);
        prev_end = Instant::now();
    }
    if let Some(log) = spans {
        let (start_ns, end_ns) = (log.at(start), log.now());
        let name = "bench.window";
        log.record_with_id(Span {
            id: parent,
            parent: 0,
            request: index << 40,
            name,
            start_ns,
            end_ns,
        });
    }
    out
}

/// Runs every caller on its own thread for `window`, all starting
/// together. With `spans`, each operation is recorded as a span (one
/// buffer per caller, merged into `spans` afterwards).
pub fn drive<C: Caller>(
    callers: &mut [C],
    window: Duration,
    spans: Option<&mut SpanLog>,
) -> Window {
    let barrier = Barrier::new(callers.len() + 1);
    let logs: Vec<Option<SpanLog>> = (0..callers.len())
        .map(|i| spans.as_ref().map(|base| base.fork(i as u64 + 1, SPANS_PER_THREAD)))
        .collect();
    let (outs, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .zip(logs)
            .enumerate()
            .map(|(index, (caller, mut log))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    crate::pin_caller(C::cpu(index));
                    barrier.wait();
                    let start = Instant::now();
                    let out = caller_loop(caller, index as u64 + 1, start, window, log.as_mut());
                    (out, log)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outs: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect();
        (outs, start.elapsed())
    });
    let mut pooled = Window::new(window);
    let mut base = spans;
    for (out, log) in outs {
        pooled.absorb(&out);
        if let (Some(base), Some(log)) = (base.as_mut(), log) {
            base.absorb(log);
        }
    }
    pooled.elapsed = elapsed;
    pooled
}

/// Untraced and traced windows, alternated so that drift (a registry
/// still filling, a noisy neighbour) hits both sides alike. Returns the
/// pooled untraced and traced windows and the traced spans.
pub fn alternate<C: Caller>(
    callers: &mut [C],
    window: Duration,
    rounds: usize,
) -> (Window, Window, SpanLog) {
    let mut spans = SpanLog::new(Instant::now(), 0, 4 * SPANS_PER_THREAD);
    let (mut untraced, mut traced) = (Window::new(window), Window::new(window));
    for _ in 0..rounds {
        untraced.absorb(&drive(callers, window, None));
        traced.absorb(&drive(callers, window, Some(&mut spans)));
    }
    (untraced, traced, spans)
}

/// The end-to-end figures of one untraced window.
pub fn report_window(out: &mut Outcome, w: &Window) {
    let n = w.sliced.samples();
    let slices: Vec<String> = w
        .sliced
        .ops
        .iter()
        .map(|&o| format!("{:.0}", o as f64 / w.sliced.slice_ns as f64 * 1e9))
        .collect();
    println!("slice rates (ops/s): {}", slices.join(" "));
    out.put("throughput_ops_s", w.sliced.median_rate(), n);
    out.put("latency_p50_us", w.sliced.median_quantile(0.50) / 1e3, n);
    out.put("latency_p99_us", w.sliced.median_quantile(0.99) / 1e3, n);
}

/// The generator and tracing figures of a traced run.
pub fn report_traced(out: &mut Outcome, untraced: &Window, traced: &Window, spans: SpanLog) {
    out.put("bench.client_self_ns", untraced.client_self_ns(), untraced.attempted());
    let overhead = 1.0 - traced.rate() / untraced.rate();
    out.put("bench.trace_overhead_share", overhead, traced.attempted());
    out.spans = Some(spans);
}
