//! The repository benchmark: two closed-loop workloads over the
//! counting stack, each generated from `--seed`, each gated on the
//! correctness of what it was handed, plus a seeded run of the
//! simulated cluster after every workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! spans recorded. With `--trace 1` it runs the workload untraced and
//! traced (the difference is the tracing overhead), climbs the layer
//! ladder (one timed rung per layer, see `ladder.rs`) and reports the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! A correctness violation prints no result and exits with code 1.
//! See `README.md` next to this package for every metric's definition.

mod check;
mod cluster;
mod handout;
mod hist;
mod http;
mod ladder;
mod load;
mod trace;

use std::time::{Duration, Instant};

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("grant_latency_p50_ticks", "ticks"),
    ("grant_latency_p99_ticks", "ticks"),
    ("msgs_per_value", "hops/value"),
    ("failover_gap_ticks", "ticks"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("counting.build_us", "us"),
    ("runtime.central_next_ns", "ns"),
    ("runtime.traverse_ns", "ns"),
    ("runtime.network_reserve_ns", "ns"),
    ("runtime.elim_reserve_p50_ns", "ns"),
    ("runtime.elim_reserve_p99_ns", "ns"),
    ("runtime.elim_merge_ratio", "ratio"),
    ("runtime.elim_fallback_ratio", "ratio"),
    ("runtime.network_self_ns", "ns"),
    ("runtime.elim_self_ns", "ns"),
    ("service.tenant_reserve_ns", "ns"),
    ("service.tenant_self_ns", "ns"),
    ("service.ticket_acquire_ns", "ns"),
    ("service.rate_acquire_ns", "ns"),
    ("service.rate_shed_ratio", "ratio"),
    ("service.id_next_ns", "ns"),
    ("service.lookup_ns", "ns"),
    ("service.create_us", "us"),
    ("service.evict_idle_us", "us"),
    ("service.evicted_per_sweep", "count"),
    ("service.live_tenants", "count"),
    ("server.parse_ns", "ns"),
    ("server.route_ns", "ns"),
    ("server.adapter_lookup_ns", "ns"),
    ("server.write_ns", "ns"),
    ("server.wire_us", "us"),
    ("server.connections", "count"),
    ("server.client_errors", "count"),
    ("cluster.run_sim_ms", "ms"),
    ("cluster.events", "count"),
    ("cluster.hops_sent", "count"),
    ("cluster.hops_dropped", "count"),
    ("cluster.hops_duplicated", "count"),
    ("cluster.hops_severed", "count"),
    ("cluster.append_per_grant", "hops/grant"),
    ("cluster.elections", "count"),
    ("cluster.r1.msgs_per_value", "hops/value"),
    ("cluster.r3.msgs_per_value", "hops/value"),
    ("cluster.r1.grant_latency_p99_ticks", "ticks"),
    ("cluster.r3.grant_latency_p99_ticks", "ticks"),
    ("bench.client_self_ns", "ns"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.error_share", "ratio"),
];

/// The workloads, by `--workload` name.
pub const WORKLOADS: &[&str] = &["handout-hot", "http-tenant-churn"];

/// Closed-loop callers per workload (generator threads and, for the
/// HTTP workloads, connections).
const MAX_CALLERS: usize = 2;

/// Times each workload's set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 61;

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Generator threads (and HTTP connections): `min(2, cpus)`.
    pub callers: usize,
    pub cpus: usize,
}

impl Ctx {
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<trace::SpanLog>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Takes `other`'s metrics; with `keep`, a metric this outcome
    /// already holds is kept rather than replaced.
    pub fn extend(&mut self, other: Outcome, keep: bool) {
        for m in other.metrics {
            if !(keep && self.get(m.name).is_some()) {
                self.put(m.name, m.value, m.samples);
            }
        }
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, theirs) => self.spans = theirs,
            _ => {}
        }
    }
}

/// SplitMix64: the seeded stream every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The cpus this process may run on, from `Cpus_allowed_list`. Read
/// once, before any pinning: the list describes the main thread, which
/// is pinned itself later.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
        list.trim()
            .split(',')
            .filter_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
            })
            .flatten()
            .collect()
    })
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins thread `tid` (0: the calling thread) to the `index`-th allowed
/// cpu. If pinning fails the thread runs unpinned.
fn pin(tid: i32, index: usize) {
    let cpus = allowed_cpus();
    let mut mask = [0u64; 16];
    match cpus.get(index % cpus.len().max(1)) {
        Some(&cpu) if cpu < mask.len() * 64 => mask[cpu / 64] |= 1 << (cpu % 64),
        _ => return,
    }
    // SAFETY: `mask` is a live 128-byte `cpu_set_t`-sized buffer and
    // `cpusetsize` is its exact size; `tid` names a thread of this
    // process or, as 0, the calling thread. The result is ignored: an
    // unpinned thread is still correct.
    let _ = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Pins the calling thread to the `index`-th allowed cpu, so that the
/// scheduler cannot move a caller between placements mid-run.
pub fn pin_caller(index: usize) {
    pin(0, index);
}

/// Pins every thread of this process but the calling one to the
/// `index`-th allowed cpu; returns how many it pinned. Threads are not
/// told apart by name: a thread names itself only once it runs.
pub fn pin_other_threads(index: usize) -> usize {
    let own = std::fs::read_link("/proc/thread-self").ok();
    let own = own.as_ref().and_then(|p| p.file_name()).and_then(|t| t.to_str()?.parse().ok());
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    let tids = tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok());
    let mut pinned = 0;
    for tid in tids.filter(|&tid| Some(tid) != own) {
        pin(tid, index);
        pinned += 1;
    }
    pinned
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping all but the last
/// result, and returns it with the median set-up time in seconds. Each
/// set-up starts after a short pause, so that every one starts from an
/// idle machine rather than on the heels of the previous one's threads.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64, u64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        std::thread::sleep(Duration::from_millis(10));
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = hist::median(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), median, SETUP_REPEATS as u64)
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let callers = MAX_CALLERS.min(cpus);
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        callers,
        cpus,
    })
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Load-generator honesty: never more closed-loop callers than cpus.
    assert!(ctx.callers >= 1 && ctx.callers <= ctx.cpus, "callers must not exceed cpus");
    // Set-up and the cluster cells run on this thread: always on the same
    // cpu, because the two vCPUs of a shared host need not be equally
    // fast. Threads spawned from here start on it too, and re-pin.
    pin_caller(0);
    let mut out = match ctx.workload {
        "handout-hot" => handout::run(ctx)?,
        "http-tenant-churn" => http::run(ctx)?,
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    // The cluster's protocol costs are deterministic per seed. Every
    // workload runs the seeded cells after its timed window and reports
    // them, so every run carries the full metric set.
    out.extend(cluster::protocol_pass(ctx)?, false);
    if ctx.trace {
        let ladder = ladder::climb(ctx, &out)?;
        out.extend(ladder, true);
        let error_share = out.failed as f64 / out.attempted.max(1) as f64;
        out.put("bench.error_share", error_share, out.attempted);
    }
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={} callers={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.cpus,
        ctx.callers
    );
    let out = match run(&ctx) {
        Ok(out) => out,
        Err(violation) => {
            eprintln!("correctness violation: {violation}");
            std::process::exit(1);
        }
    };

    if let Some(spans) = &out.spans {
        let path =
            std::path::Path::new("perfbench/out").join(format!("spans-{}.jsonl", ctx.workload));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"cpus\":{},\"callers\":{},\"dropped\":{}}}",
            ctx.workload, ctx.seed, ctx.cpus, ctx.callers, spans.dropped
        );
        match trace::write_spans(&path, &header, spans) {
            Ok(()) => {
                println!("spans written to {} ({} kept)", path.display(), spans.spans().len())
            }
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let Some(m) = out.metrics.iter().find(|m| m.name == name) else {
            eprintln!("benchmark defect: metric {name} was not measured");
            std::process::exit(3);
        };
        println!("metric {name} = {} {unit} (n={})", m.value, m.samples);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(m.value)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
