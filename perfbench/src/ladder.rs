//! The layer ladder of the traced run: one timed rung per layer, each a
//! loop over one public function, from the central `fetch_add` floor up
//! to a loopback HTTP round trip. Adjacent rungs differ by one layer's
//! cost, so a layer's self time is its rung minus the rung below, and
//! nothing inside the crates is instrumented.
//!
//! Multi-threaded rungs run `ctx.callers` threads together; their cost
//! per call is the mean time one thread spends per call. Each rung
//! records one span per thread under a parent span for the rung.

use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use counting::counting_network;
use counting_runtime::{
    BlockReserve, CentralCounter, CompiledNetwork, EliminationConfig, EliminationCounter,
    NetworkCounter, SharedCounter,
};
use counting_server::http::{read_request, write_response, ReadOutcome, Request};
use counting_server::router::route;
use counting_server::{AppState, CountingServer, ServerConfig};
use counting_service::{
    CounterService, ServiceConfig, SharedIdGenerator, DEFAULT_ID_SLOTS, DEFAULT_LEASE,
};

use crate::hist::{median, Hist};
use crate::http::Conn;
use crate::trace::{Span, SpanLog};
use crate::{Ctx, Outcome};

/// Calls between two clock reads in an untimed-per-call rung.
const BATCH: u64 = 64;

struct Ladder<'a> {
    ctx: &'a Ctx,
    rung: Duration,
    spans: SpanLog,
    out: Outcome,
}

impl Ladder<'_> {
    /// Runs `op` on every caller thread for one rung's time; returns
    /// the mean nanoseconds per call of one thread.
    fn rung(&mut self, name: &'static str, op: impl Fn(usize, u64) + Sync) -> f64 {
        let threads = self.ctx.callers;
        let barrier = Barrier::new(threads);
        let rung = self.rung;
        let parent = self.spans.reserve_id();
        let t0 = Instant::now();
        let per_thread: Vec<(u64, Instant, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|thread| {
                    let (barrier, op) = (&barrier, &op);
                    scope.spawn(move || {
                        crate::pin_caller(thread);
                        barrier.wait();
                        let start = Instant::now();
                        let mut calls = 0u64;
                        loop {
                            for _ in 0..BATCH {
                                op(thread, calls);
                                calls += 1;
                            }
                            if start.elapsed() >= rung {
                                break;
                            }
                        }
                        (calls, start, Instant::now())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("ladder thread panicked")).collect()
        });
        let mut ns = Vec::new();
        for (thread, &(calls, start, end)) in per_thread.iter().enumerate() {
            let (s, e) = (self.spans.at(start), self.spans.at(end));
            self.spans.record(name, parent, thread as u64, s, e);
            ns.push(end.duration_since(start).as_nanos() as f64 / calls as f64);
        }
        let (s, e) = (self.spans.at(t0), self.spans.now());
        self.spans.record_with_id(Span {
            id: parent,
            parent: 0,
            request: 0,
            name: "ladder.rung",
            start_ns: s,
            end_ns: e,
        });
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        let calls: u64 = per_thread.iter().map(|p| p.0).sum();
        self.out.put(name, mean, calls);
        mean
    }

    /// Like [`Self::rung`], timing every call into a histogram.
    fn timed_rung(&mut self, name: &'static str, op: impl Fn(usize, u64) + Sync) -> Hist {
        let threads = self.ctx.callers;
        let barrier = Barrier::new(threads);
        let rung = self.rung;
        let t0 = Instant::now();
        let hists: Vec<Hist> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|thread| {
                    let (barrier, op) = (&barrier, &op);
                    scope.spawn(move || {
                        crate::pin_caller(thread);
                        let mut h = Hist::default();
                        barrier.wait();
                        let start = Instant::now();
                        let mut calls = 0u64;
                        loop {
                            let a = Instant::now();
                            op(thread, calls);
                            let b = Instant::now();
                            h.record(b.duration_since(a).as_nanos() as u64);
                            calls += 1;
                            if b.duration_since(start) >= rung {
                                break;
                            }
                        }
                        h
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("ladder thread panicked")).collect()
        });
        let (s, e) = (self.spans.at(t0), self.spans.now());
        self.spans.record(name, 0, 0, s, e);
        let mut all = Hist::default();
        hists.iter().for_each(|h| all.merge(h));
        all
    }

    /// Times `op` once per call on this thread, for one rung's time (at
    /// least `calls.0` and at most `calls.1` calls); returns the median
    /// in microseconds.
    fn solo_us(
        &mut self,
        name: &'static str,
        calls: (usize, usize),
        mut op: impl FnMut(u64),
    ) -> f64 {
        let start = Instant::now();
        let mut us = Vec::new();
        let mut i = 0;
        while us.len() < calls.1 && (us.len() < calls.0 || start.elapsed() < self.rung) {
            let t = Instant::now();
            op(i);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            i += 1;
        }
        let (s, e) = (self.spans.at(start), self.spans.now());
        self.spans.record(name, 0, 0, s, e);
        let m = median(&us).unwrap_or(0.0);
        self.out.put(name, m, us.len() as u64);
        m
    }
}

/// Block sizes the reserve rungs cycle through (the workloads' 1..=8).
fn k_of(i: u64) -> usize {
    1 + (i % 8) as usize
}

fn parse(bytes: &[u8]) -> Request {
    match read_request(&mut BufReader::new(bytes)) {
        Ok(ReadOutcome::Request(r)) => r,
        other => panic!("workload request must parse: {other:?}"),
    }
}

/// Climbs the ladder. `measured` holds what the workload already
/// reported; rungs it measured itself (a workload's own round trip,
/// shed ratio or eviction sweeps) are kept, not replaced.
pub fn climb(ctx: &Ctx, measured: &Outcome) -> Result<Outcome, String> {
    let rungs = 18.0;
    let mut l = Ladder {
        ctx,
        rung: ctx.window(0.4 / rungs).max(Duration::from_millis(20)),
        spans: SpanLog::new(Instant::now(), 15, 1 << 12),
        out: Outcome::default(),
    };

    // counting: build C(16,16) and compile it.
    l.solo_us("counting.build_us", (5, usize::MAX), |_| {
        let net = counting_network(16, 16).expect("C(16,16) is valid");
        std::hint::black_box(CompiledNetwork::new(&net));
    });

    // runtime, bottom up.
    let net = counting_network(16, 16).expect("C(16,16) is valid");
    let central = CentralCounter::new();
    let floor = l.rung("runtime.central_next_ns", |t, _| {
        std::hint::black_box(central.next(t));
    });
    let compiled = CompiledNetwork::new(&net);
    let width = compiled.input_width() as u64;
    let callers = ctx.callers as u64;
    l.rung("runtime.traverse_ns", |t, i| {
        std::hint::black_box(compiled.traverse(((t as u64 + i * callers) % width) as usize));
    });
    let network = NetworkCounter::new("ladder", &net);
    let network_ns = l.rung("runtime.network_reserve_ns", |t, i| {
        std::hint::black_box(network.reserve_block(t, k_of(i)));
    });
    let service_default = ServiceConfig::default();
    let elim = EliminationCounter::with_config(
        NetworkCounter::new("ladder-elim", &net),
        EliminationConfig { strategy: service_default.strategy, ..EliminationConfig::default() },
    );
    let elim_hist = l.timed_rung("runtime.elim_reserve", |t, i| {
        std::hint::black_box(elim.reserve_block(t, k_of(i)));
    });
    let calls = elim_hist.count();
    l.out.put("runtime.elim_reserve_p50_ns", elim_hist.quantile(0.5).unwrap_or(0.0), calls);
    l.out.put("runtime.elim_reserve_p99_ns", elim_hist.quantile(0.99).unwrap_or(0.0), calls);
    l.out.put("runtime.elim_merge_ratio", elim.collisions() as f64 / calls.max(1) as f64, calls);
    l.out.put("runtime.elim_fallback_ratio", elim.fallbacks() as f64 / calls.max(1) as f64, calls);
    let elim_ns = elim_hist.mean().unwrap_or(0.0);
    l.out.put("runtime.network_self_ns", network_ns - floor, 1);
    l.out.put("runtime.elim_self_ns", elim_ns - network_ns, 1);

    // service.
    let service = CounterService::new(service_default);
    let tenant = service.get_or_create("ladder");
    let tenant_ns = l.rung("service.tenant_reserve_ns", |t, i| {
        std::hint::black_box(tenant.reserve_block(t, k_of(i)));
    });
    l.out.put("service.tenant_self_ns", tenant_ns - elim_ns, 1);
    let gate = service.ticket_gate("ladder-gate");
    l.rung("service.ticket_acquire_ns", |t, _| {
        std::hint::black_box(gate.acquire(t));
    });
    let limiter = service.rate_limiter("ladder-rate", 256);
    let admitted = AtomicU64::new(0);
    let epoch = Instant::now();
    l.rung("service.rate_acquire_ns", |t, i| {
        // A 1 ms window, read every BATCH calls to keep the clock off
        // the timed path.
        let window = if i % BATCH == 0 { epoch.elapsed().as_millis() as u64 } else { 0 };
        if limiter.try_acquire(t, window.max(limiter.current_window())) {
            admitted.fetch_add(1, Ordering::Relaxed);
        }
    });
    let rate_calls = service.watermark("ladder-rate");
    let shed = 1.0 - admitted.load(Ordering::Relaxed) as f64 / rate_calls.max(1) as f64;
    l.out.put("service.rate_shed_ratio", shed, rate_calls);
    let ids = SharedIdGenerator::new(
        service.get_or_create("ladder-ids"),
        DEFAULT_LEASE,
        DEFAULT_ID_SLOTS,
    );
    l.rung("service.id_next_ns", |t, _| {
        std::hint::black_box(ids.next_id(t));
    });
    l.rung("service.lookup_ns", |_, _| {
        std::hint::black_box(service.get_or_create("ladder"));
    });
    // Capped: every created tenant stays live until the sweep below.
    l.solo_us("service.create_us", (20, 4096), |i| {
        std::hint::black_box(service.get_or_create(&format!("ladder-new-{i}")));
    });
    let t = Instant::now();
    let evicted = service.evict_idle();
    l.out.put("service.evict_idle_us", t.elapsed().as_secs_f64() * 1e6, 1);
    l.out.put("service.evicted_per_sweep", evicted as f64, 1);
    l.out.put("service.live_tenants", service.tenant_count() as f64, 1);

    // server: parse, route and write on in-memory buffers.
    let samples = crate::http::sample_requests(ctx.seed);
    let n = samples.len() as u64;
    let pick = |t: usize, i: u64| &samples[((i * callers + t as u64) % n) as usize];
    let parse_ns = l.rung("server.parse_ns", |t, i| {
        let mut reader = BufReader::new(pick(t, i).as_slice());
        std::hint::black_box(read_request(&mut reader).ok());
    });
    let requests: Vec<Request> = samples.iter().map(|b| parse(b)).collect();
    // Routed once untimed, so that the rung routes to live tenants;
    // creation is `service.create_us`.
    let state = AppState::new(&ServerConfig::default());
    requests.iter().for_each(|r| drop(route(&state, 0, r)));
    let route_ns = l.rung("server.route_ns", |t, i| {
        std::hint::black_box(route(&state, t, &requests[((i * callers + t as u64) % n) as usize]));
    });
    l.rung("server.adapter_lookup_ns", |_, i| {
        if i % 2 == 0 {
            std::hint::black_box(state.gate("hot-a"));
        } else {
            std::hint::black_box(state.limiter("hot-a"));
        }
    });
    let responses: Vec<_> = requests.iter().take(64).map(|r| route(&state, 0, r)).collect();
    let write_ns = l.rung("server.write_ns", |_, i| {
        let mut buf = Vec::with_capacity(256);
        let _ = write_response(&mut buf, &responses[(i % responses.len() as u64) as usize], true);
        std::hint::black_box(buf);
    });

    // The loopback round trip: the workload's own when it spoke HTTP.
    let rtt_us = match measured.get("server.rtt_p50_us") {
        Some(rtt) => rtt,
        None => loopback_rtt_us(&mut l)?,
    };
    l.out.put("server.wire_us", rtt_us - (parse_ns + route_ns + write_ns) / 1e3, 1);

    let mut out = std::mem::take(&mut l.out);
    out.spans = Some(l.spans);
    Ok(out)
}

/// Median round trip of `/lease/{t}?k=1` over `ctx.callers` loopback
/// connections to a fresh default server; also reports its stats.
fn loopback_rtt_us(l: &mut Ladder<'_>) -> Result<f64, String> {
    let server = CountingServer::start("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("loopback server: {e}"))?;
    let addr = server.local_addr();
    let conns: Vec<Mutex<Conn>> = (0..l.ctx.callers)
        .map(|_| Conn::connect(addr).map(Mutex::new))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("loopback connect: {e}"))?;
    let failures = AtomicU64::new(0);
    let hist = l.timed_rung("server.loopback", |t, _| {
        let mut conn = conns[t].lock().expect("one thread per connection");
        if conn.exchange(b"GET /lease/ladder?k=1 HTTP/1.1\r\nHost: bench\r\n\r\n").ok() != Some(200)
        {
            failures.fetch_add(1, Ordering::Relaxed);
        }
    });
    if failures.load(Ordering::Relaxed) > 0 {
        return Err(format!("{} loopback requests failed", failures.load(Ordering::Relaxed)));
    }
    drop(conns);
    let stats = server.stats();
    l.out.put("server.connections", stats.connections.load(Ordering::Relaxed) as f64, 1);
    l.out.put("server.client_errors", stats.client_errors.load(Ordering::Relaxed) as f64, 1);
    server.shutdown();
    Ok(hist.quantile(0.5).unwrap_or(0.0) / 1e3)
}
