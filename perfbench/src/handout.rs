//! `handout-hot`: in-process hand-outs from a few hot tenants of one
//! `CounterService`, by up to two closed-loop threads.
//!
//! The seeded mix is mostly `TenantCounter::reserve_block` with `k` in
//! `1..=8`, plus `TicketGate::acquire`, `RateLimiter::try_acquire` and
//! `SharedIdGenerator::next_id`. Network traversal, the elimination
//! arena and the service adapters do the work; nothing touches HTTP or
//! the cluster.

use std::sync::Arc;
use std::time::Instant;

use counting_runtime::BlockReserve;
use counting_service::{
    CounterService, RateLimiter, ServiceConfig, SharedIdGenerator, TenantCounter, TicketGate,
    DEFAULT_ID_SLOTS, DEFAULT_LEASE,
};

use crate::check::Tiling;
use crate::load::{
    alternate, drive, report_traced, report_window, Caller, Window, TRACE_ROUND, TRACE_ROUNDS,
};
use crate::{peak_rss_mb, repeated_setup, Ctx, Outcome, Rng};

/// The hot tenants, with draw weights in proportion to `1 / (i + 1)`:
/// the Zipf(1) popularity `exp_service` drives its tenants with.
const HOT: [(&str, u64); 4] = [("hot-a", 12), ("hot-b", 6), ("hot-c", 4), ("hot-d", 3)];
const GATE: &str = "gate";
const RATE: &str = "rate";
const IDS: &str = "ids";
/// Per-window budget of the rate limiter; windows are 1 ms long.
const RATE_LIMIT: u64 = 256;
/// Operations in one caller's seeded plan (replayed cyclically).
const PLAN_LEN: usize = 1 << 14;

#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve { tenant: usize, k: usize },
    Ticket,
    Rate,
    Id,
}

/// An index into [`HOT`], drawn by weight.
fn hot(rng: &mut Rng) -> usize {
    let mut pick = rng.below(HOT.iter().map(|h| h.1).sum());
    HOT.iter()
        .position(|h| {
            let hit = pick < h.1;
            pick = pick.saturating_sub(h.1);
            hit
        })
        .expect("pick < total weight")
}

/// The seeded mix: 70% block reservations on the network path the
/// paper is about, and 10% on each service adapter so that every one
/// runs.
fn plan(seed: u64, caller: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x4841_4E44 + caller as u64);
    (0..PLAN_LEN)
        .map(|_| match rng.below(100) {
            0..=69 => Op::Reserve { tenant: hot(&mut rng), k: 1 + rng.below(8) as usize },
            70..=79 => Op::Ticket,
            80..=89 => Op::Rate,
            _ => Op::Id,
        })
        .collect()
}

/// The system under test: one registry and its hot adapters.
struct System {
    service: CounterService,
    tenants: Vec<Arc<TenantCounter>>,
    gate: TicketGate,
    limiter: RateLimiter,
    ids: SharedIdGenerator,
}

fn setup() -> System {
    let service = CounterService::new(ServiceConfig::default());
    let tenants = HOT.iter().map(|(name, _)| service.get_or_create(name)).collect();
    let gate = service.ticket_gate(GATE);
    let limiter = service.rate_limiter(RATE, RATE_LIMIT);
    let ids = SharedIdGenerator::new(service.get_or_create(IDS), DEFAULT_LEASE, DEFAULT_ID_SLOTS);
    System { service, tenants, gate, limiter, ids }
}

enum Out {
    Block(usize, u64, usize),
    Ticket(u64),
    Rate(bool),
    Id(u64),
}

struct HandoutCaller<'a> {
    sys: &'a System,
    id: usize,
    /// Start of the run: rate windows are milliseconds since then.
    epoch: Instant,
    plan: Vec<Op>,
    pos: usize,
    blocks: Vec<Tiling>,
    tickets: Tiling,
    ids: Tiling,
    rate_calls: u64,
    rate_admitted: u64,
}

impl Caller for HandoutCaller<'_> {
    type Out = Out;
    /// Each caller on a cpu of its own. Left free, the scheduler
    /// sometimes stacked both on one cpu for a whole run, doubling the
    /// rate and removing the contention the workload exists to measure.
    fn cpu(index: usize) -> usize {
        index
    }

    fn call(&mut self, now: Instant) -> Out {
        let op = self.plan[self.pos];
        match op {
            Op::Reserve { tenant, k } => {
                Out::Block(tenant, self.sys.tenants[tenant].reserve_block(self.id, k), k)
            }
            Op::Ticket => Out::Ticket(self.sys.gate.acquire(self.id)),
            Op::Rate => {
                let window = now.saturating_duration_since(self.epoch).as_millis() as u64;
                Out::Rate(self.sys.limiter.try_acquire(self.id, window))
            }
            Op::Id => Out::Id(self.sys.ids.next_id(self.id)),
        }
    }

    fn account(&mut self, out: Out) -> Result<&'static str, ()> {
        self.pos = (self.pos + 1) % self.plan.len();
        Ok(match out {
            Out::Block(tenant, base, k) => {
                self.blocks[tenant].add_block(base, k as u64);
                "service.reserve_block"
            }
            Out::Ticket(t) => {
                self.tickets.add(t);
                "service.ticket_acquire"
            }
            Out::Rate(admitted) => {
                self.rate_calls += 1;
                self.rate_admitted += u64::from(admitted);
                "service.rate_try_acquire"
            }
            Out::Id(id) => {
                self.ids.add(id);
                "service.id_next"
            }
        })
    }
}

/// Checks every stream the callers drew from against the registry.
fn verify(sys: &System, callers: &[HandoutCaller<'_>]) -> Result<(), String> {
    for (i, (name, _)) in HOT.iter().enumerate() {
        let mut all = Tiling::default();
        callers.iter().for_each(|c| all.merge(&c.blocks[i]));
        all.verify(sys.service.watermark(name)).map_err(|e| format!("tenant {name}: {e}"))?;
    }
    let mut tickets = Tiling::default();
    callers.iter().for_each(|c| tickets.merge(&c.tickets));
    tickets.verify(sys.gate.dispensed()).map_err(|e| format!("tickets: {e}"))?;
    let mut ids = Tiling::default();
    callers.iter().for_each(|c| ids.merge(&c.ids));
    for id in sys.ids.drain() {
        ids.add(id);
    }
    ids.verify(sys.service.watermark(IDS)).map_err(|e| format!("ids: {e}"))?;
    let rate_calls: u64 = callers.iter().map(|c| c.rate_calls).sum();
    let rate_drawn = sys.service.watermark(RATE);
    if rate_drawn != rate_calls {
        return Err(format!("rate limiter drew {rate_drawn} values for {rate_calls} calls"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (sys, setup_s, setups) = repeated_setup(setup);
    out.put("setup_s", setup_s, setups);
    let epoch = Instant::now();
    let mut callers: Vec<HandoutCaller<'_>> = (0..ctx.callers)
        .map(|id| HandoutCaller {
            sys: &sys,
            id,
            epoch,
            plan: plan(ctx.seed, id),
            pos: 0,
            blocks: vec![Tiling::default(); HOT.len()],
            tickets: Tiling::default(),
            ids: Tiling::default(),
            rate_calls: 0,
            rate_admitted: 0,
        })
        .collect();

    // Warm-up: caches filled, lazy state built, before any timing.
    let warm = drive(&mut callers, ctx.window(0.05), None);
    let measured = if ctx.trace {
        let (untraced, traced, spans) =
            alternate(&mut callers, ctx.window(TRACE_ROUND), TRACE_ROUNDS);
        report_traced(&mut out, &untraced, &traced, spans);
        let rate_calls: u64 = callers.iter().map(|c| c.rate_calls).sum();
        let admitted: u64 = callers.iter().map(|c| c.rate_admitted).sum();
        out.put(
            "service.rate_shed_ratio",
            1.0 - admitted as f64 / rate_calls.max(1) as f64,
            rate_calls,
        );
        out.put("service.live_tenants", sys.service.tenant_count() as f64, 1);
        vec![untraced, traced]
    } else {
        let w = drive(&mut callers, ctx.window(1.0), None);
        report_window(&mut out, &w);
        vec![w]
    };
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    out.attempted = warm.attempted() + measured.iter().map(Window::attempted).sum::<u64>();
    out.failed = warm.failed + measured.iter().map(|w| w.failed).sum::<u64>();
    verify(&sys, &callers)?;
    Ok(out)
}
