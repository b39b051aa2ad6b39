//! `http-tenant-churn`: closed-loop clients over loopback keep-alive
//! connections to an in-process `CountingServer` with the default
//! `ServerConfig` (4 workers, `C(16,16)+elim`).
//!
//! The server's worker threads are the program under test; each of the
//! (at most two) client threads owns one connection and waits for every
//! response before sending the next request.
//!
//! The requests follow the client flows of `exp_server`, the
//! repository's HTTP traffic model. Half the flows are waiting-room
//! clients (`/ticket`, then one `/status` poll), a quarter are lease
//! clients (two `/lease?k=1..8`) and a quarter are rate clients (two
//! `/rate`). As `exp_server`'s controller does, one `/admit?n=64`
//! follows every 64 waiting-room flows. Each flow names one tenant
//! drawn from a bounded, seeded set per endpoint family, and caller 0
//! sweeps idle tenants every [`SWEEP_EVERY`] requests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use counting_server::{CountingServer, ServerConfig};

use crate::check::Tiling;
use crate::load::{
    alternate, drive, report_traced, report_window, Caller, Window, TRACE_ROUND, TRACE_ROUNDS,
};
use crate::{peak_rss_mb, repeated_setup, Ctx, Outcome, Rng};

/// Tenant names per endpoint family. Bounded so that memory does not
/// depend on run length.
const NAMES: u64 = 2048;
/// Requests between two `evict_idle` sweeps (caller 0 only).
const SWEEP_EVERY: u64 = 512;
/// Slots one `/admit` releases, and waiting-room flows between two of
/// them: `exp_server`'s admission batch.
const ADMIT_BATCH: u64 = 64;
/// Requests in one caller's seeded plan (replayed cyclically).
const PLAN_LEN: usize = 1 << 14;
/// Requests of caller 0's plan the ladder's parse, route and write
/// rungs cycle through.
const SAMPLES: usize = 1024;
/// A response slower than this counts as a failure (timeout).
const TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ticket,
    Lease(u64),
    Rate,
    Status,
    Admit(u64),
}

#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    tenant: u32,
    bytes: Vec<u8>,
}

fn tenant_name(tenant: u32) -> String {
    format!("c{tenant:04}")
}

fn request_bytes(kind: Kind, tenant: u32, window: u64) -> Vec<u8> {
    let tenant = tenant_name(tenant);
    let target = match kind {
        Kind::Ticket => format!("/ticket/{tenant}"),
        Kind::Lease(k) => format!("/lease/{tenant}?k={k}"),
        Kind::Rate => format!("/rate/{tenant}?window={window}"),
        Kind::Status => format!("/status/{tenant}"),
        Kind::Admit(n) => format!("/admit/{tenant}?n={n}"),
    };
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Caller `caller`'s seeded sequence of client flows (see the module
/// documentation), flattened into requests.
fn plan(seed: u64, caller: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, 0x4854_5450 + caller as u64);
    let mut reqs = Vec::with_capacity(PLAN_LEN + 3);
    let mut waiting = 0u64;
    while reqs.len() < PLAN_LEN {
        let tenant = rng.below(NAMES) as u32;
        let flow = match rng.below(4) {
            0 | 1 => {
                waiting += 1;
                let admit = waiting.is_multiple_of(ADMIT_BATCH);
                [Some(Kind::Ticket), Some(Kind::Status), admit.then_some(Kind::Admit(ADMIT_BATCH))]
            }
            2 => [Some(Kind::Lease(1 + rng.below(8))), Some(Kind::Lease(1 + rng.below(8))), None],
            _ => [Some(Kind::Rate), Some(Kind::Rate), None],
        };
        reqs.extend(flow.into_iter().flatten().map(|kind| Req {
            kind,
            tenant,
            bytes: request_bytes(kind, tenant, 0),
        }));
    }
    reqs
}

/// The first [`SAMPLES`] request bytes of caller 0's plan, for the
/// parse, route and write rungs of the ladder.
pub fn sample_requests(seed: u64) -> Vec<Vec<u8>> {
    plan(seed, 0).into_iter().take(SAMPLES).map(|r| r.bytes).collect()
}

/// One keep-alive connection with a minimal response reader: status
/// line, `Content-Length` framing, body.
pub struct Conn {
    addr: SocketAddr,
    io: Option<(BufReader<TcpStream>, TcpStream)>,
    line: String,
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut conn = Self { addr, io: None, line: String::new(), body: Vec::new() };
        conn.open()?;
        Ok(conn)
    }

    fn open(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        self.io = Some((BufReader::new(stream.try_clone()?), stream));
        Ok(())
    }

    /// Sends one request and reads the response into `self.body`.
    /// Returns the status; an IO error drops the connection, and the
    /// next exchange reconnects.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<u16> {
        if self.io.is_none() {
            self.open()?;
        }
        let result = self.exchange_open(request);
        if result.is_err() {
            self.io = None;
        }
        result
    }

    fn exchange_open(&mut self, request: &[u8]) -> io::Result<u16> {
        let (reader, writer) = self.io.as_mut().expect("opened above");
        writer.write_all(request)?;
        self.line.clear();
        reader.read_line(&mut self.line)?;
        let status = self
            .line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in headers"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        self.body.resize(length, 0);
        reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

/// The unsigned integer after `"key":` in a flat JSON body.
fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: &str = &text[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
    digits[..end].parse().ok()
}

struct HttpCaller<'a> {
    server: &'a CountingServer,
    id: usize,
    conn: Conn,
    plan: Vec<Req>,
    pos: usize,
    /// Per tenant: `/lease` blocks and `/ticket` values seen.
    leases: Vec<Tiling>,
    tickets: Vec<Tiling>,
    rate: Vec<u8>,
    epoch: Instant,
    sweeps: Vec<(Duration, usize)>,
    bad: Option<String>,
}

impl Caller for HttpCaller<'_> {
    type Out = io::Result<u16>;

    /// Every client on the first cpu; the server's threads are pinned to
    /// the second (see [`run`]).
    fn cpu(_index: usize) -> usize {
        0
    }

    fn call(&mut self, _now: Instant) -> io::Result<u16> {
        let req = &self.plan[self.pos];
        let bytes = if req.kind == Kind::Rate { &self.rate } else { &req.bytes };
        self.conn.exchange(bytes)
    }

    fn account(&mut self, out: io::Result<u16>) -> Result<&'static str, ()> {
        let req = &self.plan[self.pos];
        self.pos = (self.pos + 1) % self.plan.len();
        let next = &self.plan[self.pos];
        if next.kind == Kind::Rate {
            // The rate window follows the wall clock in 1 ms steps.
            let window = self.epoch.elapsed().as_millis() as u64;
            self.rate = request_bytes(Kind::Rate, next.tenant, window);
        }
        let tenant = req.tenant as usize;
        if !matches!(out, Ok(200)) {
            return Err(());
        }
        Ok(match req.kind {
            Kind::Ticket => {
                match json_u64(&self.conn.body, "ticket") {
                    Some(t) => self.tickets[tenant].add(t),
                    None => self.bad = Some("ticket response without a ticket".into()),
                }
                "http.ticket"
            }
            Kind::Lease(k) => {
                let start = json_u64(&self.conn.body, "start");
                let count = json_u64(&self.conn.body, "count");
                match (start, count) {
                    (Some(s), Some(c)) if c == k => self.leases[tenant].add_block(s, c),
                    _ => self.bad = Some(format!("lease response {:?}", self.conn.body)),
                }
                "http.lease"
            }
            Kind::Rate => "http.rate",
            Kind::Status => "http.status",
            Kind::Admit(_) => "http.admit",
        })
    }

    fn chore(&mut self, seq: u64) {
        if self.id == 0 && seq.is_multiple_of(SWEEP_EVERY) {
            // An operator's sweeper: retire idle tenants.
            let t = Instant::now();
            let evicted = self.server.state().service().evict_idle();
            self.sweeps.push((t.elapsed(), evicted));
        }
    }
}

fn setup(callers: usize) -> io::Result<(Vec<Conn>, CountingServer)> {
    let server = CountingServer::start("127.0.0.1:0", ServerConfig::default())?;
    let conns =
        (0..callers).map(|_| Conn::connect(server.local_addr())).collect::<io::Result<_>>()?;
    Ok((conns, server))
}

/// Live `/ticket` and `/rate` tenants: the ones `AppState` pins.
fn pinned(server: &CountingServer) -> u64 {
    let names = server.state().service().tenants();
    names.iter().filter(|n| n.starts_with("ticket:") || n.starts_with("rate:")).count() as u64
}

/// Checks every tenant's `/lease` and `/ticket` stream. A failed
/// request may have been handed a value the client never saw, so any
/// failure fails the run.
fn verify(server: &CountingServer, callers: &[HttpCaller<'_>], failed: u64) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("{failed} requests failed (non-2xx, IO error or timeout)"));
    }
    if let Some(bad) = callers.iter().find_map(|c| c.bad.clone()) {
        return Err(bad);
    }
    let state = server.state();
    for tenant in 0..NAMES as usize {
        let name = tenant_name(tenant as u32);
        let (mut leases, mut tickets) = (Tiling::default(), Tiling::default());
        for c in callers {
            leases.merge(&c.leases[tenant]);
            tickets.merge(&c.tickets[tenant]);
        }
        let watermark = state.lease_watermark(&name);
        leases.verify(watermark).map_err(|e| format!("/lease/{name}: {e}"))?;
        let dispensed = state.service().watermark(&format!("ticket:{name}"));
        tickets.verify(dispensed).map_err(|e| format!("/ticket/{name}: {e}"))?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((conns, server), setup_s, setups) =
        repeated_setup(|| setup(ctx.callers).expect("start the server and connect over loopback"));
    out.put("setup_s", setup_s, setups);
    // The load generator on one cpu and the server on the other. Left to
    // the scheduler, clients and workers settled into placements that
    // held for seconds and differed by about 25% in throughput. Only the
    // server's threads exist besides this one now.
    crate::pin_other_threads(1);
    let epoch = Instant::now();
    let mut callers: Vec<HttpCaller<'_>> = conns
        .into_iter()
        .enumerate()
        .map(|(id, conn)| HttpCaller {
            server: &server,
            id,
            conn,
            plan: plan(ctx.seed, id),
            pos: 0,
            leases: vec![Tiling::default(); NAMES as usize],
            tickets: vec![Tiling::default(); NAMES as usize],
            rate: request_bytes(Kind::Rate, 0, 0),
            epoch,
            sweeps: Vec::new(),
            bad: None,
        })
        .collect();

    // Warm-up: until every tenant that AppState pins exists (lazy set-up
    // users pay once, not per request), within a time cap.
    let mut warm = drive(&mut callers, ctx.window(0.05), None);
    let warm_cap = Instant::now() + ctx.window(0.3);
    while pinned(&server) < 2 * NAMES && Instant::now() < warm_cap {
        warm.absorb(&drive(&mut callers, ctx.window(0.02), None));
    }
    let measured = if ctx.trace {
        let (untraced, traced, spans) =
            alternate(&mut callers, ctx.window(TRACE_ROUND), TRACE_ROUNDS);
        report_traced(&mut out, &untraced, &traced, spans);
        let rtt = untraced.sliced.pooled().quantile(0.5).unwrap_or(0.0);
        out.put("server.rtt_p50_us", rtt / 1e3, untraced.ok);
        let stats = server.stats();
        out.put(
            "server.connections",
            stats.connections.load(std::sync::atomic::Ordering::Relaxed) as f64,
            1,
        );
        out.put(
            "server.client_errors",
            stats.client_errors.load(std::sync::atomic::Ordering::Relaxed) as f64,
            1,
        );
        vec![untraced, traced]
    } else {
        let w = drive(&mut callers, ctx.window(1.0), None);
        report_window(&mut out, &w);
        vec![w]
    };
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    out.attempted = warm.attempted() + measured.iter().map(Window::attempted).sum::<u64>();
    out.failed = warm.failed + measured.iter().map(|w| w.failed).sum::<u64>();

    let sweeps: Vec<(Duration, usize)> = callers.iter().flat_map(|c| c.sweeps.clone()).collect();
    if ctx.trace && !sweeps.is_empty() {
        let us: Vec<f64> = sweeps.iter().map(|s| s.0.as_secs_f64() * 1e6).collect();
        let evicted: Vec<f64> = sweeps.iter().map(|s| s.1 as f64).collect();
        out.put("service.evict_idle_us", crate::hist::median(&us).unwrap_or(0.0), us.len() as u64);
        let mean = evicted.iter().sum::<f64>() / evicted.len() as f64;
        out.put("service.evicted_per_sweep", mean, evicted.len() as u64);
    }
    out.put("service.live_tenants", server.state().service().tenant_count() as f64, 1);
    // Quiescent now: every response was read before its caller returned.
    verify(&server, &callers, out.failed)?;
    drop(callers);
    server.shutdown();
    Ok(out)
}
