//! The cluster's part of every run: `counting_cluster::run_sim` over a
//! fixed list of cells derived from the seed, mixing single-coordinator
//! (r1) and 3-replica (r3) groups under the lossy fault plan with worker
//! churn, replica crashes and leader-isolating partitions.
//!
//! The protocol costs (hops per value, grant latency and failover gaps
//! in virtual ticks) are deterministic per seed. Each cell runs once
//! untraced and once traced; the two runs must agree exactly, and every
//! cell must converge without a violation, or the run fails.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use counting_cluster::{run_sim, ClusterSimConfig, ClusterTrace, SimReport, SimStats};
use counting_sim::des::FaultPlan;

use crate::hist::Hist;
use crate::{Ctx, Outcome, Rng};

/// Cells per run; every third cell is r1, the rest r3.
const CELLS: u64 = 144;
const WORKERS: u64 = 8;
const DEMAND_PER_NODE: u64 = 200;
const HORIZON: u64 = 8_000;
/// How long after a replica crash or partition start a hand-out gap
/// counts as a failover gap, in leases.
const FAILOVER_WINDOW_LEASES: u64 = 4;

/// The seeded cell list.
fn cells(seed: u64) -> Vec<(ClusterSimConfig, u64)> {
    let lossy = FaultPlan { drop_per_mille: 50, dup_per_mille: 30, min_delay: 1, max_delay: 20 };
    (0..CELLS)
        .map(|i| {
            let replicated = i % 3 != 0;
            let config = ClusterSimConfig {
                workers: WORKERS,
                demand_per_node: DEMAND_PER_NODE,
                horizon: HORIZON,
                fault: lossy,
                crashes: 2,
                joins: 1,
                leaves: 1,
                replicas: if replicated { 3 } else { 1 },
                replica_crashes: u64::from(replicated),
                partitions: if replicated { 2 } else { 0 },
                ..ClusterSimConfig::default()
            };
            (config, Rng::new(seed, 0x434C_5553 + i).next_u64())
        })
        .collect()
}

/// What must repeat exactly between two runs of one cell.
fn fingerprint(r: &SimReport) -> Fingerprint {
    (r.stats, r.handed, r.unique, r.final_tick, r.cursor)
}

fn check(i: usize, r: &SimReport) -> Result<(), String> {
    if !r.violations.is_empty() {
        return Err(format!("cluster cell {i}: {}", r.violations.join("; ")));
    }
    if !r.converged {
        return Err(format!("cluster cell {i} did not converge"));
    }
    Ok(())
}

/// The protocol figures of one traced cell.
#[derive(Default)]
struct CellCosts {
    grant_ticks: Vec<u64>,
    failover_gaps: Vec<u64>,
    appends: u64,
    grants: u64,
    terms: BTreeSet<u64>,
}

/// The `n{node} r{req}` key of a lease message rendering.
fn lease_key<'a>(msg: &'a str, kind: &str) -> Option<&'a str> {
    let rest = msg.strip_prefix(kind)?.strip_prefix(' ')?;
    let end = rest.match_indices(' ').nth(1).map_or(rest.len(), |(i, _)| i);
    Some(&rest[..end])
}

fn costs(trace: &ClusterTrace, lease_ticks: u64) -> CellCosts {
    let mut c = CellCosts::default();
    let mut requested: HashMap<&str, u64> = HashMap::new();
    let mut granted: BTreeSet<&str> = BTreeSet::new();
    let mut handouts = Vec::new();
    let mut triggers = Vec::new();
    let mut last_sever: Option<u64> = None;
    for ev in &trace.events {
        match ev.kind.as_str() {
            "send" => {
                let msg = ev.info.split_once(": ").map_or("", |(_, m)| m);
                if let Some(key) = lease_key(msg, "lease-request") {
                    requested.entry(key).or_insert(ev.at);
                } else if msg.starts_with("append ") && !msg.contains(" heartbeat ") {
                    c.appends += 1;
                } else if let Some(rest) = msg.strip_prefix("vote-request t") {
                    let term = rest.split(' ').next().and_then(|t| t.parse::<u64>().ok());
                    c.terms.extend(term);
                }
            }
            "deliver" => {
                if let Some(key) = lease_key(&ev.info, "lease-grant") {
                    // Delivered to the worker that asked, not a relay.
                    let to_asker = key.strip_prefix('n').and_then(|k| k.split(' ').next())
                        == Some(ev.node.to_string().as_str());
                    if to_asker && granted.insert(key) {
                        if let Some(&sent) = requested.get(key) {
                            c.grant_ticks.push(ev.at - sent);
                        }
                    }
                }
            }
            "handout" => handouts.push(ev.at),
            "replica-crash" => triggers.push(ev.at),
            "sever" => {
                if last_sever.is_none_or(|t| ev.at > t + lease_ticks) {
                    triggers.push(ev.at);
                }
                last_sever = Some(ev.at);
            }
            _ => {}
        }
    }
    c.grants = granted.len() as u64;
    // After each trigger, the longest hand-out gap that ends within
    // the failover window.
    let window = FAILOVER_WINDOW_LEASES * lease_ticks;
    c.failover_gaps = triggers
        .iter()
        .filter_map(|&t| {
            let first = handouts.partition_point(|&h| h <= t);
            let last = handouts.partition_point(|&h| h <= t + window);
            (first.max(1)..last.min(handouts.len())).map(|i| handouts[i] - handouts[i - 1]).max()
        })
        .collect();
    c
}

fn tick_quantile(samples: &[u64], q: f64) -> f64 {
    let mut h = Hist::default();
    samples.iter().for_each(|&s| h.record(s));
    h.quantile(q).unwrap_or(0.0)
}

/// One traced pass over the cell list: the deterministic protocol
/// metrics, end-to-end and per layer. `expect` holds the untraced
/// fingerprints the traced runs must reproduce.
fn traced_pass(
    list: &[(ClusterSimConfig, u64)],
    expect: &[Fingerprint],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut all_grants = Vec::new();
    let mut by_shape: [(u64, u64, Vec<u64>); 2] = Default::default();
    let (mut gaps, mut appends, mut grants, mut elections) = (Vec::new(), 0, 0, 0);
    let mut stats = SimStats::default();
    for (i, (config, cell_seed)) in list.iter().enumerate() {
        let report = run_sim(&ClusterSimConfig { record_trace: true, ..*config }, *cell_seed);
        check(i, &report)?;
        if fingerprint(&report) != expect[i] {
            return Err(format!("cluster cell {i}: traced run differs from untraced run"));
        }
        let trace = report.trace.as_ref().ok_or("record_trace returned no trace")?;
        let c = costs(trace, config.protocol.lease_ticks);
        let shape = &mut by_shape[usize::from(config.replicas > 1)];
        shape.0 += report.stats.sent;
        shape.1 += report.handed;
        shape.2.extend(&c.grant_ticks);
        all_grants.extend(&c.grant_ticks);
        if config.replicas > 1 {
            gaps.extend(&c.failover_gaps);
            appends += c.appends;
            grants += c.grants;
            elections += c.terms.len() as u64;
        }
        add_stats(&mut stats, &report.stats);
    }
    let grant_n = all_grants.len() as u64;
    out.put("grant_latency_p50_ticks", tick_quantile(&all_grants, 0.50), grant_n);
    out.put("grant_latency_p99_ticks", tick_quantile(&all_grants, 0.99), grant_n);
    let (sent, handed) = (by_shape[0].0 + by_shape[1].0, by_shape[0].1 + by_shape[1].1);
    out.put("msgs_per_value", sent as f64 / handed.max(1) as f64, handed);
    out.put("failover_gap_ticks", tick_quantile(&gaps, 0.5), gaps.len() as u64);
    for (shape, name_mpv, name_p99) in [
        (&by_shape[0], "cluster.r1.msgs_per_value", "cluster.r1.grant_latency_p99_ticks"),
        (&by_shape[1], "cluster.r3.msgs_per_value", "cluster.r3.grant_latency_p99_ticks"),
    ] {
        out.put(name_mpv, shape.0 as f64 / shape.1.max(1) as f64, shape.1);
        out.put(name_p99, tick_quantile(&shape.2, 0.99), shape.2.len() as u64);
    }
    out.put("cluster.append_per_grant", appends as f64 / grants.max(1) as f64, grants);
    out.put("cluster.elections", elections as f64, 1);
    out.put("cluster.events", stats.events as f64, 1);
    out.put("cluster.hops_sent", stats.sent as f64, 1);
    out.put("cluster.hops_dropped", stats.dropped as f64, 1);
    out.put("cluster.hops_duplicated", stats.duplicated as f64, 1);
    out.put("cluster.hops_severed", stats.severed as f64, 1);
    Ok(())
}

fn add_stats(acc: &mut SimStats, s: &SimStats) {
    acc.sent += s.sent;
    acc.dropped += s.dropped;
    acc.duplicated += s.duplicated;
    acc.severed += s.severed;
    acc.events += s.events;
}

type Fingerprint = (SimStats, u64, u64, u64, u64);

/// Runs every seeded cell once untraced (timed, for
/// `cluster.run_sim_ms`) and once traced (for the tick and hop
/// metrics, end-to-end and per layer).
pub fn protocol_pass(ctx: &Ctx) -> Result<Outcome, String> {
    let list = cells(ctx.seed);
    let mut cell_ns = Hist::default();
    let mut expect = Vec::with_capacity(list.len());
    for (i, (config, cell_seed)) in list.iter().enumerate() {
        let t = Instant::now();
        let report = run_sim(config, *cell_seed);
        cell_ns.record(t.elapsed().as_nanos() as u64);
        check(i, &report)?;
        expect.push(fingerprint(&report));
    }
    let mut out = Outcome::default();
    out.put("cluster.run_sim_ms", cell_ns.quantile(0.5).unwrap_or(0.0) / 1e6, cell_ns.count());
    traced_pass(&list, &expect, &mut out)?;
    Ok(out)
}
