//! The sharded multi-tenant counter registry.
//!
//! [`CounterService`] owns *many named counters at once* — the shape of
//! real serving workloads (per-flow accounting, admission ticketing, id
//! allocation), where every tenant needs its own Fetch&Increment value
//! stream and tenants arrive, churn and disappear while traffic flows.
//!
//! # Design
//!
//! * **Sharded map** — tenants are hashed over a fixed array of
//!   [`parking_lot::RwLock`]-guarded shards, so the steady-state path
//!   (an existing tenant looked up by name) takes one read lock on one
//!   shard: readers of different tenants proceed in parallel, and even
//!   readers of the *same* shard share the lock. Writes (tenant creation
//!   and eviction) serialize only their own shard.
//! * **Lazily constructed backends** — a tenant's counter is built on
//!   first touch from the service-wide [`ServiceConfig`]: a
//!   [`Backend`] choice, the network width, an optional
//!   [`EliminationCounter`] wrapping and its [`WaitStrategy`]. The
//!   backend lives behind `Box<dyn BlockReserve + Send + Sync>`, which
//!   is what the `Box`/`Arc` delegation impls in `counting-runtime`
//!   exist for.
//! * **Block-reserved hand-outs** — every tenant stream is drawn as
//!   contiguous [`BlockReserve`] blocks, never through stride
//!   dispensers, so each tenant's hand-out tiles `0..issued` at every
//!   quiescent point for *any* mix of batch sizes and *any* operation
//!   count — the property the per-tenant invariant checks of
//!   `exp_service` and the torture suite gate on.
//! * **Contention-reactive escalation** — a hand-out first makes one
//!   [`BlockReserve::try_reserve_block`] attempt, a single CAS on the
//!   backend's block cursor. Only when that CAS loses to a concurrent
//!   reservation does it escalate through
//!   [`BlockReserve::reserve_block`]: the elimination arena (if
//!   configured) merges colliding requests, then the network-backed
//!   backends pace the block through one traversal of their balancer
//!   fabric, and finally the cursor `fetch_add`. The counting network
//!   is thus the structured backoff behind the arena: an uncontended
//!   tenant pays for neither.
//! * **Uniqueness across eviction** — evicting an idle tenant records
//!   its high-water mark; a later [`CounterService::get_or_create`] for
//!   the same name resumes the stream at that offset (see
//!   [`TenantCounter`]), so a tenant's values stay unique across its
//!   whole service lifetime, not just one instance. Eviction refuses
//!   in-use tenants ([`EvictOutcome::InUse`]): the registry only retires
//!   a counter it solely owns, observed under the shard's write lock, so
//!   no operation can be in flight and the recorded watermark is exact.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use balnet::Network;
use counting::counting_network;
use counting_runtime::{
    BlockReserve, CentralCounter, DiffractingCounter, EliminationConfig, EliminationCounter,
    LockCounter, NetworkCounter, SharedCounter, WaitStrategy,
};

// The registry's control atomics and shard locks come through the
// model-checking seam (std/parking_lot pass-throughs unless the `model`
// feature routes them into counting-sim's interleaving explorer).
use crate::sync::{AtomicU64, RwLock};
use crate::{IdGenerator, RateLimiter, TicketGate};

/// Exchanger slots per prism node of a [`Backend::Diffracting`] tenant.
const DIFFRACTING_PRISM_SIZE: usize = 8;
/// Spin budget of a diffracting prism while waiting for a partner.
const DIFFRACTING_PRISM_SPIN: usize = 128;

/// Which counter construction backs every tenant of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The paper's counting network `C(w, w)` compiled to atomics
    /// ([`NetworkCounter`]); `w` is [`ServiceConfig::width`].
    Network,
    /// A diffracting tree with `width` leaves
    /// ([`DiffractingCounter`]).
    Diffracting,
    /// The centralized `fetch_add` hotspot ([`CentralCounter`]).
    Central,
    /// The mutex-protected baseline ([`LockCounter`]).
    Lock,
}

impl Backend {
    /// Every backend, in the order experiment tables list them.
    pub const ALL: [Backend; 4] =
        [Backend::Network, Backend::Diffracting, Backend::Central, Backend::Lock];

    /// A short stable label used in tables and JSON output (the network
    /// backends include the width, so the label needs the config).
    #[must_use]
    pub fn label(self, width: usize) -> String {
        match self {
            Backend::Network => format!("C({width},{width})"),
            Backend::Diffracting => format!("DiffTree[{width}]"),
            Backend::Central => "central".to_owned(),
            Backend::Lock => "mutex".to_owned(),
        }
    }
}

/// How a [`CounterService`] constructs each tenant's counter.
///
/// The `..Default::default()` idiom keeps call sites readable:
///
/// ```
/// use counting_service::{Backend, ServiceConfig};
/// use counting_runtime::WaitStrategy;
///
/// let config = ServiceConfig {
///     backend: Backend::Network,
///     strategy: WaitStrategy::Park,
///     ..ServiceConfig::default()
/// };
/// assert_eq!(config.width, 16);
/// assert!(config.elimination);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The counter construction backing every tenant (default
    /// [`Backend::Network`]).
    pub backend: Backend,
    /// Input/output width of the network-shaped backends (default `16`;
    /// must be a power of two `>= 2` for [`Backend::Network`] and
    /// [`Backend::Diffracting`], ignored by the centralized ones).
    pub width: usize,
    /// Whether to wrap each tenant's backend in an
    /// [`EliminationCounter`] arena (default `true`): colliding
    /// same-tenant requests then merge into one combined reservation.
    pub elimination: bool,
    /// The [`WaitStrategy`] of the elimination arena (default
    /// [`WaitStrategy::SpinYield`]; ignored unless `elimination`).
    pub strategy: WaitStrategy,
    /// Number of registry shards (default [`DEFAULT_SHARDS`]; must be
    /// `> 0`). More shards admit more parallel tenant *creations*;
    /// lookups of existing tenants share read locks either way.
    pub shards: usize,
}

/// Default number of registry shards in a [`ServiceConfig`].
pub const DEFAULT_SHARDS: usize = 16;

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            backend: Backend::Network,
            width: 16,
            elimination: true,
            strategy: WaitStrategy::default(),
            shards: DEFAULT_SHARDS,
        }
    }
}

impl ServiceConfig {
    /// A short stable label naming backend, elimination wrapping and
    /// strategy, used as the row key of `exp_service` tables.
    #[must_use]
    pub fn label(&self) -> String {
        let base = self.backend.label(self.width);
        if self.elimination {
            format!("{base}+elim[{}]", self.strategy.label())
        } else {
            base
        }
    }
}

/// One tenant's counter: a [`BlockReserve`] backend behind a value-stream
/// offset.
///
/// The offset (`base`) is the tenant's high-water mark from previous
/// instance lifetimes: a freshly created tenant starts at `0`, a tenant
/// re-created after an eviction resumes where the evicted instance
/// stopped, so the *tenant's* stream stays unique and gap-free across
/// instances even though each backend instance counts from zero.
///
/// All hand-outs are [`BlockReserve`] blocks of the backend — a
/// [`BlockReserve::try_reserve_block`] attempt, escalating to
/// [`BlockReserve::reserve_block`] when it is refused. Both draw from one
/// word, so the instance's raw values tile `0..issued` at every quiescent
/// point regardless of batch-size mix — which is exactly what makes
/// `base + issued` a resumable watermark.
pub struct TenantCounter {
    tenant: String,
    inner: Box<dyn BlockReserve + Send + Sync>,
    base: u64,
    issued: AtomicU64,
}

impl std::fmt::Debug for TenantCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCounter")
            .field("tenant", &self.tenant)
            .field("inner", &self.inner.describe())
            .field("base", &self.base)
            .field("issued", &self.issued)
            .finish()
    }
}

impl TenantCounter {
    /// Builds a tenant counter resuming at `base`. Exposed for direct
    /// composition; service users go through
    /// [`CounterService::get_or_create`].
    #[must_use]
    pub fn new(
        tenant: impl Into<String>,
        inner: Box<dyn BlockReserve + Send + Sync>,
        base: u64,
    ) -> Self {
        Self { tenant: tenant.into(), inner, base, issued: AtomicU64::new(0) }
    }

    /// The tenant's name.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The stream offset this instance resumed at (`0` for a tenant's
    /// first instance).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Values handed out by **this instance**. Exact at quiescence; while
    /// operations are in flight it may briefly exceed the values already
    /// visible to callers.
    #[must_use]
    pub fn issued(&self) -> u64 {
        // Relaxed: this is a statistic for callers *except* on the
        // eviction path, where exactness is guaranteed not by this load's
        // ordering but by sole ownership: the Acquire fence in
        // try_evict/evict_idle pairs with the last handle's release drop,
        // which happens-after that handle's final fetch_add below.
        self.issued.load(Ordering::Relaxed)
    }

    /// The tenant's high-water mark, `base + issued`: the next instance's
    /// resume offset. Exact at quiescence (the eviction path guarantees
    /// quiescence by requiring sole ownership).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.base + self.issued()
    }

    /// One block reservation against the backend, offset into the
    /// tenant's stream: one cursor CAS first, and the contended path
    /// (arena → traversal → cursor `fetch_add`) only if it is refused.
    fn reserve(&self, thread_id: usize, k: usize) -> u64 {
        let raw = self
            .inner
            .try_reserve_block(k)
            .unwrap_or_else(|| self.inner.reserve_block(thread_id, k));
        // Relaxed: the count is published to the eviction path by the
        // handle's release drop + the registry's Acquire fence (see
        // `issued`), not by this RMW's ordering.
        self.issued.fetch_add(k as u64, Ordering::Relaxed);
        self.base + raw
    }
}

impl SharedCounter for TenantCounter {
    fn next(&self, thread_id: usize) -> u64 {
        self.reserve(thread_id, 1)
    }

    fn next_batch(&self, thread_id: usize, k: usize, out: &mut Vec<u64>) {
        if k == 0 {
            return;
        }
        // Contiguous by construction: one block of k.
        let base = self.reserve(thread_id, k);
        out.extend(base..base + k as u64);
    }

    fn describe(&self) -> String {
        format!("{} [tenant {} @ {}]", self.inner.describe(), self.tenant, self.base)
    }
}

impl BlockReserve for TenantCounter {
    fn reserve_block(&self, thread_id: usize, k: usize) -> u64 {
        assert!(k > 0, "a block reservation needs at least one value");
        self.reserve(thread_id, k)
    }
}

/// The outcome of [`CounterService::try_evict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictOutcome {
    /// The tenant was idle and has been retired; its stream resumes at
    /// `watermark` on the next [`CounterService::get_or_create`].
    Evicted {
        /// The tenant's recorded high-water mark.
        watermark: u64,
    },
    /// The tenant still has live handles (traffic in flight); nothing was
    /// changed.
    InUse,
    /// No live counter exists under that name.
    Absent,
}

/// One shard of the registry: live tenants plus the watermarks of
/// evicted ones (both keyed by tenant name, both only touched under this
/// shard's lock).
#[derive(Debug, Default)]
struct ShardState {
    live: HashMap<String, Arc<TenantCounter>>,
    watermarks: HashMap<String, u64>,
}

/// A sharded, concurrent registry of named counters — see the [module
/// docs](self) for the design.
///
/// ```
/// use counting_service::{CounterService, ServiceConfig};
/// use counting_runtime::SharedCounter;
///
/// let service = CounterService::new(ServiceConfig::default());
/// let flows = service.get_or_create("flows/10.0.0.7");
/// let tickets = service.get_or_create("checkout-queue");
/// assert_eq!(flows.next(0), 0);
/// assert_eq!(flows.next(1), 1);
/// assert_eq!(tickets.next(0), 0, "tenant streams are independent");
/// ```
#[derive(Debug)]
pub struct CounterService {
    config: ServiceConfig,
    /// Pre-built topology for [`Backend::Network`] tenants, so tenant
    /// creation pays one compilation, not one construction.
    template: Option<Network>,
    shards: Box<[RwLock<ShardState>]>,
}

impl CounterService {
    /// Creates an empty service.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero, or if `config.width` is not a
    /// power of two `>= 2` while a network-shaped backend is selected.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.shards > 0, "the registry needs at least one shard");
        let template = match config.backend {
            Backend::Network => Some(
                counting_network(config.width, config.width)
                    .expect("width must be a power of two >= 2"),
            ),
            Backend::Diffracting => {
                assert!(
                    config.width >= 2 && config.width.is_power_of_two(),
                    "width must be a power of two >= 2"
                );
                None
            }
            Backend::Central | Backend::Lock => None,
        };
        let shards = (0..config.shards).map(|_| RwLock::new(ShardState::default())).collect();
        Self { config, template, shards }
    }

    /// The service-wide construction policy.
    #[must_use]
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The number of registry shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The number of live (non-evicted) tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().live.len()).sum()
    }

    /// The names of all live tenants, in no particular order.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        self.shards.iter().flat_map(|s| s.read().live.keys().cloned().collect::<Vec<_>>()).collect()
    }

    fn shard_of(&self, tenant: &str) -> &RwLock<ShardState> {
        let mut hasher = DefaultHasher::new();
        tenant.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    /// Builds a tenant's backend from the service config.
    fn build_backend(&self) -> Box<dyn BlockReserve + Send + Sync> {
        let w = self.config.width;
        let backend: Box<dyn BlockReserve + Send + Sync> = match self.config.backend {
            Backend::Network => Box::new(NetworkCounter::new(
                self.config.backend.label(w),
                self.template.as_ref().expect("network backend keeps a template"),
            )),
            Backend::Diffracting => {
                Box::new(DiffractingCounter::new(w, DIFFRACTING_PRISM_SIZE, DIFFRACTING_PRISM_SPIN))
            }
            Backend::Central => Box::new(CentralCounter::new()),
            Backend::Lock => Box::new(LockCounter::new()),
        };
        if self.config.elimination {
            let arena = EliminationConfig {
                strategy: self.config.strategy,
                ..EliminationConfig::default()
            };
            Box::new(EliminationCounter::with_config(backend, arena))
        } else {
            backend
        }
    }

    /// Returns the tenant's live counter, if one exists — the pure read
    /// path: one shard read lock, no construction.
    #[must_use]
    pub fn get(&self, tenant: &str) -> Option<Arc<TenantCounter>> {
        self.shard_of(tenant).read().live.get(tenant).map(Arc::clone)
    }

    /// Returns the tenant's counter, constructing it on first touch (or
    /// after an eviction, resuming at the recorded watermark).
    ///
    /// Concurrent callers racing on the same fresh tenant are serialized
    /// by the shard's write lock with a double-check, so exactly one
    /// counter is ever constructed per tenant lifetime — every caller
    /// gets a handle to the same instance.
    #[must_use]
    pub fn get_or_create(&self, tenant: &str) -> Arc<TenantCounter> {
        self.get_or_create_with(tenant, || self.build_backend())
    }

    /// [`Self::get_or_create`] with the backend built by `build` instead
    /// of from the service config.
    fn get_or_create_with(
        &self,
        tenant: &str,
        build: impl FnOnce() -> Box<dyn BlockReserve + Send + Sync>,
    ) -> Arc<TenantCounter> {
        let shard = self.shard_of(tenant);
        if let Some(counter) = shard.read().live.get(tenant) {
            return Arc::clone(counter);
        }
        let mut state = shard.write();
        // Double-check: another creator may have won the race between our
        // read unlock and write lock.
        if let Some(counter) = state.live.get(tenant) {
            return Arc::clone(counter);
        }
        let base = state.watermarks.get(tenant).copied().unwrap_or(0);
        let counter = Arc::new(TenantCounter::new(tenant, build(), base));
        state.live.insert(tenant.to_owned(), Arc::clone(&counter));
        counter
    }

    /// Retires `tenant` if — and only if — the registry is the sole owner
    /// of its counter.
    ///
    /// Sole ownership is observed under the shard's write lock, so no new
    /// handle can appear concurrently and no operation can be in flight:
    /// the recorded watermark is exact, and a later
    /// [`Self::get_or_create`] resumes the stream there. A tenant with
    /// outstanding handles is left untouched ([`EvictOutcome::InUse`]) —
    /// eviction can therefore *never* fork a tenant's value stream.
    pub fn try_evict(&self, tenant: &str) -> EvictOutcome {
        let mut state = self.shard_of(tenant).write();
        let Some(counter) = state.live.get(tenant) else {
            return EvictOutcome::Absent;
        };
        // Seeded model mutation (never active outside an exploration):
        // retire the tenant even with handles outstanding. An in-flight
        // reservation then escapes the watermark, the recreated instance
        // resumes too low, and the tenant's stream forks — the model
        // suite asserts the checker catches exactly this.
        let ignore_owners = crate::sync::mutation_enabled("evict-in-use");
        if !ignore_owners && Arc::strong_count(counter) > 1 {
            return EvictOutcome::InUse;
        }
        // Pairs with the release decrement of the last dropped handle:
        // everything that handle's thread did (its final `issued`
        // update included) is visible before we read the watermark.
        fence(Ordering::Acquire);
        let counter = state.live.remove(tenant).expect("checked above");
        let watermark = counter.watermark();
        state.watermarks.insert(tenant.to_owned(), watermark);
        EvictOutcome::Evicted { watermark }
    }

    /// Sweeps every shard, retiring all tenants without outstanding
    /// handles (same ownership rule as [`Self::try_evict`]). Returns how
    /// many tenants were evicted — the churn loop of a serving process
    /// calls this periodically to bound the registry's footprint.
    pub fn evict_idle(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut state = shard.write();
            let idle: Vec<String> = state
                .live
                .iter()
                .filter(|(_, counter)| Arc::strong_count(counter) == 1)
                .map(|(tenant, _)| tenant.clone())
                .collect();
            if !idle.is_empty() {
                fence(Ordering::Acquire);
            }
            for tenant in idle {
                let counter = state.live.remove(&tenant).expect("collected above");
                state.watermarks.insert(tenant, counter.watermark());
                evicted += 1;
            }
        }
        evicted
    }

    /// The tenant's high-water mark: `base + issued` for a live tenant
    /// (exact at quiescence), the recorded watermark for an evicted one,
    /// `0` for a name never seen.
    #[must_use]
    pub fn watermark(&self, tenant: &str) -> u64 {
        let state = self.shard_of(tenant).read();
        match state.live.get(tenant) {
            Some(counter) => counter.watermark(),
            None => state.watermarks.get(tenant).copied().unwrap_or(0),
        }
    }

    /// Seeds the recorded watermark for `tenant`, as if an earlier
    /// instance had been evicted at that mark: the next
    /// [`Self::get_or_create`] resumes the stream there.
    ///
    /// This is the durable-restart seam used by `counting-cluster`: a
    /// node that crashes and comes back rebuilds a *fresh* registry and
    /// replays its persisted watermarks through this method, recovering
    /// each tenant's stream exactly the way eviction-resume recovers it
    /// within one process lifetime. Restoration is monotonic (the larger
    /// of the stored and offered marks wins), so replaying stale
    /// recovery records can never rewind a stream. Returns `false`
    /// without changing anything if the tenant is currently live — a
    /// live stream's watermark is owned by its counter, not the caller.
    pub fn restore_watermark(&self, tenant: &str, watermark: u64) -> bool {
        let mut state = self.shard_of(tenant).write();
        if state.live.contains_key(tenant) {
            return false;
        }
        let entry = state.watermarks.entry(tenant.to_owned()).or_insert(0);
        *entry = (*entry).max(watermark);
        true
    }

    /// A per-thread [`IdGenerator`] leasing `lease_size` ids per refill
    /// from the tenant's counter (created on first touch). The generator
    /// holds a tenant handle, so the tenant stays live — and its leased
    /// ids accounted — until the generator is dropped.
    #[must_use]
    pub fn id_generator(&self, tenant: &str, thread_id: usize, lease_size: usize) -> IdGenerator {
        IdGenerator::new(self.get_or_create(tenant), thread_id, lease_size)
    }

    /// A [`TicketGate`] dispensing tickets from the tenant's counter
    /// (created on first touch). Admission state lives in the gate:
    /// callers that need one shared admission cursor share the gate (it
    /// is `Sync`), not merely the tenant.
    #[must_use]
    pub fn ticket_gate(&self, tenant: &str) -> TicketGate {
        TicketGate::new(self.get_or_create(tenant))
    }

    /// A [`RateLimiter`] admitting `limit` requests per window, counted
    /// on the tenant's counter (created on first touch). Like the gate,
    /// the window state lives in the limiter — share it.
    #[must_use]
    pub fn rate_limiter(&self, tenant: &str, limit: u64) -> RateLimiter {
        RateLimiter::new(self.get_or_create(tenant), limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn network_service(elimination: bool) -> CounterService {
        CounterService::new(ServiceConfig {
            backend: Backend::Network,
            width: 4,
            elimination,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn config_labels_name_backend_and_wrapping() {
        let raw = ServiceConfig { elimination: false, ..ServiceConfig::default() };
        assert_eq!(raw.label(), "C(16,16)");
        let elim = ServiceConfig { strategy: WaitStrategy::Park, ..ServiceConfig::default() };
        assert_eq!(elim.label(), "C(16,16)+elim[park]");
        assert_eq!(Backend::Diffracting.label(8), "DiffTree[8]");
        assert_eq!(Backend::Central.label(8), "central");
        assert_eq!(Backend::Lock.label(8), "mutex");
    }

    #[test]
    fn get_or_create_returns_the_same_instance() {
        let service = network_service(false);
        let a = service.get_or_create("alpha");
        let b = service.get_or_create("alpha");
        assert!(Arc::ptr_eq(&a, &b), "one counter per tenant");
        assert_eq!(service.tenant_count(), 1);
        assert!(service.get("alpha").is_some());
        assert!(service.get("beta").is_none());
    }

    #[test]
    fn tenant_streams_are_independent_and_exact_range() {
        let service = network_service(false);
        let a = service.get_or_create("a");
        let b = service.get_or_create("b");
        let mut a_values = Vec::new();
        let mut b_values = Vec::new();
        // Mixed batch sizes and an op count with no divisibility relation
        // to the network width: block reservations tile regardless.
        for (i, k) in [3usize, 1, 7, 2, 5].into_iter().enumerate() {
            a.next_batch(i, k, &mut a_values);
            b_values.push(b.next(i));
        }
        a_values.sort_unstable();
        assert_eq!(a_values, (0..18).collect::<Vec<u64>>());
        assert_eq!(b_values, (0..5).collect::<Vec<u64>>());
        assert_eq!(a.watermark(), 18);
        assert_eq!(service.watermark("b"), 5);
    }

    #[test]
    fn every_backend_constructs_and_counts() {
        for backend in Backend::ALL {
            for elimination in [false, true] {
                let service = CounterService::new(ServiceConfig {
                    backend,
                    width: 4,
                    elimination,
                    ..ServiceConfig::default()
                });
                let counter = service.get_or_create("t");
                let mut values: Vec<u64> = (0..6).map(|i| counter.next(i)).collect();
                let mut batch = Vec::new();
                counter.next_batch(0, 3, &mut batch);
                values.extend(batch);
                values.sort_unstable();
                assert_eq!(values, (0..9).collect::<Vec<u64>>(), "{backend:?}/{elimination}");
                if elimination {
                    assert!(counter.describe().contains("elim"), "{}", counter.describe());
                }
                assert!(counter.describe().contains("tenant t"), "{}", counter.describe());
            }
        }
    }

    #[test]
    fn racing_get_or_create_yields_one_counter() {
        let service = network_service(true);
        let handles: Vec<Arc<TenantCounter>> = std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..8).map(|_| scope.spawn(|| service.get_or_create("contended"))).collect();
            workers.into_iter().map(|w| w.join().expect("no panic")).collect()
        });
        let first = &handles[0];
        assert!(handles.iter().all(|h| Arc::ptr_eq(first, h)), "all racers share one instance");
        assert_eq!(service.tenant_count(), 1);
    }

    #[test]
    fn eviction_requires_sole_ownership_and_resumes_the_stream() {
        let service = network_service(false);
        let counter = service.get_or_create("churny");
        assert_eq!(counter.next(0), 0);
        assert_eq!(counter.next(1), 1);
        assert_eq!(service.try_evict("churny"), EvictOutcome::InUse, "a handle is out");
        drop(counter);
        assert_eq!(service.try_evict("churny"), EvictOutcome::Evicted { watermark: 2 });
        assert_eq!(service.try_evict("churny"), EvictOutcome::Absent);
        assert_eq!(service.watermark("churny"), 2, "watermark survives the eviction");
        // Re-creation resumes, so the tenant's stream never repeats.
        let revived = service.get_or_create("churny");
        assert_eq!(revived.base(), 2);
        assert_eq!(revived.next(0), 2);
        assert_eq!(service.watermark("churny"), 3);
    }

    #[test]
    fn evict_idle_sweeps_only_idle_tenants() {
        let service = network_service(false);
        let held = service.get_or_create("held");
        let _ = held.next(0);
        for name in ["idle-1", "idle-2", "idle-3"] {
            let counter = service.get_or_create(name);
            let _ = counter.next(0);
        }
        assert_eq!(service.tenant_count(), 4);
        assert_eq!(service.evict_idle(), 3, "the held tenant survives");
        assert_eq!(service.tenant_count(), 1);
        assert!(service.get("held").is_some());
        assert_eq!(service.watermark("idle-1"), 1);
        assert_eq!(held.next(0), 1, "the survivor keeps counting");
    }

    #[test]
    fn watermark_is_zero_for_unknown_tenants() {
        let service = network_service(false);
        assert_eq!(service.watermark("never-seen"), 0);
    }

    #[test]
    fn restore_watermark_resumes_like_an_eviction() {
        // A "restarted process": fresh registry, watermark replayed from
        // durable state instead of recorded by an eviction.
        let service = network_service(false);
        assert!(service.restore_watermark("stream", 7));
        assert_eq!(service.watermark("stream"), 7);
        let revived = service.get_or_create("stream");
        assert_eq!(revived.base(), 7);
        assert_eq!(revived.next(0), 7, "the stream resumes past the restart");

        // Monotonic: a stale (lower) recovery record cannot rewind.
        drop(revived);
        assert_eq!(service.try_evict("stream"), EvictOutcome::Evicted { watermark: 8 });
        assert!(service.restore_watermark("stream", 3));
        assert_eq!(service.watermark("stream"), 8);

        // A live tenant owns its own watermark — restoration refuses.
        let live = service.get_or_create("stream");
        assert!(!service.restore_watermark("stream", 100));
        assert_eq!(live.base(), 8);
    }

    /// A backend whose `try_reserve_block` refuses every other call, so
    /// a tenant's hand-outs alternate between the one-CAS path and the
    /// contended `reserve_block` path on a fixed schedule.
    struct EveryOtherRefused {
        inner: CentralCounter,
        tries: std::sync::atomic::AtomicU64,
        escalations: Arc<std::sync::atomic::AtomicU64>,
    }

    impl SharedCounter for EveryOtherRefused {
        fn next(&self, thread_id: usize) -> u64 {
            self.reserve_block(thread_id, 1)
        }

        fn describe(&self) -> String {
            "every-other-refused".into()
        }
    }

    impl BlockReserve for EveryOtherRefused {
        fn reserve_block(&self, thread_id: usize, k: usize) -> u64 {
            self.escalations.fetch_add(1, Ordering::Relaxed);
            self.inner.reserve_block(thread_id, k)
        }

        fn try_reserve_block(&self, k: usize) -> Option<u64> {
            if self.tries.fetch_add(1, Ordering::Relaxed) % 2 == 1 {
                return None;
            }
            self.inner.try_reserve_block(k)
        }
    }

    #[test]
    fn refused_tries_escalate_and_the_stream_resumes_exactly() {
        let service = network_service(true);
        let escalations = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let double = || -> Box<dyn BlockReserve + Send + Sync> {
            Box::new(EveryOtherRefused {
                inner: CentralCounter::new(),
                tries: Default::default(),
                escalations: Arc::clone(&escalations),
            })
        };
        let sizes = [3usize, 1, 7, 2, 5, 8, 4, 6];
        let per_instance: u64 = sizes.iter().map(|&k| k as u64).sum();
        let mut values = Vec::new();
        for instance in 1..=2u64 {
            let counter = service.get_or_create_with("mixed", double);
            assert_eq!(counter.base(), (instance - 1) * per_instance, "resumes at the watermark");
            for (i, &k) in sizes.iter().enumerate() {
                counter.next_batch(i, k, &mut values);
            }
            assert_eq!(
                escalations.load(Ordering::Relaxed),
                instance * sizes.len() as u64 / 2,
                "every other hand-out took the contended path"
            );
            drop(counter);
            assert_eq!(
                service.try_evict("mixed"),
                EvictOutcome::Evicted { watermark: instance * per_instance }
            );
        }
        values.sort_unstable();
        assert_eq!(values, (0..2 * per_instance).collect::<Vec<u64>>(), "both instances tile");
    }

    #[test]
    fn tenants_lists_live_names() {
        let service = network_service(false);
        let _a = service.get_or_create("a");
        let _b = service.get_or_create("b");
        let names: HashSet<String> = service.tenants().into_iter().collect();
        assert_eq!(names, HashSet::from(["a".to_owned(), "b".to_owned()]));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = CounterService::new(ServiceConfig { shards: 0, ..ServiceConfig::default() });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        let _ = CounterService::new(ServiceConfig { width: 6, ..ServiceConfig::default() });
    }
}
