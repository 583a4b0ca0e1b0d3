//! The front tier: request proxying over [`Transport`]s, replication,
//! hedging, fan-out endpoints, health probing, and cascaded drain,
//! served through the worker's [`Listener`].

use crate::ring::HashRing;
use crate::transport::{ForwardError, LocalTransport, Transport};
use crate::upstream::HttpTransport;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_core::obs::{self, EdgeTimings, TraceStore};
use tenet_server::handlers::trace_endpoint;
use tenet_server::http;
use tenet_server::pool::WorkerPool;
use tenet_server::stats::{self, Prom, WorkerMetrics};
use tenet_server::{
    canonical_key, canonical_request, error_json, Call, Limits, Listener, Response, ServerHandle,
    Tier, WorkerCore,
};

/// Deferred work (hedged primaries, replication write-throughs) run by
/// the router's helper pool.
type AuxJob = Box<dyn FnOnce() + Send + 'static>;

/// Bound on the router's memory of already-replicated keys. At the cap
/// the *older generation* is dropped ([`WarmedSet`]), so recently
/// repeated keys stay remembered and only stale ones re-replicate
/// (re-warming is idempotent, forgetting is only a little redundant
/// work).
const WARMED_KEYS_CAP: usize = 65_536;

/// Upper bound on warm-ship transfers per ring change: a huge surviving
/// cache must not turn one eviction into an unbounded background storm.
const WARM_SHIP_MAX: usize = 4096;

/// Router configuration. Defaults match [`tenet_server::ServerConfig`]'s
/// posture: loopback, small host, every knob overridable by tests.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address, e.g. `127.0.0.1:8090` (port `0` for ephemeral).
    pub addr: String,
    /// HTTP worker addresses to attach (`host:port`). May be empty when
    /// workers are supplied directly via [`Router::bind_with_workers`].
    pub workers: Vec<String>,
    /// Threads serving client connections.
    pub threads: usize,
    /// Accepted connections allowed to wait for a worker thread before
    /// the router sheds load with `503`.
    pub queue_capacity: usize,
    /// Per-client-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout (client side and upstream side).
    pub write_timeout: Duration,
    /// How long a proxied call may wait for the owning shard's answer
    /// (cold `/v1/dse` sweeps compute before writing anything).
    pub upstream_read_timeout: Duration,
    /// Maximum request-body size in bytes (`413` beyond).
    pub max_body: usize,
    /// Maximum header-block size in bytes (`431` beyond).
    pub max_header: usize,
    /// Maximum connections (idle + in flight) the router keeps open to
    /// each HTTP worker. Load-bearing: the worker parks one thread per
    /// keep-alive connection, so this must stay below the worker's
    /// thread count or parked proxy sockets starve fresh connections —
    /// including health probes, which would evict a healthy worker.
    /// Spawners size worker pools at `upstream_connections + 2`.
    pub upstream_connections: usize,
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// Liveness-probe period; `Duration::ZERO` disables the prober
    /// (failures are then detected only on proxied traffic).
    pub health_interval: Duration,
    /// How many ring owners (the primary plus `R-1` successor replicas)
    /// each cacheable answer is written to. With `R >= 2` a worker death
    /// degrades to a warm hit on the promoted successor instead of a
    /// cold recompute storm; `1` disables replication.
    pub replication: usize,
    /// Latency threshold after which a call to a hedgeable (remote)
    /// primary is raced against the key's first replica — first response
    /// wins, the loser is discarded. `Duration::MAX` disables hedging.
    /// In-process workers are never hedged (the dispatch runs
    /// synchronously on the caller's thread; there is no waiting to
    /// race).
    pub hedge_after: Duration,
    /// Re-route attempts after the first failed dispatch of a proxied
    /// request (transport failure or a retryable upstream `502`/`503`).
    /// Retries back off with bounded decorrelated jitter and never sleep
    /// past the request's deadline.
    pub max_retries: usize,
    /// Consecutive transport failures that trip a shard's circuit
    /// breaker: the shard is evicted from the ring (the breaker's *open*
    /// state) until a health probe succeeds (*half-open* → closed).
    /// `u32::MAX` effectively disables the breaker — failures then evict
    /// nothing and the retry budget alone decides the request's fate.
    pub breaker_threshold: u32,
    /// Per-client admission rate (requests/second, token bucket keyed on
    /// `X-Tenet-Client` or the peer IP) applied to proxied data paths
    /// before they reach the backlog. `0` disables admission control.
    pub admission_rps: u64,
    /// Token-bucket burst capacity; `0` means `2 × admission_rps`.
    pub admission_burst: u64,
    /// Capacity of the router's trace rings (recent + slow); `0`
    /// disables router-tier request tracing entirely.
    pub trace_buffer: usize,
    /// Requests at or above this router-observed latency also enter the
    /// slow-trace ring served by `GET /v1/trace/slow`.
    pub slow_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        RouterConfig {
            addr: "127.0.0.1:8090".into(),
            workers: Vec::new(),
            threads: parallelism.clamp(2, 16),
            queue_capacity: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            upstream_read_timeout: Duration::from_secs(60),
            max_body: 1 << 20,
            max_header: 16 * 1024,
            upstream_connections: 4,
            vnodes: 64,
            health_interval: Duration::from_millis(250),
            replication: 2,
            hedge_after: Duration::from_millis(25),
            max_retries: 2,
            breaker_threshold: 2,
            admission_rps: 0,
            admission_burst: 0,
            trace_buffer: 256,
            slow_ms: 100,
        }
    }
}

/// Router-level counters (the proxied workers keep their own).
#[derive(Default)]
pub struct RouterStats {
    /// Client connections accepted.
    pub connections: AtomicU64,
    /// Requests fully parsed and handled.
    pub requests: AtomicU64,
    /// Requests completed (any status).
    pub completed: AtomicU64,
    /// Responses with a 2xx status.
    pub status_2xx: AtomicU64,
    /// Responses with a 4xx status.
    pub status_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub status_5xx: AtomicU64,
    /// Connections shed with 503 because the backlog was full.
    pub rejected_busy: AtomicU64,
    /// Proxied calls re-routed after a shard failed mid-request.
    pub retries: AtomicU64,
    /// Workers evicted from the ring (probe or forward failure).
    pub rehashes: AtomicU64,
    /// Workers re-admitted after a successful probe.
    pub revivals: AtomicU64,
    /// Hedge requests fired (primary exceeded the latency threshold).
    pub hedges_fired: AtomicU64,
    /// Hedged calls won by the replica rather than the primary.
    pub hedges_won: AtomicU64,
    /// Replica cache entries written through (`POST /v1/warm` accepted).
    pub warm_writes: AtomicU64,
    /// Cached answers shipped to keys' new owners after an eviction
    /// through the same `/v1/warm` write-through path.
    pub warm_shipped: AtomicU64,
    /// Warm-ship transfers refused or unreachable at the target.
    pub warm_ship_failures: AtomicU64,
    /// Circuit breakers tripped: a shard evicted because it failed
    /// [`RouterConfig::breaker_threshold`] consecutive forwards.
    pub breaker_trips: AtomicU64,
    /// Requests answered `504` because their deadline expired at the
    /// router (before or between dispatch attempts).
    pub deadline_exceeded: AtomicU64,
    /// Requests answered `429` by per-client admission control.
    pub admission_rejects: AtomicU64,
}

impl RouterStats {
    fn record(&self, status: u16) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// The router's memory of keys already written through to their replica
/// set, bounded by generational rotation instead of a wholesale clear:
/// inserts land in the young generation, and when it reaches half
/// [`WARMED_KEYS_CAP`] the old generation is dropped and the young one
/// takes its place. A key re-inserted at any sustained rate is promoted
/// young before it ages out, so its write-through memory survives the
/// cap — the previous behavior (clear everything at the cap) forgot
/// *every* hot key at once and re-replicated the entire working set.
#[derive(Default)]
struct WarmedSet {
    young: HashSet<u64>,
    old: HashSet<u64>,
}

impl WarmedSet {
    /// Whether the key is remembered in either generation.
    fn contains(&self, key: u64) -> bool {
        self.young.contains(&key) || self.old.contains(&key)
    }

    /// Remembers a key, returning `true` when it was not already known.
    /// A key found in the old generation is promoted young (and reports
    /// already-known), so repeated keys never age out while hot.
    fn insert(&mut self, key: u64) -> bool {
        if self.young.contains(&key) {
            return false;
        }
        let known = self.old.remove(&key);
        if self.young.len() >= WARMED_KEYS_CAP / 2 {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key);
        !known
    }

    fn remove(&mut self, key: u64) {
        self.young.remove(&key);
        self.old.remove(&key);
    }

    fn clear(&mut self) {
        self.young.clear();
        self.old.clear();
    }
}

/// One registered worker as the router sees it: a stable ring identity,
/// a liveness belief, routing counters, and the [`Transport`] that
/// reaches it.
pub struct Shard {
    /// Stable index — the identity the hash ring places on its circle.
    pub index: usize,
    transport: Box<dyn Transport>,
    alive: AtomicBool,
    /// Sharded requests answered by this worker — incremented by the
    /// router's proxy path for the *winning* response only (fan-out
    /// stats fetches, probes, hedge losers, and warm writes don't
    /// count), so it is the per-shard hit distribution `servload
    /// --router` records.
    pub routed: AtomicU64,
    /// Forward attempts that failed at the transport layer.
    pub errors: AtomicU64,
    /// The circuit breaker's failure streak: consecutive transport
    /// failures with no intervening success. Reaching
    /// [`RouterConfig::breaker_threshold`] trips the breaker (eviction).
    consecutive_failures: AtomicU32,
    /// Set when the worker acknowledged a drain (shutdown cascade); the
    /// prober skips draining shards instead of burning probe sockets on
    /// a worker that is leaving on purpose.
    draining: AtomicBool,
}

impl Shard {
    fn new(index: usize, transport: Box<dyn Transport>) -> Shard {
        Shard {
            index,
            transport,
            alive: AtomicBool::new(true),
            routed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Current liveness belief.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Whether this worker acknowledged a drain request.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::Release);
        if !alive {
            self.transport.on_dead();
        }
    }

    /// The transport reaching this worker.
    pub fn transport(&self) -> &dyn Transport {
        &*self.transport
    }
}

/// How one worker is attached to the router.
pub enum WorkerSpec {
    /// A worker process reachable at `host:port` over pooled keep-alive
    /// HTTP.
    Http(String),
    /// An in-process worker core, dispatched to directly — no socket.
    Local(Arc<WorkerCore>),
    /// Any custom [`Transport`] (test doubles, future transports).
    Custom(Box<dyn Transport>),
}

/// State shared by the listener's connection threads, the helper pool,
/// and the prober; the listener serves it as the router [`Tier`].
pub struct RouterState {
    /// Router configuration (immutable after bind).
    pub config: RouterConfig,
    /// The registered workers, indexed by ring identity.
    pub shards: Vec<Arc<Shard>>,
    ring: RwLock<HashRing>,
    /// Router-level counters.
    pub stats: RouterStats,
    shutdown: Arc<AtomicBool>,
    started: Instant,
    /// Keys already written through to their replica set. Cleared on
    /// every ring-membership change: the successor sets shift, so keys
    /// must re-replicate onto the new arrangement.
    warmed: RwLock<WarmedSet>,
    /// A weak self-reference, set right after construction, so
    /// ring-change handlers deep in `&self` methods can hand the whole
    /// state to a background warm-ship job.
    self_ref: OnceLock<Weak<RouterState>>,
    /// Helper pool for hedged primaries and replication write-throughs;
    /// present only while [`Router::run`] is live. Without it, hedging
    /// degrades to synchronous dispatch and replication is skipped.
    aux: Mutex<Option<WorkerPool<AuxJob>>>,
    /// Per-client token buckets: `client key -> (tokens, last refill)`.
    admission: Mutex<HashMap<String, (f64, Instant)>>,
    /// The router tier's trace rings, served by `GET /v1/trace/...`.
    pub traces: TraceStore,
}

impl RouterState {
    /// Evicts a worker from the ring (idempotent); keys it owned rehash
    /// to the survivors — onto the successor replica that already holds
    /// their warm answers when replication is on. Returns whether this
    /// call performed the eviction (so a breaker trip is counted once).
    fn mark_dead(&self, worker: usize) -> bool {
        let removed = {
            let mut ring = self.ring.write().expect("ring poisoned");
            ring.remove(worker)
        };
        if removed {
            self.shards[worker].set_alive(false);
            self.stats.rehashes.fetch_add(1, Ordering::Relaxed);
            self.warmed.write().expect("warmed poisoned").clear();
            self.schedule_warm_ship();
        }
        removed
    }

    /// Re-admits a worker after a successful probe (idempotent). This is
    /// the breaker's half-open → closed transition: the probe was the
    /// trial request, so the failure streak resets.
    fn revive(&self, worker: usize) {
        let added = {
            let mut ring = self.ring.write().expect("ring poisoned");
            ring.add(worker)
        };
        if added {
            let shard = &self.shards[worker];
            shard.alive.store(true, Ordering::Release);
            shard.consecutive_failures.store(0, Ordering::Relaxed);
            self.stats.revivals.fetch_add(1, Ordering::Relaxed);
            // No eager shipping here, deliberately: the revived shard
            // just came back from the dead, and greeting it with a burst
            // of warm writes is a fine way to re-kill it. Clearing the
            // `warmed` set is enough — every moved key's next winning
            // 200 re-replicates to the revived owner through the
            // ordinary write-through, so it re-warms at traffic pace.
            self.warmed.write().expect("warmed poisoned").clear();
        }
    }

    /// Schedules a background warm-ship pass onto the helper pool after
    /// an eviction. Best-effort: with the pool absent or
    /// saturated the pass is skipped, and moved keys re-warm lazily
    /// through the ordinary replication write-through instead.
    fn schedule_warm_ship(&self) {
        let Some(state) = self.self_ref.get().and_then(Weak::upgrade) else {
            return;
        };
        let _ = self.submit_aux(Box::new(move || warm_ship(&state)));
    }

    /// Records one transport failure against a shard's breaker; at the
    /// threshold the breaker trips: the shard is evicted (open) until a
    /// probe revives it (half-open → closed). Returns whether this call
    /// tripped the breaker, so the proxy path can put a `breaker_trip`
    /// event on the request's trace timeline.
    fn note_failure(&self, worker: usize) -> bool {
        let shard = &self.shards[worker];
        shard.errors.fetch_add(1, Ordering::Relaxed);
        let streak = shard.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.config.breaker_threshold && self.mark_dead(worker) {
            self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// One health-probe pass over every shard: a failed probe evicts
    /// (rehash), a successful probe of an evicted shard re-admits it (the
    /// keys that rehashed away migrate back, restoring the original
    /// affinity). Draining shards are skipped — a worker that
    /// acknowledged a drain is leaving on purpose, and probing it wastes
    /// sockets. The prober thread runs one pass per
    /// [`RouterConfig::health_interval`]; with the prober off, a caller
    /// may drive passes itself.
    pub fn health_pass(&self) {
        let probe_timeout = self
            .config
            .health_interval
            .clamp(Duration::from_millis(100), Duration::from_secs(1));
        for shard in &self.shards {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if shard.is_draining() {
                continue;
            }
            let on_ring = self
                .ring
                .read()
                .expect("ring poisoned")
                .contains(shard.index);
            match (shard.transport.probe(probe_timeout), on_ring) {
                (true, false) => self.revive(shard.index),
                (false, true) => {
                    self.mark_dead(shard.index);
                }
                _ => {}
            }
        }
    }

    /// Live workers on the ring right now.
    pub fn alive_workers(&self) -> usize {
        self.ring.read().expect("ring poisoned").len()
    }

    /// Hands a job to the helper pool; `false` when the pool is absent
    /// (router not running) or saturated.
    fn submit_aux(&self, job: AuxJob) -> bool {
        let guard = self.aux.lock().expect("aux poisoned");
        match guard.as_ref() {
            Some(pool) => pool.try_submit(job).is_ok(),
            None => false,
        }
    }
}

/// A router spawned onto its own thread by [`Router::spawn`].
pub struct SpawnedRouter {
    handle: ServerHandle,
    state: Arc<RouterState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl SpawnedRouter {
    /// The router's remote control.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The shared router state, as [`Router::state`] gives it.
    pub fn state(&self) -> Arc<RouterState> {
        Arc::clone(&self.state)
    }

    /// Requests a drain and waits for the router thread to stop.
    pub fn shutdown_and_join(self) -> std::io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("router thread panicked"))?
    }
}

/// A bound (but not yet running) sharding router.
pub struct Router {
    listener: Listener,
    state: Arc<RouterState>,
}

impl Router {
    /// Binds `config.addr`, resolves `config.workers` as HTTP workers,
    /// and builds the ring with every worker initially admitted.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        Router::bind_with_workers(config, Vec::new())
    }

    /// Binds with an explicit worker topology: `specs` first (in order),
    /// then every `config.workers` address as an HTTP worker. At least
    /// one worker is required between the two.
    pub fn bind_with_workers(
        config: RouterConfig,
        specs: Vec<WorkerSpec>,
    ) -> std::io::Result<Router> {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        for spec in specs {
            transports.push(match spec {
                WorkerSpec::Http(addr) => Box::new(resolve_http(&addr, &config)?),
                WorkerSpec::Local(core) => Box::new(LocalTransport::new(core)),
                WorkerSpec::Custom(t) => t,
            });
        }
        for addr in &config.workers {
            transports.push(Box::new(resolve_http(addr, &config)?));
        }
        if transports.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one worker",
            ));
        }
        let mut shards = Vec::with_capacity(transports.len());
        let mut ring = HashRing::new(config.vnodes);
        for (index, transport) in transports.into_iter().enumerate() {
            shards.push(Arc::new(Shard::new(index, transport)));
            ring.add(index);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let listener = Listener::bind(&config.addr, &shutdown)?;
        let traces = TraceStore::new(config.trace_buffer, config.slow_ms.saturating_mul(1_000));
        let state = Arc::new(RouterState {
            config,
            shards,
            ring: RwLock::new(ring),
            stats: RouterStats::default(),
            shutdown,
            started: Instant::now(),
            warmed: RwLock::new(WarmedSet::default()),
            self_ref: OnceLock::new(),
            aux: Mutex::new(None),
            admission: Mutex::new(HashMap::new()),
            traces,
        });
        let _ = state.self_ref.set(Arc::downgrade(&state));
        Ok(Router { listener, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// A remote control usable from other threads. Its drain does not
    /// cascade to the workers; `POST /v1/shutdown` does.
    pub fn handle(&self) -> ServerHandle {
        self.listener.handle()
    }

    /// The shared router state (shard counters, ring view) — read-only
    /// introspection for harnesses and benchmarks.
    pub fn state(&self) -> Arc<RouterState> {
        Arc::clone(&self.state)
    }

    /// Binds and runs on a new thread; bind errors surface here, run
    /// errors at join.
    pub fn spawn(config: RouterConfig) -> std::io::Result<SpawnedRouter> {
        Router::spawn_with_workers(config, Vec::new())
    }

    /// [`Router::bind_with_workers`] plus a thread to run on.
    pub fn spawn_with_workers(
        config: RouterConfig,
        specs: Vec<WorkerSpec>,
    ) -> std::io::Result<SpawnedRouter> {
        let router = Router::bind_with_workers(config, specs)?;
        let handle = router.handle();
        let state = router.state();
        let thread = std::thread::Builder::new()
            .name(format!("tenet-router-{}", handle.addr().port()))
            .spawn(move || router.run())?;
        Ok(SpawnedRouter {
            handle,
            state,
            thread,
        })
    }

    /// Runs the [`Listener`] until a graceful shutdown is requested,
    /// then drains: the accept loop stops, admitted connections finish,
    /// the connection threads join, then the helper pool and the prober.
    pub fn run(self) -> std::io::Result<()> {
        let state = Arc::clone(&self.state);
        {
            // The helper pool exists for work the proxy path must not
            // block on: hedged primaries and replica warm writes.
            let mut aux = state.aux.lock().expect("aux poisoned");
            *aux = Some(WorkerPool::new(
                "tenet-router-aux",
                state.config.threads,
                state.config.queue_capacity,
                |job: AuxJob| job(),
            ));
        }
        let prober = if state.config.health_interval > Duration::ZERO {
            let state = Arc::clone(&state);
            Some(
                std::thread::Builder::new()
                    .name("tenet-router-health".into())
                    .spawn(move || health_loop(&state))?,
            )
        } else {
            None
        };
        let outcome = self.listener.serve("tenet-route", Arc::clone(&state));
        // The connection threads are gone; nothing submits aux jobs
        // anymore. Drain what was admitted (late hedge results land in
        // dropped receivers and are discarded).
        let aux = state.aux.lock().expect("aux poisoned").take();
        if let Some(aux) = aux {
            aux.shutdown();
        }
        if let Some(p) = prober {
            let _ = p.join();
        }
        outcome
    }
}

/// Resolves one `host:port` worker spec into its pooled HTTP transport.
fn resolve_http(spec: &str, config: &RouterConfig) -> std::io::Result<HttpTransport> {
    let addr = spec.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("worker address `{spec}` resolves to nothing"),
        )
    })?;
    Ok(HttpTransport::new(addr, config.upstream_connections))
}

/// The prober thread: one [`RouterState::health_pass`] per
/// [`RouterConfig::health_interval`]. Each cycle's sleep carries ±20%
/// deterministic jitter so a fleet of routers probing the same workers
/// does not synchronize into probe bursts.
fn health_loop(state: &Arc<RouterState>) {
    let interval = state.config.health_interval;
    let mut rng = 0x7e57_ab1e_5eed_c0de_u64;
    while !state.shutdown.load(Ordering::Acquire) {
        state.health_pass();
        // Sleep in small slices so a drain is observed promptly.
        rng = mix(rng);
        let jittered = interval * (80 + (rng % 41) as u32) / 100;
        let mut slept = Duration::ZERO;
        while slept < jittered && !state.shutdown.load(Ordering::Acquire) {
            let step = (jittered - slept).min(Duration::from_millis(20));
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// The splitmix64 finalizer: deterministic jitter and backoff draws
/// without wall-clock entropy (reproducible under test).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn error_body(kind: &str, message: impl Into<String>) -> Arc<Vec<u8>> {
    Arc::new(error_json(kind, message).to_string().into_bytes())
}

/// The router tier: counts and optionally traces each request, then
/// answers it through `handle`.
impl Tier for RouterState {
    fn limits(&self) -> Limits {
        let c = &self.config;
        Limits {
            threads: c.threads,
            queue_capacity: c.queue_capacity,
            read_timeout: c.read_timeout,
            write_timeout: c.write_timeout,
            max_header: c.max_header,
            max_body: c.max_body,
        }
    }

    fn connections(&self) -> &AtomicU64 {
        &self.stats.connections
    }

    fn rejected_busy(&self) -> &AtomicU64 {
        &self.stats.rejected_busy
    }

    fn shed_message(&self) -> &'static str {
        "router backlog full; retry later"
    }

    fn framing_error(&self, status: u16) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.record(status);
    }

    fn respond(
        self: &Arc<Self>,
        req: &http::Request,
        peer: SocketAddr,
        edge: EdgeTimings,
    ) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let deadline = req.anchor_deadline();
        let trace_id = req.resolve_trace_id();
        // Observability endpoints are never traced: scraping metrics or
        // fetching a trace must not spam the ring.
        let obs_path =
            req.method == "GET" && (req.path == "/metrics" || req.path.starts_with("/v1/trace/"));
        let tracing = !obs_path && trace_id.is_some() && self.traces.enabled();
        let scope = tracing.then(obs::begin);
        let (status, body, retry_after) = handle(req, self, peer, deadline, trace_id);
        self.stats.record(status);
        // The router's residual phase is its own work (routing, framing):
        // whatever the proxy path did not attribute to upstream waits or
        // backoff sleeps.
        let trace = scope.zip(trace_id).map(|(scope, id)| {
            let endpoint = format!("{} {}", req.method, req.path);
            self.traces
                .finish(scope, "router", id, endpoint, status, edge)
        });
        Response {
            status,
            body,
            retry_after,
            trace,
        }
    }
}

/// Routes one parsed request: local endpoints, fan-outs, or the sharded
/// proxy path. The third element of the return is an optional
/// `Retry-After` value (seconds) for shed/throttle responses.
fn handle(
    req: &http::Request,
    state: &Arc<RouterState>,
    peer: SocketAddr,
    deadline: Option<Instant>,
    trace_id: Option<u64>,
) -> (u16, Arc<Vec<u8>>, Option<u64>) {
    let (status, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(state),
        ("GET", "/v1/stats") => stats_doc(state),
        ("GET", "/metrics") => metrics_doc(state),
        ("GET", p) if p.starts_with("/v1/trace/") => trace_doc(state, p),
        ("POST", "/v1/shutdown") => cascade_shutdown(state),
        ("POST", "/v1/analyze" | "/v1/dse") => {
            if let Some(secs) = admission_reject(req, state, peer) {
                state
                    .stats
                    .admission_rejects
                    .fetch_add(1, Ordering::Relaxed);
                return (
                    429,
                    error_body("rate_limited", "per-client admission rate exceeded"),
                    Some(secs),
                );
            }
            return proxy(req, state, deadline, trace_id);
        }
        ("GET" | "POST", _) => (
            404,
            error_body("not_found", format!("no route for {}", req.path)),
        ),
        _ => (
            405,
            error_body("method_not_allowed", format!("method {}", req.method)),
        ),
    };
    (status, body, None)
}

/// Token-bucket admission on the proxied data paths, keyed on
/// `X-Tenet-Client` (falling back to the peer IP). Returns
/// `Some(retry_after_secs)` when the client is over its rate — the
/// request is refused `429` *before* it can occupy a backlog slot, so a
/// single bursting tenant throttles itself instead of pushing everyone
/// else into `503`s. Disabled (always admits) when
/// [`RouterConfig::admission_rps`] is `0`.
fn admission_reject(
    req: &http::Request,
    state: &Arc<RouterState>,
    peer: SocketAddr,
) -> Option<u64> {
    let rps = state.config.admission_rps;
    if rps == 0 {
        return None;
    }
    let burst = match state.config.admission_burst {
        0 => rps.saturating_mul(2),
        b => b,
    }
    .max(1) as f64;
    let key = req.client.clone().unwrap_or_else(|| peer.ip().to_string());
    let now = Instant::now();
    let mut buckets = state.admission.lock().expect("admission poisoned");
    // Bound the map: a scan of spoofed client names must not grow it
    // forever. Clearing refills every bucket — brief over-admission, no
    // lost legitimate state.
    if buckets.len() >= 4096 && !buckets.contains_key(&key) {
        buckets.clear();
    }
    let (tokens, last) = buckets.entry(key).or_insert((burst, now));
    *tokens = (*tokens + now.duration_since(*last).as_secs_f64() * rps as f64).min(burst);
    *last = now;
    if *tokens >= 1.0 {
        *tokens -= 1.0;
        None
    } else {
        let secs = ((1.0 - *tokens) / rps as f64).ceil() as u64;
        Some(secs.max(1))
    }
}

fn healthz(state: &Arc<RouterState>) -> (u16, Arc<Vec<u8>>) {
    let alive = state.alive_workers();
    let body = Json::obj([
        (
            "status",
            Json::from(if alive > 0 { "ok" } else { "degraded" }),
        ),
        ("role", Json::from("router")),
        ("workers", Json::from(state.shards.len())),
        ("alive_workers", Json::from(alive)),
    ])
    .to_string()
    .into_bytes();
    (200, Arc::new(body))
}

/// One dispatch attempt's outcome over the current owner set.
enum Dispatch {
    /// `(winning shard, status, body)` — the response to relay.
    Reply(usize, u16, Arc<Vec<u8>>),
    /// The owner refused with backpressure; shed load, never evict.
    Busy,
    /// These shards failed at the transport layer; count against their
    /// breakers and re-route.
    Dead(Vec<usize>),
    /// The request's deadline expired while waiting; answer `504`
    /// without blaming (or evicting) any shard — a timeout is the
    /// *request's* failure, not proof the worker is dead.
    DeadlineExpired,
}

/// The sharded proxy path: consistent-hash the canonical request key,
/// forward to the owning worker (hedging against the first replica when
/// the primary is slow), and on transport failure count the shard's
/// circuit breaker and retry — at the breaker threshold the shard is
/// evicted, so the retry lands on the rehashed owner, which with
/// replication on is exactly the successor replica already holding the
/// key's warm answer. Re-sending is safe — analyses are pure functions
/// of the request text, so a retry or a hedge can only recompute the
/// same bytes. Retries are bounded ([`RouterConfig::max_retries`]) and
/// back off with decorrelated jitter, never sleeping past the request's
/// deadline; an expired deadline answers `504` between attempts without
/// evicting anyone. Upstream `502`/`503` answers are treated as
/// retryable soft failures (a transient shed or an injected burst) and
/// relayed only when the retry budget is spent; other worker statuses —
/// including `500`/`504` — are relayed untouched (a deterministic
/// analysis failure or a worker-side deadline verdict *is* the answer).
/// Pool-slot exhaustion on the owning shard ([`ForwardError::Busy`]) is
/// backpressure, answered `503 busy` without eviction: the shard is
/// healthy, just saturated, and rehashing its keys would throw away its
/// warm cache for nothing.
fn proxy(
    req: &http::Request,
    state: &Arc<RouterState>,
    deadline: Option<Instant>,
    trace_id: Option<u64>,
) -> (u16, Arc<Vec<u8>>, Option<u64>) {
    let canon = canonical_request(&req.method, &req.path, &req.body);
    let key = canonical_key(&canon);
    let call = Call {
        canon: Some(&canon),
        deadline,
        trace_id,
        ..Call::new(&req.method, &req.path, &req.body)
    };
    let replication = state.config.replication.max(1);
    let max_retries = state.config.max_retries;
    let mut retries = 0usize;
    let mut rng = key;
    let mut backoff_us = 2_000u64;
    loop {
        if expired(deadline) {
            state
                .stats
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return (
                504,
                error_body(
                    "deadline_exceeded",
                    "request deadline expired before a worker answered",
                ),
                None,
            );
        }
        let owners = {
            let ring = state.ring.read().expect("ring poisoned");
            ring.owners(key, replication)
        };
        let Some(&primary) = owners.first() else {
            return (
                503,
                error_body("no_workers", "no live workers on the ring; retry later"),
                Some(1),
            );
        };
        let hedging = owners.len() >= 2
            && state.config.hedge_after != Duration::MAX
            && state.shards[primary].transport.hedgeable();
        let t_attempt = Instant::now();
        let outcome = if hedging {
            hedged_call(state, &owners, &call)
        } else {
            sync_call(state, primary, &call)
        };
        if obs::is_active() {
            obs::add_span(
                "upstream",
                t_attempt,
                t_attempt.elapsed(),
                format!("attempt={retries} worker={primary}"),
            );
        }
        match outcome {
            Dispatch::Reply(winner, status, bytes) => {
                state.shards[winner]
                    .consecutive_failures
                    .store(0, Ordering::Relaxed);
                if matches!(status, 502 | 503) && retries < max_retries {
                    // A soft upstream failure: back off and re-dispatch
                    // (the shard answered, so its breaker is unharmed
                    // and it keeps its keys).
                    state.stats.retries.fetch_add(1, Ordering::Relaxed);
                    if obs::is_active() {
                        obs::add_event("retry", format!("status={status} worker={winner}"));
                    }
                    retries += 1;
                    backoff_sleep(&mut rng, &mut backoff_us, deadline);
                    continue;
                }
                state.shards[winner].routed.fetch_add(1, Ordering::Relaxed);
                if status == 200 {
                    maybe_replicate(state, &call, key, &owners, winner, status, &bytes);
                }
                let retry_after = matches!(status, 502 | 503).then_some(1);
                return (status, bytes, retry_after);
            }
            Dispatch::Busy => {
                state.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                return (
                    503,
                    error_body(
                        "busy",
                        "owning shard's connection slots are busy; retry later",
                    ),
                    Some(1),
                );
            }
            Dispatch::DeadlineExpired => {
                state
                    .stats
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return (
                    504,
                    error_body(
                        "deadline_exceeded",
                        "request deadline expired while waiting for the owning shard",
                    ),
                    None,
                );
            }
            Dispatch::Dead(failed) => {
                for worker in failed {
                    let tripped = state.note_failure(worker);
                    if obs::is_active() {
                        if tripped {
                            let streak = state.config.breaker_threshold;
                            obs::add_event(
                                "breaker_trip",
                                format!("worker={worker} streak={streak} state=open"),
                            );
                        } else {
                            obs::add_event("retry", format!("transport_failure worker={worker}"));
                        }
                    }
                }
                state.stats.retries.fetch_add(1, Ordering::Relaxed);
                retries += 1;
                if retries > max_retries {
                    return (
                        503,
                        error_body("no_workers", "retry budget exhausted; every attempt failed"),
                        Some(1),
                    );
                }
                backoff_sleep(&mut rng, &mut backoff_us, deadline);
            }
        }
    }
}

/// Whether a deadline has already passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// One decorrelated-jitter backoff sleep: uniformly drawn from
/// `[base, 3 × previous]`, capped at 50 ms, clamped to the remaining
/// deadline. The draw is a deterministic function of the request key and
/// the attempt number — reproducible, and de-synchronized across keys.
fn backoff_sleep(rng: &mut u64, backoff_us: &mut u64, deadline: Option<Instant>) {
    const BASE_US: u64 = 2_000;
    const CAP_US: u64 = 50_000;
    *rng = mix(*rng);
    let hi = (*backoff_us).saturating_mul(3).clamp(BASE_US, CAP_US);
    *backoff_us = BASE_US + *rng % (hi - BASE_US + 1);
    let mut pause = Duration::from_micros(*backoff_us);
    if let Some(dl) = deadline {
        pause = pause.min(dl.saturating_duration_since(Instant::now()));
    }
    if !pause.is_zero() {
        let t0 = Instant::now();
        std::thread::sleep(pause);
        if obs::is_active() {
            obs::add_span("backoff", t0, t0.elapsed(), "");
        }
    }
}

/// One synchronous forward to `worker` on the caller's thread — the
/// in-process fast path, and the fallback when the helper pool is
/// saturated. The call carries the already-computed canonical form so a
/// local transport skips re-canonicalizing.
fn sync_call(state: &Arc<RouterState>, worker: usize, call: &Call) -> Dispatch {
    match state.shards[worker].transport.call(
        call,
        state.config.upstream_read_timeout,
        state.config.write_timeout,
    ) {
        Ok((status, bytes)) => Dispatch::Reply(worker, status, bytes),
        Err(ForwardError::Busy) => Dispatch::Busy,
        Err(ForwardError::Transport(_)) if expired(call.deadline) => Dispatch::DeadlineExpired,
        Err(ForwardError::Transport(_)) => Dispatch::Dead(vec![worker]),
    }
}

/// Submits one forward to the helper pool, reporting `(worker, result)`
/// on `tx` when it completes.
#[allow(clippy::type_complexity)]
fn submit_call(
    state: &Arc<RouterState>,
    worker: usize,
    call: &Call,
    tx: &mpsc::Sender<(usize, Result<(u16, Arc<Vec<u8>>), ForwardError>)>,
) -> bool {
    let shard = Arc::clone(&state.shards[worker]);
    let tx = tx.clone();
    let method = call.method.to_string();
    let path = call.path.to_string();
    let body = call.body.to_vec();
    let canon = call.canon.map(str::to_string);
    let (deadline, trace_id) = (call.deadline, call.trace_id);
    let read_timeout = state.config.upstream_read_timeout;
    let write_timeout = state.config.write_timeout;
    state.submit_aux(Box::new(move || {
        let call = Call {
            canon: canon.as_deref(),
            deadline,
            trace_id,
            ..Call::new(&method, &path, &body)
        };
        let res = shard.transport.call(&call, read_timeout, write_timeout);
        // The receiver may be long gone (the hedge race was already
        // decided, or the deadline expired); a loser's response is
        // silently discarded here.
        let _ = tx.send((worker, res));
    }))
}

/// The hedged dispatch: fire the primary asynchronously; if it has not
/// answered within `hedge_after`, fire the same request at the first
/// replica and take whichever response lands first. The loser's response
/// is discarded (its channel send hits a dropped receiver), and only the
/// winner is counted as `routed`. Safe because analyses are pure: either
/// replica's bytes are *the* answer.
fn hedged_call(state: &Arc<RouterState>, owners: &[usize], call: &Call) -> Dispatch {
    let deadline = call.deadline;
    let (tx, rx) = mpsc::channel();
    if !submit_call(state, owners[0], call, &tx) {
        // Helper pool saturated or absent: degrade to the plain
        // synchronous path — hedging is an optimization, not a
        // correctness requirement.
        return sync_call(state, owners[0], call);
    }
    let mut pending = 1usize;
    // The hedge timer never outlives the deadline: with less budget left
    // than the hedge threshold, a second dispatch could not answer in
    // time anyway — it would only duplicate doomed work.
    let hedge_wait = match deadline {
        Some(dl) => state
            .config
            .hedge_after
            .min(dl.saturating_duration_since(Instant::now())),
        None => state.config.hedge_after,
    };
    let mut first = match rx.recv_timeout(hedge_wait) {
        Ok(msg) => Some(msg),
        Err(_) => {
            if expired(deadline) {
                // Dropping the receiver discards the primary's eventual
                // response without touching any hedge counters.
                return Dispatch::DeadlineExpired;
            }
            state.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
            if obs::is_active() {
                obs::add_event(
                    "hedge_fired",
                    format!("primary={} replica={}", owners[0], owners[1]),
                );
            }
            if submit_call(state, owners[1], call, &tx) {
                pending += 1;
            }
            None
        }
    };
    // Every submitted job sends exactly once; dropping our sender makes
    // `recv` fail fast if a job is lost to a panic instead of hanging.
    drop(tx);
    let mut busy = false;
    let mut dead = Vec::new();
    while pending > 0 {
        let (worker, res) = match first.take() {
            Some(msg) => msg,
            None => {
                let received = match deadline {
                    // The drain is bounded by the remaining budget: once
                    // it runs out, the in-flight responses land in a
                    // dropped receiver and are discarded.
                    Some(dl) => rx
                        .recv_timeout(dl.saturating_duration_since(Instant::now()))
                        .map_err(|e| e == mpsc::RecvTimeoutError::Timeout),
                    None => rx.recv().map_err(|_| false),
                };
                match received {
                    Ok(msg) => msg,
                    Err(true) => return Dispatch::DeadlineExpired,
                    Err(false) => break,
                }
            }
        };
        pending -= 1;
        match res {
            Ok((status, bytes)) => {
                if worker != owners[0] {
                    state.stats.hedges_won.fetch_add(1, Ordering::Relaxed);
                    if obs::is_active() {
                        obs::add_event("hedge_won", format!("replica={worker}"));
                    }
                }
                return Dispatch::Reply(worker, status, bytes);
            }
            Err(ForwardError::Busy) => busy = true,
            Err(ForwardError::Transport(_)) => dead.push(worker),
        }
    }
    if expired(deadline) {
        Dispatch::DeadlineExpired
    } else if !dead.is_empty() {
        Dispatch::Dead(dead)
    } else if busy {
        Dispatch::Busy
    } else {
        // Unreachable in practice (a submitted job always reports); treat
        // a lost job as a primary transport failure.
        Dispatch::Dead(vec![owners[0]])
    }
}

/// One warm-ship pass after an eviction: pull each surviving shard's
/// cached responses (`GET /v1/snapshot?section=dedup`), recompute every
/// key's owner set on the *current* ring, and write entries through to
/// alive owners that do not already hold them (`POST /v1/warm`) — so
/// keys that moved in the rehash greet their first post-change request
/// warm instead of recomputing cold. Bounded by [`WARM_SHIP_MAX`]
/// transfers; failures are only counted, never used as liveness
/// evidence (the prober and the data path own eviction decisions).
fn warm_ship(state: &Arc<RouterState>) {
    let replication = state.config.replication.max(1);
    let timeout = state.config.write_timeout;
    // Pass 1: who holds what, per the survivors' own dedup exports.
    // Keyed on the canonical hash — the same identity the ring shards.
    type Held = (String, u64, String, Vec<usize>);
    let mut held: HashMap<u64, Held> = HashMap::new();
    for source in &state.shards {
        if !source.is_alive() {
            continue;
        }
        let Ok(doc) = get_json(state, source, "/v1/snapshot?section=dedup") else {
            continue;
        };
        let Some(rows) = doc.get("dedup").and_then(Json::as_arr) else {
            continue;
        };
        for row in rows {
            let (Some(canon), Some(status), Some(body)) = (
                row.get("key").and_then(Json::as_str),
                row.get("status").and_then(Json::as_u64),
                row.get("body").and_then(Json::as_str),
            ) else {
                continue;
            };
            // Mirror the replication path: a deadline-truncated answer
            // is a timing accident and must not poison anyone's cache.
            if body.contains("\"truncated\"") {
                continue;
            }
            held.entry(canonical_key(canon))
                .or_insert_with(|| (canon.to_string(), status, body.to_string(), Vec::new()))
                .3
                .push(source.index);
        }
    }
    // Pass 2: ship each entry to the current owners missing it.
    let mut ships = 0usize;
    for (key, (canon, status, body, holders)) in &held {
        let owners = {
            let ring = state.ring.read().expect("ring poisoned");
            ring.owners(*key, replication)
        };
        let missing: Vec<usize> = owners
            .into_iter()
            .filter(|w| !holders.contains(w) && state.shards[*w].is_alive())
            .collect();
        if missing.is_empty() {
            continue;
        }
        let warm_body = Json::obj([
            ("key", Json::from(canon.as_str())),
            ("status", Json::from(*status)),
            ("body", Json::from(body.as_str())),
        ])
        .to_string();
        for owner in missing {
            if ships >= WARM_SHIP_MAX {
                return;
            }
            ships += 1;
            let warm = Call::new("POST", "/v1/warm", warm_body.as_bytes());
            match state.shards[owner].transport.call(&warm, timeout, timeout) {
                Ok((200, _)) => {
                    state.stats.warm_shipped.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    state
                        .stats
                        .warm_ship_failures
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Replication write-through: after the first winning 2xx for a key,
/// asynchronously store the answer in the `R-1` successor replicas'
/// dedup caches (`POST /v1/warm`). The ring's successor property makes
/// this exact: if the primary dies, the rehashed owner *is* the warmed
/// replica, so the victim's keys stay warm instead of recomputing cold.
fn maybe_replicate(
    state: &Arc<RouterState>,
    call: &Call,
    key: u64,
    owners: &[usize],
    winner: usize,
    status: u16,
    bytes: &Arc<Vec<u8>>,
) {
    if state.config.replication < 2 || owners.len() < 2 {
        return;
    }
    let (Some(canon), Ok(body_text)) = (call.canon, std::str::from_utf8(bytes)) else {
        return;
    };
    // A degraded (deadline-truncated) answer is a timing accident, not a
    // fact about the request — warm-replicating it would poison the
    // replicas' caches for deadline-free repeats.
    if body_text.contains("\"truncated\"") {
        return;
    }
    // Fast path: steady state is "already written through" — answer that
    // from a shared read lock so concurrent request threads never
    // serialize here.
    if state.warmed.read().expect("warmed poisoned").contains(key) {
        return;
    }
    if !state.warmed.write().expect("warmed poisoned").insert(key) {
        return; // already written through under this ring arrangement
    }
    let warm_body = Json::obj([
        ("key", Json::from(canon)),
        ("status", Json::from(u64::from(status))),
        ("body", Json::from(body_text)),
    ])
    .to_string();
    let targets: Vec<usize> = owners.iter().copied().filter(|&w| w != winner).collect();
    let trace_id = call.trace_id;
    let st = Arc::clone(state);
    let submitted = state.submit_aux(Box::new(move || {
        for worker in targets {
            let shard = &st.shards[worker];
            if !shard.is_alive() {
                continue;
            }
            // The warm write carries the originating request's trace id,
            // so the replication hop shows up on the same timeline.
            let warm = Call {
                trace_id,
                ..Call::new("POST", "/v1/warm", warm_body.as_bytes())
            };
            let timeout = st.config.write_timeout;
            if let Ok((200, _)) = shard.transport.call(&warm, timeout, timeout) {
                st.stats.warm_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }));
    if !submitted {
        // Couldn't schedule the write-through; forget the key so a later
        // request retries it.
        state.warmed.write().expect("warmed poisoned").remove(key);
    }
}

/// GETs `path` from one shard and parses its 200 answer as JSON — the
/// fetch behind every operator fan-out (stats, metrics, traces, warm
/// shipping). It uses the short write timeout, not the long sweep
/// timeout: these documents answer instantly, and a hung shard must not
/// stall a whole fan-out for a minute. A non-200 answer or an
/// unparseable body is reported as a transport failure: the shard
/// answered, but not as a live worker would.
fn get_json(state: &RouterState, shard: &Shard, path: &str) -> Result<Json, ForwardError> {
    let timeout = state.config.write_timeout;
    let (status, bytes) = shard
        .transport
        .call(&Call::new("GET", path, b""), timeout, timeout)?;
    if status == 200 {
        if let Some(doc) = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|t| Json::parse(t).ok())
        {
            return Ok(doc);
        }
    }
    Err(ForwardError::Transport(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("GET {path} answered {status} without a JSON document"),
    )))
}

/// One exported router value: its dotted path in the `router` object of
/// `/v1/stats`, its Prometheus form, and its reading.
type RouterValue = (&'static str, Prom, fn(&RouterState) -> u64);

/// The router's own exported values, each declared once. The
/// configuration values are JSON-only.
#[rustfmt::skip]
const ROUTER_VALUES: &[RouterValue] = {
    use Prom::*;
    &[
        ("uptime_ms",                      Gauge("tenet_router_uptime_ms"),                           |s| s.started.elapsed().as_millis().min(u64::MAX as u128) as u64),
        ("workers",                        Gauge("tenet_router_workers"),                             |s| s.shards.len() as u64),
        ("alive_workers",                  Gauge("tenet_router_alive_workers"),                       |s| s.alive_workers() as u64),
        ("requests.accepted_connections",  Counter("tenet_router_connections_total"),                 |s| load(&s.stats.connections)),
        ("requests.total",                 Counter("tenet_router_requests_total"),                    |s| load(&s.stats.requests)),
        ("requests.completed",             Counter("tenet_router_completed_total"),                   |s| load(&s.stats.completed)),
        ("requests.status_2xx",            Labelled("tenet_router_responses_total", "class", "2xx"),  |s| load(&s.stats.status_2xx)),
        ("requests.status_4xx",            Labelled("tenet_router_responses_total", "class", "4xx"),  |s| load(&s.stats.status_4xx)),
        ("requests.status_5xx",            Labelled("tenet_router_responses_total", "class", "5xx"),  |s| load(&s.stats.status_5xx)),
        ("requests.rejected_busy",         Counter("tenet_router_rejected_busy_total"),               |s| load(&s.stats.rejected_busy)),
        ("requests.deadline_exceeded",     Counter("tenet_router_deadline_exceeded_total"),           |s| load(&s.stats.deadline_exceeded)),
        ("retries",                        Counter("tenet_router_retries_total"),                     |s| load(&s.stats.retries)),
        ("rehashes",                       Counter("tenet_router_rehashes_total"),                    |s| load(&s.stats.rehashes)),
        ("revivals",                       Counter("tenet_router_revivals_total"),                    |s| load(&s.stats.revivals)),
        ("breakers.threshold",             JsonOnly,                                                  |s| u64::from(s.config.breaker_threshold)),
        ("breakers.trips",                 Counter("tenet_router_breaker_trips_total"),               |s| load(&s.stats.breaker_trips)),
        ("admission.rps",                  JsonOnly,                                                  |s| s.config.admission_rps),
        ("admission.rejects",              Counter("tenet_router_admission_rejects_total"),           |s| load(&s.stats.admission_rejects)),
        ("replication.factor",             JsonOnly,                                                  |s| s.config.replication.max(1) as u64),
        ("replication.warm_writes",        Counter("tenet_router_warm_writes_total"),                 |s| load(&s.stats.warm_writes)),
        ("replication.warm_shipped",       Counter("tenet_router_warm_shipped_total"),                |s| load(&s.stats.warm_shipped)),
        ("replication.warm_ship_failures", Counter("tenet_router_warm_ship_failures_total"),          |s| load(&s.stats.warm_ship_failures)),
        ("hedges.fired",                   Labelled("tenet_router_hedges_total", "outcome", "fired"), |s| load(&s.stats.hedges_fired)),
        ("hedges.won",                     Labelled("tenet_router_hedges_total", "outcome", "won"),   |s| load(&s.stats.hedges_won)),
    ]
};

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// The `/v1/stats` fan-out behind both operator views: fetches every
/// live shard's document, and with `rows` also each evicted shard's
/// (display only), and returns the per-shard rows (empty without
/// `rows`) and the merge of the live documents that decode. A live
/// shard whose fetch fails at the transport layer is evicted (the fetch
/// *is* a probe). One whose pool slots are merely busy stays on the
/// ring and just misses this snapshot. One whose document does not
/// decode stays alive, keeps its raw row, and stays out of the merge,
/// so it never contributes silent zeros.
fn fan_out_stats(state: &Arc<RouterState>, rows: bool) -> (Vec<Json>, WorkerMetrics) {
    let mut shards = Vec::new();
    let mut live = Vec::new();
    for shard in &state.shards {
        let (doc, alive) = if shard.is_alive() {
            match get_json(state, shard, "/v1/stats") {
                Ok(doc) => {
                    live.extend(WorkerMetrics::decode(&doc));
                    (Some(doc), true)
                }
                Err(ForwardError::Busy) => (None, true),
                Err(ForwardError::Transport(_)) => {
                    state.mark_dead(shard.index);
                    (None, false)
                }
            }
        } else if rows {
            // Display-only best effort for an evicted shard (a flapping
            // worker is often reachable between its dark windows): its
            // last-known counters fill the row, but nothing revives it
            // here — that is the prober's call — and its document stays
            // out of the merge, which covers live shards only.
            (get_json(state, shard, "/v1/stats").ok(), false)
        } else {
            continue;
        };
        if rows {
            shards.push(Json::obj([
                ("worker", Json::from(shard.index)),
                ("addr", Json::from(shard.transport.endpoint())),
                ("transport", Json::from(shard.transport.kind())),
                ("alive", Json::from(alive)),
                ("routed", Json::from(load(&shard.routed))),
                ("errors", Json::from(load(&shard.errors))),
                ("stats", doc.unwrap_or(Json::Null)),
            ]));
        }
    }
    (shards, WorkerMetrics::merge(&live))
}

/// `GET /v1/stats` at the router tier: the router's own values, the
/// merge of the live shards, and one row per shard.
fn stats_doc(state: &Arc<RouterState>) -> (u16, Arc<Vec<u8>>) {
    let (shards, merged) = fan_out_stats(state, true);
    let router = stats::json_tree(
        ROUTER_VALUES
            .iter()
            .map(|&(path, _, read)| (path, Json::from(read(state)))),
    );
    let body = Json::obj([
        ("router", router),
        ("merged", merged.to_json()),
        ("shards", Json::Arr(shards)),
    ]);
    (200, Arc::new(body.to_string().into_bytes()))
}

/// `GET /metrics` at the router tier: the merged worker families (a
/// merge carries no per-process section, so no `tenet_process_*`
/// family), then the router's own.
fn metrics_doc(state: &Arc<RouterState>) -> (u16, Arc<Vec<u8>>) {
    let (_, merged) = fan_out_stats(state, false);
    let mut p = merged.prometheus();
    for &(_, prom, read) in ROUTER_VALUES {
        prom.write(&mut p, &Json::from(read(state)));
    }
    (200, Arc::new(p.into_string().into_bytes()))
}

/// `GET /v1/trace/...` at the router tier. `/v1/trace/slow` serves the
/// router's own slow ring; `/v1/trace/<id>` assembles the cross-tier
/// timeline — the router's record plus every live shard's records for
/// the same id, fetched over the transport fan-out.
fn trace_doc(state: &Arc<RouterState>, path: &str) -> (u16, Arc<Vec<u8>>) {
    let records = |id: obs::TraceId| {
        let mut records: Vec<Json> = state
            .traces
            .find(id.0)
            .iter()
            .map(|r| r.to_json())
            .collect();
        let worker_path = format!("/v1/trace/{id}");
        for shard in state.shards.iter().filter(|s| s.is_alive()) {
            if let Ok(doc) = get_json(state, shard, &worker_path) {
                if let Some(rows) = doc.get("records").and_then(Json::as_arr) {
                    records.extend(rows.iter().cloned());
                }
            }
        }
        records
    };
    trace_endpoint(
        &state.traces,
        path,
        records,
        "trace not found at any tier (evicted, never recorded, or tracing disabled)",
    )
}

/// `POST /v1/shutdown` cascade: drain every worker, then the router
/// itself. The drain goes to *every* registered worker — including ones
/// currently marked dead — on the transport's control path (a fresh
/// unpooled connection for HTTP, a drain-exempt dispatch for local): a
/// worker that was transiently evicted (one lost probe, one dropped
/// socket) is still running and must not be leaked past the cascade,
/// and a genuinely dead one just answers "unreachable" after a fast
/// refused connect. Worker outcomes are reported so an operator sees
/// which shards acknowledged.
fn cascade_shutdown(state: &Arc<RouterState>) -> (u16, Arc<Vec<u8>>) {
    let mut workers = Vec::with_capacity(state.shards.len());
    for shard in &state.shards {
        let outcome =
            match shard
                .transport
                .send_control("POST", "/v1/shutdown", state.config.write_timeout)
            {
                Ok((200, _)) => {
                    // Remember the ack so the prober stops probing a
                    // worker that is leaving on purpose.
                    shard.draining.store(true, Ordering::Release);
                    "draining"
                }
                Ok(_) => "error",
                Err(_) => "unreachable",
            };
        workers.push(Json::obj([
            ("worker", Json::from(shard.index)),
            ("status", Json::from(outcome)),
        ]));
    }
    state.shutdown.store(true, Ordering::Release);
    let body = Json::obj([
        ("status", Json::from("draining")),
        ("workers", Json::Arr(workers)),
    ])
    .to_string()
    .into_bytes();
    (200, Arc::new(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cap regression: with the old wholesale clear, hitting
    /// [`WARMED_KEYS_CAP`] forgot *every* key, so a hot key repeated
    /// right past the cap reported "new" again and re-replicated. With
    /// generational rotation a repeatedly touched key must stay known
    /// through an unbounded stream of one-shot keys.
    #[test]
    fn warmed_set_remembers_repeated_keys_past_the_cap() {
        let mut w = WarmedSet::default();
        assert!(w.insert(7), "first sighting is new");
        for k in 0..(WARMED_KEYS_CAP as u64 * 2) {
            w.insert((1 << 40) | k);
            assert!(!w.insert(7), "hot key forgotten after {k} one-shot inserts");
        }
        // The forgetting is still bounded: two generations of half the
        // cap each, never the unbounded set the rotation replaced.
        assert!(w.young.len() + w.old.len() <= WARMED_KEYS_CAP);
    }

    #[test]
    fn warmed_set_eventually_forgets_untouched_keys() {
        let mut w = WarmedSet::default();
        assert!(w.insert(7));
        // Push two full generations of distinct keys with no re-touch:
        // the key ages out and is treated as new again (harmless — the
        // write-through it triggers is idempotent).
        for k in 0..(WARMED_KEYS_CAP as u64) {
            w.insert((1 << 40) | k);
        }
        assert!(w.insert(7), "an untouched key must age out at the cap");
    }

    #[test]
    fn warmed_set_clear_and_remove_cover_both_generations() {
        let mut w = WarmedSet::default();
        for k in 0..(WARMED_KEYS_CAP as u64 / 2) {
            w.insert(k);
        }
        w.insert(u64::MAX); // key 0..CAP/2 now old, MAX young
        assert!(w.contains(0) && w.contains(u64::MAX));
        w.remove(0);
        w.remove(u64::MAX);
        assert!(!w.contains(0) && !w.contains(u64::MAX));
        w.insert(1);
        w.clear();
        assert!(!w.contains(1));
    }
}
