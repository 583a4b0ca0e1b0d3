//! # tenet-router
//!
//! A std-only consistent-hash sharding front tier for the TENET analysis
//! service — the ROADMAP's "horizontal scale needs a sharded dedup layer
//! in front of N processes" step.
//!
//! TENET's analyses are pure functions of the request text, so the
//! cluster's hottest resource is each worker's dedup cache. The router
//! exploits that: every `POST /v1/analyze` / `POST /v1/dse` request is
//! canonicalized ([`tenet_server::canonical_request`]), hashed
//! ([`tenet_server::canonical_key`]), and placed on a consistent-hash
//! [ring](ring::HashRing) with virtual nodes — a repeated query always
//! lands on the shard that already owns its cached answer, and a worker
//! loss remaps only ≈ `1/N` of the key population.
//!
//! The forward path is abstracted behind the [`Transport`] trait: a
//! worker can be a separate process reached over pooled keep-alive HTTP
//! ([`upstream::HttpTransport`]) or an in-process
//! [`tenet_server::WorkerCore`] dispatched to directly
//! ([`transport::LocalTransport`]) with no socket or HTTP reframe —
//! which is how the single-box topology escapes the loopback tax.
//! Each key additionally replicates onto its `R-1` ring successors
//! (write-through after the first answer, default `R = 2`), and slow
//! remote primaries are hedged against the first replica — so a worker
//! death degrades to a warm hit on the promoted successor instead of a
//! cold recompute storm.
//!
//! ## API (mirrors the worker, plus cluster semantics)
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/analyze`, `POST /v1/dse` | proxied to the owning shard (hedged when slow); transport failure evicts + retries on the rehashed owner |
//! | `GET /v1/healthz` | router liveness + live-worker count |
//! | `GET /v1/stats` | fan-out: per-shard documents, the merge of the live shards, router counters |
//! | `GET /metrics` | Prometheus text: merged worker families + `tenet_router_*` counters |
//! | `GET /v1/trace/<id>` | cross-tier span timeline: router record + live shards' records |
//! | `GET /v1/trace/slow?ms=N` | the router's recent-slowest request timelines |
//! | `POST /v1/shutdown` | cascaded drain: workers first, then the router |
//!
//! ## Layers
//!
//! * [`ring`] — the consistent-hash ring (virtual nodes, deterministic
//!   placement, replica owner sets; invariants locked by
//!   `tests/ring_props.rs`).
//! * [`transport`] — the [`Transport`] trait and the in-process
//!   [`transport::LocalTransport`].
//! * [`upstream`] — [`upstream::HttpTransport`], pooled keep-alive
//!   connections to a worker process.
//! * [`fault`] — [`fault::FaultTransport`], a seeded fault-injection
//!   wrapper around any transport (latency spikes, drops, 5xx bursts,
//!   torn responses, flap windows) for chaos tests and drills.
//! * `router` — proxy path (deadline propagation, bounded jittered
//!   retries, per-shard circuit breakers, per-client admission control,
//!   hedging, replication write-through), fan-outs, health prober,
//!   cascaded drain, served as a [`tenet_server::Tier`] through the
//!   worker's [`tenet_server::Listener`]. Its own exported values (the
//!   `router` object of `/v1/stats` and the `tenet_router_*` families)
//!   are declared once there, in `ROUTER_VALUES`; worker values are
//!   declared in `tenet_server::stats`.
//!
//! Like the worker, the router is loopback-oriented: no TLS, no
//! authentication — anything beyond local deployment needs a
//! terminating proxy in front.
//!
//! ```no_run
//! let worker = tenet_server::Server::spawn(tenet_server::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..Default::default()
//! })?;
//! let config = tenet_router::RouterConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: vec![worker.addr().to_string()],
//!     ..Default::default()
//! };
//! let router = tenet_router::Router::bind(config)?;
//! println!("routing on {}", router.local_addr());
//! router.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod ring;
mod router;
pub mod transport;
pub mod upstream;

pub use fault::{FaultPlan, FaultTransport};
pub use router::{
    Router, RouterConfig, RouterState, RouterStats, Shard, SpawnedRouter, WorkerSpec,
    UPSTREAM_CONNECTIONS, VNODES,
};
/// The router's remote control: the worker's handle type.
pub use tenet_server::ServerHandle as RouterHandle;
pub use transport::{ForwardError, LocalTransport, Transport};
pub use upstream::HttpTransport;
