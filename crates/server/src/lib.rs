//! # tenet-server
//!
//! A dependency-free concurrent HTTP/JSON analysis service over the
//! TENET performance model: the ROADMAP's "serve dataflow-cost queries
//! as a production system" step. Everything is built on `std` —
//! `TcpListener`, a hand-rolled HTTP/1.1 codec, a bounded worker pool,
//! and the shared JSON module in `tenet_core::json`.
//!
//! ## API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/analyze` | problem text (+ arch/preset) → full performance report(s) |
//! | `POST /v1/dse` | problem text + constraints → ranked points + Pareto frontier |
//! | `GET /v1/healthz` | liveness |
//! | `GET /v1/stats` | counters, latency histogram, dedup and ISL-cache hit rates |
//! | `GET /metrics` | the same counters in Prometheus text exposition format |
//! | `GET /v1/trace/<id>` | the recorded span timeline of one request |
//! | `GET /v1/trace/slow?ms=N` | recent slowest request timelines |
//! | `POST /v1/warm` | replication write-through: store another shard's answer (router-internal) |
//! | `GET /v1/snapshot[?section=dedup\|isl]` | the warm-state payload (response LRU + ISL memo) as JSON |
//! | `POST /v1/snapshot` | write the warm state to the configured `--snapshot-file` (atomic tmp+rename) |
//! | `POST /v1/shutdown` | graceful drain (stop accepting, finish in-flight) |
//!
//! ## Layers
//!
//! * [`Listener`] — the accept loop and connection loop both tiers serve
//!   through; a [`Tier`] supplies the handler, counters and shed wording.
//! * [`http`] — incremental request parsing (split reads, pipelining,
//!   size limits) and response encoding.
//! * [`pool`] — the bounded worker pool; full backlog sheds load with
//!   `503` instead of queueing unboundedly.
//! * [`dedup`] — in-flight request deduplication plus a response LRU
//!   keyed on the canonicalized request, layered over the process-wide
//!   ISL memo context: identical hot queries from many clients cost one
//!   analysis and get bit-identical bytes. The canonicalization is
//!   public ([`canonical_request`] / [`canonical_key`]) because the
//!   sharding router (`tenet-router`) hashes the same identity to keep
//!   every repeated query on the shard that already owns its answer.
//! * [`stats`] — counters, a lock-free latency histogram, and the one
//!   declaration of every worker value, which renders `/v1/stats` and
//!   `/metrics` at both tiers and decodes and merges shard documents.
//!   The router declares its own values alongside its state and renders
//!   them through the same [`stats::Prom`] forms and [`stats::json_tree`].
//! * [`handlers`] — routing and the endpoint implementations; errors
//!   mirror the CLI's exit-code taxonomy (4xx usage/parse, 5xx analysis).
//! * [`worker`] — [`WorkerCore`], the whole request path (counting,
//!   dedup, routing, attribution) decoupled from the listener, entered
//!   through [`WorkerCore::handle`] with one [`Call`], so the sharding
//!   router can dispatch into a worker in-process without a socket or an
//!   HTTP reframe.
//!
//! ```no_run
//! let config = tenet_server::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..Default::default()
//! };
//! let server = tenet_server::Server::bind(config)?;
//! println!("listening on {}", server.local_addr());
//! let handle = server.handle(); // shutdown from another thread
//! server.run()?;
//! # drop(handle);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod dedup;
pub mod handlers;
pub mod http;
pub mod pool;
mod server;
pub mod snapshot;
pub mod stats;
pub mod worker;

pub use dedup::{canonical_key, canonical_request};
pub use handlers::error_json;
pub use server::{
    Limits, Listener, Response, Server, ServerHandle, SpawnedServer, Tier, MAX_BODY, MAX_HEADER,
    QUEUE_CAPACITY,
};
pub use worker::{Call, WorkerCore};

use std::time::Duration;

/// Service configuration. `Default` is tuned for a small host; every
/// knob exists so tests (tiny timeouts, ephemeral ports) and production
/// (bigger pools) can share the code path.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port `0` for ephemeral).
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Per-connection read timeout (also bounds drain time at shutdown).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Capacity of each per-process trace ring (recent + slow); `0`
    /// disables request tracing entirely.
    pub trace_buffer: usize,
    /// Requests at or above this end-to-end latency also enter the
    /// slow-trace ring served by `GET /v1/trace/slow`.
    pub slow_ms: u64,
    /// Warm-state snapshot file: restored at boot when present, written
    /// by `POST /v1/snapshot`, by the periodic writer
    /// ([`snapshot_interval`](ServerConfig::snapshot_interval)), and once
    /// more at graceful drain. `None` disables snapshotting entirely.
    pub snapshot_file: Option<std::path::PathBuf>,
    /// Interval between periodic background snapshot writes; `None`
    /// leaves only the explicit (`POST /v1/snapshot`) and at-drain saves.
    pub snapshot_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:8080".into(),
            threads: parallelism.clamp(2, 16),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            trace_buffer: 256,
            slow_ms: 100,
            snapshot_file: None,
            snapshot_interval: None,
        }
    }
}
