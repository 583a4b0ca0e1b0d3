//! The request-handling core, decoupled from any listener.
//!
//! [`WorkerCore`] owns everything one analysis worker needs to answer a
//! request — configuration, counters, the dedup layer, the drain flag —
//! but holds no socket. Its one entry point, [`WorkerCore::handle`],
//! takes a [`Call`] (method, path, body, and the optional canonical
//! form, deadline, trace id, and edge timings) and returns the response
//! bytes. The TCP [`Server`](crate::Server) serves one core through the
//! shared [`Listener`](crate::Listener); the sharding router's
//! `LocalTransport` hands its `Call` to a core directly, skipping the
//! loopback hop entirely. Both paths share this code, so a request is
//! counted, deduplicated, and attributed identically whichever way it
//! arrives.

use crate::dedup::{CachedResponse, Claim, Dedup};
use crate::handlers::{self, error_json};
use crate::stats::{ServerStats, WorkerMetrics};
use crate::ServerConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tenet_core::obs::{self, EdgeTimings, TraceRecord, TraceStore};
use tenet_core::CounterHandle;

/// Response-LRU capacity (entries).
const RESPONSE_CACHE_CAPACITY: usize = 1024;

/// One request as it enters a tier: what the client asked for, plus the
/// context earlier hops attached to it. The same borrowed value goes
/// into [`WorkerCore::handle`] and into every router transport, so a new
/// request attribute is one new field here rather than one new method
/// per layer.
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    /// Request method, uppercase (`GET`, `POST`, ...).
    pub method: &'a str,
    /// Request target (path + optional query).
    pub path: &'a str,
    /// Request body bytes.
    pub body: &'a [u8],
    /// `canonical_request(method, path, body)` when the caller already
    /// computed it; the worker derives it itself otherwise.
    pub canon: Option<&'a str>,
    /// When the request's budget runs out.
    pub deadline: Option<Instant>,
    /// The request's trace id; `None` leaves the request untraced.
    pub trace_id: Option<u64>,
    /// Queue and parse time measured before the handler ran (zero for a
    /// call that did not come off a socket).
    pub edge: EdgeTimings,
}

impl<'a> Call<'a> {
    /// A plain request: no canonical form, deadline, trace id, or edge
    /// timings. Set the other fields with struct-update syntax.
    pub fn new(method: &'a str, path: &'a str, body: &'a [u8]) -> Call<'a> {
        Call {
            method,
            path,
            body,
            canon: None,
            deadline: None,
            trace_id: None,
            edge: EdgeTimings::default(),
        }
    }
}

/// One worker's request-handling state: configuration, counters, dedup,
/// and the drain flag. Shared by the accept loop, the connection
/// workers, the handlers — and any in-process caller.
pub struct WorkerCore {
    /// Service configuration (immutable after construction).
    pub config: ServerConfig,
    /// Request/latency counters.
    pub stats: ServerStats,
    /// The response/in-flight dedup layer.
    pub dedup: Arc<Dedup>,
    /// Set to start a graceful drain (shutdown endpoint, handles).
    pub shutdown: Arc<AtomicBool>,
    /// Construction time, for uptime reporting.
    pub started: Instant,
    /// Finished request timelines (recent + recent-slowest rings),
    /// served by `GET /v1/trace/<id>` and `GET /v1/trace/slow`.
    pub traces: TraceStore,
    /// Connections admitted but not yet picked up (filled in by the
    /// server; handlers read it for `/v1/stats`; stays 0 for a core
    /// driven in-process, which has no backlog).
    backlog: std::sync::OnceLock<Box<dyn Fn() -> usize + Send + Sync>>,
}

impl WorkerCore {
    /// A fresh core. `config.addr` is ignored here — binding is the
    /// [`Server`](crate::Server)'s job; a core used purely in-process
    /// never touches a socket.
    pub fn new(config: ServerConfig) -> Arc<WorkerCore> {
        let dedup = Dedup::new(RESPONSE_CACHE_CAPACITY);
        let traces = TraceStore::new(config.trace_buffer, config.slow_ms.saturating_mul(1_000));
        Arc::new(WorkerCore {
            config,
            stats: ServerStats::default(),
            dedup,
            shutdown: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            traces,
            backlog: std::sync::OnceLock::new(),
        })
    }

    /// A typed snapshot of this core's counters: what `GET /v1/stats`
    /// and `GET /metrics` render.
    pub fn metrics(&self) -> WorkerMetrics {
        self.stats
            .snapshot(self.dedup.stats(), self.started.elapsed(), self.backlog())
    }

    /// Jobs waiting for a worker right now (0 without a listener).
    pub fn backlog(&self) -> usize {
        self.backlog.get().map_or(0, |f| f())
    }

    /// Installs the live backlog probe (server bind time; first call
    /// wins).
    pub(crate) fn set_backlog_probe(&self, probe: Box<dyn Fn() -> usize + Send + Sync>) {
        let _ = self.backlog.set(probe);
    }

    /// Whether a graceful drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests a graceful drain (idempotent). For a TCP-fronted core
    /// the accept loop observes this and winds down; for an in-process
    /// core it simply marks the worker dead to local dispatch.
    pub fn drain(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Handles one request end to end: counting, dedup, routing, latency
    /// attribution. This is the worker's whole request path minus HTTP
    /// framing — the body bytes in, the response status and entity bytes
    /// out (`Arc` so cached answers are a pointer copy).
    ///
    /// The optional parts of the [`Call`] change only the work, never the
    /// cached bytes:
    /// * `canon` reuses a canonical form the caller already computed (the
    ///   sharding router canonicalizes every request to pick an owner);
    ///   it must be exactly `canonical_request(method, path, body)`.
    /// * `deadline` is observed by the handlers between units of work,
    ///   which answer `504` or an explicitly `"truncated"` partial
    ///   instead of computing past it. Degraded answers never enter the
    ///   dedup cache: the deadline is not part of the canonical key, so a
    ///   cached truncation would poison deadline-free repeats.
    /// * `trace_id` (with the trace store enabled) records a span
    ///   timeline — the listener's `edge` timings, canonicalization,
    ///   dedup, computation split into engine time vs cold ISL time,
    ///   serialization, and the rest as a `worker` phase — stores it in
    ///   [`WorkerCore::traces`], and returns the finished record so the
    ///   caller can echo `Server-Timing`.
    pub fn handle(
        self: &Arc<WorkerCore>,
        call: &Call,
    ) -> (u16, Arc<Vec<u8>>, Option<Arc<TraceRecord>>) {
        let Call {
            method,
            path,
            body,
            canon,
            deadline,
            trace_id,
            edge,
        } = *call;
        // Attach the core's ISL counter handle for the duration of the
        // request so `/v1/stats` attributes relational work to this
        // worker exactly, on whichever thread the caller runs us.
        let _attached = self.stats.isl_handle.attach();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlightGuard::new(&self.stats.in_flight);
        let t0 = Instant::now();
        // Observability endpoints bypass dedup and tracing: scraping
        // metrics must never evict a cached analysis or spam the rings.
        if method == "GET" {
            if let Some((status, bytes)) = self.handle_obs(path) {
                self.stats.record(status, t0.elapsed());
                return (status, bytes, None);
            }
        }
        let tracing = trace_id.is_some() && self.traces.enabled();
        let scope = tracing.then(obs::begin);
        // A per-request ISL handle so the trace can split the handler's
        // time into engine work vs cold integer-set computation.
        let request_isl = tracing.then(CounterHandle::new);
        let (status, bytes): (u16, Arc<Vec<u8>>) = if handlers::is_cacheable(method, path) {
            let t_canon = Instant::now();
            let key = match canon {
                Some(c) => std::borrow::Cow::Borrowed(c),
                None => {
                    std::borrow::Cow::Owned(crate::dedup::canonical_request(method, path, body))
                }
            };
            if tracing && canon.is_none() {
                obs::add_span("canon", t_canon, t_canon.elapsed(), "");
            }
            let t_dedup = Instant::now();
            let claim = self.dedup.claim(&key);
            match claim {
                Claim::Cached(resp) => {
                    if tracing {
                        obs::add_span("dedup", t_dedup, t_dedup.elapsed(), "hit");
                    }
                    (resp.status, resp.body)
                }
                Claim::Leader(token) => {
                    if tracing {
                        obs::add_span("dedup", t_dedup, t_dedup.elapsed(), "leader");
                    }
                    let (reply, cacheable) =
                        self.route_timed(method, path, body, deadline, request_isl.as_ref());
                    let t_ser = Instant::now();
                    let resp = CachedResponse {
                        status: reply.status,
                        body: Arc::new(reply.body.to_string().into_bytes()),
                    };
                    if tracing {
                        obs::add_span("serialize", t_ser, t_ser.elapsed(), "");
                    }
                    if cacheable {
                        self.dedup.publish(token, resp.clone());
                    } else {
                        // Dropping the token abandons leadership: a
                        // waiter (or the next arrival) recomputes instead
                        // of inheriting a possibly-transient failure.
                        drop(token);
                    }
                    (resp.status, resp.body)
                }
            }
        } else {
            let (reply, _cacheable) =
                self.route_timed(method, path, body, deadline, request_isl.as_ref());
            let t_ser = Instant::now();
            let bytes = Arc::new(reply.body.to_string().into_bytes());
            if tracing {
                obs::add_span("serialize", t_ser, t_ser.elapsed(), "");
            }
            (reply.status, bytes)
        };
        self.stats.record(status, t0.elapsed());
        let record = scope.zip(trace_id).map(|(scope, id)| {
            let endpoint = format!("{method} {path}");
            self.traces
                .finish(scope, "worker", id, endpoint, status, edge)
        });
        (status, bytes, record)
    }

    /// Answers the observability GETs (`/metrics`, `/v1/trace/...`), or
    /// `None` for every other path.
    fn handle_obs(self: &Arc<WorkerCore>, path: &str) -> Option<(u16, Arc<Vec<u8>>)> {
        if path == "/metrics" {
            let text = self.metrics().prometheus().into_string();
            return Some((200, Arc::new(text.into_bytes())));
        }
        path.starts_with("/v1/trace/").then(|| {
            handlers::trace_endpoint(
                &self.traces,
                path,
                |id| self.traces.find(id.0).iter().map(|r| r.to_json()).collect(),
                "trace not in the ring (evicted, never recorded, or tracing disabled)",
            )
        })
    }

    /// [`route_guarded`](WorkerCore::route_guarded) plus trace phases:
    /// the handler's wall time minus the request's cold ISL time becomes
    /// the compute phase, the cold ISL time its own `isl` phase.
    fn route_timed(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Option<Instant>,
        request_isl: Option<&CounterHandle>,
    ) -> (handlers::Reply, bool) {
        let Some(handle) = request_isl else {
            return self.route_guarded(method, path, body, deadline);
        };
        let _attached = handle.attach();
        let t0 = Instant::now();
        let result = self.route_guarded(method, path, body, deadline);
        let wall = t0.elapsed();
        let cold = std::time::Duration::from_nanos(handle.cold_ns());
        let compute_name = match path {
            "/v1/analyze" => "analyze",
            "/v1/dse" => "dse",
            _ => "compute",
        };
        obs::add_span(compute_name, t0, wall.saturating_sub(cold), "");
        obs::add_span(
            "isl",
            t0,
            cold,
            format!(
                "hits={} misses={} fast={}",
                handle.hits(),
                handle.misses(),
                handle.fast_paths()
            ),
        );
        result
    }

    /// Runs the handler router, converting an escaped panic (a bug in
    /// the analysis engine on an adversarial input, or resource
    /// exhaustion inside a spawn) into a structured 500 instead of
    /// letting it unwind through the counters. Returns `cacheable =
    /// false` for the panic path: unlike a deterministic analysis error,
    /// a panic may be transient (thread/memory pressure), and a cached
    /// 500 would be replayed forever. Panic-poisoned state is not a
    /// concern: the engine works on request-local data, and the global
    /// memo cache is only ever an accelerator.
    fn route_guarded(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Option<Instant>,
    ) -> (handlers::Reply, bool) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handlers::route(method, path, body, self, deadline)
        })) {
            Ok(reply) => {
                if reply.status == 504 {
                    self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                } else if reply.degraded {
                    self.stats
                        .degraded_responses
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Degraded answers are timing accidents, not facts about
                // the request — never cache them.
                let cacheable = !reply.degraded;
                (reply, cacheable)
            }
            Err(_) => (
                handlers::Reply {
                    status: 500,
                    body: error_json("internal", "handler panicked; see server log"),
                    degraded: false,
                },
                false,
            ),
        }
    }
}

/// RAII decrement for the `in_flight` gauge: early returns and panics
/// unwinding out of the request path can no longer leak it upward.
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    fn new(gauge: &'a AtomicU64) -> InFlightGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(gauge)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenet_core::json::Json;

    fn core() -> Arc<WorkerCore> {
        WorkerCore::new(ServerConfig {
            addr: "unused".into(),
            ..Default::default()
        })
    }

    #[test]
    fn core_answers_healthz_without_a_socket() {
        let core = core();
        let (status, body, _) = core.handle(&Call::new("GET", "/v1/healthz", b""));
        assert_eq!(status, 200);
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn repeated_analyze_is_a_pointer_copy_of_the_first_answer() {
        let core = core();
        let body = Json::obj([(
            "problem",
            Json::from(
                "for (i = 0; i < 2; i++)\n  for (j = 0; j < 2; j++)\n    S: Y[i] += A[i][j];\n\n\
                 { S[i,j] -> (PE[i] | T[j]) }\n\n\
                 arch \"t\" { array = [2] interconnect = systolic1d bandwidth = 4 }\n",
            ),
        )])
        .to_string();
        let (s1, b1, _) = core.handle(&Call::new("POST", "/v1/analyze", body.as_bytes()));
        assert_eq!(s1, 200, "{}", String::from_utf8_lossy(&b1));
        let (s2, b2, _) = core.handle(&Call::new("POST", "/v1/analyze", body.as_bytes()));
        assert_eq!(s2, 200);
        assert!(Arc::ptr_eq(&b1, &b2), "repeat must share the cached bytes");
        let d = core.dedup.stats();
        assert_eq!((d.misses, d.hits), (1, 1));
        // Both requests counted and bucketed.
        assert_eq!(core.stats.completed.load(Ordering::Relaxed), 2);
    }

    fn analyze_body() -> String {
        Json::obj([(
            "problem",
            Json::from(
                "for (i = 0; i < 2; i++)\n  for (j = 0; j < 2; j++)\n    S: Y[i] += A[i][j];\n\n\
                 { S[i,j] -> (PE[i] | T[j]) }\n\n\
                 arch \"t\" { array = [2] interconnect = systolic1d bandwidth = 4 }\n",
            ),
        )])
        .to_string()
    }

    #[test]
    fn traced_request_records_phases_summing_to_total() {
        let core = core();
        let edge = EdgeTimings {
            queue_us: 30,
            parse_us: 20,
        };
        let body = analyze_body();
        let (status, _bytes, rec) = core.handle(&Call {
            trace_id: Some(0xabc),
            edge,
            ..Call::new("POST", "/v1/analyze", body.as_bytes())
        });
        assert_eq!(status, 200);
        let rec = rec.expect("traced request must yield a record");
        assert_eq!(rec.tier, "worker");
        assert_eq!(rec.endpoint, "POST /v1/analyze");
        for name in [
            "queue",
            "parse",
            "canon",
            "dedup",
            "analyze",
            "isl",
            "serialize",
            "worker",
        ] {
            assert!(
                rec.spans.iter().any(|s| s.name == name && s.phase),
                "missing phase {name:?} in {:?}",
                rec.spans
            );
        }
        // The phases tile the timeline: the `worker` residual takes the
        // time between stopwatch reads, so the sum is the total exactly.
        assert_eq!(rec.phase_sum_us(), rec.total_us, "{:?}", rec.spans);
        let residual = rec.spans.iter().find(|s| s.name == "worker").unwrap();
        assert!(residual.dur_us < 500, "{residual:?}");
        // The record is findable through the store and the endpoint.
        assert_eq!(core.traces.find(0xabc).unwrap().id, 0xabc);
        let (s, body, _) = core.handle(&Call::new("GET", "/v1/trace/0000000000000abc", b""));
        assert_eq!(s, 200);
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            v.get("records").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        let (s, _, _) = core.handle(&Call::new("GET", "/v1/trace/ffffffffffffffff", b""));
        assert_eq!(s, 404);
        let (s, _, _) = core.handle(&Call::new("GET", "/v1/trace/not-hex", b""));
        assert_eq!(s, 400);
    }

    #[test]
    fn untraced_requests_record_nothing_and_metrics_render() {
        let core = core();
        let (_, _, rec) = core.handle(&Call::new("POST", "/v1/analyze", analyze_body().as_bytes()));
        assert!(rec.is_none());
        let (s, body, _) = core.handle(&Call::new("GET", "/metrics", b""));
        assert_eq!(s, 200);
        let text = String::from_utf8(body.to_vec()).unwrap();
        assert!(text.contains("tenet_worker_requests_total"), "{text}");
        assert!(
            text.contains("tenet_worker_request_latency_us_bucket{le=\"+Inf\"}"),
            "{text}"
        );
        // In-flight drained back to zero through the RAII guard.
        assert_eq!(core.stats.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drain_is_observable_and_idempotent() {
        let core = core();
        assert!(!core.is_draining());
        let (status, _, _) = core.handle(&Call::new("POST", "/v1/shutdown", b""));
        assert_eq!(status, 200);
        assert!(core.is_draining());
        core.drain();
        assert!(core.is_draining());
    }
}
