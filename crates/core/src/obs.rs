//! Observability substrate: trace identifiers, per-request span
//! timelines, the per-process trace ring, and Prometheus text rendering.
//!
//! Every tier of the serving stack (router, worker) shares this module:
//!
//! * A request opts into tracing by sending an `X-Tenet-Trace-Id`
//!   header; the [`TraceId`] is adopted at the edge (a garbled one
//!   degrades to a generated id) and rides every hop (proxy dispatch,
//!   hedge, replication warm write). Header-less requests skip span
//!   recording entirely — the untraced hot path pays nothing.
//! * While a request is handled, a [`TraceScope`] is active on the
//!   handling thread; any layer underneath (dedup, the ISL substrate,
//!   the DSE handler) can attach [`Span`]s to the innermost active
//!   scope via [`add_span`]/[`add_event`] without threading a context
//!   through every signature. Scopes nest: a router thread dispatching
//!   into an in-process worker core holds two scopes, and each tier's
//!   spans land in its own record.
//! * Finished timelines become [`TraceRecord`]s in a fixed-size
//!   [`TraceRing`] per process ([`TraceStore`] keeps one ring of recent
//!   traces and one of recent-slowest), served by `GET /v1/trace/<id>`
//!   and `GET /v1/trace/slow`.
//! * [`PromBuf`] renders counters, gauges, and cumulative-bucket
//!   histograms in the Prometheus text exposition format for the
//!   `/metrics` endpoints.
//!
//! Spans are either **phases** — disjoint intervals whose durations sum
//! to the record's total, the contract behind the
//! `X-Tenet-Server-Timing` response header ([`TraceStore::finish`] adds
//! the tier's unattributed time as its own phase) — or informational
//! **events** (retries, breaker trips, DSE sweep progress) that annotate
//! the timeline without participating in the sum.

use crate::json::Json;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A 64-bit request trace identifier, rendered as 16 lowercase hex
/// digits in headers and URLs. Zero is reserved ("no trace").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Parses the header/URL form: 1–16 hex digits, case-insensitive.
    /// Zero and malformed text are rejected, so a garbled client header
    /// degrades to a fresh id instead of a poisoned one.
    pub fn parse(text: &str) -> Option<TraceId> {
        if text.is_empty() || text.len() > 16 {
            return None;
        }
        u64::from_str_radix(text, 16)
            .ok()
            .filter(|&v| v != 0)
            .map(TraceId)
    }

    /// Generates a fresh process-unique id by mixing a monotone counter
    /// with the process start time (so two processes booted apart don't
    /// collide on their first requests).
    pub fn generate() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e3779b97f4a7c15);
            mix64(nanos ^ (&COUNTER as *const _ as u64))
        });
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = mix64(seed.wrapping_add(n.wrapping_mul(0x9e3779b97f4a7c15)));
        TraceId(if id == 0 { 1 } else { id })
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// splitmix64's finalizer: a cheap, well-distributed 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// One interval (or instantaneous event) on a request's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval was spent on (`dedup`, `compute`, `upstream`…).
    pub name: String,
    /// Microseconds from the record's start to this span's start.
    pub start_us: u64,
    /// The span's duration in microseconds (0 for events).
    pub dur_us: u64,
    /// Free-form annotation (`leader`, `hits=3 misses=1`, …); may be empty.
    pub detail: String,
    /// Phases are disjoint and sum to the record total (the
    /// `Server-Timing` contract); events are informational only.
    pub phase: bool,
}

impl Span {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("start_us", Json::from(self.start_us)),
            ("dur_us", Json::from(self.dur_us)),
            ("detail", Json::from(self.detail.as_str())),
            ("phase", Json::from(self.phase)),
        ])
    }
}

/// The finished timeline of one request at one tier.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request's trace id.
    pub id: u64,
    /// Which tier recorded it: `"router"` or `"worker"`.
    pub tier: &'static str,
    /// `METHOD path` of the traced request.
    pub endpoint: String,
    /// The response status the tier produced.
    pub status: u16,
    /// End-to-end handling time at this tier, in microseconds.
    pub total_us: u64,
    /// The span timeline, in recording order.
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// The JSON form served by `/v1/trace/<id>`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::from(TraceId(self.id).to_string())),
            ("tier", Json::from(self.tier)),
            ("endpoint", Json::from(self.endpoint.as_str())),
            ("status", Json::from(u64::from(self.status))),
            ("total_us", Json::from(self.total_us)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }

    /// The `Server-Timing` header value: every phase span as
    /// `name;dur=<ms>`, comma-separated. Empty if there are no phases.
    pub fn server_timing(&self) -> String {
        let mut out = String::new();
        for s in self.spans.iter().filter(|s| s.phase) {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(&format!("{};dur={:.3}", s.name, s.dur_us as f64 / 1e3));
        }
        out
    }

    /// The sum of the phase durations, in microseconds — the quantity the
    /// cluster tests hold to within 10% of [`TraceRecord::total_us`].
    pub fn phase_sum_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.phase)
            .map(|s| s.dur_us)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The active-scope stack (thread-local, mirroring the ISL cache's
// attached-handle stack): deep layers annotate the innermost scope.
// ---------------------------------------------------------------------------

struct ActiveTrace {
    start: Instant,
    spans: Vec<Span>,
}

thread_local! {
    static ACTIVE: RefCell<Vec<ActiveTrace>> = const { RefCell::new(Vec::new()) };
}

/// An RAII guard marking a trace as active on the current thread.
/// Dropping (or [`finish`](TraceScope::finish)ing) it pops the scope.
/// Deliberately `!Send`: the scope must end on the thread that began it.
pub struct TraceScope {
    start: Instant,
    finished: bool,
    _not_send: PhantomData<*const ()>,
}

/// Begins a trace scope on this thread. Spans added while it is the
/// innermost active scope accumulate into it.
pub fn begin() -> TraceScope {
    let start = Instant::now();
    ACTIVE.with(|a| {
        a.borrow_mut().push(ActiveTrace {
            start,
            spans: Vec::with_capacity(8),
        })
    });
    TraceScope {
        start,
        finished: false,
        _not_send: PhantomData,
    }
}

/// Whether any trace scope is active on this thread — the cheap gate
/// deep layers use to skip span bookkeeping entirely when untraced.
pub fn is_active() -> bool {
    ACTIVE.with(|a| !a.borrow().is_empty())
}

impl TraceScope {
    /// Ends the scope, returning the collected spans.
    pub fn finish(mut self) -> Vec<Span> {
        self.finished = true;
        ACTIVE
            .with(|a| a.borrow_mut().pop())
            .map(|t| t.spans)
            .unwrap_or_default()
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE.with(|a| {
                a.borrow_mut().pop();
            });
        }
    }
}

/// Adds a phase span `[start, start + dur)` to the innermost active
/// scope. A no-op when no scope is active.
pub fn add_span(name: &str, start: Instant, dur: Duration, detail: impl Into<String>) {
    push_span(name, Some(start), dur, detail.into(), true);
}

/// Adds an informational zero-duration event at "now" to the innermost
/// active scope. A no-op when no scope is active.
pub fn add_event(name: &str, detail: impl Into<String>) {
    push_span(name, None, Duration::ZERO, detail.into(), false);
}

/// Edge timings measured before a tier's trace scope exists — the
/// connection-queue wait and the request-parse time — recorded as the
/// timeline's leading phases by [`TraceStore::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeTimings {
    /// Microseconds the connection waited in the accept queue before a
    /// pool thread picked it up (first request on a connection only).
    pub queue_us: u64,
    /// Microseconds spent reading and parsing the request head + body.
    pub parse_us: u64,
}

fn push_span(name: &str, start: Option<Instant>, dur: Duration, detail: String, phase: bool) {
    ACTIVE.with(|a| {
        let mut stack = a.borrow_mut();
        if let Some(t) = stack.last_mut() {
            let start_us = match start {
                Some(s) => s.saturating_duration_since(t.start).as_micros() as u64,
                None => t.start.elapsed().as_micros() as u64,
            };
            t.spans.push(Span {
                name: name.to_string(),
                start_us,
                dur_us: dur.as_micros() as u64,
                detail,
                phase,
            });
        }
    });
}

// ---------------------------------------------------------------------------
// The per-process ring of finished traces.
// ---------------------------------------------------------------------------

/// A fixed-capacity ring of finished [`TraceRecord`]s. Writers claim a
/// slot with one atomic increment and never contend on a shared lock;
/// each slot has its own mutex held only for the pointer swap, so a
/// reader scanning for an id can never stall the request path.
pub struct TraceRing {
    slots: Vec<Mutex<Option<std::sync::Arc<TraceRecord>>>>,
    head: AtomicUsize,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` records (0 disables it).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores a record, evicting the oldest when full.
    pub fn push(&self, rec: std::sync::Arc<TraceRecord>) {
        if self.slots.is_empty() {
            return;
        }
        let i = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[i].lock().unwrap() = Some(rec);
    }

    /// The most recently stored record with the given id, if it is still
    /// in the ring.
    pub fn find(&self, id: u64) -> Option<std::sync::Arc<TraceRecord>> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .filter(|r| r.id == id)
            .max_by_key(|r| r.total_us)
    }

    /// Every record currently in the ring, in no particular order.
    pub fn snapshot(&self) -> Vec<std::sync::Arc<TraceRecord>> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .collect()
    }
}

/// One process's trace storage: a ring of recent traces (every finished
/// request) plus a ring of recent-slowest ones, so a slow request stays
/// findable after the recent ring has churned past it.
pub struct TraceStore {
    recent: TraceRing,
    slow: TraceRing,
    slow_threshold_us: u64,
}

impl TraceStore {
    /// A store whose rings hold `capacity` records each; requests at or
    /// above `slow_threshold_us` are also kept in the slow ring.
    pub fn new(capacity: usize, slow_threshold_us: u64) -> TraceStore {
        TraceStore {
            recent: TraceRing::new(capacity),
            slow: TraceRing::new(capacity),
            slow_threshold_us,
        }
    }

    /// Whether tracing is enabled at all (capacity 0 disables it).
    pub fn enabled(&self) -> bool {
        self.recent.capacity() > 0
    }

    /// The slow-ring admission threshold, in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }

    /// Stores a finished record (and mirrors it into the slow ring when
    /// it crossed the threshold). Returns the shared record.
    pub fn record(&self, rec: TraceRecord) -> std::sync::Arc<TraceRecord> {
        let rec = std::sync::Arc::new(rec);
        if self.enabled() {
            self.recent.push(std::sync::Arc::clone(&rec));
            if rec.total_us >= self.slow_threshold_us {
                self.slow.push(std::sync::Arc::clone(&rec));
            }
        }
        rec
    }

    /// Ends a tier's trace `scope` and stores its record of one request
    /// (the one record builder both tiers use). The non-zero `edge`
    /// phases lead the timeline, since they happened before the scope
    /// began. Handling time the scope's phases do not cover is the
    /// tier's own work (routing, counting, framing) and becomes a
    /// residual phase named after the `tier`. Unless spans overlap, the
    /// phases therefore sum to the total by construction.
    pub fn finish(
        &self,
        scope: TraceScope,
        tier: &'static str,
        id: u64,
        endpoint: String,
        status: u16,
        edge: EdgeTimings,
    ) -> std::sync::Arc<TraceRecord> {
        let handled_us = scope.start.elapsed().as_micros() as u64;
        let scoped = scope.finish();
        let attributed: u64 = scoped.iter().filter(|s| s.phase).map(|s| s.dur_us).sum();
        let residual = handled_us.saturating_sub(attributed);
        let off = edge.queue_us + edge.parse_us;
        let phase = |name: &str, start_us, dur_us| Span {
            name: name.to_string(),
            start_us,
            dur_us,
            detail: String::new(),
            phase: true,
        };
        let mut spans: Vec<Span> = [
            phase("queue", 0, edge.queue_us),
            phase("parse", edge.queue_us, edge.parse_us),
        ]
        .into_iter()
        .filter(|s| s.dur_us > 0)
        .collect();
        spans.extend(scoped.into_iter().map(|s| Span {
            start_us: s.start_us + off,
            ..s
        }));
        if residual > 0 {
            spans.push(phase(tier, off, residual));
        }
        self.record(TraceRecord {
            id,
            tier,
            endpoint,
            status,
            total_us: off + handled_us,
            spans,
        })
    }

    /// Looks an id up in both rings.
    pub fn find(&self, id: u64) -> Option<std::sync::Arc<TraceRecord>> {
        self.recent.find(id).or_else(|| self.slow.find(id))
    }

    /// The slow-ring records at or above `min_us` (defaulting to the
    /// store's own threshold), slowest first.
    pub fn slow(&self, min_us: Option<u64>) -> Vec<std::sync::Arc<TraceRecord>> {
        let floor = min_us.unwrap_or(self.slow_threshold_us);
        let mut out: Vec<_> = self
            .slow
            .snapshot()
            .into_iter()
            .filter(|r| r.total_us >= floor)
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.total_us));
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

/// A builder for the Prometheus text exposition format (version 0.0.4):
/// `# TYPE` lines, counter/gauge samples, and histograms with
/// *cumulative* `_bucket{le=...}` series plus `_sum`/`_count`.
///
/// One `# TYPE` line opens each run of samples from the same family, so
/// the samples of a labelled family are written back to back.
#[derive(Default)]
pub struct PromBuf {
    buf: String,
    /// The family of the last sample written.
    family: String,
}

impl PromBuf {
    /// An empty exposition.
    pub fn new() -> PromBuf {
        PromBuf::default()
    }

    /// The accumulated exposition text.
    pub fn into_string(self) -> String {
        self.buf
    }

    /// Emits one sample of a `kind` family (`counter` or `gauge`);
    /// `value` prints as the sample's number.
    pub fn sample(
        &mut self,
        kind: &str,
        name: &str,
        labels: &[(&str, &str)],
        value: impl fmt::Display,
    ) {
        self.typed(name, kind);
        self.line(name, labels, value);
    }

    /// Emits a full histogram family from *per-bucket* counts: the
    /// exposition's buckets are cumulative, `u64::MAX` (or anything past
    /// the last finite bound) renders as `le="+Inf"`, and `_sum`/`_count`
    /// close the family. `sum` is in the same unit as the bucket bounds.
    pub fn histogram(&mut self, name: &str, bounds: &[u64], per_bucket: &[u64], sum: u64) {
        self.typed(name, "histogram");
        let mut cumulative = 0u64;
        for (i, &count) in per_bucket.iter().enumerate() {
            cumulative += count;
            let le = match bounds.get(i) {
                Some(&b) if b != u64::MAX => b.to_string(),
                _ => "+Inf".to_string(),
            };
            self.line(
                &format!("{name}_bucket"),
                &[("le", le.as_str())],
                cumulative,
            );
        }
        self.line(&format!("{name}_sum"), &[], sum);
        self.line(&format!("{name}_count"), &[], cumulative);
    }

    /// Opens a new family run with its `# TYPE` line, unless the last
    /// sample already belongs to `name`.
    fn typed(&mut self, name: &str, kind: &str) {
        if self.family == name {
            return;
        }
        self.family = name.to_string();
        self.buf.push_str("# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
    }

    fn line(&mut self, name: &str, labels: &[(&str, &str)], value: impl fmt::Display) {
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                self.buf.push_str(k);
                self.buf.push_str("=\"");
                self.buf.push_str(v);
                self.buf.push('"');
            }
            self.buf.push('}');
        }
        self.buf.push(' ');
        self.buf.push_str(&value.to_string());
        self.buf.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_roundtrip_and_reject_garbage() {
        let id = TraceId(0xdead_beef_0000_0001);
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
        assert_eq!(TraceId::parse("0"), None, "zero is reserved");
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("112233445566778899"), None, "too long");
        // Case-insensitive on the way in, lowercase on the way out.
        assert_eq!(TraceId::parse("DEADBEEF"), Some(TraceId(0xdeadbeef)));
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b, "consecutive generated ids must differ");
        assert_ne!(a.0, 0);
    }

    #[test]
    fn scopes_nest_and_spans_land_in_the_innermost() {
        assert!(!is_active());
        let outer = begin();
        assert!(is_active());
        add_span(
            "outer-phase",
            Instant::now(),
            Duration::from_micros(100),
            "",
        );
        {
            let inner = begin();
            add_span("inner-phase", Instant::now(), Duration::from_micros(40), "");
            add_event("inner-event", "detail");
            let spans = inner.finish();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, "inner-phase");
            assert!(spans[0].phase);
            assert!(!spans[1].phase);
            assert_eq!(spans[1].detail, "detail");
        }
        // The outer scope is innermost again.
        add_event("outer-event", "");
        let spans = outer.finish();
        assert_eq!(
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["outer-phase", "outer-event"],
        );
        assert!(!is_active());
    }

    #[test]
    fn dropped_scope_pops_without_leaking() {
        {
            let _scope = begin();
            assert!(is_active());
        }
        assert!(!is_active());
    }

    #[test]
    fn ring_evicts_oldest_and_finds_by_id() {
        let ring = TraceRing::new(2);
        let rec = |id: u64| {
            std::sync::Arc::new(TraceRecord {
                id,
                tier: "worker",
                endpoint: "POST /v1/analyze".into(),
                status: 200,
                total_us: id * 10,
                spans: Vec::new(),
            })
        };
        ring.push(rec(1));
        ring.push(rec(2));
        ring.push(rec(3)); // evicts 1
        assert!(ring.find(1).is_none());
        assert_eq!(ring.find(2).unwrap().id, 2);
        assert_eq!(ring.find(3).unwrap().id, 3);
        assert_eq!(ring.snapshot().len(), 2);
        // A zero-capacity ring swallows pushes silently.
        let off = TraceRing::new(0);
        off.push(rec(9));
        assert!(off.find(9).is_none());
    }

    #[test]
    fn store_keeps_slow_traces_past_recent_churn() {
        let store = TraceStore::new(2, 1_000);
        let rec = |id: u64, total_us: u64| TraceRecord {
            id,
            tier: "router",
            endpoint: "POST /v1/dse".into(),
            status: 200,
            total_us,
            spans: Vec::new(),
        };
        store.record(rec(1, 5_000)); // slow
        store.record(rec(2, 10));
        store.record(rec(3, 10)); // churns 1 out of the recent ring
        assert_eq!(
            store.find(1).unwrap().total_us,
            5_000,
            "the slow ring must still hold the slow trace"
        );
        let slow = store.slow(None);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].id, 1);
        assert!(store.slow(Some(10_000)).is_empty());
    }

    #[test]
    fn finish_adds_the_tier_residual_after_the_edge_phases() {
        let store = TraceStore::new(4, u64::MAX);
        let edge = EdgeTimings {
            queue_us: 30,
            parse_us: 20,
        };
        let scope = begin();
        add_span("dedup", Instant::now(), Duration::from_micros(100), "");
        add_event("retry", "");
        std::thread::sleep(Duration::from_millis(2));
        let rec = store.finish(scope, "worker", 9, "POST /v1/analyze".into(), 200, edge);
        assert!(!is_active());
        let phases: Vec<&str> = rec
            .spans
            .iter()
            .filter(|s| s.phase)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(phases, ["queue", "parse", "dedup", "worker"]);
        assert_eq!(rec.phase_sum_us(), rec.total_us);
        assert!(rec.total_us >= 50 + 2_000, "{rec:?}");
        assert_eq!(store.find(9).unwrap().endpoint, "POST /v1/analyze");

        // Spans that claim more than the handling time leave no residual,
        // so the overlap still shows as a phase sum above the total.
        let scope = begin();
        add_span("upstream", Instant::now(), Duration::from_secs(5), "");
        let rec = store.finish(
            scope,
            "router",
            10,
            "GET /".into(),
            200,
            EdgeTimings::default(),
        );
        assert!(rec.spans.iter().all(|s| s.name != "router"));
        assert!(rec.phase_sum_us() > rec.total_us);
    }

    #[test]
    fn server_timing_lists_phases_and_sums() {
        let rec = TraceRecord {
            id: 7,
            tier: "worker",
            endpoint: "POST /v1/analyze".into(),
            status: 200,
            total_us: 1_500,
            spans: vec![
                Span {
                    name: "dedup".into(),
                    start_us: 0,
                    dur_us: 500,
                    detail: String::new(),
                    phase: true,
                },
                Span {
                    name: "isl".into(),
                    start_us: 500,
                    dur_us: 900,
                    detail: "hits=3".into(),
                    phase: true,
                },
                Span {
                    name: "dse_sweep".into(),
                    start_us: 600,
                    dur_us: 0,
                    detail: "1/4".into(),
                    phase: false,
                },
            ],
        };
        assert_eq!(rec.server_timing(), "dedup;dur=0.500,isl;dur=0.900");
        assert_eq!(rec.phase_sum_us(), 1_400);
        let json = rec.to_json();
        assert_eq!(
            json.get("trace_id").and_then(Json::as_str),
            Some("0000000000000007")
        );
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let mut p = PromBuf::new();
        p.sample("counter", "x_total", &[("class", "2xx")], 12);
        p.sample("counter", "x_total", &[("class", "5xx")], 1);
        p.sample("gauge", "g", &[], 3.5);
        p.histogram("lat_us", &[50, 100, u64::MAX], &[2, 3, 1], 456);
        let text = p.into_string();
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total{class=\"2xx\"} 12\n"));
        assert_eq!(
            text.matches("# TYPE x_total").count(),
            1,
            "one run, one TYPE"
        );
        assert!(text.contains("g 3.5\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{le=\"50\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 5\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("lat_us_sum 456\n"));
        assert!(text.contains("lat_us_count 6\n"));
    }
}
