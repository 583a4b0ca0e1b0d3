//! Service-level counters and a lock-free latency histogram, surfaced by
//! `GET /v1/stats`.

use crate::dedup::DedupStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tenet_core::json::Json;
use tenet_core::CounterHandle;

/// Upper bucket bounds of the latency histogram, in microseconds. The
/// final bucket is open-ended.
pub const LATENCY_BUCKETS_US: [u64; 14] = [
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    1_000_000,
    u64::MAX,
];

/// Atomic counters shared by the accept loop, the workers, and the stats
/// endpoint. All counters are monotonic except `in_flight`.
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests fully parsed and routed.
    pub requests: AtomicU64,
    /// Requests currently being processed.
    pub in_flight: AtomicU64,
    /// Requests completed (any status).
    pub completed: AtomicU64,
    /// Responses with a 2xx status.
    pub status_2xx: AtomicU64,
    /// Responses with a 4xx status.
    pub status_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub status_5xx: AtomicU64,
    /// Connections shed with 503 because the worker backlog was full.
    pub rejected_busy: AtomicU64,
    /// Requests answered `504` because their deadline expired before
    /// any useful work completed.
    pub deadline_exceeded: AtomicU64,
    /// Requests answered with an explicitly degraded (truncated) result
    /// because the deadline expired mid-computation.
    pub degraded_responses: AtomicU64,
    /// Per-bucket request-latency counts (bounds in
    /// [`LATENCY_BUCKETS_US`]).
    pub latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len()],
    /// Exact cumulative request latency in microseconds. The histogram
    /// alone only supports bucket-upper-bound estimates; the exact sum
    /// lets `/v1/stats` report the true mean and how far off the
    /// bucketed estimate runs.
    pub latency_sum_us: AtomicU64,
    /// ISL-cache lookups attributable to this server's workers — a
    /// [`CounterHandle`] attached on every worker thread, so the numbers
    /// stay exact even when other code in the process uses the cache.
    pub isl_handle: CounterHandle,
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats {
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            status_2xx: AtomicU64::new(0),
            status_4xx: AtomicU64::new(0),
            status_5xx: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            degraded_responses: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum_us: AtomicU64::new(0),
            isl_handle: CounterHandle::new(),
        }
    }
}

impl ServerStats {
    /// Records one completed request with the given status and latency.
    pub fn record(&self, status: u16, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len() - 1);
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) from the histogram,
    /// reported as the upper bound of the containing bucket (µs).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return LATENCY_BUCKETS_US[i];
            }
        }
        *LATENCY_BUCKETS_US.last().expect("non-empty buckets")
    }

    /// The exact mean latency in microseconds (0 with no requests).
    pub fn latency_mean_us(&self) -> f64 {
        let n = self.completed.load(Ordering::Relaxed);
        if n == 0 {
            return 0.0;
        }
        self.latency_sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// The mean a histogram-only consumer would estimate: each request
    /// billed at its bucket's upper bound (the open bucket at the last
    /// finite bound). Always ≥ the exact mean.
    pub fn latency_est_mean_us(&self) -> f64 {
        let counts: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        est_mean_from_buckets(&LATENCY_BUCKETS_US, &counts)
    }

    /// Relative over-report of the bucketed mean estimate:
    /// `(est_mean - mean) / mean` (0 with no requests).
    pub fn latency_est_error(&self) -> f64 {
        let exact = self.latency_mean_us();
        if exact == 0.0 {
            return 0.0;
        }
        (self.latency_est_mean_us() - exact) / exact
    }

    /// The full stats document served by `GET /v1/stats`.
    pub fn to_json(&self, dedup: DedupStats, uptime: Duration, backlog: usize) -> Json {
        let global = tenet_core::isl_cache::stats();
        let fast = tenet_core::fast_path_stats();
        let histogram = Json::Arr(
            LATENCY_BUCKETS_US
                .iter()
                .zip(self.latency_buckets.iter())
                .map(|(&bound, count)| {
                    Json::obj([
                        (
                            "le_us",
                            if bound == u64::MAX {
                                Json::Null
                            } else {
                                Json::from(bound)
                            },
                        ),
                        ("count", Json::from(count.load(Ordering::Relaxed))),
                    ])
                })
                .collect(),
        );
        let dedup_total = dedup.hits + dedup.waits + dedup.misses;
        Json::obj([
            (
                "uptime_ms",
                Json::from(uptime.as_millis().min(u64::MAX as u128) as u64),
            ),
            (
                "requests",
                Json::obj([
                    (
                        "accepted_connections",
                        Json::from(self.connections.load(Ordering::Relaxed)),
                    ),
                    ("total", Json::from(self.requests.load(Ordering::Relaxed))),
                    (
                        "in_flight",
                        Json::from(self.in_flight.load(Ordering::Relaxed)),
                    ),
                    (
                        "completed",
                        Json::from(self.completed.load(Ordering::Relaxed)),
                    ),
                    (
                        "status_2xx",
                        Json::from(self.status_2xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "status_4xx",
                        Json::from(self.status_4xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "status_5xx",
                        Json::from(self.status_5xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "rejected_busy",
                        Json::from(self.rejected_busy.load(Ordering::Relaxed)),
                    ),
                    (
                        "deadline_exceeded",
                        Json::from(self.deadline_exceeded.load(Ordering::Relaxed)),
                    ),
                    (
                        "degraded_responses",
                        Json::from(self.degraded_responses.load(Ordering::Relaxed)),
                    ),
                    ("backlog", Json::from(backlog)),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("p50_us", Json::from(self.latency_quantile_us(0.50))),
                    ("p99_us", Json::from(self.latency_quantile_us(0.99))),
                    (
                        "sum_us",
                        Json::from(self.latency_sum_us.load(Ordering::Relaxed)),
                    ),
                    ("mean_us", Json::from(self.latency_mean_us())),
                    ("est_mean_us", Json::from(self.latency_est_mean_us())),
                    ("est_error", Json::from(self.latency_est_error())),
                    ("histogram", histogram),
                ]),
            ),
            (
                "dedup",
                Json::obj([
                    ("hits", Json::from(dedup.hits)),
                    ("inflight_waits", Json::from(dedup.waits)),
                    ("misses", Json::from(dedup.misses)),
                    ("warmed", Json::from(dedup.warmed)),
                    ("entries", Json::from(dedup.entries)),
                    (
                        "hit_rate",
                        Json::from(if dedup_total == 0 {
                            0.0
                        } else {
                            (dedup.hits + dedup.waits) as f64 / dedup_total as f64
                        }),
                    ),
                ]),
            ),
            (
                "isl_cache",
                Json::obj([
                    (
                        "server",
                        Json::obj([
                            ("hits", Json::from(self.isl_handle.hits())),
                            ("misses", Json::from(self.isl_handle.misses())),
                            ("hit_rate", Json::from(self.isl_handle.hit_rate())),
                            ("cold_us", Json::from(self.isl_handle.cold_ns() / 1_000)),
                            ("fast_paths", Json::from(self.isl_handle.fast_paths())),
                        ]),
                    ),
                    (
                        "process",
                        Json::obj([
                            ("hits", Json::from(global.hits)),
                            ("misses", Json::from(global.misses)),
                            ("hit_rate", Json::from(global.hit_rate())),
                            ("entries", Json::from(global.entries)),
                            ("interned", Json::from(global.interned)),
                            (
                                "fast_paths",
                                Json::obj([
                                    ("window", Json::from(fast.window_counts)),
                                    ("box", Json::from(fast.box_counts)),
                                    ("slab", Json::from(fast.slab_counts)),
                                    ("multi_slab", Json::from(fast.multi_slab_counts)),
                                    ("pair_chain", Json::from(fast.pair_chain_counts)),
                                    ("coupled_slab", Json::from(fast.coupled_slab_counts)),
                                ]),
                            ),
                        ]),
                    ),
                ]),
            ),
        ])
    }
}

/// The mean a histogram-only consumer would estimate from per-bucket
/// counts: each sample billed at its bucket's upper bound, the open
/// bucket at the last finite bound. Shared with the router merge path.
pub fn est_mean_from_buckets(bounds: &[u64], counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let last_finite = bounds
        .iter()
        .rev()
        .find(|&&b| b != u64::MAX)
        .copied()
        .unwrap_or(0);
    let weighted: f64 = bounds
        .iter()
        .zip(counts)
        .map(|(&b, &c)| {
            let bill = if b == u64::MAX { last_finite } else { b };
            bill as f64 * c as f64
        })
        .sum();
    weighted / total as f64
}

/// Renders a worker-shaped stats document (the `/v1/stats` JSON — either
/// one worker's own, or the router's merged view of its shards) as
/// Prometheus text. `tenet_worker_*` families are additive across
/// shards, so the router's merged exposition equals the per-shard sum;
/// `tenet_process_*` families describe one process and are emitted only
/// when the document carries the per-process section (the merged
/// document does not).
pub fn prometheus_from_worker_doc(doc: &Json) -> String {
    use tenet_core::obs::PromBuf;
    let u = |path: &[&str]| -> u64 {
        let mut node = doc;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return 0,
            }
        }
        node.as_u64().unwrap_or(0)
    };
    let f = |path: &[&str]| -> f64 {
        let mut node = doc;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return 0.0,
            }
        }
        node.as_f64().unwrap_or(0.0)
    };
    let mut p = PromBuf::new();
    p.counter(
        "tenet_worker_connections_total",
        &[],
        u(&["requests", "accepted_connections"]),
    );
    p.counter(
        "tenet_worker_requests_total",
        &[],
        u(&["requests", "total"]),
    );
    p.counter(
        "tenet_worker_completed_total",
        &[],
        u(&["requests", "completed"]),
    );
    p.counter_vec(
        "tenet_worker_responses_total",
        "class",
        &[
            ("2xx", u(&["requests", "status_2xx"])),
            ("4xx", u(&["requests", "status_4xx"])),
            ("5xx", u(&["requests", "status_5xx"])),
        ],
    );
    p.counter(
        "tenet_worker_rejected_busy_total",
        &[],
        u(&["requests", "rejected_busy"]),
    );
    p.counter(
        "tenet_worker_deadline_exceeded_total",
        &[],
        u(&["requests", "deadline_exceeded"]),
    );
    p.counter(
        "tenet_worker_degraded_responses_total",
        &[],
        u(&["requests", "degraded_responses"]),
    );
    p.gauge(
        "tenet_worker_in_flight",
        &[],
        u(&["requests", "in_flight"]) as f64,
    );
    p.gauge(
        "tenet_worker_backlog",
        &[],
        u(&["requests", "backlog"]) as f64,
    );
    p.counter_vec(
        "tenet_worker_dedup_total",
        "outcome",
        &[
            ("hit", u(&["dedup", "hits"])),
            ("inflight_wait", u(&["dedup", "inflight_waits"])),
            ("miss", u(&["dedup", "misses"])),
        ],
    );
    p.counter(
        "tenet_worker_dedup_warmed_total",
        &[],
        u(&["dedup", "warmed"]),
    );
    p.gauge(
        "tenet_worker_dedup_entries",
        &[],
        u(&["dedup", "entries"]) as f64,
    );
    p.counter(
        "tenet_worker_isl_hits_total",
        &[],
        u(&["isl_cache", "server", "hits"]),
    );
    p.counter(
        "tenet_worker_isl_misses_total",
        &[],
        u(&["isl_cache", "server", "misses"]),
    );
    p.counter(
        "tenet_worker_isl_cold_us_total",
        &[],
        u(&["isl_cache", "server", "cold_us"]),
    );
    p.counter(
        "tenet_worker_isl_fast_paths_total",
        &[],
        u(&["isl_cache", "server", "fast_paths"]),
    );
    // The latency histogram, rebucketed from the document so the same
    // renderer serves both one worker and the router's merged view.
    let mut bounds = Vec::new();
    let mut counts = Vec::new();
    if let Some(rows) = doc
        .get("latency")
        .and_then(|l| l.get("histogram"))
        .and_then(Json::as_arr)
    {
        for row in rows {
            bounds.push(row.get("le_us").and_then(Json::as_u64).unwrap_or(u64::MAX));
            counts.push(row.get("count").and_then(Json::as_u64).unwrap_or(0));
        }
    }
    p.histogram(
        "tenet_worker_request_latency_us",
        &bounds,
        &counts,
        u(&["latency", "sum_us"]),
    );
    p.gauge(
        "tenet_worker_latency_mean_us",
        &[],
        f(&["latency", "mean_us"]),
    );
    p.gauge(
        "tenet_worker_latency_est_error",
        &[],
        f(&["latency", "est_error"]),
    );
    // Per-process families: only meaningful for a single worker process;
    // the merged document carries no `isl_cache.process` section, so the
    // router exposition naturally omits them.
    if let Some(process) = doc.get("isl_cache").and_then(|c| c.get("process")) {
        p.gauge("tenet_process_uptime_ms", &[], u(&["uptime_ms"]) as f64);
        let pu = |key: &str| process.get(key).and_then(Json::as_u64).unwrap_or(0);
        p.counter("tenet_process_isl_hits_total", &[], pu("hits"));
        p.counter("tenet_process_isl_misses_total", &[], pu("misses"));
        p.gauge("tenet_process_isl_entries", &[], pu("entries") as f64);
        p.gauge("tenet_process_isl_interned", &[], pu("interned") as f64);
        let fp = |key: &str| {
            process
                .get("fast_paths")
                .and_then(|f| f.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        p.counter_vec(
            "tenet_process_isl_fast_paths_total",
            "kind",
            &[
                ("window", fp("window")),
                ("box", fp("box")),
                ("slab", fp("slab")),
                ("multi_slab", fp("multi_slab")),
                ("pair_chain", fp("pair_chain")),
                ("coupled_slab", fp("coupled_slab")),
            ],
        );
    }
    p.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `CountStats` dispatch kind, as `/v1/stats` and `/metrics`
    /// name it.
    const FAST_PATH_KINDS: [&str; 6] = [
        "window",
        "box",
        "slab",
        "multi_slab",
        "pair_chain",
        "coupled_slab",
    ];

    #[test]
    fn quantiles_come_from_the_right_bucket() {
        let s = ServerStats::default();
        // 99 fast requests (≤50µs) and one slow (≈30ms).
        for _ in 0..99 {
            s.record(200, Duration::from_micros(10));
        }
        s.record(200, Duration::from_millis(30));
        assert_eq!(s.latency_quantile_us(0.50), 50);
        assert_eq!(s.latency_quantile_us(0.99), 50);
        assert_eq!(s.latency_quantile_us(1.0), 50_000);
        assert_eq!(s.status_2xx.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn exact_mean_beats_the_bucket_estimate() {
        let s = ServerStats::default();
        // Two requests at 60µs land in the (50, 100] bucket: the bucket
        // estimate bills them at 100µs each, the exact sum knows better.
        s.record(200, Duration::from_micros(60));
        s.record(200, Duration::from_micros(60));
        assert_eq!(s.latency_sum_us.load(Ordering::Relaxed), 120);
        assert_eq!(s.latency_mean_us(), 60.0);
        assert_eq!(s.latency_est_mean_us(), 100.0);
        let err = s.latency_est_error();
        assert!((err - 2.0 / 3.0).abs() < 1e-9, "over-report {err}");
        // The open bucket bills at the last finite bound, not infinity.
        assert_eq!(est_mean_from_buckets(&[10, u64::MAX], &[0, 2]), 10.0);
        assert_eq!(est_mean_from_buckets(&[10, u64::MAX], &[0, 0]), 0.0);
    }

    #[test]
    fn prometheus_exposition_renders_worker_and_process_families() {
        let s = ServerStats::default();
        s.record(200, Duration::from_micros(60));
        s.record(500, Duration::from_micros(700));
        let doc = s.to_json(DedupStats::default(), Duration::from_secs(2), 3);
        let text = prometheus_from_worker_doc(&doc);
        assert!(text.contains("tenet_worker_completed_total 2\n"), "{text}");
        assert!(
            text.contains("tenet_worker_responses_total{class=\"5xx\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("tenet_worker_backlog 3\n"), "{text}");
        assert!(
            text.contains("tenet_worker_request_latency_us_bucket{le=\"100\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tenet_worker_request_latency_us_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("tenet_worker_request_latency_us_sum 760\n"),
            "{text}"
        );
        assert!(
            text.contains("tenet_worker_request_latency_us_count 2\n"),
            "{text}"
        );
        // The per-process section rode along (this doc has one)...
        assert!(text.contains("tenet_process_isl_hits_total"), "{text}");
        for kind in FAST_PATH_KINDS {
            assert!(
                text.contains(&format!(
                    "tenet_process_isl_fast_paths_total{{kind=\"{kind}\"}}"
                )),
                "{kind}: {text}"
            );
        }
        // ...but a merged document without it emits no process families.
        let mut stripped = doc.to_string();
        stripped = stripped.replace("\"process\"", "\"process_elsewhere\"");
        let merged = Json::parse(&stripped).unwrap();
        assert!(!prometheus_from_worker_doc(&merged).contains("tenet_process_"));
    }

    #[test]
    fn stats_json_has_the_documented_shape() {
        let s = ServerStats::default();
        s.record(200, Duration::from_micros(120));
        s.record(400, Duration::from_micros(80));
        let doc = s.to_json(DedupStats::default(), Duration::from_secs(1), 0);
        let text = doc.to_string();
        let v = Json::parse(&text).unwrap();
        let reqs = v.get("requests").unwrap();
        assert_eq!(reqs.get("completed").and_then(Json::as_u64), Some(2));
        assert_eq!(reqs.get("status_4xx").and_then(Json::as_u64), Some(1));
        assert!(v.get("latency").and_then(|l| l.get("histogram")).is_some());
        assert!(v.get("isl_cache").and_then(|c| c.get("server")).is_some());
        let fast = v
            .get("isl_cache")
            .and_then(|c| c.get("process"))
            .and_then(|p| p.get("fast_paths"))
            .expect("process fast-path counts");
        for kind in FAST_PATH_KINDS {
            assert!(fast.get(kind).and_then(Json::as_u64).is_some(), "{kind}");
        }
    }
}
