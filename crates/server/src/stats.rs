//! Every value a worker exports, declared once, and the renderers that
//! walk those declarations at both tiers.
//!
//! [`ServerStats`] holds a worker's live atomic counters, and a
//! [`WorkerMetrics`] is a typed snapshot of them, or their sum over the
//! shards of a cluster. The `WORKER` table names each exported value
//! once: its `/v1/stats` JSON path, where its number comes from, and its
//! [`Prom`] form. Four walks of that one table serve both tiers:
//!
//! * [`WorkerMetrics::to_json`] renders `GET /v1/stats`;
//! * [`WorkerMetrics::prometheus`] renders `GET /metrics`;
//! * [`WorkerMetrics::decode`] reads a shard's `/v1/stats` document back
//!   strictly: a missing value fails the decode instead of reading 0;
//! * [`WorkerMetrics::merge`] sums shards into the router's cluster view.
//!
//! Derived values (hit rates, latency quantiles and means) are computed
//! from the raw counters on every render, so a merged view recomputes
//! them from the sums instead of averaging per-shard rates. The
//! per-process section and the `tenet_process_*` families describe one
//! process, which in-process workers share, so the merge drops them. The
//! router declares its own values with the same [`Prom`] forms and
//! renders them with [`json_tree`] and [`Prom::write`].

use crate::dedup::DedupStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tenet_core::json::Json;
use tenet_core::obs::PromBuf;
use tenet_core::{isl_cache, CacheStats, CountStats, CounterHandle};

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
#[derive(Default)]
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

    /// A typed snapshot of these counters plus the values the worker
    /// core keeps elsewhere (dedup counters, uptime, backlog), with the
    /// per-process section read from the process-wide ISL memo.
    pub fn snapshot(&self, dedup: DedupStats, uptime: Duration, backlog: usize) -> WorkerMetrics {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WorkerMetrics {
            uptime_ms: uptime.as_millis().min(u64::MAX as u128) as u64,
            connections: load(&self.connections),
            requests: load(&self.requests),
            in_flight: load(&self.in_flight),
            completed: load(&self.completed),
            status_2xx: load(&self.status_2xx),
            status_4xx: load(&self.status_4xx),
            status_5xx: load(&self.status_5xx),
            rejected_busy: load(&self.rejected_busy),
            deadline_exceeded: load(&self.deadline_exceeded),
            degraded_responses: load(&self.degraded_responses),
            backlog: backlog as u64,
            latency_buckets: self.latency_buckets.each_ref().map(load),
            latency_sum_us: load(&self.latency_sum_us),
            dedup,
            isl_hits: self.isl_handle.hits(),
            isl_misses: self.isl_handle.misses(),
            isl_cold_us: self.isl_handle.cold_ns() / 1_000,
            isl_fast_paths: self.isl_handle.fast_paths(),
            process: Some(ProcessMetrics {
                cache: isl_cache::stats(),
                fast: tenet_core::fast_path_stats(),
            }),
        }
    }
}

/// A typed snapshot of one worker's raw counters, or of their sum over
/// the shards of a cluster ([`WorkerMetrics::merge`]). Everything
/// `/v1/stats` and `/metrics` show is one of these fields or is derived
/// from them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerMetrics {
    /// Milliseconds since the worker core started.
    pub uptime_ms: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Requests fully parsed and routed.
    pub requests: u64,
    /// Requests being processed at snapshot time.
    pub in_flight: u64,
    /// Requests completed (any status).
    pub completed: u64,
    /// Responses with a 2xx status.
    pub status_2xx: u64,
    /// Responses with a 4xx status.
    pub status_4xx: u64,
    /// Responses with a 5xx status.
    pub status_5xx: u64,
    /// Connections shed with 503 because the backlog was full.
    pub rejected_busy: u64,
    /// Requests answered `504` past their deadline.
    pub deadline_exceeded: u64,
    /// Requests answered with a degraded (truncated) result.
    pub degraded_responses: u64,
    /// Connections waiting for a worker thread at snapshot time.
    pub backlog: u64,
    /// Per-bucket request-latency counts (bounds in
    /// [`LATENCY_BUCKETS_US`]).
    pub latency_buckets: [u64; LATENCY_BUCKETS_US.len()],
    /// Exact cumulative request latency in microseconds.
    pub latency_sum_us: u64,
    /// The response-dedup layer's counters.
    pub dedup: DedupStats,
    /// ISL memo hits attributed to this server's workers.
    pub isl_hits: u64,
    /// ISL memo misses attributed to this server's workers.
    pub isl_misses: u64,
    /// Microseconds spent in cold ISL computations on those workers.
    pub isl_cold_us: u64,
    /// Closed-form counting dispatches on those workers.
    pub isl_fast_paths: u64,
    /// The per-process section: a worker's own snapshot has it, a
    /// decoded or merged one does not.
    pub process: Option<ProcessMetrics>,
}

/// Process-wide ISL counters, shared by every worker core in the
/// process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcessMetrics {
    /// The process-wide memo counters.
    pub cache: CacheStats,
    /// The process-wide closed-form dispatch counts.
    pub fast: CountStats,
}

/// How a declared value appears in the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prom {
    /// Not exported there: derived values and configuration.
    JsonOnly,
    /// An unlabelled counter.
    Counter(&'static str),
    /// An unlabelled gauge.
    Gauge(&'static str),
    /// One sample of a labelled counter family: family, label key, label
    /// value. A family's samples are declared next to each other.
    Labelled(&'static str, &'static str, &'static str),
    /// The latency histogram.
    Histogram(&'static str),
}

impl Prom {
    /// The family name, unless the value is JSON-only.
    fn family(self) -> Option<&'static str> {
        match self {
            Prom::JsonOnly => None,
            Prom::Counter(f) | Prom::Gauge(f) | Prom::Labelled(f, ..) | Prom::Histogram(f) => {
                Some(f)
            }
        }
    }

    /// Writes `value` as this form's sample. A JSON-only value writes
    /// nothing, and so does `Histogram`: [`WorkerMetrics::prometheus`]
    /// writes its samples from the typed buckets.
    pub fn write(self, p: &mut PromBuf, value: &Json) {
        match self {
            Prom::Counter(name) => p.sample("counter", name, &[], value),
            Prom::Gauge(name) => p.sample("gauge", name, &[], value),
            Prom::Labelled(name, key, label) => p.sample("counter", name, &[(key, label)], value),
            Prom::JsonOnly | Prom::Histogram(_) => {}
        }
    }
}

/// Whether a family describes one process (`tenet_process_*`). Only a
/// snapshot carrying the per-process section writes these, so a router's
/// merged exposition has none.
pub fn per_process(family: &str) -> bool {
    family.starts_with("tenet_process_")
}

/// Where a declared worker value's number comes from.
#[derive(Clone, Copy)]
enum Source {
    /// A raw counter or gauge, decoded from shards and summed by the
    /// merge.
    Sum(fn(&mut WorkerMetrics) -> &mut u64),
    /// A raw value, decoded from shards; the merge keeps the maximum.
    Max(fn(&mut WorkerMetrics) -> &mut u64),
    /// Computed from the raw values; never decoded.
    Derived(fn(&WorkerMetrics) -> Json),
    /// A value of the per-process section; never decoded or merged.
    Process(fn(&ProcessMetrics) -> Json),
    /// The latency histogram rows, one per [`LATENCY_BUCKETS_US`] bound.
    Buckets,
}

/// One exported worker value: its dotted `/v1/stats` path, its source,
/// and its Prometheus form.
type Decl = (&'static str, Source, Prom);

/// Every value a worker exports, in `/v1/stats` order. `latency.sum_us`
/// is JSON-only here because the histogram writes it as its `_sum`.
#[rustfmt::skip]
const WORKER: &[Decl] = {
    use Prom::*;
    use Source::*;
    &[
        ("uptime_ms",                                 Max(|m| &mut m.uptime_ms),                       Gauge("tenet_process_uptime_ms")),
        ("requests.accepted_connections",             Sum(|m| &mut m.connections),                     Counter("tenet_worker_connections_total")),
        ("requests.total",                            Sum(|m| &mut m.requests),                        Counter("tenet_worker_requests_total")),
        ("requests.in_flight",                        Sum(|m| &mut m.in_flight),                       Gauge("tenet_worker_in_flight")),
        ("requests.completed",                        Sum(|m| &mut m.completed),                       Counter("tenet_worker_completed_total")),
        ("requests.status_2xx",                       Sum(|m| &mut m.status_2xx),                      Labelled("tenet_worker_responses_total", "class", "2xx")),
        ("requests.status_4xx",                       Sum(|m| &mut m.status_4xx),                      Labelled("tenet_worker_responses_total", "class", "4xx")),
        ("requests.status_5xx",                       Sum(|m| &mut m.status_5xx),                      Labelled("tenet_worker_responses_total", "class", "5xx")),
        ("requests.rejected_busy",                    Sum(|m| &mut m.rejected_busy),                   Counter("tenet_worker_rejected_busy_total")),
        ("requests.deadline_exceeded",                Sum(|m| &mut m.deadline_exceeded),               Counter("tenet_worker_deadline_exceeded_total")),
        ("requests.degraded_responses",               Sum(|m| &mut m.degraded_responses),              Counter("tenet_worker_degraded_responses_total")),
        ("requests.backlog",                          Sum(|m| &mut m.backlog),                         Gauge("tenet_worker_backlog")),
        ("latency.p50_us",                            Derived(|m| m.latency_quantile_us(0.50).into()), JsonOnly),
        ("latency.p99_us",                            Derived(|m| m.latency_quantile_us(0.99).into()), JsonOnly),
        ("latency.sum_us",                            Sum(|m| &mut m.latency_sum_us),                  JsonOnly),
        ("latency.mean_us",                           Derived(|m| m.latency_mean_us().into()),         Gauge("tenet_worker_latency_mean_us")),
        ("latency.est_mean_us",                       Derived(|m| m.latency_est_mean_us().into()),     JsonOnly),
        ("latency.est_error",                         Derived(|m| m.latency_est_error().into()),       Gauge("tenet_worker_latency_est_error")),
        ("latency.histogram",                         Buckets,                                         Histogram("tenet_worker_request_latency_us")),
        ("dedup.hits",                                Sum(|m| &mut m.dedup.hits),                      Labelled("tenet_worker_dedup_total", "outcome", "hit")),
        ("dedup.inflight_waits",                      Sum(|m| &mut m.dedup.waits),                     Labelled("tenet_worker_dedup_total", "outcome", "inflight_wait")),
        ("dedup.misses",                              Sum(|m| &mut m.dedup.misses),                    Labelled("tenet_worker_dedup_total", "outcome", "miss")),
        ("dedup.warmed",                              Sum(|m| &mut m.dedup.warmed),                    Counter("tenet_worker_dedup_warmed_total")),
        ("dedup.entries",                             Sum(|m| &mut m.dedup.entries),                   Gauge("tenet_worker_dedup_entries")),
        ("dedup.hit_rate",                            Derived(|m| m.dedup_hit_rate().into()),          JsonOnly),
        ("isl_cache.server.hits",                     Sum(|m| &mut m.isl_hits),                        Counter("tenet_worker_isl_hits_total")),
        ("isl_cache.server.misses",                   Sum(|m| &mut m.isl_misses),                      Counter("tenet_worker_isl_misses_total")),
        ("isl_cache.server.hit_rate",                 Derived(|m| m.isl_hit_rate().into()),            JsonOnly),
        ("isl_cache.server.cold_us",                  Sum(|m| &mut m.isl_cold_us),                     Counter("tenet_worker_isl_cold_us_total")),
        ("isl_cache.server.fast_paths",               Sum(|m| &mut m.isl_fast_paths),                  Counter("tenet_worker_isl_fast_paths_total")),
        ("isl_cache.process.hits",                    Process(|p| p.cache.hits.into()),                Counter("tenet_process_isl_hits_total")),
        ("isl_cache.process.misses",                  Process(|p| p.cache.misses.into()),              Counter("tenet_process_isl_misses_total")),
        ("isl_cache.process.hit_rate",                Process(|p| p.cache.hit_rate().into()),          JsonOnly),
        ("isl_cache.process.entries",                 Process(|p| p.cache.entries.into()),             Gauge("tenet_process_isl_entries")),
        ("isl_cache.process.interned",                Process(|p| p.cache.interned.into()),            Gauge("tenet_process_isl_interned")),
        ("isl_cache.process.fast_paths.window",       Process(|p| p.fast.window_counts.into()),        Labelled("tenet_process_isl_fast_paths_total", "kind", "window")),
        ("isl_cache.process.fast_paths.box",          Process(|p| p.fast.box_counts.into()),           Labelled("tenet_process_isl_fast_paths_total", "kind", "box")),
        ("isl_cache.process.fast_paths.slab",         Process(|p| p.fast.slab_counts.into()),          Labelled("tenet_process_isl_fast_paths_total", "kind", "slab")),
        ("isl_cache.process.fast_paths.multi_slab",   Process(|p| p.fast.multi_slab_counts.into()),    Labelled("tenet_process_isl_fast_paths_total", "kind", "multi_slab")),
        ("isl_cache.process.fast_paths.pair_chain",   Process(|p| p.fast.pair_chain_counts.into()),    Labelled("tenet_process_isl_fast_paths_total", "kind", "pair_chain")),
        ("isl_cache.process.fast_paths.coupled_slab", Process(|p| p.fast.coupled_slab_counts.into()),  Labelled("tenet_process_isl_fast_paths_total", "kind", "coupled_slab")),
    ]
};

/// The Prometheus families the worker tier declares, in exposition
/// order.
pub fn worker_families() -> Vec<&'static str> {
    let mut families: Vec<_> = WORKER.iter().filter_map(|d| d.2.family()).collect();
    families.dedup();
    families
}

impl WorkerMetrics {
    /// Every declared value this snapshot carries, read; per-process
    /// values only when the section is present.
    fn values(&self) -> impl Iterator<Item = (&'static Decl, Json)> + '_ {
        let mut raw = *self;
        WORKER.iter().filter_map(move |d| {
            let value = match d.1 {
                Source::Sum(field) | Source::Max(field) => Json::from(*field(&mut raw)),
                Source::Derived(read) => read(self),
                Source::Process(read) => read(self.process.as_ref()?),
                Source::Buckets => Json::Arr(
                    LATENCY_BUCKETS_US
                        .iter()
                        .zip(self.latency_buckets)
                        .map(|(&bound, count)| {
                            Json::obj([("le_us", le_us(bound)), ("count", count.into())])
                        })
                        .collect(),
                ),
            };
            Some((d, value))
        })
    }

    /// The `/v1/stats` document of this snapshot.
    pub fn to_json(&self) -> Json {
        json_tree(self.values().map(|(d, value)| (d.0, value)))
    }

    /// The `/metrics` exposition of this snapshot: the `tenet_worker_*`
    /// families, plus the [per-process](per_process) ones when the
    /// snapshot carries that section.
    pub fn prometheus(&self) -> PromBuf {
        let mut p = PromBuf::new();
        for ((_, _, prom), value) in self.values() {
            match *prom {
                Prom::Histogram(name) => p.histogram(
                    name,
                    &LATENCY_BUCKETS_US,
                    &self.latency_buckets,
                    self.latency_sum_us,
                ),
                prom if self.process.is_none() && prom.family().is_some_and(per_process) => {}
                prom => prom.write(&mut p, &value),
            }
        }
        p
    }

    /// Reads a worker's `/v1/stats` document back through the declared
    /// paths. Strict: a document that lacks any declared raw value, or
    /// whose histogram rows do not match [`LATENCY_BUCKETS_US`], decodes
    /// to `None` rather than to silent zeros. The per-process section is
    /// not read.
    pub fn decode(doc: &Json) -> Option<WorkerMetrics> {
        let mut m = WorkerMetrics::default();
        for (path, source, _) in WORKER {
            let at = || path.split('.').try_fold(doc, |node, key| node.get(key));
            match *source {
                Source::Sum(field) | Source::Max(field) => *field(&mut m) = at()?.as_u64()?,
                Source::Buckets => {
                    let rows = at()?.as_arr()?;
                    if rows.len() != LATENCY_BUCKETS_US.len() {
                        return None;
                    }
                    for ((count, &bound), row) in m
                        .latency_buckets
                        .iter_mut()
                        .zip(&LATENCY_BUCKETS_US)
                        .zip(rows)
                    {
                        if row.get("le_us")? != &le_us(bound) {
                            return None;
                        }
                        *count = row.get("count")?.as_u64()?;
                    }
                }
                Source::Derived(_) | Source::Process(_) => {}
            }
        }
        Some(m)
    }

    /// The cluster view of several workers: every counter, gauge and
    /// histogram bucket summed, uptime the maximum, and no per-process
    /// section. Derived values then follow from the sums: the p99 of the
    /// summed histogram, not an average of per-shard p99s.
    pub fn merge<'a>(shards: impl IntoIterator<Item = &'a WorkerMetrics>) -> WorkerMetrics {
        let mut total = WorkerMetrics::default();
        for shard in shards {
            let mut shard = *shard;
            for (_, source, _) in WORKER {
                match *source {
                    Source::Sum(field) => *field(&mut total) += *field(&mut shard),
                    Source::Max(field) => {
                        let max = field(&mut total);
                        *max = (*max).max(*field(&mut shard));
                    }
                    Source::Buckets => {
                        for (sum, count) in
                            total.latency_buckets.iter_mut().zip(shard.latency_buckets)
                        {
                            *sum += count;
                        }
                    }
                    Source::Derived(_) | Source::Process(_) => {}
                }
            }
        }
        total
    }

    /// Requests in the latency histogram.
    fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) of the latency histogram, reported
    /// as the upper bound of the containing bucket in µs: `u64::MAX` in
    /// the open bucket, 0 with no requests.
    fn latency_quantile_us(&self, q: f64) -> u64 {
        let total = self.latency_count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (&bound, count) in LATENCY_BUCKETS_US.iter().zip(self.latency_buckets) {
            seen += count;
            if seen >= target {
                return bound;
            }
        }
        u64::MAX
    }

    /// The exact mean latency in µs: the latency sum over the requests
    /// in the histogram (0 with none).
    fn latency_mean_us(&self) -> f64 {
        ratio(self.latency_sum_us, self.latency_count())
    }

    /// The mean a histogram-only consumer would estimate: each request
    /// billed at its bucket's upper bound, and the open bucket at the
    /// last finite bound (1 s). A request slower than that is billed
    /// low, so with any in the open bucket the estimate can fall below
    /// the exact mean; without, it never does.
    fn latency_est_mean_us(&self) -> f64 {
        let total = self.latency_count();
        if total == 0 {
            return 0.0;
        }
        let last_finite = LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 2];
        let billed: f64 = LATENCY_BUCKETS_US
            .iter()
            .zip(self.latency_buckets)
            .map(|(&bound, count)| bound.min(last_finite) as f64 * count as f64)
            .sum();
        billed / total as f64
    }

    /// Relative error of the bucket estimate, `(est_mean - mean) / mean`
    /// (0 with no requests): positive when buckets over-bill, negative
    /// when the open bucket under-bills.
    fn latency_est_error(&self) -> f64 {
        let exact = self.latency_mean_us();
        if exact == 0.0 {
            return 0.0;
        }
        (self.latency_est_mean_us() - exact) / exact
    }

    /// ISL memo hits over lookups on this server's workers.
    fn isl_hit_rate(&self) -> f64 {
        ratio(self.isl_hits, self.isl_hits + self.isl_misses)
    }

    /// Requests answered without computing (cache hits and in-flight
    /// waits) over all dedup lookups.
    fn dedup_hit_rate(&self) -> f64 {
        let d = &self.dedup;
        ratio(d.hits + d.waits, d.hits + d.waits + d.misses)
    }
}

/// `part / total`, or 0 when `total` is 0.
fn ratio(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// A histogram row's `le_us`: the bound, or `null` for the open bucket.
fn le_us(bound: u64) -> Json {
    if bound == u64::MAX {
        Json::Null
    } else {
        bound.into()
    }
}

/// Builds a stats object from `(dotted path, value)` leaves. Each
/// object's keys keep the order in which their first leaf arrives.
pub fn json_tree(leaves: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    fn insert(fields: &mut Vec<(String, Json)>, path: &str, value: Json) {
        let Some((key, rest)) = path.split_once('.') else {
            fields.push((path.to_string(), value));
            return;
        };
        let i = match fields.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                fields.push((key.to_string(), Json::Obj(Vec::new())));
                fields.len() - 1
            }
        };
        if let Json::Obj(children) = &mut fields[i].1 {
            insert(children, rest, value);
        }
    }
    let mut fields = Vec::new();
    for (path, value) in leaves {
        insert(&mut fields, path, value);
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
        let m = s.snapshot(DedupStats::default(), Duration::ZERO, 0);
        assert_eq!(m.latency_quantile_us(0.50), 50);
        assert_eq!(m.latency_quantile_us(0.99), 50);
        assert_eq!(m.latency_quantile_us(1.0), 50_000);
        assert_eq!(m.status_2xx, 100);
    }

    #[test]
    fn exact_mean_beats_the_bucket_estimate() {
        let s = ServerStats::default();
        // Two requests at 60µs land in the (50, 100] bucket: the bucket
        // estimate bills them at 100µs each, the exact sum knows better.
        s.record(200, Duration::from_micros(60));
        s.record(200, Duration::from_micros(60));
        let m = s.snapshot(DedupStats::default(), Duration::ZERO, 0);
        assert_eq!(m.latency_sum_us, 120);
        assert_eq!(m.latency_mean_us(), 60.0);
        assert_eq!(m.latency_est_mean_us(), 100.0);
        let err = m.latency_est_error();
        assert!((err - 2.0 / 3.0).abs() < 1e-9, "over-report {err}");
    }

    #[test]
    fn open_bucket_requests_pull_the_estimate_below_the_mean() {
        // A 2 s request lands in the open bucket, which bills at the last
        // finite bound (1 s), not infinity: the estimate reads low.
        let s = ServerStats::default();
        s.record(200, Duration::from_secs(2));
        let m = s.snapshot(DedupStats::default(), Duration::ZERO, 0);
        assert_eq!(m.latency_mean_us(), 2_000_000.0);
        assert_eq!(m.latency_est_mean_us(), 1_000_000.0);
        assert_eq!(m.latency_est_error(), -0.5);
        assert_eq!(m.latency_quantile_us(0.5), u64::MAX);
    }

    #[test]
    fn prometheus_exposition_renders_worker_and_process_families() {
        let s = ServerStats::default();
        s.record(200, Duration::from_micros(60));
        s.record(500, Duration::from_micros(700));
        let m = s.snapshot(DedupStats::default(), Duration::from_secs(2), 3);
        let text = m.prometheus().into_string();
        for line in [
            "tenet_worker_completed_total 2\n",
            "tenet_worker_responses_total{class=\"5xx\"} 1\n",
            "tenet_worker_backlog 3\n",
            "tenet_worker_request_latency_us_bucket{le=\"100\"} 1\n",
            "tenet_worker_request_latency_us_bucket{le=\"+Inf\"} 2\n",
            "tenet_worker_request_latency_us_sum 760\n",
            "tenet_worker_request_latency_us_count 2\n",
            "tenet_process_uptime_ms 2000\n",
        ] {
            assert!(text.contains(line), "{line}: {text}");
        }
        // The per-process section rode along (this snapshot has one)...
        assert!(text.contains("tenet_process_isl_hits_total"), "{text}");
        for kind in FAST_PATH_KINDS {
            assert!(
                text.contains(&format!(
                    "tenet_process_isl_fast_paths_total{{kind=\"{kind}\"}}"
                )),
                "{kind}: {text}"
            );
        }
        // ...but a snapshot without it, like a merge, writes no process
        // families.
        let merged = WorkerMetrics { process: None, ..m };
        assert!(!merged.prometheus().into_string().contains("tenet_process_"));
    }

    #[test]
    fn stats_json_has_the_documented_shape() {
        let s = ServerStats::default();
        s.record(200, Duration::from_micros(120));
        s.record(400, Duration::from_micros(80));
        let doc = s
            .snapshot(DedupStats::default(), Duration::from_secs(1), 0)
            .to_json();
        let v = Json::parse(&doc.to_string()).unwrap();
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

    /// A snapshot whose every raw field holds a distinct nonzero value,
    /// with the per-process section present.
    fn distinct() -> WorkerMetrics {
        let mut last = 0;
        let mut next = || {
            last += 7;
            last
        };
        WorkerMetrics {
            uptime_ms: next(),
            connections: next(),
            requests: next(),
            in_flight: next(),
            completed: next(),
            status_2xx: next(),
            status_4xx: next(),
            status_5xx: next(),
            rejected_busy: next(),
            deadline_exceeded: next(),
            degraded_responses: next(),
            backlog: next(),
            latency_buckets: std::array::from_fn(|_| next()),
            latency_sum_us: next(),
            dedup: DedupStats {
                hits: next(),
                waits: next(),
                misses: next(),
                warmed: next(),
                entries: next(),
            },
            isl_hits: next(),
            isl_misses: next(),
            isl_cold_us: next(),
            isl_fast_paths: next(),
            process: Some(ProcessMetrics {
                cache: CacheStats {
                    hits: next(),
                    misses: next(),
                    entries: next(),
                    interned: next(),
                },
                fast: CountStats {
                    window_counts: next(),
                    box_counts: next(),
                    slab_counts: next(),
                    multi_slab_counts: next(),
                    pair_chain_counts: next(),
                    coupled_slab_counts: next(),
                },
            }),
        }
    }

    #[test]
    fn json_and_prometheus_agree_on_every_declared_value() {
        let m = distinct();
        let doc = m.to_json();
        let at = |path: &str| {
            path.split('.')
                .try_fold(&doc, |node, key| node.get(key))
                .unwrap_or_else(|| panic!("no JSON value at {path}"))
        };
        let text = m.prometheus().into_string();
        let samples: HashMap<&str, f64> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').unwrap();
                (series, value.parse().unwrap())
            })
            .collect();
        let mut checked = 0;
        for (path, _, prom) in WORKER {
            let series = match *prom {
                Prom::JsonOnly => continue,
                Prom::Counter(name) | Prom::Gauge(name) => name.to_string(),
                Prom::Labelled(name, key, label) => format!("{name}{{{key}=\"{label}\"}}"),
                Prom::Histogram(name) => {
                    let mut cumulative = 0;
                    for row in at(path).as_arr().unwrap() {
                        cumulative += row.get("count").and_then(Json::as_u64).unwrap();
                        let le = row.get("le_us").and_then(Json::as_u64);
                        let le = le.map_or("+Inf".to_string(), |b| b.to_string());
                        let bucket = format!("{name}_bucket{{le=\"{le}\"}}");
                        assert_eq!(samples[bucket.as_str()], cumulative as f64, "{bucket}");
                    }
                    let sum = at("latency.sum_us").as_f64();
                    assert_eq!(samples.get(format!("{name}_sum").as_str()).copied(), sum);
                    assert_eq!(samples[format!("{name}_count").as_str()], cumulative as f64);
                    checked += LATENCY_BUCKETS_US.len() + 2;
                    continue;
                }
            };
            assert_eq!(
                samples.get(series.as_str()).copied(),
                at(path).as_f64(),
                "{series} vs {path}"
            );
            checked += 1;
        }
        assert_eq!(checked, samples.len(), "every sample has a declaration");
        assert_eq!(text.matches("# TYPE ").count(), worker_families().len());
    }

    #[test]
    fn decode_inverts_to_json_and_is_strict() {
        let m = distinct();
        let text = m.to_json().to_string();
        let decode = |text: &str| WorkerMetrics::decode(&Json::parse(text).unwrap());
        assert_eq!(decode(&text), Some(WorkerMetrics { process: None, ..m }));
        // A renamed field, a histogram that does not match the bounds,
        // and the empty document of a mock shard all fail to decode.
        let renamed = text.replace("\"inflight_waits\"", "\"inflight_waitz\"");
        assert_eq!(decode(&renamed), None);
        let rebucketed = text.replace("{\"le_us\":50,", "{\"le_us\":60,");
        assert_eq!(decode(&rebucketed), None);
        assert_eq!(decode("{}"), None);
    }

    /// A shard of the merge tests: `fast` requests within 50 µs, `slow`
    /// ones within 1 ms.
    fn shard(completed: u64, hits: u64, misses: u64, fast: u64, slow: u64) -> WorkerMetrics {
        let mut latency_buckets = [0; LATENCY_BUCKETS_US.len()];
        latency_buckets[0] = fast;
        latency_buckets[4] = slow;
        WorkerMetrics {
            uptime_ms: completed * 10,
            requests: completed,
            completed,
            status_2xx: completed,
            latency_buckets,
            latency_sum_us: completed * 40,
            dedup: DedupStats {
                hits,
                misses,
                entries: misses,
                ..DedupStats::default()
            },
            isl_hits: hits * 3,
            isl_misses: misses * 2,
            process: Some(ProcessMetrics {
                cache: CacheStats {
                    hits: 999_999,
                    ..CacheStats::default()
                },
                ..ProcessMetrics::default()
            }),
            ..WorkerMetrics::default()
        }
    }

    #[test]
    fn merge_sums_counters_and_recomputes_rates() {
        let merged = WorkerMetrics::merge(&[shard(10, 8, 2, 9, 1), shard(30, 24, 6, 28, 2)]);
        assert_eq!(merged.completed, 40);
        assert_eq!((merged.dedup.hits, merged.dedup.misses), (32, 8));
        let hit_rate = merged.dedup_hit_rate();
        assert!((hit_rate - 0.8).abs() < 1e-9, "recomputed, not averaged");
        assert_eq!(merged.uptime_ms, 300, "uptime is a max");
        assert_eq!(merged.process, None, "shared process values are not summed");
        // The exact latency sum is additive, so the merged mean is exact;
        // the estimate comes from the summed buckets: 37 within 50 µs and
        // 3 within 1000 µs → 121.25 µs.
        assert_eq!(merged.latency_sum_us, 1_600);
        assert_eq!(merged.latency_mean_us(), 40.0, "exact mean = sum/count");
        assert_eq!(merged.latency_est_mean_us(), 121.25);
        let err = merged.latency_est_error();
        assert!((err - (121.25 - 40.0) / 40.0).abs() < 1e-9, "{err}");
    }

    #[test]
    fn merge_sums_histograms_bucket_by_bucket() {
        let merged = WorkerMetrics::merge(&[shard(10, 8, 2, 9, 1), shard(30, 24, 6, 28, 2)]);
        assert_eq!(merged.latency_buckets[0], 37);
        assert_eq!(merged.latency_buckets[4], 3);
        // 37 of 40 within 50 µs → p50 in the first bucket, p99 in 1 ms.
        assert_eq!(merged.latency_quantile_us(0.50), 50);
        assert_eq!(merged.latency_quantile_us(0.99), 1000);
    }

    #[test]
    fn open_bucket_quantile_and_empty_merge() {
        // All traffic in the open-ended top bucket: the quantile is
        // u64::MAX there, not an invented finite bound.
        let mut open = WorkerMetrics::default();
        open.latency_buckets[LATENCY_BUCKETS_US.len() - 1] = 7;
        let merged = WorkerMetrics::merge(&[open]);
        assert_eq!(merged.latency_quantile_us(0.50), u64::MAX);
        assert_eq!(merged.latency_quantile_us(0.99), u64::MAX);
        let empty = WorkerMetrics::merge(&[]);
        assert_eq!(empty, WorkerMetrics::default());
        assert_eq!(empty.latency_quantile_us(0.99), 0);
        assert_eq!(empty.latency_mean_us(), 0.0);
        assert_eq!(empty.latency_est_mean_us(), 0.0);
        assert_eq!(empty.latency_est_error(), 0.0);
    }

    /// A golden fixture: `fixed` raw values, latencies recorded through
    /// [`ServerStats::record`] as `(status, µs, times)`, and the
    /// process-wide values zeroed.
    fn golden(fixed: WorkerMetrics, latencies: &[(u16, u64, usize)]) -> WorkerMetrics {
        let s = ServerStats::default();
        for &(status, us, times) in latencies {
            for _ in 0..times {
                s.record(status, Duration::from_micros(us));
            }
        }
        let recorded = s.snapshot(DedupStats::default(), Duration::ZERO, 0);
        WorkerMetrics {
            completed: recorded.completed,
            status_2xx: recorded.status_2xx,
            status_4xx: recorded.status_4xx,
            status_5xx: recorded.status_5xx,
            latency_buckets: recorded.latency_buckets,
            latency_sum_us: recorded.latency_sum_us,
            process: Some(ProcessMetrics::default()),
            ..fixed
        }
    }

    #[test]
    fn golden_documents_keep_their_bytes_and_samples() {
        let a = golden(
            WorkerMetrics {
                uptime_ms: 123_456,
                connections: 11,
                requests: 9,
                in_flight: 1,
                rejected_busy: 2,
                deadline_exceeded: 1,
                degraded_responses: 1,
                backlog: 3,
                dedup: DedupStats {
                    hits: 4,
                    waits: 1,
                    misses: 3,
                    warmed: 2,
                    entries: 5,
                },
                isl_hits: 40,
                isl_misses: 10,
                isl_cold_us: 7_654,
                isl_fast_paths: 21,
                ..WorkerMetrics::default()
            },
            &[
                (200, 10, 3),
                (200, 60, 2),
                (404, 700, 1),
                (200, 30_000, 1),
                (503, 2_000_000, 1),
            ],
        );
        let b = golden(
            WorkerMetrics {
                uptime_ms: 99_999,
                connections: 12,
                requests: 10,
                in_flight: 2,
                dedup: DedupStats {
                    hits: 10,
                    misses: 6,
                    entries: 6,
                    ..DedupStats::default()
                },
                isl_hits: 5,
                isl_misses: 5,
                isl_cold_us: 1_000,
                isl_fast_paths: 6,
                ..WorkerMetrics::default()
            },
            &[
                (200, 40, 5),
                (200, 300, 2),
                (400, 4_000, 1),
                (200, 120_000, 2),
            ],
        );
        let merged = WorkerMetrics::merge(&[a, b]);
        assert_eq!(a.to_json().to_string(), WORKER_A_JSON);
        assert_eq!(b.to_json().to_string(), WORKER_B_JSON);
        assert_eq!(merged.to_json().to_string(), MERGED_JSON);
        let lines = |text: &str| {
            let mut lines: Vec<String> = text
                .lines()
                .filter(|l| !l.is_empty())
                .map(String::from)
                .collect();
            lines.sort();
            lines
        };
        assert_eq!(lines(&a.prometheus().into_string()), lines(WORKER_A_PROM));
        assert_eq!(
            lines(&merged.prometheus().into_string()),
            lines(MERGED_PROM)
        );
    }

    // Expected output, captured from the renderers that preceded the
    // declaration table (`ServerStats::to_json`, the router's
    // `merge_worker_stats` of the two documents, and
    // `prometheus_from_worker_doc` of worker A and of the merge), so a
    // declaration change that moves any byte or sample fails here.
    const WORKER_A_JSON: &str = concat!(
        r#"{"uptime_ms":123456,"requests":{"accepted_connections":11,"total":9,"in_flight":1,"#,
        r#""completed":8,"status_2xx":6,"status_4xx":1,"status_5xx":1,"rejected_busy":2,"#,
        r#""deadline_exceeded":1,"degraded_responses":1,"backlog":3},"latency":{"p50_us":100,"#,
        r#""p99_us":18446744073709551615,"sum_us":2030850,"mean_us":253856.25,"#,
        r#""est_mean_us":131418.75,"est_error":-0.4823103626560307,"histogram":[{"le_us":50,"#,
        r#""count":3},{"le_us":100,"count":2},{"le_us":250,"count":0},{"le_us":500,"count":0},"#,
        r#"{"le_us":1000,"count":1},{"le_us":2500,"count":0},{"le_us":5000,"count":0},"#,
        r#"{"le_us":10000,"count":0},{"le_us":25000,"count":0},{"le_us":50000,"count":1},"#,
        r#"{"le_us":100000,"count":0},{"le_us":250000,"count":0},{"le_us":1000000,"count":0},"#,
        r#"{"le_us":null,"count":1}]},"dedup":{"hits":4,"inflight_waits":1,"misses":3,"#,
        r#""warmed":2,"entries":5,"hit_rate":0.625},"isl_cache":{"server":{"hits":40,"#,
        r#""misses":10,"hit_rate":0.8,"cold_us":7654,"fast_paths":21},"process":{"hits":0,"#,
        r#""misses":0,"hit_rate":0,"entries":0,"interned":0,"fast_paths":{"window":0,"box":0,"#,
        r#""slab":0,"multi_slab":0,"pair_chain":0,"coupled_slab":0}}}}"#,
    );
    const WORKER_B_JSON: &str = concat!(
        r#"{"uptime_ms":99999,"requests":{"accepted_connections":12,"total":10,"in_flight":2,"#,
        r#""completed":10,"status_2xx":9,"status_4xx":1,"status_5xx":0,"rejected_busy":0,"#,
        r#""deadline_exceeded":0,"degraded_responses":0,"backlog":0},"latency":{"p50_us":50,"#,
        r#""p99_us":250000,"sum_us":244800,"mean_us":24480,"est_mean_us":50625,"#,
        r#""est_error":1.068014705882353,"histogram":[{"le_us":50,"count":5},{"le_us":100,"#,
        r#""count":0},{"le_us":250,"count":0},{"le_us":500,"count":2},{"le_us":1000,"count":0},"#,
        r#"{"le_us":2500,"count":0},{"le_us":5000,"count":1},{"le_us":10000,"count":0},"#,
        r#"{"le_us":25000,"count":0},{"le_us":50000,"count":0},{"le_us":100000,"count":0},"#,
        r#"{"le_us":250000,"count":2},{"le_us":1000000,"count":0},{"le_us":null,"count":0}]},"#,
        r#""dedup":{"hits":10,"inflight_waits":0,"misses":6,"warmed":0,"entries":6,"#,
        r#""hit_rate":0.625},"isl_cache":{"server":{"hits":5,"misses":5,"hit_rate":0.5,"#,
        r#""cold_us":1000,"fast_paths":6},"process":{"hits":0,"misses":0,"hit_rate":0,"#,
        r#""entries":0,"interned":0,"fast_paths":{"window":0,"box":0,"slab":0,"multi_slab":0,"#,
        r#""pair_chain":0,"coupled_slab":0}}}}"#,
    );
    const MERGED_JSON: &str = concat!(
        r#"{"uptime_ms":123456,"requests":{"accepted_connections":23,"total":19,"in_flight":3,"#,
        r#""completed":18,"status_2xx":15,"status_4xx":2,"status_5xx":1,"rejected_busy":2,"#,
        r#""deadline_exceeded":1,"degraded_responses":1,"backlog":3},"latency":{"p50_us":100,"#,
        r#""p99_us":18446744073709551615,"sum_us":2275650,"mean_us":126425,"#,
        r#""est_mean_us":86533.33333333333,"est_error":-0.31553622042053925,"#,
        r#""histogram":[{"le_us":50,"count":8},{"le_us":100,"count":2},{"le_us":250,"count":0},"#,
        r#"{"le_us":500,"count":2},{"le_us":1000,"count":1},{"le_us":2500,"count":0},"#,
        r#"{"le_us":5000,"count":1},{"le_us":10000,"count":0},{"le_us":25000,"count":0},"#,
        r#"{"le_us":50000,"count":1},{"le_us":100000,"count":0},{"le_us":250000,"count":2},"#,
        r#"{"le_us":1000000,"count":0},{"le_us":null,"count":1}]},"dedup":{"hits":14,"#,
        r#""inflight_waits":1,"misses":9,"warmed":2,"entries":11,"hit_rate":0.625},"#,
        r#""isl_cache":{"server":{"hits":45,"misses":15,"hit_rate":0.75,"cold_us":8654,"#,
        r#""fast_paths":27}}}"#,
    );
    const WORKER_A_PROM: &str = r#"
# TYPE tenet_worker_connections_total counter
tenet_worker_connections_total 11
# TYPE tenet_worker_requests_total counter
tenet_worker_requests_total 9
# TYPE tenet_worker_completed_total counter
tenet_worker_completed_total 8
# TYPE tenet_worker_responses_total counter
tenet_worker_responses_total{class="2xx"} 6
tenet_worker_responses_total{class="4xx"} 1
tenet_worker_responses_total{class="5xx"} 1
# TYPE tenet_worker_rejected_busy_total counter
tenet_worker_rejected_busy_total 2
# TYPE tenet_worker_deadline_exceeded_total counter
tenet_worker_deadline_exceeded_total 1
# TYPE tenet_worker_degraded_responses_total counter
tenet_worker_degraded_responses_total 1
# TYPE tenet_worker_in_flight gauge
tenet_worker_in_flight 1
# TYPE tenet_worker_backlog gauge
tenet_worker_backlog 3
# TYPE tenet_worker_dedup_total counter
tenet_worker_dedup_total{outcome="hit"} 4
tenet_worker_dedup_total{outcome="inflight_wait"} 1
tenet_worker_dedup_total{outcome="miss"} 3
# TYPE tenet_worker_dedup_warmed_total counter
tenet_worker_dedup_warmed_total 2
# TYPE tenet_worker_dedup_entries gauge
tenet_worker_dedup_entries 5
# TYPE tenet_worker_isl_hits_total counter
tenet_worker_isl_hits_total 40
# TYPE tenet_worker_isl_misses_total counter
tenet_worker_isl_misses_total 10
# TYPE tenet_worker_isl_cold_us_total counter
tenet_worker_isl_cold_us_total 7654
# TYPE tenet_worker_isl_fast_paths_total counter
tenet_worker_isl_fast_paths_total 21
# TYPE tenet_worker_request_latency_us histogram
tenet_worker_request_latency_us_bucket{le="50"} 3
tenet_worker_request_latency_us_bucket{le="100"} 5
tenet_worker_request_latency_us_bucket{le="250"} 5
tenet_worker_request_latency_us_bucket{le="500"} 5
tenet_worker_request_latency_us_bucket{le="1000"} 6
tenet_worker_request_latency_us_bucket{le="2500"} 6
tenet_worker_request_latency_us_bucket{le="5000"} 6
tenet_worker_request_latency_us_bucket{le="10000"} 6
tenet_worker_request_latency_us_bucket{le="25000"} 6
tenet_worker_request_latency_us_bucket{le="50000"} 7
tenet_worker_request_latency_us_bucket{le="100000"} 7
tenet_worker_request_latency_us_bucket{le="250000"} 7
tenet_worker_request_latency_us_bucket{le="1000000"} 7
tenet_worker_request_latency_us_bucket{le="+Inf"} 8
tenet_worker_request_latency_us_sum 2030850
tenet_worker_request_latency_us_count 8
# TYPE tenet_worker_latency_mean_us gauge
tenet_worker_latency_mean_us 253856.25
# TYPE tenet_worker_latency_est_error gauge
tenet_worker_latency_est_error -0.4823103626560307
# TYPE tenet_process_uptime_ms gauge
tenet_process_uptime_ms 123456
# TYPE tenet_process_isl_hits_total counter
tenet_process_isl_hits_total 0
# TYPE tenet_process_isl_misses_total counter
tenet_process_isl_misses_total 0
# TYPE tenet_process_isl_entries gauge
tenet_process_isl_entries 0
# TYPE tenet_process_isl_interned gauge
tenet_process_isl_interned 0
# TYPE tenet_process_isl_fast_paths_total counter
tenet_process_isl_fast_paths_total{kind="window"} 0
tenet_process_isl_fast_paths_total{kind="box"} 0
tenet_process_isl_fast_paths_total{kind="slab"} 0
tenet_process_isl_fast_paths_total{kind="multi_slab"} 0
tenet_process_isl_fast_paths_total{kind="pair_chain"} 0
tenet_process_isl_fast_paths_total{kind="coupled_slab"} 0
"#;
    const MERGED_PROM: &str = r#"
# TYPE tenet_worker_connections_total counter
tenet_worker_connections_total 23
# TYPE tenet_worker_requests_total counter
tenet_worker_requests_total 19
# TYPE tenet_worker_completed_total counter
tenet_worker_completed_total 18
# TYPE tenet_worker_responses_total counter
tenet_worker_responses_total{class="2xx"} 15
tenet_worker_responses_total{class="4xx"} 2
tenet_worker_responses_total{class="5xx"} 1
# TYPE tenet_worker_rejected_busy_total counter
tenet_worker_rejected_busy_total 2
# TYPE tenet_worker_deadline_exceeded_total counter
tenet_worker_deadline_exceeded_total 1
# TYPE tenet_worker_degraded_responses_total counter
tenet_worker_degraded_responses_total 1
# TYPE tenet_worker_in_flight gauge
tenet_worker_in_flight 3
# TYPE tenet_worker_backlog gauge
tenet_worker_backlog 3
# TYPE tenet_worker_dedup_total counter
tenet_worker_dedup_total{outcome="hit"} 14
tenet_worker_dedup_total{outcome="inflight_wait"} 1
tenet_worker_dedup_total{outcome="miss"} 9
# TYPE tenet_worker_dedup_warmed_total counter
tenet_worker_dedup_warmed_total 2
# TYPE tenet_worker_dedup_entries gauge
tenet_worker_dedup_entries 11
# TYPE tenet_worker_isl_hits_total counter
tenet_worker_isl_hits_total 45
# TYPE tenet_worker_isl_misses_total counter
tenet_worker_isl_misses_total 15
# TYPE tenet_worker_isl_cold_us_total counter
tenet_worker_isl_cold_us_total 8654
# TYPE tenet_worker_isl_fast_paths_total counter
tenet_worker_isl_fast_paths_total 27
# TYPE tenet_worker_request_latency_us histogram
tenet_worker_request_latency_us_bucket{le="50"} 8
tenet_worker_request_latency_us_bucket{le="100"} 10
tenet_worker_request_latency_us_bucket{le="250"} 10
tenet_worker_request_latency_us_bucket{le="500"} 12
tenet_worker_request_latency_us_bucket{le="1000"} 13
tenet_worker_request_latency_us_bucket{le="2500"} 13
tenet_worker_request_latency_us_bucket{le="5000"} 14
tenet_worker_request_latency_us_bucket{le="10000"} 14
tenet_worker_request_latency_us_bucket{le="25000"} 14
tenet_worker_request_latency_us_bucket{le="50000"} 15
tenet_worker_request_latency_us_bucket{le="100000"} 15
tenet_worker_request_latency_us_bucket{le="250000"} 17
tenet_worker_request_latency_us_bucket{le="1000000"} 17
tenet_worker_request_latency_us_bucket{le="+Inf"} 18
tenet_worker_request_latency_us_sum 2275650
tenet_worker_request_latency_us_count 18
# TYPE tenet_worker_latency_mean_us gauge
tenet_worker_latency_mean_us 126425
# TYPE tenet_worker_latency_est_error gauge
tenet_worker_latency_est_error -0.31553622042053925
"#;
}
