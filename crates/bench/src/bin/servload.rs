//! `servload` — closed-loop load generator for the analysis service,
//! single-process or sharded.
//!
//! N client threads each hold one keep-alive connection and drive a
//! fixed request mix (several `analyze` variants, a `dse` sweep, and
//! periodic `stats` probes) as fast as the target answers. Latency is
//! recorded per request; dedup effectiveness comes from the target's own
//! `/v1/stats` deltas — for a router target, the merged cluster document
//! plus the per-shard hit distribution. Results are written as
//! `BENCH_server.json` at the repo root — a committed artifact tracked
//! across PRs, like the other `BENCH_*.json` files.
//!
//! Modes:
//!
//! * **Self-hosted** (no target argument): spins up an in-process
//!   `tenet_server::Server` on an ephemeral port, loads it, then drains
//!   it — the reproducible configuration the committed artifact uses.
//!   The drain writes a warm-state snapshot, and a second phase
//!   (`restart_replay`) boots a fresh process from that file and replays
//!   the identical mix: a restored shard must answer its old keys warm,
//!   so the phase's p50 should sit in the single phase's warm regime
//!   (recorded as `vs_single_p50`) and the restored process must serve
//!   the whole replay without a single cold recompute
//!   (`restored_cold_misses`).
//!   With `--router`, two more phases boot a `tenet_router::Router` and
//!   load it identically — once over two HTTP workers (`router_http`)
//!   and once over two in-process cores behind the local transport
//!   (`router_local`) — so the artifact records the single-process
//!   baseline and both sharded transports side by side, including each
//!   router phase's throughput as a fraction of the single baseline.
//! * **External** (`servload http://127.0.0.1:8091 ...`): targets an
//!   already-running `tenet serve` — or, with `--router`, a running
//!   `tenet route` (the CI cluster-smoke step).
//!
//! `--smoke` asserts zero 5xx responses and a nonzero success count —
//! plus, in router mode, that more than one shard carried traffic and
//! that every loaded shard served warm dedup hits — exiting nonzero
//! otherwise (and skips the artifact unless `--out` is given).
//!
//! Robustness knobs: `--deadline-ms N` stamps every data-path request
//! with `X-Tenet-Deadline-Ms: N`, and `--fault-plan key=value[,...]`
//! (repeatable, self-hosted `--router` only) wraps worker transports in
//! seeded [`FaultTransport`]s — the chaos-smoke configuration. Each
//! phase records its `failures` (deadline-clipped 504s, admission 429s,
//! explicitly degraded partials) alongside the status classes; 504s are
//! deliberately not 5xx for the smoke gate, since an honored deadline is
//! the contract working.
//!
//! `--trace` additionally harvests each response's
//! `X-Tenet-Server-Timing` header and records the per-phase latency
//! breakdown (queue, parse, dedup, compute, isl, serialize, …) as a
//! `phases` object in the artifact — mean microseconds and sample count
//! per phase, the attribution view next to the end-to-end quantiles.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_router::{
    FaultPlan, FaultTransport, HttpTransport, LocalTransport, Router, RouterConfig, Transport,
    WorkerSpec,
};
use tenet_server::dedup::DedupStats;
use tenet_server::http::{Headers, ResponseReader};
use tenet_server::stats::WorkerMetrics;
use tenet_server::{Server, ServerConfig, WorkerCore};

/// The gemm problem text the analyze variants are built from.
fn gemm_problem(n: usize, bandwidth: usize) -> String {
    format!(
        "for (i = 0; i < {n}; i++)\n\
         \x20 for (j = 0; j < {n}; j++)\n\
         \x20   for (k = 0; k < {n}; k++)\n\
         \x20     S: Y[i][j] += A[i][k] * B[k][j];\n\n\
         {{ S[i,j,k] -> (PE[i,j] | T[i + j + k]) }}\n\n\
         arch \"{n}x{n}\" {{ array = [{n}, {n}] interconnect = systolic2d bandwidth = {bandwidth} }}\n"
    )
}

/// One request of the mix: method, path, body.
#[derive(Clone)]
struct Shot {
    method: &'static str,
    path: &'static str,
    body: String,
}

/// The committed mixed workload: six analyze variants over three problem
/// shapes × two reuse windows, plus one dse sweep. Stats probes are
/// injected separately by the client loop.
fn workload() -> Vec<Shot> {
    let mut shots = Vec::new();
    for (n, bw) in [(4usize, 8usize), (6, 12), (8, 16)] {
        for window in [1u64, 2] {
            shots.push(Shot {
                method: "POST",
                path: "/v1/analyze",
                body: Json::obj([
                    ("problem", Json::from(gemm_problem(n, bw))),
                    ("window", Json::from(window)),
                ])
                .to_string(),
            });
        }
    }
    shots.push(Shot {
        method: "POST",
        path: "/v1/dse",
        body: Json::obj([
            ("problem", Json::from(gemm_problem(4, 8))),
            ("pe", Json::from(4u64)),
            ("top", Json::from(3u64)),
            ("threads", Json::from(2u64)),
        ])
        .to_string(),
    });
    shots
}

struct Cli {
    target: Option<String>,
    threads: usize,
    requests: usize,
    out: Option<String>,
    smoke: bool,
    router: bool,
    trace: bool,
    deadline_ms: Option<u64>,
    fault_plans: Vec<FaultPlan>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        target: None,
        threads: 4,
        requests: 250,
        out: None,
        smoke: false,
        router: false,
        trace: false,
        deadline_ms: None,
        fault_plans: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                cli.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--threads needs a positive integer")?
            }
            "--requests" => {
                cli.requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--requests needs a positive integer")?
            }
            "--out" => cli.out = Some(args.next().ok_or("--out needs a path")?),
            "--smoke" => cli.smoke = true,
            "--router" => cli.router = true,
            "--trace" => cli.trace = true,
            "--deadline-ms" => {
                cli.deadline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or("--deadline-ms needs a positive integer")?,
                )
            }
            "--fault-plan" => {
                let spec = args.next().ok_or("--fault-plan needs key=value[,...]")?;
                cli.fault_plans.push(FaultPlan::parse(&spec)?);
            }
            other if !other.starts_with("--") && cli.target.is_none() => {
                cli.target = Some(other.to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !cli.fault_plans.is_empty() && cli.target.is_some() {
        return Err(
            "--fault-plan wraps self-hosted worker transports; it cannot reach an external target"
                .into(),
        );
    }
    if !cli.fault_plans.is_empty() && !cli.router {
        return Err(
            "--fault-plan needs --router (faults are injected at the router's transports)".into(),
        );
    }
    Ok(cli)
}

/// Wraps worker `i`'s transport in every fault plan that targets it
/// (`worker=N` scoping, `None` = all workers). Wrapping composes.
fn wrap_faults(mut inner: Box<dyn Transport>, i: usize, plans: &[FaultPlan]) -> Box<dyn Transport> {
    for plan in plans {
        if plan.only_worker.is_none_or(|w| w == i) {
            inner = Box::new(FaultTransport::new(inner, plan.clone()));
        }
    }
    inner
}

/// Normalizes `http://host:port/` or `host:port` to `host:port`.
fn normalize_addr(target: &str) -> String {
    target
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string()
}

/// Sends one request on an open connection and reads the response.
/// `deadline_ms` rides along as `X-Tenet-Deadline-Ms` on data-path
/// shots (analyze/dse); operator probes are never deadlined.
fn send(
    stream: &mut TcpStream,
    reader: &mut ResponseReader<TcpStream>,
    shot: &Shot,
    deadline_ms: Option<u64>,
) -> std::io::Result<(u16, Vec<u8>)> {
    write_shot(stream, shot, deadline_ms, None)?;
    reader.next_response()
}

/// Like [`send`] but opts the request into tracing (span recording is
/// gated on a client-sent id) and returns the response headers, for
/// runs that harvest the `X-Tenet-Server-Timing` phase breakdown.
fn send_traced(
    stream: &mut TcpStream,
    reader: &mut ResponseReader<TcpStream>,
    shot: &Shot,
    deadline_ms: Option<u64>,
    trace_id: u64,
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    write_shot(stream, shot, deadline_ms, Some(trace_id))?;
    reader.next_response_with_headers()
}

fn write_shot(
    stream: &mut TcpStream,
    shot: &Shot,
    deadline_ms: Option<u64>,
    trace_id: Option<u64>,
) -> std::io::Result<()> {
    let data_path = shot.path == "/v1/analyze" || shot.path == "/v1/dse";
    let deadline = match deadline_ms {
        Some(ms) if data_path => format!("X-Tenet-Deadline-Ms: {ms}\r\n"),
        _ => String::new(),
    };
    let trace = match trace_id {
        Some(id) if data_path => format!("X-Tenet-Trace-Id: {id:x}\r\n"),
        _ => String::new(),
    };
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: servload\r\nContent-Type: application/json\r\n{deadline}{trace}Content-Length: {}\r\n\r\n",
        shot.method,
        shot.path,
        shot.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(shot.body.as_bytes())
}

/// Folds one `Server-Timing` header value (`name;dur=<ms>,...`) into a
/// per-phase `(total_ms, samples)` accumulator.
fn accumulate_server_timing(value: &str, acc: &mut BTreeMap<String, (f64, u64)>) {
    for entry in value.split(',') {
        let mut parts = entry.trim().split(';');
        let Some(name) = parts.next().filter(|n| !n.is_empty()) else {
            continue;
        };
        for attr in parts {
            if let Some(ms) = attr.trim().strip_prefix("dur=") {
                if let Ok(ms) = ms.parse::<f64>() {
                    let slot = acc.entry(name.to_string()).or_insert((0.0, 0));
                    slot.0 += ms;
                    slot.1 += 1;
                }
            }
        }
    }
}

/// Opens a keep-alive connection pair (write half + buffered read half).
fn connect(addr: &str) -> std::io::Result<(TcpStream, ResponseReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let reader = ResponseReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn fetch_stats(addr: &str) -> Option<Json> {
    let (mut s, mut r) = connect(addr).ok()?;
    let shot = Shot {
        method: "GET",
        path: "/v1/stats",
        body: String::new(),
    };
    let (status, body) = send(&mut s, &mut r, &shot, None).ok()?;
    if status != 200 {
        return None;
    }
    Json::parse(std::str::from_utf8(&body).ok()?).ok()
}

struct ThreadResult {
    latencies_us: Vec<u64>,
    by_class: [u64; 4], // 2xx, 4xx, 5xx/other, 504-deadline
    /// 504s: requests the deadline clipped entirely. Deliberately not a
    /// 5xx for smoke purposes — an honored deadline is the contract
    /// working, not the service failing.
    deadline_exceeded: u64,
    /// 429s: requests the router's admission control shed.
    rejected_429: u64,
    /// 200s whose body was an explicit partial (`"truncated":true`).
    degraded: u64,
    /// Per-phase `(total_ms, samples)` from `X-Tenet-Server-Timing`
    /// headers; empty unless the run collects them (`--trace`).
    phase_ms: BTreeMap<String, (f64, u64)>,
}

fn client_loop(
    addr: &str,
    shots: &[Shot],
    requests: usize,
    seed: usize,
    deadline_ms: Option<u64>,
    trace: bool,
) -> ThreadResult {
    let mut result = ThreadResult {
        latencies_us: Vec::with_capacity(requests),
        by_class: [0; 4],
        deadline_exceeded: 0,
        rejected_429: 0,
        degraded: 0,
        phase_ms: BTreeMap::new(),
    };
    let stats_probe = Shot {
        method: "GET",
        path: "/v1/stats",
        body: String::new(),
    };
    let (mut stream, mut reader) = match connect(addr) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("servload: connect failed: {e}");
            result.by_class[2] += requests as u64;
            return result;
        }
    };
    for i in 0..requests {
        // Every 32nd request probes live stats; the rest walk the mix,
        // phase-shifted per thread so leaders interleave with waiters.
        let shot = if i % 32 == 31 {
            &stats_probe
        } else {
            &shots[(seed + i) % shots.len()]
        };
        let t0 = Instant::now();
        let outcome = if trace {
            // A unique nonzero id per request (thread in the high bits);
            // the server only records spans for requests that carry one.
            let trace_id = ((seed as u64 + 1) << 32) | i as u64;
            send_traced(&mut stream, &mut reader, shot, deadline_ms, trace_id).map(
                |(status, headers, body)| {
                    for (name, value) in &headers {
                        if name == "x-tenet-server-timing" {
                            accumulate_server_timing(value, &mut result.phase_ms);
                        }
                    }
                    (status, body)
                },
            )
        } else {
            send(&mut stream, &mut reader, shot, deadline_ms)
        };
        match outcome {
            Ok((status, body)) => {
                result
                    .latencies_us
                    .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let class = match status {
                    200..=299 => {
                        if body
                            .windows(b"\"truncated\":true".len())
                            .any(|w| w == b"\"truncated\":true")
                        {
                            result.degraded += 1;
                        }
                        0
                    }
                    429 => {
                        result.rejected_429 += 1;
                        1
                    }
                    400..=499 => 1,
                    504 => {
                        result.deadline_exceeded += 1;
                        3
                    }
                    _ => 2,
                };
                result.by_class[class] += 1;
            }
            Err(e) => {
                eprintln!("servload: request failed: {e}");
                result.by_class[2] += 1;
                // Reconnect and continue; a dropped keep-alive connection
                // must not sink the whole thread's sample.
                match connect(addr) {
                    Ok(pair) => (stream, reader) = pair,
                    Err(_) => break,
                }
            }
        }
    }
    result
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The dedup counters of a stats document — a worker's own, or the
/// merged cluster view when the target is a router.
fn dedup_counts(stats: &Json) -> (u64, u64, u64) {
    let d = dedup_of(stats.get("merged").unwrap_or(stats));
    (d.hits, d.waits, d.misses)
}

/// The dedup counters of one worker-shaped stats document (zeros when
/// it does not decode).
fn dedup_of(doc: &Json) -> DedupStats {
    WorkerMetrics::decode(doc).unwrap_or_default().dedup
}

/// Per-shard `(worker, routed, dedup_hits, dedup_waits, dedup_misses)`
/// row of a router stats document.
type ShardRow = (u64, u64, u64, u64, u64);

/// The shard rows of a router stats document; `None` for a plain worker
/// target. Shards whose stats fetch failed (`stats: null` — a worker
/// dark at snapshot time, e.g. mid-flap under a fault plan) are skipped:
/// a zeroed row would fabricate a "served no hits" smoke failure.
fn shard_counts(stats: &Json) -> Option<Vec<ShardRow>> {
    Some(
        stats
            .get("shards")?
            .as_arr()?
            .iter()
            .filter(|s| matches!(s.get("stats"), Some(doc) if !matches!(doc, Json::Null)))
            .map(|s| {
                let dedup = s.get("stats").map(dedup_of).unwrap_or_default();
                (
                    s.get("worker").and_then(Json::as_u64).unwrap_or(0),
                    s.get("routed").and_then(Json::as_u64).unwrap_or(0),
                    dedup.hits,
                    dedup.waits,
                    dedup.misses,
                )
            })
            .collect(),
    )
}

/// Everything one measured phase produced: the artifact fragment plus
/// the numbers the smoke gate checks.
struct Phase {
    report: Json,
    n_2xx: u64,
    n_5xx: u64,
    shards_loaded: usize,
    shards_without_warm_hits: usize,
}

/// Warm-up, measure, and summarize one target. `label` names the phase
/// in the artifact and the log line.
fn run_phase(label: &str, addr: &str, cli: &Cli, router_mode: bool) -> Phase {
    let shots = workload();
    // Warm-up: every distinct request once, so the measured phase sees
    // the steady state (dedup LRU and ISL memo populated) — the regime a
    // long-running service lives in. Never deadlined: a clipped warm-up
    // would leave caches cold and the measured phase unrepresentative.
    {
        let (mut s, mut r) = connect(addr).expect("warm-up connect");
        for shot in &shots {
            let (status, body) = send(&mut s, &mut r, shot, None).expect("warm-up request");
            assert!(
                status < 500,
                "warm-up {} failed ({status}): {}",
                shot.path,
                String::from_utf8_lossy(&body)
            );
        }
    }

    let before = fetch_stats(addr);
    let t0 = Instant::now();
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cli.threads)
            .map(|t| {
                let addr = addr.to_string();
                let shots = &shots;
                scope.spawn(move || {
                    client_loop(
                        &addr,
                        shots,
                        cli.requests,
                        t * 3,
                        cli.deadline_ms,
                        cli.trace,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();
    let after = fetch_stats(addr);

    let mut latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let (n_2xx, n_4xx, n_5xx, n_504) = results.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.by_class[0],
            acc.1 + r.by_class[1],
            acc.2 + r.by_class[2],
            acc.3 + r.by_class[3],
        )
    });
    let (deadline_exceeded, rejected_429, degraded) = results.iter().fold((0, 0, 0), |acc, r| {
        (
            acc.0 + r.deadline_exceeded,
            acc.1 + r.rejected_429,
            acc.2 + r.degraded,
        )
    });
    let total = n_2xx + n_4xx + n_5xx + n_504;
    let throughput = total as f64 / wall.as_secs_f64();
    if before.is_none() || after.is_none() {
        eprintln!("servload: warning: a /v1/stats probe failed; dedup deltas are unreliable");
    }
    let (h1, w1, m1) = before.as_ref().map(dedup_counts).unwrap_or((0, 0, 0));
    let (h2, w2, m2) = after.as_ref().map(dedup_counts).unwrap_or((0, 0, 0));
    let (dh, dw, dm) = (
        h2.saturating_sub(h1),
        w2.saturating_sub(w1),
        m2.saturating_sub(m1),
    );
    let dedup_total = dh + dw + dm;
    let dedup_rate = if dedup_total == 0 {
        0.0
    } else {
        (dh + dw) as f64 / dedup_total as f64
    };

    let mut fields = vec![
        (
            "mode".to_string(),
            Json::from(match (cli.target.is_some(), router_mode) {
                (false, false) => "self-hosted",
                (false, true) => "self-hosted-router",
                (true, false) => "external",
                (true, true) => "external-router",
            }),
        ),
        ("threads".to_string(), Json::from(cli.threads)),
        ("requests".to_string(), Json::from(total)),
        (
            "wall_ms".to_string(),
            Json::from((wall.as_secs_f64() * 1e4).round() / 10.0),
        ),
        ("throughput_rps".to_string(), Json::from(throughput.round())),
        ("p50_us".to_string(), Json::from(quantile(&latencies, 0.50))),
        ("p99_us".to_string(), Json::from(quantile(&latencies, 0.99))),
        (
            "status".to_string(),
            Json::obj([
                ("s2xx", Json::from(n_2xx)),
                ("s4xx", Json::from(n_4xx)),
                ("s5xx", Json::from(n_5xx)),
                ("s504", Json::from(n_504)),
            ]),
        ),
        (
            "failures".to_string(),
            Json::obj([
                ("deadline_exceeded", Json::from(deadline_exceeded)),
                ("rejected_429", Json::from(rejected_429)),
                ("degraded", Json::from(degraded)),
            ]),
        ),
        (
            "dedup".to_string(),
            Json::obj([
                ("hits", Json::from(dh)),
                ("inflight_waits", Json::from(dw)),
                ("misses", Json::from(dm)),
                ("hit_rate", Json::from((dedup_rate * 1e4).round() / 1e4)),
            ]),
        ),
    ];

    // Router targets additionally record the per-shard hit distribution:
    // how the consistent hash spread the measured traffic, and that each
    // loaded shard served its repeats from its own dedup layer.
    let mut shards_loaded = 0;
    let mut shards_without_warm_hits = 0;
    if router_mode {
        let b = before.as_ref().and_then(shard_counts).unwrap_or_default();
        let a = after.as_ref().and_then(shard_counts).unwrap_or_default();
        let mut rows = Vec::new();
        for &(worker, routed2, h2, w2, m2) in &a {
            // Snapshots are matched by worker id, not position: a shard
            // with a failed stats fetch is absent from one snapshot.
            let (routed1, h1, w1, m1) = b
                .iter()
                .find(|&&(w, ..)| w == worker)
                .map(|&(_, r, h, w, m)| (r, h, w, m))
                .unwrap_or((0, 0, 0, 0));
            let routed = routed2.saturating_sub(routed1);
            let served = (h2 + w2).saturating_sub(h1 + w1);
            let misses = m2.saturating_sub(m1);
            if routed > 0 {
                shards_loaded += 1;
                if served == 0 {
                    shards_without_warm_hits += 1;
                }
            }
            rows.push(Json::obj([
                ("worker", Json::from(worker)),
                ("routed", Json::from(routed)),
                ("dedup_hits", Json::from(served)),
                ("dedup_misses", Json::from(misses)),
            ]));
        }
        fields.push(("per_shard".to_string(), Json::Arr(rows)));
    }
    // With --trace, fold every thread's Server-Timing samples into a
    // per-phase mean: where a request's time actually went
    // (queue / parse / dedup / compute / isl / serialize at the worker;
    // queue / upstream / backoff / router at the router tier).
    if cli.trace {
        let mut acc: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for r in &results {
            for (name, (ms, n)) in &r.phase_ms {
                let slot = acc.entry(name.clone()).or_insert((0.0, 0));
                slot.0 += ms;
                slot.1 += n;
            }
        }
        let rows: Vec<(String, Json)> = acc
            .into_iter()
            .map(|(name, (ms, n))| {
                let mean_us = if n == 0 { 0.0 } else { ms * 1e3 / n as f64 };
                (
                    name,
                    Json::obj([
                        ("mean_us", Json::from((mean_us * 10.0).round() / 10.0)),
                        ("samples", Json::from(n)),
                    ]),
                )
            })
            .collect();
        fields.push(("phases".to_string(), Json::Obj(rows)));
    }
    fields.push((
        "mix".to_string(),
        Json::obj([
            ("analyze_variants", Json::from(6u64)),
            ("dse_variants", Json::from(1u64)),
            ("stats_every", Json::from(32u64)),
        ]),
    ));

    println!(
        "servload[{label}]: {total} requests in {:.1} ms -> {throughput:.0} req/s \
         (p50 {} us, p99 {} us, 5xx {n_5xx}, deadline {deadline_exceeded}, \
         429 {rejected_429}, degraded {degraded}, dedup hit rate {dedup_rate:.4})",
        wall.as_secs_f64() * 1e3,
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.99),
    );

    Phase {
        report: Json::Obj(fields),
        n_2xx,
        n_5xx,
        shards_loaded,
        shards_without_warm_hits,
    }
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("servload: {e}");
            eprintln!(
                "usage: servload [http://HOST:PORT] [--router] [--trace] [--threads N] \
                 [--requests N-per-thread] [--deadline-ms MS] \
                 [--fault-plan key=value[,...]] [--out FILE] [--smoke]"
            );
            std::process::exit(1);
        }
    };

    let mut phases: Vec<(&str, Phase)> = Vec::new();
    match &cli.target {
        // External: one phase against the given server or router.
        Some(t) => {
            let label = if cli.router { "router" } else { "single" };
            phases.push((
                label,
                run_phase(label, &normalize_addr(t), &cli, cli.router),
            ));
        }
        // Self-hosted: the single-process baseline (which snapshots its
        // warm state on drain), a restart-replay phase restored from
        // that snapshot, then (with --router) the sharded tier over two
        // workers — same workload, same box.
        None => {
            let snap_path =
                std::env::temp_dir().join(format!("servload-snap-{}.snap", std::process::id()));
            let _ = std::fs::remove_file(&snap_path);
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 4,
                snapshot_file: Some(snap_path.clone()),
                ..Default::default()
            })
            .expect("bind ephemeral server");
            let addr = server.local_addr().to_string();
            let handle = server.handle();
            let join = std::thread::spawn(move || server.run());
            phases.push(("single", run_phase("single", &addr, &cli, false)));
            handle.shutdown();
            let _ = join.join();

            // Restart-replay: a fresh process restored from the drained
            // server's snapshot answers the same mix. Everything it
            // serves — warm-up included — must come out of the restored
            // dedup cache, never be recomputed.
            let restored = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 4,
                snapshot_file: Some(snap_path.clone()),
                ..Default::default()
            })
            .expect("bind restored server");
            let addr = restored.local_addr().to_string();
            let handle = restored.handle();
            let join = std::thread::spawn(move || restored.run());
            phases.push((
                "restart_replay",
                run_phase("restart_replay", &addr, &cli, false),
            ));
            let restored_cold = fetch_stats(&addr)
                .and_then(|s| WorkerMetrics::decode(&s))
                .map_or(u64::MAX, |m| m.dedup.misses);
            if let Some((_, phase)) = phases.last_mut() {
                if let Json::Obj(fields) = &mut phase.report {
                    fields.push((
                        "restored_cold_misses".to_string(),
                        Json::from(restored_cold),
                    ));
                }
            }
            handle.shutdown();
            let _ = join.join();
            let _ = std::fs::remove_file(&snap_path);

            if cli.router {
                let router_config = RouterConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: 4,
                    ..Default::default()
                };
                // The worker parks a thread per keep-alive connection, so
                // it needs headroom over the router's connection-pool
                // bound (probes and stats fan-outs must never queue
                // behind parked proxy sockets).
                let worker_threads = router_config.upstream_connections + 2;
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        Server::spawn(ServerConfig {
                            addr: "127.0.0.1:0".into(),
                            threads: worker_threads,
                            ..Default::default()
                        })
                        .expect("spawn worker")
                    })
                    .collect();
                let router = if cli.fault_plans.is_empty() {
                    Router::spawn(RouterConfig {
                        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
                        ..router_config.clone()
                    })
                    .expect("spawn router")
                } else {
                    // Fault plans wrap each worker's HTTP transport, so
                    // the chaos applies to the real pooled wire path.
                    let specs = workers
                        .iter()
                        .enumerate()
                        .map(|(i, w)| {
                            let http = Box::new(HttpTransport::new(
                                w.addr(),
                                router_config.upstream_connections,
                            ));
                            WorkerSpec::Custom(wrap_faults(http, i, &cli.fault_plans))
                        })
                        .collect();
                    Router::spawn_with_workers(router_config.clone(), specs)
                        .expect("spawn faulted router")
                };
                let addr = router.addr().to_string();
                phases.push(("router_http", run_phase("router_http", &addr, &cli, true)));
                let _ = router.shutdown_and_join();
                for w in workers {
                    let _ = w.shutdown_and_join();
                }

                // The same sharded tier with zero worker sockets: two
                // in-process cores behind direct dispatch — the transport
                // that collapses the loopback tax.
                let cores: Vec<Arc<WorkerCore>> = (0..2)
                    .map(|_| {
                        WorkerCore::new(ServerConfig {
                            addr: "in-process".into(),
                            ..Default::default()
                        })
                    })
                    .collect();
                let specs = cores
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        if cli.fault_plans.is_empty() {
                            WorkerSpec::Local(Arc::clone(c))
                        } else {
                            let local = Box::new(LocalTransport::new(Arc::clone(c)));
                            WorkerSpec::Custom(wrap_faults(local, i, &cli.fault_plans))
                        }
                    })
                    .collect();
                let router =
                    Router::spawn_with_workers(router_config, specs).expect("spawn local router");
                let addr = router.addr().to_string();
                phases.push(("router_local", run_phase("router_local", &addr, &cli, true)));
                let _ = router.shutdown_and_join();
            }
        }
    }

    // With a single-process baseline in the run, record each router
    // phase's throughput as a fraction of it — the loopback-tax number
    // the local transport exists to fix.
    if let Some(single_rps) = phases
        .iter()
        .find(|(label, _)| *label == "single")
        .and_then(|(_, p)| p.report.get("throughput_rps"))
        .and_then(Json::as_f64)
        .filter(|&r| r > 0.0)
    {
        for (label, phase) in phases.iter_mut() {
            if !label.starts_with("router") {
                continue;
            }
            let rps = phase
                .report
                .get("throughput_rps")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if let Json::Obj(fields) = &mut phase.report {
                fields.push((
                    "vs_single_throughput".to_string(),
                    Json::from(((rps / single_rps) * 1e4).round() / 1e4),
                ));
            }
        }
    }
    // The restart-replay phase records its p50 relative to the
    // steady-state warm baseline: a restored process should sit in the
    // same warm regime, not pay a cold-start tax per request.
    if let Some(single_p50) = phases
        .iter()
        .find(|(label, _)| *label == "single")
        .and_then(|(_, p)| p.report.get("p50_us"))
        .and_then(Json::as_f64)
        .filter(|&r| r > 0.0)
    {
        if let Some((_, phase)) = phases
            .iter_mut()
            .find(|(label, _)| *label == "restart_replay")
        {
            let p50 = phase
                .report
                .get("p50_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if let Json::Obj(fields) = &mut phase.report {
                fields.push((
                    "vs_single_p50".to_string(),
                    Json::from(((p50 / single_p50) * 1e4).round() / 1e4),
                ));
            }
        }
    }

    // One phase → the phase's flat document (the committed single-process
    // schema); two phases → one section per phase, side by side.
    let report = if phases.len() == 1 {
        let mut fields = vec![("bench".to_string(), Json::from("servload"))];
        if let Json::Obj(pairs) = &phases[0].1.report {
            fields.extend(pairs.clone());
        }
        Json::Obj(fields)
    } else {
        let mut fields = vec![("bench".to_string(), Json::from("servload"))];
        for (label, phase) in &phases {
            fields.push((label.to_string(), phase.report.clone()));
        }
        Json::Obj(fields)
    };

    let out_path = cli.out.clone().or_else(|| {
        if cli.smoke {
            None // a smoke run against a foreign server is not an artifact
        } else {
            let dir = std::env::var("PERFBENCH_OUT_DIR").unwrap_or_else(|_| ".".into());
            Some(format!("{dir}/BENCH_server.json"))
        }
    });
    if let Some(path) = out_path {
        // Pretty-print the top level for diff-friendly commits.
        let mut text = String::from("{\n");
        if let Json::Obj(pairs) = &report {
            for (i, (k, v)) in pairs.iter().enumerate() {
                text.push_str(&format!(
                    "  {}: {v}{}\n",
                    Json::from(k.as_str()),
                    if i + 1 < pairs.len() { "," } else { "" }
                ));
            }
        }
        text.push_str("}\n");
        std::fs::write(&path, text).expect("write artifact");
        println!("servload: wrote {path}");
    }

    if cli.smoke {
        let mut failed = false;
        for (label, phase) in &phases {
            if phase.n_5xx > 0 || phase.n_2xx == 0 {
                eprintln!(
                    "servload: SMOKE FAILED [{label}] (2xx {}, 5xx {})",
                    phase.n_2xx, phase.n_5xx
                );
                failed = true;
            }
        }
        // Router smoke: in every router phase (HTTP and local alike),
        // the hash must actually shard (more than one worker loaded) and
        // every loaded shard must have served warm dedup hits — the
        // property the sharded tier exists for. Under a fault plan the
        // spread gates don't hold by design: a flapping worker is off
        // the ring for much of the run, concentrating keys on the
        // survivors and recomputing them cold after each revival. The
        // chaos gate is the zero-5xx assertion above.
        let sharding_gates = cli.fault_plans.is_empty();
        for (label, phase) in phases
            .iter()
            .filter(|(l, _)| sharding_gates && l.starts_with("router"))
        {
            if phase.shards_loaded < 2 {
                eprintln!(
                    "servload: SMOKE FAILED [{label}] only {} shard(s) carried traffic",
                    phase.shards_loaded
                );
                failed = true;
            }
            if phase.shards_without_warm_hits > 0 {
                eprintln!(
                    "servload: SMOKE FAILED [{label}] {} loaded shard(s) served no dedup hits",
                    phase.shards_without_warm_hits
                );
                failed = true;
            }
        }
        // Restart smoke: a restored process must replay its old keys
        // without recomputing a single one. Only gated on clean runs —
        // under a deadline or a fault plan, clipped requests can leave
        // leader claims uncounted either way.
        if cli.deadline_ms.is_none() && cli.fault_plans.is_empty() {
            for (label, phase) in phases.iter().filter(|(l, _)| *l == "restart_replay") {
                let cold = phase
                    .report
                    .get("restored_cold_misses")
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX);
                if cold != 0 {
                    eprintln!(
                        "servload: SMOKE FAILED [{label}] restored process recomputed \
                         {cold} request(s) cold"
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(2);
        }
        println!(
            "servload: smoke ok (zero 5xx across {} phase(s))",
            phases.len()
        );
    }
}
