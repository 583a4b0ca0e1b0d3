//! `servload` — closed-loop load generator for a running analysis
//! service, single-process or sharded.
//!
//! `servload http://HOST:PORT` targets an already-running `tenet serve`,
//! or with `--router` a running `tenet route`. N client threads each hold
//! one keep-alive connection and drive a fixed request mix (several
//! `analyze` variants, a `dse` sweep, and periodic `stats` probes) as
//! fast as the target answers. Latency is recorded per request; dedup
//! effectiveness comes from the target's own `/v1/stats` deltas — for a
//! router target, the merged cluster document plus the per-shard hit
//! distribution. The summary is printed as one line; `--out FILE` also
//! writes it as JSON. Timing claims come from `tenetbench/run.py`, not
//! from this tool.
//!
//! `--smoke` asserts zero 5xx responses and a nonzero success count —
//! plus, with `--router`, that more than one shard carried traffic and
//! that every loaded shard served warm dedup hits — exiting nonzero
//! otherwise. CI runs it against every tier it boots.
//!
//! `--trace` additionally harvests each response's
//! `X-Tenet-Server-Timing` header and records the per-phase latency
//! breakdown (queue, parse, dedup, compute, isl, serialize, …) as a
//! `phases` object in the report — mean microseconds and sample count
//! per phase, the attribution view next to the end-to-end quantiles.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_server::dedup::DedupStats;
use tenet_server::http::{Headers, ResponseReader};
use tenet_server::stats::WorkerMetrics;

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
    target: String,
    threads: usize,
    requests: usize,
    out: Option<String>,
    smoke: bool,
    router: bool,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        target: String::new(),
        threads: 4,
        requests: 250,
        out: None,
        smoke: false,
        router: false,
        trace: false,
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
            other if !other.starts_with("--") && cli.target.is_empty() => {
                cli.target = normalize_addr(other)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.target.is_empty() {
        return Err("a target address is required".into());
    }
    Ok(cli)
}

/// Normalizes `http://host:port/` or `host:port` to `host:port`.
fn normalize_addr(target: &str) -> String {
    target
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string()
}

/// Sends one request on an open connection and reads the response.
fn send(
    stream: &mut TcpStream,
    reader: &mut ResponseReader<TcpStream>,
    shot: &Shot,
) -> std::io::Result<(u16, Vec<u8>)> {
    write_shot(stream, shot, None)?;
    reader.next_response()
}

/// Like [`send`] but opts the request into tracing (span recording is
/// gated on a client-sent id) and returns the response headers, for
/// runs that harvest the `X-Tenet-Server-Timing` phase breakdown.
fn send_traced(
    stream: &mut TcpStream,
    reader: &mut ResponseReader<TcpStream>,
    shot: &Shot,
    trace_id: u64,
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    write_shot(stream, shot, Some(trace_id))?;
    reader.next_response_with_headers()
}

/// Writes one request; a trace id rides along as `X-Tenet-Trace-Id` on
/// data-path shots (analyze/dse) only.
fn write_shot(stream: &mut TcpStream, shot: &Shot, trace_id: Option<u64>) -> std::io::Result<()> {
    let data_path = shot.path == "/v1/analyze" || shot.path == "/v1/dse";
    let trace = match trace_id {
        Some(id) if data_path => format!("X-Tenet-Trace-Id: {id:x}\r\n"),
        _ => String::new(),
    };
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: servload\r\nContent-Type: application/json\r\n{trace}Content-Length: {}\r\n\r\n",
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
    let (status, body) = send(&mut s, &mut r, &shot).ok()?;
    if status != 200 {
        return None;
    }
    Json::parse(std::str::from_utf8(&body).ok()?).ok()
}

struct ThreadResult {
    latencies_us: Vec<u64>,
    by_class: [u64; 3], // 2xx, 4xx, 5xx/other
    /// Per-phase `(total_ms, samples)` from `X-Tenet-Server-Timing`
    /// headers; empty unless the run collects them (`--trace`).
    phase_ms: BTreeMap<String, (f64, u64)>,
}

fn client_loop(
    addr: &str,
    shots: &[Shot],
    requests: usize,
    seed: usize,
    trace: bool,
) -> ThreadResult {
    let mut result = ThreadResult {
        latencies_us: Vec::with_capacity(requests),
        by_class: [0; 3],
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
            send_traced(&mut stream, &mut reader, shot, trace_id).map(|(status, headers, body)| {
                for (name, value) in &headers {
                    if name == "x-tenet-server-timing" {
                        accumulate_server_timing(value, &mut result.phase_ms);
                    }
                }
                (status, body)
            })
        } else {
            send(&mut stream, &mut reader, shot)
        };
        match outcome {
            Ok((status, _body)) => {
                result
                    .latencies_us
                    .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let class = match status {
                    200..=299 => 0,
                    400..=499 => 1,
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

/// What one run produced: the report plus the numbers the smoke gate
/// checks.
struct Run {
    report: Json,
    n_2xx: u64,
    n_5xx: u64,
    shards_loaded: usize,
    shards_without_warm_hits: usize,
}

/// Warm-up, measure, and summarize the target.
fn run(cli: &Cli) -> Run {
    let addr = cli.target.as_str();
    let shots = workload();
    // Warm-up: every distinct request once, so the measured run sees the
    // steady state (dedup LRU and ISL memo populated) — the regime a
    // long-running service lives in.
    {
        let (mut s, mut r) = connect(addr).expect("warm-up connect");
        for shot in &shots {
            let (status, body) = send(&mut s, &mut r, shot).expect("warm-up request");
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
                let shots = &shots;
                scope.spawn(move || client_loop(addr, shots, cli.requests, t * 3, cli.trace))
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
    let [n_2xx, n_4xx, n_5xx] = results.iter().fold([0; 3], |acc, r| {
        [
            acc[0] + r.by_class[0],
            acc[1] + r.by_class[1],
            acc[2] + r.by_class[2],
        ]
    });
    let total = n_2xx + n_4xx + n_5xx;
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
        ("bench".to_string(), Json::from("servload")),
        (
            "mode".to_string(),
            Json::from(if cli.router { "router" } else { "single" }),
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
    if cli.router {
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
    // (queue / parse / dedup / compute / isl / serialize / worker at the
    // worker; queue / upstream / backoff / router at the router tier).
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
        "servload: {total} requests in {:.1} ms -> {throughput:.0} req/s \
         (p50 {} us, p99 {} us, 5xx {n_5xx}, dedup hit rate {dedup_rate:.4})",
        wall.as_secs_f64() * 1e3,
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.99),
    );

    Run {
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
                "usage: servload http://HOST:PORT [--router] [--trace] [--threads N] \
                 [--requests N-per-thread] [--out FILE] [--smoke]"
            );
            std::process::exit(1);
        }
    };
    let run = run(&cli);

    if let Some(path) = &cli.out {
        // Pretty-print the top level for diff-friendly reading.
        let mut text = String::from("{\n");
        if let Json::Obj(pairs) = &run.report {
            for (i, (k, v)) in pairs.iter().enumerate() {
                text.push_str(&format!(
                    "  {}: {v}{}\n",
                    Json::from(k.as_str()),
                    if i + 1 < pairs.len() { "," } else { "" }
                ));
            }
        }
        text.push_str("}\n");
        std::fs::write(path, text).expect("write report");
        println!("servload: wrote {path}");
    }

    if cli.smoke {
        let mut failed = false;
        if run.n_5xx > 0 || run.n_2xx == 0 {
            eprintln!(
                "servload: SMOKE FAILED (2xx {}, 5xx {})",
                run.n_2xx, run.n_5xx
            );
            failed = true;
        }
        // Router smoke: the hash must actually shard (more than one
        // worker loaded) and every loaded shard must have served warm
        // dedup hits — the property the sharded tier exists for.
        if cli.router && run.shards_loaded < 2 {
            eprintln!(
                "servload: SMOKE FAILED only {} shard(s) carried traffic",
                run.shards_loaded
            );
            failed = true;
        }
        if cli.router && run.shards_without_warm_hits > 0 {
            eprintln!(
                "servload: SMOKE FAILED {} loaded shard(s) served no dedup hits",
                run.shards_without_warm_hits
            );
            failed = true;
        }
        if failed {
            std::process::exit(2);
        }
        println!("servload: smoke ok (zero 5xx)");
    }
}
