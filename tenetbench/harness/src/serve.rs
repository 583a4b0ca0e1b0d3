//! `serve_mixed`: `tenet route` with its defaults, in one process — the
//! HTTP router in front of two in-process workers (local transport,
//! replication 2) — under a closed loop of 2 keep-alive connections
//! driven by 2 client threads. One op is one `POST /v1/analyze`.
//!
//! Each connection draws from its own seeded key stream. Three of every
//! four requests are new keys (GEMM n ∈ {8, 12, 16}, window 1 or 2, and a
//! bandwidth no other request uses): a dedup miss on a warm memo. The
//! fourth repeats one of the connection's last 64 keys: a dedup hit. The
//! streams are disjoint, so the seed fixes every dedup outcome.

use crate::calib::{process_cpu_s, Calib};
use crate::util::{fast_kinds, median, memo_entries, time_setup, IslTally, Measured, Rng, Trace};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_core::{export, isl_cache, Analysis, AnalysisOptions};
use tenet_router::{Router, RouterConfig, SpawnedRouter, WorkerSpec};
use tenet_server::http::{Headers, ResponseReader};
use tenet_server::{ServerConfig, WorkerCore};

const SHAPES: [usize; 3] = [8, 12, 16];
const WINDOWS: [u64; 2] = [1, 2];
const CLIENTS: usize = 2;
/// Workers behind the router (`tenet route`'s default).
const WORKERS: usize = 2;
/// A repeat draws from this many of its connection's latest new keys.
const RECENT: usize = 64;
const SETUP_REPEATS: usize = 31;
/// Untraced/traced pass pairs in the traced run.
const TRACE_PAIRS: usize = 4;
/// Requests per connection in each pass of the traced run.
const TRACE_REQUESTS: usize = 500;
/// Traced requests per connection between two trace-fetch batches.
const TRACE_BATCH: usize = 16;
/// Requests per connection in a measured run, per second of `--seconds`.
/// A run sends a fixed count rather than running to a deadline: the
/// router remembers every distinct key it warmed (up to 64Ki), so with a
/// deadline the run's peak RSS would follow the host's speed. On a shared
/// 2-vCPU host, a run at `--seconds 20` sent its requests in 5.4–26 s,
/// by the host's speed.
const REQUESTS_PER_CONN_PER_S: f64 = 1500.0;
/// Load passes of a measured run; calibration passes run between them,
/// while the cluster is idle.
const MEASURE_PASSES: usize = 20;
/// Calibration samples between two load passes.
const CAL_SAMPLES: usize = 3;
/// Marks the trace ids of transport probes apart from request ids.
const PROBE_ID: u64 = 1 << 31;
/// The warm-up pass's bandwidth; key streams start far above it.
const WARM_BANDWIDTH: usize = 7;
const FIRST_BANDWIDTH: usize = 100;

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

fn analyze_body(n: usize, bandwidth: usize, window: u64) -> String {
    Json::obj([
        ("problem", Json::from(gemm_problem(n, bandwidth))),
        ("window", Json::from(window)),
    ])
    .to_string()
}

/// The report fields that do not depend on bandwidth, canonicalized.
fn invariant_fields(report: &Json) -> Option<String> {
    let field = |k: &str| report.get(k).cloned();
    Some(
        Json::obj([
            ("macs", field("macs")?),
            ("tensors", field("tensors")?),
            ("utilization", field("utilization")?),
            (
                "latency.compute",
                report.get("latency")?.get("compute")?.clone(),
            ),
            ("bandwidth", field("bandwidth")?),
            ("energy", field("energy")?),
        ])
        .to_canonical_string(),
    )
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
    reader: ResponseReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = ResponseReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace_id: Option<u64>,
    ) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        let trace = match trace_id {
            Some(id) => format!("X-Tenet-Trace-Id: {id:016x}\r\n"),
            None => String::new(),
        };
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: tenetbench\r\nContent-Type: application/json\r\n{trace}Content-Length: {}\r\n\r\n",
            body.len()
        );
        request.push_str(body);
        self.stream.write_all(request.as_bytes())?;
        if trace_id.is_some() {
            self.reader.next_response_with_headers()
        } else {
            let (status, body) = self.reader.next_response()?;
            Ok((status, Vec::new(), body))
        }
    }

    fn get_json(&mut self, path: &str) -> Option<Json> {
        let (status, _, body) = self.send("GET", path, "", None).ok()?;
        if status != 200 {
            return None;
        }
        Json::parse(std::str::from_utf8(&body).ok()?).ok()
    }
}

/// The router and its workers, drained and joined on drop.
struct Cluster {
    router: Option<SpawnedRouter>,
}

impl Cluster {
    fn addr(&self) -> SocketAddr {
        self.router.as_ref().expect("running router").addr()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            let _ = r.shutdown_and_join();
        }
    }
}

/// Set-up: an empty memo, the router and workers, and the warm-up pass
/// (every shape and window once).
fn boot() -> Cluster {
    isl_cache::clear();
    let specs = (0..WORKERS)
        .map(|_| {
            WorkerSpec::Local(WorkerCore::new(ServerConfig {
                addr: "in-process".into(),
                ..Default::default()
            }))
        })
        .collect();
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    };
    let cluster = Cluster {
        router: Some(Router::spawn_with_workers(config, specs).expect("spawn router")),
    };
    let mut conn = Conn::open(cluster.addr()).expect("connect to router");
    for n in SHAPES {
        for w in WINDOWS {
            let (status, _, _) = conn
                .send(
                    "POST",
                    "/v1/analyze",
                    &analyze_body(n, WARM_BANDWIDTH, w),
                    None,
                )
                .expect("warm-up request");
            assert_eq!(status, 200, "warm-up request failed");
        }
    }
    cluster
}

/// One connection's seeded key stream.
struct KeyStream {
    rng: Rng,
    conn: usize,
    sent: usize,
    fresh: usize,
    /// The latest new keys: request body and first answer.
    recent: VecDeque<(String, Vec<u8>)>,
}

enum Shot {
    Miss { n: usize, window: u64, body: String },
    Hit(usize),
}

impl KeyStream {
    fn new(seed: u64, conn: usize) -> KeyStream {
        KeyStream {
            rng: Rng::new(seed.wrapping_add(conn as u64 * 0x1000_0000_0000_0001)),
            conn,
            sent: 0,
            fresh: 0,
            recent: VecDeque::with_capacity(RECENT),
        }
    }

    fn next(&mut self) -> Shot {
        let i = self.sent;
        self.sent += 1;
        if i % 4 == 3 && !self.recent.is_empty() {
            return Shot::Hit(self.rng.below(self.recent.len()));
        }
        let n = SHAPES[self.rng.below(SHAPES.len())];
        let window = WINDOWS[self.rng.below(WINDOWS.len())];
        let bandwidth = FIRST_BANDWIDTH + CLIENTS * self.fresh + self.conn;
        self.fresh += 1;
        Shot::Miss {
            n,
            window,
            body: analyze_body(n, bandwidth, window),
        }
    }

    fn remember(&mut self, body: String, answer: Vec<u8>) {
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back((body, answer));
    }
}

type Refs = BTreeMap<(usize, u64), String>;

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    op_ms: Vec<f64>,
    /// When the last response arrived.
    last_done: Option<Instant>,
    ok: u64,
    problems: Vec<String>,
    /// Per-phase milliseconds summed over traced requests, by tier.
    router_phases: BTreeMap<String, f64>,
    worker_phases: BTreeMap<String, f64>,
    /// Client-to-router socket hop, summed over traced requests.
    transport_ms: f64,
}

fn note(problems: &mut Vec<String>, msg: String) {
    if !problems.contains(&msg) {
        problems.push(msg);
    }
}

/// Adds every `name;dur=<ms>` entry of a `Server-Timing` value.
fn add_server_timing(value: &str, acc: &mut BTreeMap<String, f64>) {
    for entry in value.split(',') {
        let mut parts = entry.trim().split(';');
        let name = parts.next().unwrap_or("");
        for attr in parts {
            if let Some(ms) = attr
                .trim()
                .strip_prefix("dur=")
                .and_then(|v| v.parse::<f64>().ok())
            {
                *acc.entry(name.to_string()).or_default() += ms;
            }
        }
    }
}

/// Adds the router's phases from the `X-Tenet-Server-Timing` header.
fn add_router_phases(headers: &Headers, acc: &mut BTreeMap<String, f64>) {
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("x-tenet-server-timing") {
            add_server_timing(value, acc);
        }
    }
}

/// The client-to-router hop no span covers (socket writes and reads,
/// loopback, thread wake-ups), in milliseconds: the latency of a traced
/// `GET /v1/healthz`, which the router answers itself, minus the router's
/// phases for it. Sent right after a traced request on the same
/// connection, so it sees the same load.
fn transport_probe(conn: &mut Conn, trace_id: u64) -> Option<f64> {
    let t0 = Instant::now();
    let (status, headers, _) = conn.send("GET", "/v1/healthz", "", Some(trace_id)).ok()?;
    let seen_ms = t0.elapsed().as_secs_f64() * 1e3;
    if status != 200 {
        return None;
    }
    let mut phases = BTreeMap::new();
    add_router_phases(&headers, &mut phases);
    Some((seen_ms - phases.values().sum::<f64>()).max(0.0))
}

/// Adds the phase spans of the worker's `POST /v1/analyze` record of one
/// trace; returns whether the record was found.
fn add_worker_phases(doc: &Json, acc: &mut BTreeMap<String, f64>) -> bool {
    let Some(records) = doc.get("records").and_then(Json::as_arr) else {
        return false;
    };
    let Some(rec) = records.iter().find(|r| {
        r.get("tier").and_then(Json::as_str) == Some("worker")
            && r.get("endpoint").and_then(Json::as_str) == Some("POST /v1/analyze")
    }) else {
        return false;
    };
    for span in rec.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
        if span.get("phase").and_then(Json::as_bool) == Some(true) {
            let name = span.get("name").and_then(Json::as_str).unwrap_or("");
            let us = span.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
            *acc.entry(name.to_string()).or_default() += us as f64 / 1e3;
        }
    }
    true
}

/// The closed loop of one connection: the next `requests` requests of
/// its key stream.
fn client(
    addr: SocketAddr,
    keys: &mut KeyStream,
    refs: &Refs,
    requests: usize,
    trace: bool,
    start: &Barrier,
) -> ClientOut {
    let mut out = ClientOut {
        op_ms: Vec::with_capacity(requests),
        ..Default::default()
    };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.problems
                .push(format!("serve_mixed: connect failed: {e}"));
            start.wait();
            return out;
        }
    };
    start.wait();
    let mut pending = Vec::with_capacity(TRACE_BATCH);
    let end = keys.sent + requests;
    while keys.sent < end {
        let shot = keys.next();
        let body = match &shot {
            Shot::Miss { body, .. } => body.as_str(),
            Shot::Hit(i) => keys.recent[*i].0.as_str(),
        };
        let trace_id = trace.then(|| (((keys.conn as u64) + 1) << 32) | keys.sent as u64);
        let t0 = Instant::now();
        let sent = conn.send("POST", "/v1/analyze", body, trace_id);
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.last_done = Some(Instant::now());
        let (status, headers, answer) = match sent {
            Ok(r) => r,
            Err(e) => {
                note(
                    &mut out.problems,
                    format!("serve_mixed: request failed: {e}"),
                );
                match Conn::open(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
                continue;
            }
        };
        let ok = status == 200
            && match &shot {
                Shot::Hit(i) => keys.recent[*i].1 == answer,
                Shot::Miss { n, window, .. } => std::str::from_utf8(&answer)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                    .and_then(|doc| invariant_fields(doc.get("reports")?.as_arr()?.first()?))
                    .is_some_and(|got| refs.get(&(*n, *window)) == Some(&got)),
            };
        if ok {
            out.ok += 1;
        } else {
            note(
                &mut out.problems,
                format!("serve_mixed: a response (status {status}) differs from its reference"),
            );
        }
        if let Some(id) = trace_id {
            add_router_phases(&headers, &mut out.router_phases);
            match transport_probe(&mut conn, id | PROBE_ID) {
                Some(ms) => out.transport_ms += ms,
                None => note(
                    &mut out.problems,
                    "serve_mixed: the transport probe failed".into(),
                ),
            }
            pending.push(id);
            if pending.len() == TRACE_BATCH {
                fetch_worker_phases(&mut conn, &mut pending, &mut out);
            }
        }
        if let Shot::Miss { body, .. } = shot {
            keys.remember(body, answer);
        }
    }
    fetch_worker_phases(&mut conn, &mut pending, &mut out);
    out
}

/// Collects the worker phases of the pending traced requests. Fetched in
/// small batches between requests, so the fetches never overlap a timed
/// request on this connection and the trace rings (256 records per tier)
/// still hold every record.
fn fetch_worker_phases(conn: &mut Conn, pending: &mut Vec<u64>, out: &mut ClientOut) {
    for id in pending.drain(..) {
        let found = conn
            .get_json(&format!("/v1/trace/{id:016x}"))
            .is_some_and(|doc| add_worker_phases(&doc, &mut out.worker_phases));
        if !found {
            note(
                &mut out.problems,
                "serve_mixed: a worker trace record is missing".into(),
            );
        }
    }
}

/// Every connection's key stream for one seed.
fn key_streams(seed: u64) -> Vec<KeyStream> {
    (0..CLIENTS).map(|c| KeyStream::new(seed, c)).collect()
}

/// Runs the closed loop on every connection, each sending the next
/// `requests` of its key stream; returns the per-thread results and the
/// common start.
fn drive(
    addr: SocketAddr,
    streams: &mut [KeyStream],
    refs: &Refs,
    requests: usize,
    trace: bool,
) -> (Vec<ClientOut>, Instant) {
    let start = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|keys| {
                let start = &start;
                scope.spawn(move || client(addr, keys, refs, requests, trace, start))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, t0)
    })
}

fn load_refs(dir: &std::path::Path) -> Result<Refs, String> {
    let mut refs = Refs::new();
    for l in crate::read_ref_lines(&dir.join("serve_mixed.tsv"))? {
        let mut f = l.splitn(3, '\t');
        let (Some(n), Some(w), Some(fields)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("malformed serve_mixed reference line `{l}`"));
        };
        let key = (
            n.parse().map_err(|_| format!("bad shape in `{l}`"))?,
            w.parse().map_err(|_| format!("bad window in `{l}`"))?,
        );
        refs.insert(key, fields.to_string());
    }
    if refs.len() != SHAPES.len() * WINDOWS.len() {
        return Err("serve_mixed reference misses a shape or window".into());
    }
    Ok(refs)
}

/// Adds one pass of every connection to `m`.
fn fold(outs: Vec<ClientOut>, t0: Instant, m: &mut Measured) {
    let mut pass_s: f64 = 0.0;
    for o in outs {
        m.op_ms.extend(o.op_ms);
        if let Some(t) = o.last_done {
            pass_s = pass_s.max(t.saturating_duration_since(t0).as_secs_f64());
        }
        m.ok += o.ok;
        for p in o.problems {
            note(&mut m.problems, p);
        }
    }
    m.wall_s += pass_s;
}

/// Adds per-phase milliseconds of one connection to the run's totals.
fn add_phases(from: &BTreeMap<String, f64>, into: &mut BTreeMap<String, f64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0.0) += v;
    }
}

pub fn measure(seed: u64, seconds: f64, refs_dir: &std::path::Path) -> Result<Measured, String> {
    let refs = load_refs(refs_dir)?;
    let (mut setup_secs, cluster) = time_setup(SETUP_REPEATS, boot);
    let mut m = Measured::default();
    let mut cal = Calib::new();
    let mut streams = key_streams(seed);
    let per_pass = (seconds * REQUESTS_PER_CONN_PER_S / MEASURE_PASSES as f64).ceil() as usize;
    for _ in 0..MEASURE_PASSES {
        let cpu0 = process_cpu_s();
        let (outs, t0) = drive(cluster.addr(), &mut streams, &refs, per_pass, false);
        m.cpu_s += process_cpu_s() - cpu0;
        fold(outs, t0, &mut m);
        for _ in 0..CAL_SAMPLES {
            cal.sample();
        }
    }
    m.peak_rss_mb = crate::util::peak_rss_mb();
    m.calibrate(&cal);
    drop(cluster);
    setup_secs.extend(time_setup(SETUP_REPEATS, boot).0);
    m.setup_s = median(&setup_secs);
    Ok(m)
}

/// `/v1/stats` counters the traced run takes deltas of.
struct Stats {
    dedup_hits: u64,
    dedup_misses: u64,
    dedup_entries: u64,
    isl_hits: u64,
    isl_misses: u64,
    isl_cold_us: u64,
    retries: u64,
    hedges_fired: u64,
    routed: Vec<u64>,
}

fn stats(addr: SocketAddr) -> Result<Stats, String> {
    let doc = Conn::open(addr)
        .ok()
        .and_then(|mut c| c.get_json("/v1/stats"))
        .ok_or("serve_mixed: GET /v1/stats failed")?;
    let at = |path: &[&str]| -> u64 {
        path.iter()
            .try_fold(&doc, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let routed = doc
        .get("shards")
        .and_then(Json::as_arr)
        .map(|shards| {
            shards
                .iter()
                .map(|s| s.get("routed").and_then(Json::as_u64).unwrap_or(0))
                .collect()
        })
        .unwrap_or_default();
    Ok(Stats {
        dedup_hits: at(&["merged", "dedup", "hits"]),
        dedup_misses: at(&["merged", "dedup", "misses"]),
        dedup_entries: at(&["merged", "dedup", "entries"]),
        isl_hits: at(&["merged", "isl_cache", "server", "hits"]),
        isl_misses: at(&["merged", "isl_cache", "server", "misses"]),
        isl_cold_us: at(&["merged", "isl_cache", "server", "cold_us"]),
        retries: at(&["router", "retries"]),
        hedges_fired: at(&["router", "hedges", "fired"]),
        routed,
    })
}

/// Traced run: `TRACE_PAIRS` pairs of passes, each pass `TRACE_REQUESTS`
/// per connection on a fresh cluster: the seeded streams untraced, then
/// the same streams traced. Alternating the two keeps the tracing overhead
/// apart from the host's speed drifting during the run. Router phases come
/// from `X-Tenet-Server-Timing`, worker phases from `GET /v1/trace/<id>`,
/// counts from `/v1/stats` deltas.
pub fn trace(seed: u64, refs_dir: &std::path::Path) -> Result<Trace, String> {
    let refs = load_refs(refs_dir)?;
    let mut t = Trace::new();
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let (mut router, mut worker) = (BTreeMap::new(), BTreeMap::new());
    let mut transport_ms = 0.0;
    let mut isl = IslTally::default();
    let (mut dedup_hits, mut dedup_misses, mut dedup_entries) = (0, 0, 0);
    let (mut retries, mut hedges_fired) = (0, 0);
    let mut routed = [0u64; WORKERS];
    for _ in 0..TRACE_PAIRS {
        {
            let cluster = boot();
            let (outs, t0) = drive(
                cluster.addr(),
                &mut key_streams(seed),
                &refs,
                TRACE_REQUESTS,
                false,
            );
            fold(outs, t0, &mut plain);
        }
        let cluster = boot();
        let before = stats(cluster.addr())?;
        let fast0 = fast_kinds(&tenet_core::fast_path_stats());
        let entries0 = memo_entries();
        let (outs, t0) = drive(
            cluster.addr(),
            &mut key_streams(seed),
            &refs,
            TRACE_REQUESTS,
            true,
        );
        let fast1 = fast_kinds(&tenet_core::fast_path_stats());
        let after = stats(cluster.addr())?;
        isl.note_entries(entries0, memo_entries());
        drop(cluster);
        for o in &outs {
            add_phases(&o.router_phases, &mut router);
            add_phases(&o.worker_phases, &mut worker);
            transport_ms += o.transport_ms;
        }
        fold(outs, t0, &mut traced);
        isl.hits += after.isl_hits - before.isl_hits;
        isl.misses += after.isl_misses - before.isl_misses;
        isl.cold_ns += (after.isl_cold_us - before.isl_cold_us) * 1_000;
        isl.add_fast(std::array::from_fn(|i| fast1[i] - fast0[i]));
        dedup_hits += after.dedup_hits - before.dedup_hits;
        dedup_misses += after.dedup_misses - before.dedup_misses;
        dedup_entries = after.dedup_entries;
        retries += after.retries - before.retries;
        hedges_fired += after.hedges_fired - before.hedges_fired;
        for (acc, (a, b)) in routed
            .iter_mut()
            .zip(after.routed.iter().zip(&before.routed))
        {
            *acc += a - b;
        }
    }
    t.problems.append(&mut plain.problems);
    t.problems.append(&mut traced.problems);
    let ops = traced.attempted();
    t.ops = ops;
    t.failed = ops - traced.ok;
    let per_op = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0) / ops as f64;
    isl.write(&mut t, ops);

    for (metric, span) in [
        ("server.queue_ms", "queue"),
        ("server.parse_ms", "parse"),
        ("server.canon_ms", "canon"),
        ("server.dedup_ms", "dedup"),
        ("server.compute_ms", "analyze"),
        ("server.isl_ms", "isl"),
        ("server.serialize_ms", "serialize"),
    ] {
        t.set(metric, per_op(&worker, span));
    }
    for (metric, span) in [
        ("router.queue_ms", "queue"),
        ("router.parse_ms", "parse"),
        ("router.upstream_ms", "upstream"),
        ("router.self_ms", "router"),
    ] {
        t.set(metric, per_op(&router, span));
    }
    t.set("router.transport_ms", transport_ms / ops as f64);
    t.set(
        "server.dedup_hit_ratio",
        dedup_hits as f64 / (dedup_hits + dedup_misses).max(1) as f64,
    );
    t.set("server.dedup_entries", dedup_entries as f64);
    t.set("router.hedges_fired", hedges_fired as f64);
    t.set("router.retries", retries as f64);
    let total_routed: u64 = routed.iter().sum();
    t.set(
        "router.shard_share_max",
        routed.iter().copied().max().unwrap_or(0) as f64 / total_routed.max(1) as f64,
    );

    // Attribution: the client-to-router hop, the router's own phases and
    // the worker's phases against the latency the client saw. The
    // worker's phases stand in for the router's `upstream` wait; the
    // in-process hop between the two is left in the residual.
    let client_ms: f64 = traced.op_ms.iter().sum();
    let attributed = transport_ms
        + ["queue", "parse", "router"]
            .iter()
            .map(|k| router.get(*k).copied().unwrap_or(0.0))
            .sum::<f64>()
        + worker.values().sum::<f64>();
    let covered = attributed / client_ms;
    t.set("server.phase_sum_ratio", covered);
    if (covered - 1.0).abs() > 0.10 {
        eprintln!(
            "attribution: router + worker phases cover {covered:.3} of client latency; residual {:.4} ms/op",
            (client_ms - attributed) / ops as f64
        );
    }
    // The untraced passes sent the same seeded requests.
    t.set_wall(&plain, client_ms / plain.op_ms.iter().sum::<f64>() - 1.0);

    t.counts.insert("server.requests", ops);
    t.counts.insert("server.dedup_hits", dedup_hits);
    t.counts.insert("server.dedup_misses", dedup_misses);
    t.counts.insert(
        "router.routed_max",
        routed.iter().copied().max().unwrap_or(0),
    );
    Ok(t)
}

/// Writes `refs/serve_mixed.tsv`: the bandwidth-independent report
/// fields of every shape and window, from a direct analysis.
pub fn write_refs(refs_dir: &std::path::Path) -> Result<(), String> {
    let mut lines = Vec::new();
    for n in SHAPES {
        for w in WINDOWS {
            let problem = tenet_frontend::parse_problem(&gemm_problem(n, WARM_BANDWIDTH))
                .map_err(|e| e.to_string())?;
            let arch = problem.arch.as_ref().ok_or("gemm problem has no arch")?;
            let options = AnalysisOptions {
                reuse_window: w as u32,
                ..Default::default()
            };
            let report =
                Analysis::with_options(&problem.kernel, &problem.dataflows[0], arch, options)
                    .and_then(|a| a.report())
                    .map_err(|e| e.to_string())?;
            // Through text and back, as a client reads the response.
            let json =
                Json::parse(&export::to_json(&report).to_string()).map_err(|e| e.to_string())?;
            let fields = invariant_fields(&json).ok_or("report misses a field")?;
            lines.push(format!("{n}\t{w}\t{fields}"));
        }
    }
    crate::write_ref_lines(&refs_dir.join("serve_mixed.tsv"), "serve_mixed", &lines)
}
