//! End-to-end tests: a real server on an ephemeral port, raw TCP
//! clients, concurrent traffic, and graceful shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use tenet_core::json::Json;
use tenet_server::http::{read_response, ResponseReader};
use tenet_server::{Server, ServerConfig, MAX_BODY};

const GEMM_PROBLEM: &str = "\
for (i = 0; i < 4; i++)
  for (j = 0; j < 4; j++)
    for (k = 0; k < 4; k++)
      S: Y[i][j] += A[i][k] * B[k][j];

{ S[i,j,k] -> (PE[i,j] | T[i + j + k]) }

arch \"4x4\" { array = [4, 4] interconnect = systolic2d bandwidth = 8 }
";

/// Starts a server on an ephemeral port; returns its address and handle.
fn start() -> (std::net::SocketAddr, tenet_server::ServerHandle) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        read_timeout: Duration::from_millis(2000),
        write_timeout: Duration::from_millis(2000),
        ..Default::default()
    };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    read_response(&mut s).expect("read response")
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(req.as_bytes()).unwrap();
    read_response(&mut s).expect("read response")
}

fn analyze_body() -> String {
    Json::obj([("problem", Json::from(GEMM_PROBLEM))]).to_string()
}

fn dse_body() -> String {
    Json::obj([
        ("problem", Json::from(GEMM_PROBLEM)),
        ("pe", Json::from(4u64)),
        ("top", Json::from(3u64)),
        ("threads", Json::from(2u64)),
    ])
    .to_string()
}

#[test]
fn healthz_stats_and_analyze_roundtrip() {
    let (addr, handle) = start();

    let (status, body) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));

    let (status, body) = post(addr, "/v1/analyze", &analyze_body());
    assert_eq!(
        status,
        200,
        "analyze failed: {}",
        String::from_utf8_lossy(&body)
    );
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    // The kernel is named after its statement label (`S:`).
    assert_eq!(v.get("op").and_then(Json::as_str), Some("S"));
    let reports = v.get("reports").and_then(Json::as_arr).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].get("macs").and_then(Json::as_u64), Some(64));
    assert!(reports[0].get("latency").is_some());

    let (status, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let requests = v.get("requests").unwrap();
    assert!(requests.get("completed").and_then(Json::as_u64).unwrap() >= 2);
    assert!(v.get("dedup").is_some());
    assert!(v.get("isl_cache").is_some());

    handle.shutdown();
}

#[test]
fn error_taxonomy_maps_to_statuses() {
    let (addr, handle) = start();

    // Parse error (broken JSON) → 400 kind=parse.
    let (status, body) = post(addr, "/v1/analyze", "{not json");
    assert_eq!(status, 400);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("parse")
    );

    // Usage error (missing field) → 400 kind=usage.
    let (status, body) = post(addr, "/v1/analyze", "{\"nope\": 1}");
    assert_eq!(status, 400);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("usage")
    );

    // Unknown route → 404; wrong method → 405.
    assert_eq!(get(addr, "/v1/nope").0, 404);
    let (status, _) = {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"DELETE /v1/analyze HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        read_response(&mut s).unwrap()
    };
    assert_eq!(status, 405);

    // Oversized body → 413 before any handler runs.
    let huge = (MAX_BODY + 1).to_string();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!("POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: {huge}\r\n\r\n")
            .as_bytes(),
    )
    .unwrap();
    let (status, _) = read_response(&mut s).unwrap();
    assert_eq!(status, 413);

    handle.shutdown();
}

#[test]
fn concurrent_duplicates_are_bit_identical_and_deduped() {
    let (addr, handle) = start();

    // Mixed concurrent traffic: many duplicate analyze requests (two
    // textual spellings of the same logical request — key order must not
    // matter) plus dse requests, from many client threads.
    let analyze_a = Json::obj([
        ("problem", Json::from(GEMM_PROBLEM)),
        ("window", Json::from(1u64)),
    ])
    .to_string();
    let analyze_b = Json::obj([
        ("window", Json::from(1u64)),
        ("problem", Json::from(GEMM_PROBLEM)),
    ])
    .to_string();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let analyze_a = analyze_a.clone();
            let analyze_b = analyze_b.clone();
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for round in 0..3 {
                    let (status, body) = if (i + round) % 4 == 3 {
                        post(addr, "/v1/dse", &dse_body())
                    } else if i % 2 == 0 {
                        post(addr, "/v1/analyze", &analyze_a)
                    } else {
                        post(addr, "/v1/analyze", &analyze_b)
                    };
                    assert_eq!(
                        status,
                        200,
                        "request failed: {}",
                        String::from_utf8_lossy(&body)
                    );
                    if (i + round) % 4 != 3 {
                        bodies.push(body);
                    }
                }
                bodies
            })
        })
        .collect();
    let mut analyze_bodies = Vec::new();
    for c in clients {
        analyze_bodies.extend(c.join().unwrap());
    }
    assert!(analyze_bodies.len() >= 16);
    for b in &analyze_bodies {
        assert_eq!(
            b, &analyze_bodies[0],
            "duplicate analyze responses must be bit-identical"
        );
    }

    // The dedup layer must have collapsed the duplicates: exactly one
    // analyze miss and one dse miss.
    let (_, body) = get(addr, "/v1/stats");
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let dedup = v.get("dedup").unwrap();
    assert_eq!(
        dedup.get("misses").and_then(Json::as_u64),
        Some(2),
        "stats: {v}"
    );
    let served = dedup.get("hits").and_then(Json::as_u64).unwrap()
        + dedup.get("inflight_waits").and_then(Json::as_u64).unwrap();
    assert_eq!(served, 24 - 2, "every duplicate must come from the layer");

    handle.shutdown();
}

#[test]
fn chunked_transfer_encoding_is_501_over_the_wire() {
    // ROADMAP pins this behavior: the codec only speaks Content-Length
    // framing, and a chunked body must be refused with 501 (not silently
    // mis-framed) so streaming clients fail loudly. This locks the status
    // at the worker layer; the router layer has its own twin of this test.
    let (addr, handle) = start();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
          5\r\nhello\r\n0\r\n\r\n",
    )
    .unwrap();
    let (status, body) = read_response(&mut s).unwrap();
    assert_eq!(status, 501, "chunked framing must be 501 Not Implemented");
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("parse")
    );
    assert!(v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap()
        .contains("transfer-encoding"));
    handle.shutdown();
}

#[test]
fn dse_pagination_and_field_filtering() {
    let (addr, handle) = start();

    // The unpaginated sweep: how many valid points exist?
    let (status, body) = post(addr, "/v1/dse", &dse_body());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let valid = v.get("valid").and_then(Json::as_u64).unwrap() as usize;
    assert!(valid >= 2, "sweep too small to exercise paging: {valid}");
    let full: Vec<String> = {
        let (_, body) = post(
            addr,
            "/v1/dse",
            &Json::obj([
                ("problem", Json::from(GEMM_PROBLEM)),
                ("pe", Json::from(4u64)),
                ("limit", Json::from(1000u64)),
            ])
            .to_string(),
        );
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        v.get("points")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.to_string())
            .collect()
    };
    assert_eq!(full.len(), valid);

    // A window from the middle equals the same slice of the full list.
    let page_req = |offset: u64, limit: u64| -> (u16, Json) {
        let body = Json::obj([
            ("problem", Json::from(GEMM_PROBLEM)),
            ("pe", Json::from(4u64)),
            ("offset", Json::from(offset)),
            ("limit", Json::from(limit)),
        ])
        .to_string();
        let (status, body) = post(addr, "/v1/dse", &body);
        (
            status,
            Json::parse(std::str::from_utf8(&body).unwrap()).unwrap(),
        )
    };
    let (status, v) = page_req(1, 2);
    assert_eq!(status, 200);
    let points = v.get("points").and_then(Json::as_arr).unwrap();
    let expect: Vec<&String> = full.iter().skip(1).take(2).collect();
    assert_eq!(points.len(), expect.len());
    for (got, want) in points.iter().zip(expect) {
        assert_eq!(&got.to_string(), want, "page must be a slice of the rank");
    }

    // Offset past the end: empty page, still 200.
    let (status, v) = page_req(9999, 5);
    assert_eq!(status, 200);
    assert_eq!(v.get("points").and_then(Json::as_arr).unwrap().len(), 0);

    // Limit 0: empty page, still 200.
    let (status, v) = page_req(0, 0);
    assert_eq!(status, 200);
    assert_eq!(v.get("points").and_then(Json::as_arr).unwrap().len(), 0);

    // `fields` trims every point (and the pareto list) to the selection.
    let body = Json::obj([
        ("problem", Json::from(GEMM_PROBLEM)),
        ("pe", Json::from(4u64)),
        ("limit", Json::from(2u64)),
        (
            "fields",
            Json::Arr(vec![Json::from("latency"), Json::from("sbw")]),
        ),
    ])
    .to_string();
    let (status, body) = post(addr, "/v1/dse", &body);
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    for list in ["points", "pareto"] {
        for p in v.get(list).and_then(Json::as_arr).unwrap() {
            assert!(p.get("latency").is_some());
            assert!(p.get("sbw").is_some());
            assert!(p.get("report").is_none(), "{list} must drop `report`");
            assert!(p.get("dataflow").is_none(), "{list} must drop `dataflow`");
        }
    }

    // Unknown field and limit+top conflict: usage errors.
    let body = Json::obj([
        ("problem", Json::from(GEMM_PROBLEM)),
        ("fields", Json::Arr(vec![Json::from("latencies")])),
    ])
    .to_string();
    let (status, body) = post(addr, "/v1/dse", &body);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let body = Json::obj([
        ("problem", Json::from(GEMM_PROBLEM)),
        ("limit", Json::from(1u64)),
        ("top", Json::from(1u64)),
    ])
    .to_string();
    let (status, _) = post(addr, "/v1/dse", &body);
    assert_eq!(status, 400);

    handle.shutdown();
}

/// A deadline that never expires changes nothing: the ranked points and
/// the frontier equal the deadline-free answer, whether the deadline
/// comes in the body or in the header. Each request gets a fresh server,
/// so no answer can be a dedup replay of another (the header is not part
/// of the dedup key).
#[test]
fn dse_ranking_is_the_same_under_a_generous_deadline() {
    let body = |deadline_ms: Option<u64>| {
        let mut fields = vec![
            ("problem", Json::from(GEMM_PROBLEM)),
            ("pe", Json::from(4u64)),
            ("threads", Json::from(1u64)),
            ("limit", Json::from(1000u64)),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", Json::from(ms)));
        }
        Json::obj(fields).to_string()
    };
    let sweep = |body: &str, headers: &[(&str, &str)]| -> (String, String) {
        let (addr, handle) = start();
        let (status, _, bytes) = post_with_headers(addr, "/v1/dse", body, headers);
        handle.shutdown();
        let text = String::from_utf8_lossy(&bytes).to_string();
        assert_eq!(status, 200, "{text}");
        assert!(!text.contains("\"truncated\""), "{text}");
        let v = Json::parse(&text).unwrap();
        let part = |key: &str| v.get(key).expect(key).to_string();
        (part("points"), part("pareto"))
    };
    let free = sweep(&body(None), &[]);
    let points: Vec<f64> = Json::parse(&free.0)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.get("latency").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(points.len() >= 3, "too few points to rank: {points:?}");
    assert!(
        points.windows(2).all(|w| w[0] <= w[1]),
        "ranked by latency: {points:?}"
    );
    assert_eq!(sweep(&body(Some(600_000)), &[]), free, "body deadline");
    let header = [("X-Tenet-Deadline-Ms", "600000")];
    assert_eq!(sweep(&body(None), &header), free, "header deadline");
}

#[test]
fn pipelined_requests_on_one_connection() {
    let (addr, handle) = start();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Two healthz and a stats, written back-to-back before reading.
    let burst = "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                 GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                 GET /v1/stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    s.write_all(burst.as_bytes()).unwrap();
    let mut reader = ResponseReader::new(&mut s);
    let (s1, b1) = reader.next_response().unwrap();
    let (s2, b2) = reader.next_response().unwrap();
    let (s3, _b3) = reader.next_response().unwrap();
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert_eq!(b1, b2);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let (addr, _handle) = start();
    // Shut down via the admin endpoint (the path CI uses).
    let (status, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    // The accept loop polls the flag every few ms; soon after, new
    // connections must stop being served.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        match TcpStream::connect(addr) {
            Err(_) => break, // listener closed
            Ok(mut s) => {
                // Connection may be accepted by the OS backlog; a request
                // must no longer be answered once drain completes.
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let _ = s.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                if read_response(&mut s).is_err() {
                    break;
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server kept serving after shutdown"
        );
    }
}

/// [`post`] with extra request headers, keeping the response headers
/// (lowercased names) so tests can assert on trace echoes.
fn post_with_headers(
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let extra: String = headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    ResponseReader::new(s)
        .next_response_with_headers()
        .expect("read response")
}

#[test]
fn traced_request_echoes_id_and_serves_the_timeline() {
    // `slow_ms: 0` classifies every request as slow, so the slow ring is
    // testable without a genuinely slow request.
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        slow_ms: 0,
        ..Default::default()
    };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::spawn(move || server.run().expect("server run"));

    // A short client id is accepted and echoed zero-padded to 16 hex.
    let (status, headers, _body) = post_with_headers(
        addr,
        "/v1/analyze",
        &analyze_body(),
        &[("X-Tenet-Trace-Id", "abc123")],
    );
    assert_eq!(status, 200);
    let header = |name: &str| -> Option<&str> {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(header("x-tenet-trace-id"), Some("0000000000abc123"));
    let timing = header("x-tenet-server-timing").expect("Server-Timing header");
    assert!(
        timing.contains(";dur=") && timing.contains("serialize"),
        "the header must carry per-phase durations: {timing}"
    );

    // The worker serves the recorded timeline, phases summing ≈ total.
    let (status, body) = get(addr, "/v1/trace/abc123");
    assert_eq!(status, 200);
    let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some("0000000000abc123")
    );
    let records = doc.get("records").and_then(Json::as_arr).expect("records");
    assert_eq!(records.len(), 1);
    let rec = &records[0];
    assert_eq!(rec.get("tier").and_then(Json::as_str), Some("worker"));
    let total = rec.get("total_us").and_then(Json::as_u64).unwrap();
    let phase_sum: u64 = rec
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|s| s.get("phase").and_then(Json::as_bool) == Some(true))
        .filter_map(|s| s.get("dur_us").and_then(Json::as_u64))
        .sum();
    let slack = (total / 10).max(50);
    assert!(
        phase_sum <= total && total - phase_sum <= slack,
        "phases must sum to within 10% of the handling time \
         (sum {phase_sum}µs vs total {total}µs): {rec}"
    );

    // With the threshold at zero, the request also lands in the slow
    // ring, queryable without knowing its id.
    let (status, body) = get(addr, "/v1/trace/slow?ms=0");
    assert_eq!(status, 200);
    let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let traces = doc.get("traces").and_then(Json::as_arr).expect("traces");
    assert!(
        traces
            .iter()
            .any(|t| { t.get("trace_id").and_then(Json::as_str) == Some("0000000000abc123") }),
        "the traced request must appear among the slow timelines: {doc}"
    );

    // A garbled id is a client error, not a 404.
    let (status, _) = get(addr, "/v1/trace/not-hex");
    assert_eq!(status, 400);

    handle.shutdown();
}

#[test]
fn malformed_deadline_headers_and_trace_thresholds_are_400() {
    let (addr, handle) = start();

    // A deadline the server cannot honor as stated must be refused, not
    // silently treated as "no deadline" — the client believes it has a
    // budget, and serving an unbounded request under that belief is the
    // worse failure. Zero is meaningless (already expired) and overflow
    // is not a number of milliseconds this server can count to.
    for bad in ["soon", "0", "-5", "1e3", "", "99999999999999999999999"] {
        let (status, _, body) = post_with_headers(
            addr,
            "/v1/analyze",
            &analyze_body(),
            &[("X-Tenet-Deadline-Ms", bad)],
        );
        let text = String::from_utf8_lossy(&body).to_string();
        assert_eq!(status, 400, "deadline `{bad}` must be rejected: {text}");
        let v = Json::parse(&text).expect("a JSON error body");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("parse"),
            "{text}"
        );
    }
    // A plausible deadline still passes.
    let (status, _, _) = post_with_headers(
        addr,
        "/v1/analyze",
        &analyze_body(),
        &[("X-Tenet-Deadline-Ms", "30000")],
    );
    assert_eq!(status, 200);

    // Same policy for the slow-trace threshold: a present-but-garbled
    // `ms=` is a usage error (serving the unfiltered ring would silently
    // ignore the filter the client asked for); `ms=0` stays valid.
    let (status, body) = get(addr, "/v1/trace/slow?ms=abc");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("usage")
    );
    let (status, _) = get(addr, "/v1/trace/slow?ms=0");
    assert_eq!(status, 200);

    handle.shutdown();
}

#[test]
fn snapshot_round_trip_restores_warm_state_and_rejects_corruption() {
    let snap = std::env::temp_dir().join(format!("tenet-e2e-snap-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        snapshot_file: Some(snap.clone()),
        ..Default::default()
    };
    let boot = |cfg: ServerConfig| {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        (addr, handle, thread)
    };

    // Warm a key, snapshot explicitly, drain.
    let (addr, handle, thread) = boot(config.clone());
    let (status, first) = post(addr, "/v1/analyze", &analyze_body());
    assert_eq!(status, 200);
    let (status, body) = post(addr, "/v1/snapshot", "");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("saved"));
    assert!(v.get("dedup_entries").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
    thread.join().unwrap().expect("clean drain");
    let valid = std::fs::read(&snap).expect("snapshot written");

    // Restart on the snapshot: the replayed key is answered from the
    // restored cache — bit-identical bytes, zero recomputes.
    let (addr, handle, thread) = boot(config.clone());
    let (status, replay) = post(addr, "/v1/analyze", &analyze_body());
    assert_eq!(status, 200);
    assert_eq!(replay, first, "a restored shard must serve its old bytes");
    let (status, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let dedup = v.get("dedup").unwrap();
    assert_eq!(
        dedup.get("misses").and_then(Json::as_u64),
        Some(0),
        "the restored key must never recompute: {v}"
    );
    assert!(
        dedup.get("warmed").and_then(Json::as_u64).unwrap() >= 1,
        "restored entries count as warmed: {v}"
    );
    handle.shutdown();
    thread.join().unwrap().expect("clean drain");

    // Corrupted, truncated, and version-mismatched files must each be
    // rejected at boot with a *cold* start — never a crash, never a
    // silently poisoned cache.
    let mut corrupt = valid.clone();
    let n = corrupt.len();
    corrupt[n - 1] ^= 0x01;
    for bad in [
        corrupt.as_slice(),
        &valid[..n / 2],
        b"TENETSNAP 999 0123456789abcdef 2\n{}".as_slice(),
    ] {
        std::fs::write(&snap, bad).unwrap();
        let (addr, handle, thread) = boot(config.clone());
        let (status, body) = get(addr, "/v1/stats");
        assert_eq!(status, 200);
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            v.get("dedup")
                .and_then(|d| d.get("entries"))
                .and_then(Json::as_u64),
            Some(0),
            "a rejected snapshot must leave the cache cold: {v}"
        );
        // And the cold server still computes.
        let (status, bytes) = post(addr, "/v1/analyze", &analyze_body());
        assert_eq!(status, 200);
        assert_eq!(bytes, first, "a cold recompute is still the same answer");
        handle.shutdown();
        thread.join().unwrap().expect("clean drain");
    }
    let _ = std::fs::remove_file(&snap);
}
