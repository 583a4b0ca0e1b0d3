//! The in-process cluster harness: a real router and 2–3 real workers on
//! ephemeral loopback ports inside one test process, driven over raw
//! TCP. This is the proof the sharded service rests on:
//!
//! * **shard affinity** — a repeated key is computed exactly once
//!   cluster-wide and every repeat returns bit-identical bytes;
//! * **warm hit rate** — after the warm-up round, every shard serves its
//!   keys entirely from its dedup layer (per-shard hit rate 1.0);
//! * **rebalancing** — killing a worker mid-run yields zero 5xx for
//!   retried keys, and (with replication off) only the dead worker's
//!   keys recompute (~1/N);
//! * **replication** — with `R = 2`, a worker kill serves the victim's
//!   keys *warm* from the promoted successor replica: zero 5xx and zero
//!   new misses anywhere;
//! * **hedging** — a slow primary is raced against its replica after the
//!   latency threshold; the first answer wins, the loser is discarded,
//!   and counters attribute the request exactly once;
//! * **transports** — the same proofs hold when the workers are
//!   in-process [`WorkerCore`]s behind [`LocalTransport`]-style dispatch
//!   instead of HTTP processes;
//! * **stats fan-out** — the merged `/v1/stats` document equals the sum
//!   of the per-shard parts it was built from;
//! * **framing parity** — chunked transfer encoding is 501 at the
//!   router, exactly as at the worker.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_router::ring::HashRing;
use tenet_router::{
    FaultPlan, FaultTransport, ForwardError, LocalTransport, Router, RouterConfig, SpawnedRouter,
    Transport, WorkerSpec, UPSTREAM_CONNECTIONS, VNODES,
};
use tenet_server::http::read_response;
use tenet_server::{
    canonical_key, canonical_request, Call, Server, ServerConfig, SpawnedServer, WorkerCore,
};

const GEMM_PROBLEM: &str = "\
for (i = 0; i < 4; i++)
  for (j = 0; j < 4; j++)
    for (k = 0; k < 4; k++)
      S: Y[i][j] += A[i][k] * B[k][j];

{ S[i,j,k] -> (PE[i,j] | T[i + j + k]) }

arch \"4x4\" { array = [4, 4] interconnect = systolic2d bandwidth = 8 }
";

/// A deliberately heavy kernel for the deadline test: big enough that a
/// cold single-threaded DSE sweep takes far longer than the test's 25 ms
/// deadline, so the clipped request provably never paid full latency.
/// MTTKRP's four loops give 72 candidates at `pe = 4` (a three-loop GEMM
/// gives 18, which a release build sweeps in under the deadline).
const DSE_SLOW_PROBLEM: &str = "\
for (i = 0; i < 16; i++)
  for (j = 0; j < 16; j++)
    for (k = 0; k < 8; k++)
      for (l = 0; l < 8; l++)
        S: Y[i][j] += A[i][k][l] * B[k][j] * C[l][j];

{ S[i,j,k,l] -> (PE[i % 4, j % 4] | T[floor(i / 4), floor(j / 4), k, i % 4 + j % 4 + l]) }

arch \"4x4\" { array = [4, 4] interconnect = systolic2d bandwidth = 8 }
";

/// One booted cluster: N workers plus the router fronting them.
struct Cluster {
    workers: Vec<Option<SpawnedServer>>,
    router: Option<SpawnedRouter>,
}

impl Cluster {
    /// Boots `n` workers and a router on ephemeral ports.
    /// `health_interval == ZERO` disables the prober, making failure
    /// detection purely traffic-driven (deterministic for the tests that
    /// count rehashes).
    fn boot(n: usize, health_interval: Duration) -> Cluster {
        Cluster::boot_with(n, health_interval, |_| {})
    }

    /// [`Cluster::boot`] with a router-config tweak (replication factor,
    /// hedge threshold). Tests that assert exact dedup counters disable
    /// hedging: a cold analyze slower than the threshold would race a
    /// replica into a duplicate compute and perturb the counts.
    fn boot_with(
        n: usize,
        health_interval: Duration,
        tweak: impl FnOnce(&mut RouterConfig),
    ) -> Cluster {
        // Worker threads must exceed the router's per-worker connection
        // bound: parked keep-alive proxy sockets each hold a worker
        // thread, and probes/stats must never queue behind them.
        let worker_threads = UPSTREAM_CONNECTIONS + 2;
        let workers: Vec<Option<SpawnedServer>> = (0..n)
            .map(|_| {
                Some(
                    Server::spawn(ServerConfig {
                        addr: "127.0.0.1:0".into(),
                        threads: worker_threads,
                        read_timeout: Duration::from_secs(2),
                        write_timeout: Duration::from_secs(2),
                        ..Default::default()
                    })
                    .expect("spawn worker"),
                )
            })
            .collect();
        let mut config = RouterConfig {
            addr: "127.0.0.1:0".into(),
            workers: workers
                .iter()
                .map(|w| w.as_ref().unwrap().addr().to_string())
                .collect(),
            threads: 2,
            health_interval,
            ..Default::default()
        };
        tweak(&mut config);
        let router = Router::spawn(config).expect("spawn router");
        Cluster {
            workers,
            router: Some(router),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.as_ref().unwrap().addr()
    }

    /// Kills worker `i` (graceful drain + join); its port stops listening.
    fn kill_worker(&mut self, i: usize) {
        self.workers[i]
            .take()
            .expect("worker already killed")
            .shutdown_and_join()
            .expect("worker drain");
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            let _ = router.shutdown_and_join();
        }
        for w in self.workers.iter_mut().filter_map(Option::take) {
            let _ = w.shutdown_and_join();
        }
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<u8>) {
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

/// [`post`] with extra request headers (deadline, client identity).
fn post_with_headers(
    addr: SocketAddr,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, Vec<u8>) {
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
    read_response(&mut s).expect("read response")
}

/// [`post_with_headers`] keeping the raw response head, so tests can
/// assert on response headers (`Retry-After`) the body-only readers drop.
fn post_raw(
    addr: SocketAddr,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, String, Vec<u8>) {
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
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read raw response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head/body split");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head, raw[split + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(req.as_bytes()).unwrap();
    read_response(&mut s).expect("read response")
}

/// A distinct analyze request per `window` value: same kernel, different
/// canonical key.
fn analyze_body(window: u64) -> String {
    Json::obj([
        ("problem", Json::from(GEMM_PROBLEM)),
        ("window", Json::from(window)),
    ])
    .to_string()
}

fn router_stats(addr: SocketAddr) -> Json {
    let (status, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    Json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
}

/// Per-shard `(worker, alive, routed, dedup_hits, dedup_waits,
/// dedup_misses)` rows out of a router stats document.
fn shard_rows(stats: &Json) -> Vec<(u64, bool, u64, u64, u64, u64)> {
    stats
        .get("shards")
        .and_then(Json::as_arr)
        .expect("shards array")
        .iter()
        .map(|s| {
            let dedup = |k: &str| {
                s.get("stats")
                    .and_then(|d| d.get("dedup"))
                    .and_then(|d| d.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            (
                s.get("worker").and_then(Json::as_u64).unwrap(),
                s.get("alive").and_then(Json::as_bool).unwrap(),
                s.get("routed").and_then(Json::as_u64).unwrap(),
                dedup("hits"),
                dedup("inflight_waits"),
                dedup("misses"),
            )
        })
        .collect()
}

fn merged_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut v = stats.get("merged").expect("merged doc");
    for k in path {
        v = v.get(k).unwrap_or(&Json::Null);
    }
    v.as_u64().unwrap_or(0)
}

fn router_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut v = stats.get("router").expect("router doc");
    for k in path {
        v = v.get(k).unwrap_or(&Json::Null);
    }
    v.as_u64().unwrap_or(0)
}

/// Polls router stats until `done` holds (replication write-throughs are
/// asynchronous), failing the test after 10 s.
fn wait_for_stats(addr: SocketAddr, what: &str, done: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = router_stats(addr);
        if done(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn shard_affinity_bit_identical_bytes_and_warm_hit_rate() {
    // Hedging off: this test counts misses exactly, and a cold analyze
    // slower than the hedge threshold would duplicate a compute.
    let cluster = Cluster::boot_with(3, Duration::ZERO, |c| c.hedge_after = Duration::MAX);
    let addr = cluster.addr();
    let keys: Vec<String> = (1..=8).map(analyze_body).collect();

    // Warm round: every key computed once, through the router.
    let mut first: Vec<Vec<u8>> = Vec::new();
    for body in &keys {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        first.push(bytes);
    }
    let warm = router_stats(addr);
    let warm_rows = shard_rows(&warm);

    // Repeat rounds: responses must be bit-identical to the first answer.
    for _round in 0..3 {
        for (i, body) in keys.iter().enumerate() {
            let (status, bytes) = post(addr, "/v1/analyze", body);
            assert_eq!(status, 200);
            assert_eq!(
                bytes, first[i],
                "repeat of key {i} must be the shard's cached bytes"
            );
        }
    }

    let end = router_stats(addr);
    let end_rows = shard_rows(&end);

    // Affinity: each key was computed exactly once cluster-wide. A key
    // that ever moved shards would recompute there and inflate misses.
    assert_eq!(
        merged_u64(&end, &["dedup", "misses"]),
        keys.len() as u64,
        "every key must be owned by exactly one shard: {end}"
    );

    // The keys actually spread: more than one shard carried traffic.
    let carrying = end_rows.iter().filter(|r| r.2 > 0).count();
    assert!(
        carrying >= 2,
        "sharding degenerated to one worker: {end_rows:?}"
    );
    let total_routed: u64 = end_rows.iter().map(|r| r.2).sum();
    assert_eq!(total_routed, (keys.len() * 4) as u64);

    // Warm per-shard hit rate: in the repeat phase no shard missed —
    // every request after warm-up was served from its shard's dedup
    // layer (hit rate exactly 1.0 per shard).
    for (warm_row, end_row) in warm_rows.iter().zip(&end_rows) {
        assert_eq!(warm_row.0, end_row.0);
        let miss_delta = end_row.5 - warm_row.5;
        assert_eq!(
            miss_delta, 0,
            "shard {} recomputed a warm key: {end_rows:?}",
            end_row.0
        );
        let served_delta = (end_row.3 + end_row.4) - (warm_row.3 + warm_row.4);
        let routed_delta = end_row.2 - warm_row.2;
        assert_eq!(
            served_delta, routed_delta,
            "shard {} warm traffic must be all dedup hits",
            end_row.0
        );
    }
}

#[test]
fn worker_loss_rehashes_with_zero_5xx_for_retried_keys() {
    // Replication off: this test pins the *cold* failover path — the
    // victim's keys must recompute on the rehashed owner. The warm
    // failover path is pinned by
    // `worker_kill_under_replication_serves_victim_keys_warm`.
    let mut cluster = Cluster::boot_with(3, Duration::ZERO, |c| {
        c.replication = 1;
        c.hedge_after = Duration::MAX;
    });
    let addr = cluster.addr();
    let keys: Vec<String> = (1..=10).map(analyze_body).collect();

    // Warm every key and remember its bytes.
    let mut first: Vec<Vec<u8>> = Vec::new();
    for body in &keys {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        first.push(bytes);
    }
    let before = router_stats(addr);
    let rows = shard_rows(&before);
    // Kill the shard carrying the most keys — the worst case for the
    // retry path.
    let victim = rows.iter().max_by_key(|r| r.2).unwrap();
    let (victim_idx, victim_keys) = (victim.0 as usize, victim.2);
    assert!(victim_keys > 0, "victim must own at least one key");
    cluster.kill_worker(victim_idx);

    // Replay every key. Keys owned by survivors stay cached; the dead
    // shard's keys must transparently rehash — zero 5xx, and the bytes
    // are identical because the analysis is a pure function of the text.
    for (i, body) in keys.iter().enumerate() {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(
            status,
            200,
            "key {i} must survive the worker loss: {}",
            String::from_utf8_lossy(&bytes)
        );
        assert_eq!(
            bytes, first[i],
            "rehashed key {i} must recompute identically"
        );
    }

    let after = router_stats(addr);
    // The router observed the death: the victim is off the ring and
    // marked dead in the shard list.
    let router_doc = after.get("router").unwrap();
    assert_eq!(
        router_doc.get("alive_workers").and_then(Json::as_u64),
        Some(2)
    );
    assert!(router_doc.get("rehashes").and_then(Json::as_u64).unwrap() >= 1);
    assert!(router_doc.get("retries").and_then(Json::as_u64).unwrap() >= 1);
    let after_rows = shard_rows(&after);
    assert!(
        !after_rows[victim_idx].1,
        "victim must be reported dead: {after_rows:?}"
    );

    // Consistent hashing in action end-to-end: only the victim's keys
    // recomputed. Every key was computed exactly once *among the
    // survivors* (their warm misses plus the victim's rehashed keys; the
    // victim's own miss counters died with it), and the replay of a
    // survivor-owned key was a dedup hit, not a recompute.
    let miss_sum: u64 = after_rows.iter().map(|r| r.5).sum();
    assert_eq!(
        miss_sum,
        keys.len() as u64,
        "survivors must own each key exactly once: {after_rows:?}"
    );
    let hit_sum: u64 = after_rows.iter().map(|r| r.3 + r.4).sum();
    assert_eq!(
        hit_sum,
        keys.len() as u64 - victim_keys,
        "exactly the surviving shards' keys must replay from cache: {after_rows:?}"
    );
}

#[test]
fn merged_stats_equal_the_sum_of_parts() {
    let cluster = Cluster::boot_with(2, Duration::ZERO, |c| c.hedge_after = Duration::MAX);
    let addr = cluster.addr();
    for round in 0..3 {
        for w in 1..=6 {
            let (status, _) = post(addr, "/v1/analyze", &analyze_body(w));
            assert_eq!(status, 200, "round {round}");
        }
    }
    // Replication (R = 2 default) writes every answer through to the
    // other shard; wait for the asynchronous warm writes so the
    // "warmed" sum below is non-trivial.
    let stats = wait_for_stats(addr, "replication write-through", |s| {
        router_u64(s, &["replication", "warm_writes"]) >= 6
    });
    let shards: Vec<&Json> = stats
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|s| s.get("alive").and_then(Json::as_bool) == Some(true))
        .map(|s| s.get("stats").unwrap())
        .collect();
    assert_eq!(shards.len(), 2);

    let shard_sum = |path: &[&str]| -> u64 {
        shards
            .iter()
            .map(|doc| {
                let mut v: &Json = doc;
                for k in path {
                    v = v.get(k).unwrap_or(&Json::Null);
                }
                v.as_u64().unwrap_or(0)
            })
            .sum()
    };
    for path in [
        vec!["requests", "total"],
        vec!["requests", "completed"],
        vec!["requests", "status_2xx"],
        vec!["requests", "status_4xx"],
        vec!["requests", "status_5xx"],
        vec!["dedup", "hits"],
        vec!["dedup", "inflight_waits"],
        vec!["dedup", "misses"],
        vec!["dedup", "warmed"],
        vec!["dedup", "entries"],
        vec!["isl_cache", "server", "hits"],
        vec!["isl_cache", "server", "misses"],
    ] {
        assert_eq!(
            merged_u64(&stats, &path),
            shard_sum(&path),
            "merged {path:?} must be the sum of the parts"
        );
    }

    // Histogram: every bucket is the sum of the shards' buckets, so the
    // totals agree too.
    let merged_hist_total: u64 = stats
        .get("merged")
        .and_then(|m| m.get("latency"))
        .and_then(|l| l.get("histogram"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|b| b.get("count").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    let shard_hist_total: u64 = shards
        .iter()
        .map(|doc| {
            doc.get("latency")
                .and_then(|l| l.get("histogram"))
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|b| b.get("count").and_then(Json::as_u64).unwrap_or(0))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(merged_hist_total, shard_hist_total);
    assert_eq!(
        merged_hist_total,
        merged_u64(&stats, &["requests", "completed"]),
        "every completed request lands in exactly one latency bucket"
    );
}

#[test]
fn chunked_transfer_encoding_is_501_at_the_router_too() {
    // The worker layer pins this in `crates/server/tests/e2e.rs`; the
    // router speaks the same codec and must refuse identically, so a
    // streaming client fails the same way whichever tier it talks to.
    let cluster = Cluster::boot(2, Duration::ZERO);
    let mut s = TcpStream::connect(cluster.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
          5\r\nhello\r\n0\r\n\r\n",
    )
    .unwrap();
    let (status, body) = read_response(&mut s).unwrap();
    assert_eq!(status, 501);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap()
        .contains("transfer-encoding"));
}

#[test]
fn cascaded_shutdown_drains_workers_then_router() {
    let mut cluster = Cluster::boot(2, Duration::ZERO);
    let addr = cluster.addr();
    let worker_addrs: Vec<SocketAddr> = cluster
        .workers
        .iter()
        .map(|w| w.as_ref().unwrap().addr())
        .collect();
    // Traffic first, so the drain has in-flight state to finish.
    let (status, _) = post(addr, "/v1/analyze", &analyze_body(1));
    assert_eq!(status, 200);

    let (status, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    let workers = v.get("workers").and_then(Json::as_arr).unwrap();
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(
            w.get("status").and_then(Json::as_str),
            Some("draining"),
            "cascade must reach every worker: {v}"
        );
    }

    // Workers and router all wind down; joins must not hang.
    for w in cluster.workers.iter_mut().filter_map(Option::take) {
        w.shutdown_and_join().expect("worker drained");
    }
    cluster
        .router
        .take()
        .unwrap()
        .shutdown_and_join()
        .expect("router drained");
    // The listeners are gone: fresh connections are refused or go
    // unanswered on every tier.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for target in worker_addrs.iter().chain([addr].iter()) {
        loop {
            match TcpStream::connect(target) {
                Err(_) => break,
                Ok(mut s) => {
                    s.set_read_timeout(Some(Duration::from_millis(100)))
                        .unwrap();
                    let _ = s.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                    if read_response(&mut s).is_err() {
                        break;
                    }
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{target} kept serving after the cascaded drain"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[test]
fn worker_kill_under_replication_serves_victim_keys_warm() {
    // Hedging off so the counters below are exact; replication stays at
    // its R = 2 default — the subject under test.
    let mut cluster = Cluster::boot_with(3, Duration::ZERO, |c| c.hedge_after = Duration::MAX);
    let addr = cluster.addr();
    let keys: Vec<String> = (1..=10).map(analyze_body).collect();
    let keys_n = keys.len() as u64;

    let mut first: Vec<Vec<u8>> = Vec::new();
    for body in &keys {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        first.push(bytes);
    }
    // R = 2: every answer is asynchronously written through to the key's
    // successor replica. Wait until every key lives on exactly two
    // shards before pulling the plug.
    let before = wait_for_stats(addr, "replication write-through", |s| {
        router_u64(s, &["replication", "warm_writes"]) >= keys_n
            && merged_u64(s, &["dedup", "entries"]) == 2 * keys_n
    });
    let rows = shard_rows(&before);
    let victim = rows.iter().max_by_key(|r| r.2).unwrap();
    let (victim_idx, victim_keys) = (victim.0 as usize, victim.2);
    assert!(victim_keys > 0, "victim must own at least one key");
    cluster.kill_worker(victim_idx);

    // Replay every key. This is replication's promise: zero 5xx, the
    // same bytes, and — unlike the R = 1 rehash test above — zero
    // recomputes, because the rehashed owner of each victim key is
    // exactly the successor replica already holding its warm answer.
    for (i, body) in keys.iter().enumerate() {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(
            status,
            200,
            "key {i} must survive the worker kill: {}",
            String::from_utf8_lossy(&bytes)
        );
        assert_eq!(bytes, first[i], "key {i} must serve identical bytes");
    }

    let after = router_stats(addr);
    let after_rows = shard_rows(&after);
    assert_eq!(
        router_u64(&after, &["requests", "status_5xx"]),
        0,
        "the kill must be invisible to clients: {after}"
    );
    assert!(
        !after_rows[victim_idx].1,
        "victim must be reported dead: {after_rows:?}"
    );
    // The warm-failover core: no survivor recomputed anything.
    for (b, a) in rows.iter().zip(&after_rows) {
        if b.0 as usize == victim_idx {
            continue;
        }
        assert_eq!(
            a.5, b.5,
            "shard {} recomputed a key its replica already held warm: {after_rows:?}",
            b.0
        );
    }
    // Every replayed key was a dedup hit somewhere: the victim's keys on
    // the promoted replica's warmed entry, the survivors' on their own
    // cache.
    let hit_delta: u64 = after_rows
        .iter()
        .zip(&rows)
        .filter(|(a, _)| a.0 as usize != victim_idx)
        .map(|(a, b)| (a.3 + a.4) - (b.3 + b.4))
        .sum();
    assert_eq!(
        hit_delta, keys_n,
        "every replayed key must be served from a warm cache: {after_rows:?}"
    );
    assert!(
        merged_u64(&after, &["dedup", "warmed"]) >= 1,
        "survivors must report warmed entries: {after}"
    );
}

#[test]
fn local_transport_cluster_failover_without_sockets() {
    // The same cluster proofs with zero worker sockets: three in-process
    // cores behind local dispatch, replication at its R = 2 default.
    let cores: Vec<Arc<WorkerCore>> = (0..3)
        .map(|_| {
            WorkerCore::new(ServerConfig {
                addr: "in-process".into(),
                ..Default::default()
            })
        })
        .collect();
    let specs: Vec<WorkerSpec> = cores
        .iter()
        .map(|c| WorkerSpec::Local(Arc::clone(c)))
        .collect();
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        health_interval: Duration::ZERO,
        ..Default::default()
    };
    let router = Router::spawn_with_workers(config, specs).expect("spawn router");
    let addr = router.addr();

    let keys: Vec<String> = (1..=10).map(analyze_body).collect();
    let keys_n = keys.len() as u64;
    let mut first: Vec<Vec<u8>> = Vec::new();
    for body in &keys {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        first.push(bytes);
    }
    let before = wait_for_stats(addr, "replication write-through", |s| {
        router_u64(s, &["replication", "warm_writes"]) >= keys_n
            && merged_u64(s, &["dedup", "entries"]) == 2 * keys_n
    });
    for shard in before.get("shards").and_then(Json::as_arr).unwrap() {
        assert_eq!(shard.get("transport").and_then(Json::as_str), Some("local"));
        assert_eq!(shard.get("addr").and_then(Json::as_str), Some("local"));
    }
    let rows = shard_rows(&before);
    let victim = rows.iter().max_by_key(|r| r.2).unwrap();
    let (victim_idx, victim_keys) = (victim.0 as usize, victim.2);
    assert!(victim_keys > 0, "victim must own at least one key");
    // The in-process analogue of a kill: drain the core — its data path
    // fails exactly like a dead socket, while the cores it replicated to
    // keep its keys warm.
    cores[victim_idx].drain();

    for (i, body) in keys.iter().enumerate() {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(
            status,
            200,
            "key {i} must survive the drained core: {}",
            String::from_utf8_lossy(&bytes)
        );
        assert_eq!(bytes, first[i], "key {i} must serve identical bytes");
    }
    let after = router_stats(addr);
    let after_rows = shard_rows(&after);
    assert_eq!(router_u64(&after, &["requests", "status_5xx"]), 0);
    assert!(!after_rows[victim_idx].1, "victim must be reported dead");
    for (b, a) in rows.iter().zip(&after_rows) {
        if b.0 as usize == victim_idx {
            continue;
        }
        assert_eq!(
            a.5, b.5,
            "core {} recomputed a key its replica already held warm: {after_rows:?}",
            b.0
        );
    }
    // In-process dispatch is synchronous on the caller's thread: there
    // is no waiting to race, so hedging must never fire locally.
    assert_eq!(router_u64(&after, &["hedges", "fired"]), 0);
    router.shutdown_and_join().expect("router drained");
}

/// A scriptable worker for hedge-semantics tests: canned bytes after a
/// configurable delay, counting data-path and warm-path calls apart.
struct MockTransport {
    label: &'static str,
    delay: Duration,
    body: &'static [u8],
    analyze_calls: AtomicU64,
    warm_calls: AtomicU64,
}

impl MockTransport {
    fn new(label: &'static str, delay: Duration, body: &'static [u8]) -> Arc<MockTransport> {
        Arc::new(MockTransport {
            label,
            delay,
            body,
            analyze_calls: AtomicU64::new(0),
            warm_calls: AtomicU64::new(0),
        })
    }
}

/// The `Box<dyn Transport>` the router owns, sharing the counters with
/// the test.
struct SharedMock(Arc<MockTransport>);

impl Transport for SharedMock {
    fn call(
        &self,
        call: &Call,
        _read_timeout: Duration,
        _write_timeout: Duration,
    ) -> Result<(u16, Arc<Vec<u8>>), ForwardError> {
        match call.path {
            "/v1/warm" => {
                self.0.warm_calls.fetch_add(1, Ordering::SeqCst);
                Ok((200, Arc::new(br#"{"status":"warmed"}"#.to_vec())))
            }
            "/v1/stats" => Ok((200, Arc::new(b"{}".to_vec()))),
            _ => {
                self.0.analyze_calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(self.0.delay);
                Ok((200, Arc::new(self.0.body.to_vec())))
            }
        }
    }

    fn send_control(
        &self,
        _method: &str,
        _path: &str,
        _timeout: Duration,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        Ok((200, Vec::new()))
    }

    fn probe(&self, _timeout: Duration) -> bool {
        true
    }

    fn endpoint(&self) -> String {
        self.0.label.into()
    }

    fn kind(&self) -> &'static str {
        "mock"
    }
}

#[test]
fn hedged_request_races_the_replica_and_discards_the_loser() {
    const HEDGE_AFTER: Duration = Duration::from_millis(40);
    const SLOW: Duration = Duration::from_millis(800);
    let slow = MockTransport::new("slow", SLOW, br#"{"from":"slow"}"#);
    let fast = MockTransport::new("fast", Duration::from_millis(1), br#"{"from":"fast"}"#);
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        health_interval: Duration::ZERO,
        hedge_after: HEDGE_AFTER,
        ..Default::default()
    };
    let specs = vec![
        WorkerSpec::Custom(Box::new(SharedMock(Arc::clone(&slow)))),
        WorkerSpec::Custom(Box::new(SharedMock(Arc::clone(&fast)))),
    ];
    let router = Router::spawn_with_workers(config, specs).expect("spawn router");
    let addr = router.addr();

    // Pick keys by who owns them, on the same ring the router builds, so
    // the test controls which shard gets hedged.
    let ring = {
        let mut r = HashRing::new(VNODES);
        r.add(0);
        r.add(1);
        r
    };
    let owned_by = |shard: usize| -> String {
        (1u64..1000)
            .map(analyze_body)
            .find(|b| {
                let key = canonical_key(&canonical_request("POST", "/v1/analyze", b.as_bytes()));
                ring.owner(key) == Some(shard)
            })
            .expect("some key must hash to the shard")
    };

    // 1. Slow primary: the hedge fires after the threshold, the replica
    //    wins, and the loser's eventual response is discarded.
    let body = owned_by(0);
    let t0 = Instant::now();
    let (status, bytes) = post(addr, "/v1/analyze", &body);
    let elapsed = t0.elapsed();
    assert_eq!(status, 200);
    assert_eq!(
        bytes,
        br#"{"from":"fast"}"#.to_vec(),
        "the replica's answer must win the race"
    );
    assert!(
        elapsed >= HEDGE_AFTER,
        "the hedge must not fire before the threshold: {elapsed:?}"
    );
    assert!(
        elapsed < SLOW,
        "the hedged answer must beat the slow primary: {elapsed:?}"
    );
    assert_eq!(slow.analyze_calls.load(Ordering::SeqCst), 1);
    assert_eq!(fast.analyze_calls.load(Ordering::SeqCst), 1);

    // Let the loser finish; its response lands in a dropped channel and
    // must change nothing.
    std::thread::sleep(SLOW);
    let stats = wait_for_stats(addr, "the replication write-through", |_| {
        slow.warm_calls.load(Ordering::SeqCst) >= 1
    });
    assert_eq!(router_u64(&stats, &["hedges", "fired"]), 1);
    assert_eq!(router_u64(&stats, &["hedges", "won"]), 1);
    // Exactly-once attribution: the request is routed to the winner
    // only — the loser's late 200 must not be double-counted.
    let rows = shard_rows(&stats);
    assert_eq!(rows[0].2, 0, "the discarded loser must not count: {rows:?}");
    assert_eq!(rows[1].2, 1, "the winner carries the request: {rows:?}");

    // 2. Fast primary: an answer under the threshold is never hedged.
    let body = owned_by(1);
    let (status, bytes) = post(addr, "/v1/analyze", &body);
    assert_eq!(status, 200);
    assert_eq!(bytes, br#"{"from":"fast"}"#.to_vec());
    assert_eq!(
        slow.analyze_calls.load(Ordering::SeqCst),
        1,
        "a primary answering under the threshold must not be hedged"
    );
    assert_eq!(fast.analyze_calls.load(Ordering::SeqCst), 2);
    let stats = router_stats(addr);
    assert_eq!(
        router_u64(&stats, &["hedges", "fired"]),
        1,
        "no new hedge may fire for a fast primary"
    );
    router.shutdown_and_join().expect("router drained");
}

#[test]
fn health_prober_evicts_and_revives() {
    let mut cluster = Cluster::boot(2, Duration::from_millis(50));
    let addr = cluster.addr();
    let victim_addr = cluster.workers[0].as_ref().unwrap().addr();

    let alive = |addr: SocketAddr| -> u64 {
        let (status, body) = get(addr, "/v1/healthz");
        assert_eq!(status, 200);
        Json::parse(std::str::from_utf8(&body).unwrap())
            .unwrap()
            .get("alive_workers")
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(alive(addr), 2);

    // Kill worker 0 without any traffic: only the prober can notice.
    cluster.kill_worker(0);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while alive(addr) != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "prober never evicted the dead worker"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Resurrect a worker on the same address: the prober must re-admit
    // it, restoring the original key affinity.
    let reborn = Server::spawn(ServerConfig {
        addr: victim_addr.to_string(),
        threads: UPSTREAM_CONNECTIONS + 2,
        ..Default::default()
    })
    .expect("rebind the victim's port");
    cluster.workers[0] = Some(reborn);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while alive(addr) != 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "prober never revived the reborn worker"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = router_stats(addr);
    let router_doc = stats.get("router").unwrap();
    assert!(router_doc.get("rehashes").and_then(Json::as_u64).unwrap() >= 1);
    assert!(router_doc.get("revivals").and_then(Json::as_u64).unwrap() >= 1);
}

/// Three in-process cores, each behind a seeded [`FaultTransport`]:
/// worker 0 flaps (periodically entirely dark), workers 1–2 suffer
/// random latency spikes. `tweak` adjusts the router config on top of
/// the chaos defaults (fast prober, threads 2).
fn chaos_cluster(
    flap: FaultPlan,
    spikes: Option<FaultPlan>,
    tweak: impl FnOnce(&mut RouterConfig),
) -> (SpawnedRouter, Vec<Arc<WorkerCore>>) {
    let cores: Vec<Arc<WorkerCore>> = (0..3)
        .map(|_| {
            WorkerCore::new(ServerConfig {
                addr: "in-process".into(),
                ..Default::default()
            })
        })
        .collect();
    let specs: Vec<WorkerSpec> = cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let local = Box::new(LocalTransport::new(Arc::clone(core)));
            let plan = if i == 0 {
                Some(flap.clone())
            } else {
                spikes.clone()
            };
            match plan {
                Some(plan) => WorkerSpec::Custom(Box::new(FaultTransport::new(local, plan))),
                None => WorkerSpec::Custom(local),
            }
        })
        .collect();
    let mut config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        health_interval: Duration::from_millis(20),
        ..Default::default()
    };
    tweak(&mut config);
    let router = Router::spawn_with_workers(config, specs).expect("spawn router");
    (router, cores)
}

/// The flap plan both chaos tests share: worker 0 dark for the first 10
/// of every 30 calls (probes included), i.e. a worker that dies and
/// recovers over and over for the whole run.
fn flap_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        flap_period: 30,
        flap_down: 10,
        ..Default::default()
    }
}

#[test]
fn chaos_with_breakers_zero_5xx_and_bounded_p99() {
    // The headline chaos proof: a seeded plan with a flapping worker and
    // latency spikes, breakers + bounded retries on (max_retries raised
    // to 4 so even a revive-mid-retry re-trip fits the budget), 512
    // client requests — and the chaos must be entirely invisible: every
    // answer a bit-identical 200, p99 bounded, breakers demonstrably
    // doing the absorbing.
    let spikes = FaultPlan {
        seed: 11,
        latency_per_mille: 100,
        latency: Duration::from_millis(5),
        ..Default::default()
    };
    // The test drives the health probes itself, one pass between rounds:
    // a timer-driven probe could land between a dark-window failure and
    // its retry and evict the shard before its breaker trips.
    let (router, _cores) = chaos_cluster(flap_plan(), Some(spikes), |c| {
        c.max_retries = 4;
        c.health_interval = Duration::ZERO;
    });
    let addr = router.addr();
    let state = router.state();

    let keys: Vec<String> = (1..=16).map(analyze_body).collect();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
    let mut latencies: Vec<Duration> = Vec::new();
    for round in 0..32 {
        if round > 0 {
            state.health_pass();
        }
        for (i, body) in keys.iter().enumerate() {
            let t0 = Instant::now();
            let (status, bytes) = post(addr, "/v1/analyze", body);
            latencies.push(t0.elapsed());
            assert_eq!(
                status,
                200,
                "round {round} key {i}: chaos leaked to the client: {}",
                String::from_utf8_lossy(&bytes)
            );
            match &first[i] {
                None => first[i] = Some(bytes),
                Some(expected) => assert_eq!(
                    &bytes, expected,
                    "round {round} key {i}: answers must stay bit-identical under chaos"
                ),
            }
        }
    }
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(
        p99 < Duration::from_secs(1),
        "p99 must stay bounded under chaos: {p99:?}"
    );

    let stats = router_stats(addr);
    assert_eq!(
        router_u64(&stats, &["requests", "status_5xx"]),
        0,
        "breakers + retries must absorb every injected fault: {stats}"
    );
    assert!(
        router_u64(&stats, &["breakers", "trips"]) >= 1,
        "the flapping worker must trip its breaker: {stats}"
    );
    assert!(
        router_u64(&stats, &["retries"]) >= 1,
        "failed dispatches must have been retried: {stats}"
    );
    assert!(
        router_u64(&stats, &["revivals"]) >= 1,
        "the prober must re-admit the flapping worker between windows: {stats}"
    );
    router.shutdown_and_join().expect("router drained");
}

#[test]
fn chaos_without_breakers_leaks_5xx() {
    // The control arm: the same flapping worker with the breaker disabled
    // (threshold u32::MAX) and the prober off. Nothing ever takes the
    // flapping shard off the ring, so every retry re-dials the same dark
    // worker until the retry budget dies — a deterministic client-visible
    // 5xx, quantifying exactly the damage the breaker absorbs above.
    let (router, _cores) = chaos_cluster(flap_plan(), None, |c| {
        c.breaker_threshold = u32::MAX;
        c.health_interval = Duration::ZERO;
    });
    let addr = router.addr();
    let ring = {
        let mut r = HashRing::new(VNODES);
        for w in 0..3 {
            r.add(w);
        }
        r
    };
    let owned_by = |shard: usize| -> String {
        (1u64..1000)
            .map(analyze_body)
            .find(|b| {
                let key = canonical_key(&canonical_request("POST", "/v1/analyze", b.as_bytes()));
                ring.owner(key) == Some(shard)
            })
            .expect("some key must hash to the shard")
    };

    // Call indices 0, 1, 2 all fall in the flap-down window: the initial
    // dispatch and both retries fail, and with the breaker off the ring
    // never changes under the request.
    let (status, bytes) = post(addr, "/v1/analyze", &owned_by(0));
    assert_eq!(
        status,
        503,
        "without a breaker the flap must reach the client: {}",
        String::from_utf8_lossy(&bytes)
    );
    assert!(
        String::from_utf8_lossy(&bytes).contains("retry budget exhausted"),
        "the 503 must say the retries died: {}",
        String::from_utf8_lossy(&bytes)
    );

    // Healthy shards are untouched collateral.
    let (status, _) = post(addr, "/v1/analyze", &owned_by(1));
    assert_eq!(status, 200);

    let stats = router_stats(addr);
    assert!(router_u64(&stats, &["requests", "status_5xx"]) >= 1);
    assert!(
        router_u64(&stats, &["retries"]) >= 2,
        "the full retry budget must have been spent: {stats}"
    );
    assert_eq!(
        router_u64(&stats, &["breakers", "trips"]),
        0,
        "a u32::MAX threshold must never trip: {stats}"
    );
    router.shutdown_and_join().expect("router drained");
}

#[test]
fn deadline_propagates_end_to_end_and_degraded_answers_are_not_cached() {
    // One real HTTP worker behind the router, so the deadline crosses the
    // wire: client header → router debit → X-Tenet-Deadline-Ms forward →
    // worker DSE chunking. `threads: 1` in the body keeps the sweep slow
    // and the worker's chunk size minimal.
    let cluster = Cluster::boot(1, Duration::ZERO);
    let addr = cluster.addr();
    let dse = Json::obj([
        ("problem", Json::from(DSE_SLOW_PROBLEM)),
        ("pe", Json::from(4u64)),
        ("threads", Json::from(1u64)),
        ("limit", Json::from(1u64)),
    ])
    .to_string();

    // The deadline request goes FIRST (cold): if its degraded answer
    // leaked into any cache, the full request below would return it.
    let t0 = Instant::now();
    let (status, bytes) =
        post_with_headers(addr, "/v1/dse", &dse, &[("X-Tenet-Deadline-Ms", "25")]);
    let clipped = t0.elapsed();
    let text = String::from_utf8_lossy(&bytes).to_string();
    let timed_out = status == 504 && text.contains("deadline_exceeded");
    let truncated = status == 200 && text.contains("\"truncated\":true");
    assert!(
        timed_out || truncated,
        "a 25 ms deadline must clip the sweep (504 or explicit partial), got {status}: {text}"
    );

    // Same body, no deadline: the full answer, computed from scratch.
    let t1 = Instant::now();
    let (status, bytes) = post(addr, "/v1/dse", &dse);
    let full = t1.elapsed();
    let text = String::from_utf8_lossy(&bytes).to_string();
    assert_eq!(status, 200, "{text}");
    assert!(
        !text.contains("\"truncated\""),
        "the degraded answer must never have been cached: {text}"
    );
    assert!(
        full > Duration::from_millis(25),
        "the sweep must be slower than the deadline for this test to prove anything: {full:?}"
    );
    assert!(
        clipped < full,
        "the clipped request must not have paid full latency: {clipped:?} vs {full:?}"
    );
    assert!(
        clipped < Duration::from_secs(1),
        "a 25 ms deadline must come back promptly: {clipped:?}"
    );

    // The expiry is attributed: either the worker clipped its own sweep
    // (worker deadline_exceeded / degraded counters) or the router gave
    // up waiting (router deadline_exceeded).
    let stats = router_stats(addr);
    let attributed = router_u64(&stats, &["requests", "deadline_exceeded"])
        + merged_u64(&stats, &["requests", "deadline_exceeded"])
        + merged_u64(&stats, &["requests", "degraded_responses"]);
    assert!(attributed >= 1, "the expiry must surface in stats: {stats}");
    // A deadline expiry is the request's failure, not the shard's: the
    // worker must still be on the ring.
    assert_eq!(
        stats
            .get("router")
            .and_then(|r| r.get("alive_workers"))
            .and_then(Json::as_u64),
        Some(1),
        "a deadline expiry must never evict the worker: {stats}"
    );
}

#[test]
fn hedge_timer_never_fires_past_the_deadline() {
    // Satellite (c): the hedge threshold is 40 ms but the request's
    // deadline is 20 ms — the deadline wins, the request 504s before the
    // hedge timer fires, the replica is never dialed, and the abandoned
    // primary's late answer changes nothing.
    const HEDGE_AFTER: Duration = Duration::from_millis(40);
    const SLOW: Duration = Duration::from_millis(800);
    let slow = MockTransport::new("slow", SLOW, br#"{"from":"slow"}"#);
    let fast = MockTransport::new("fast", Duration::from_millis(1), br#"{"from":"fast"}"#);
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        health_interval: Duration::ZERO,
        hedge_after: HEDGE_AFTER,
        ..Default::default()
    };
    let specs = vec![
        WorkerSpec::Custom(Box::new(SharedMock(Arc::clone(&slow)))),
        WorkerSpec::Custom(Box::new(SharedMock(Arc::clone(&fast)))),
    ];
    let router = Router::spawn_with_workers(config, specs).expect("spawn router");
    let addr = router.addr();
    let ring = {
        let mut r = HashRing::new(VNODES);
        r.add(0);
        r.add(1);
        r
    };
    let body = (1u64..1000)
        .map(analyze_body)
        .find(|b| {
            let key = canonical_key(&canonical_request("POST", "/v1/analyze", b.as_bytes()));
            ring.owner(key) == Some(0)
        })
        .expect("some key must hash to the slow shard");

    let t0 = Instant::now();
    let (status, bytes) =
        post_with_headers(addr, "/v1/analyze", &body, &[("X-Tenet-Deadline-Ms", "20")]);
    let elapsed = t0.elapsed();
    assert_eq!(
        status,
        504,
        "the deadline must clip the hedged wait: {}",
        String::from_utf8_lossy(&bytes)
    );
    assert!(String::from_utf8_lossy(&bytes).contains("deadline_exceeded"));
    assert!(
        elapsed < HEDGE_AFTER + Duration::from_millis(200),
        "the 504 must come near the deadline, not the hedge threshold or the slow worker: {elapsed:?}"
    );
    assert_eq!(
        fast.analyze_calls.load(Ordering::SeqCst),
        0,
        "the hedge must never fire once the deadline expired"
    );
    assert_eq!(slow.analyze_calls.load(Ordering::SeqCst), 1);

    // Let the abandoned primary finish: its late answer lands in a
    // dropped channel and must not touch a single counter.
    std::thread::sleep(SLOW);
    let stats = router_stats(addr);
    assert_eq!(router_u64(&stats, &["hedges", "fired"]), 0);
    assert_eq!(router_u64(&stats, &["requests", "deadline_exceeded"]), 1);
    let rows = shard_rows(&stats);
    assert_eq!(
        rows.iter().map(|r| r.2).sum::<u64>(),
        0,
        "an expired request is routed to nobody: {rows:?}"
    );

    // Without a deadline the same key hedges normally — the timer logic
    // is intact, only clamped.
    let (status, bytes) = post(addr, "/v1/analyze", &body);
    assert_eq!(status, 200);
    assert_eq!(bytes, br#"{"from":"fast"}"#.to_vec());
    let stats = wait_for_stats(addr, "the hedge to fire", |s| {
        router_u64(s, &["hedges", "fired"]) >= 1
    });
    assert_eq!(router_u64(&stats, &["hedges", "won"]), 1);
    router.shutdown_and_join().expect("router drained");
}

#[test]
fn admission_control_throttles_a_bursting_client() {
    let core = WorkerCore::new(ServerConfig {
        addr: "in-process".into(),
        ..Default::default()
    });
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        health_interval: Duration::ZERO,
        admission_rps: 1,
        ..Default::default()
    };
    let router =
        Router::spawn_with_workers(config, vec![WorkerSpec::Local(core)]).expect("spawn router");
    let addr = router.addr();
    let body = analyze_body(1);

    // A burst well past 1 rps (burst capacity 2× = 2): the first
    // requests pass on burst tokens, the tail is shed with 429 +
    // Retry-After before it can pile onto the workers.
    let mut oks = 0;
    let mut rejects = 0;
    for _ in 0..6 {
        let (status, head, bytes) = post_raw(addr, "/v1/analyze", &body, &[]);
        match status {
            200 => oks += 1,
            429 => {
                rejects += 1;
                assert!(
                    String::from_utf8_lossy(&bytes).contains("rate_limited"),
                    "{}",
                    String::from_utf8_lossy(&bytes)
                );
                assert!(
                    head.to_ascii_lowercase().contains("retry-after:"),
                    "a 429 must carry Retry-After: {head}"
                );
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(oks >= 2, "burst capacity must admit the first requests");
    assert!(rejects >= 1, "the burst tail must be shed with 429");

    // A different client identity gets its own bucket: the throttled
    // tenant does not starve the well-behaved one.
    let (status, _) = post_with_headers(
        addr,
        "/v1/analyze",
        &body,
        &[("X-Tenet-Client", "tenant-b")],
    );
    assert_eq!(status, 200, "per-client buckets must isolate tenants");

    let stats = router_stats(addr);
    assert!(
        router_u64(&stats, &["admission", "rejects"]) >= 1,
        "rejects must be counted: {stats}"
    );
    assert_eq!(
        router_u64(&stats, &["requests", "status_5xx"]),
        0,
        "admission control sheds with 4xx, never 5xx: {stats}"
    );
    router.shutdown_and_join().expect("router drained");
}

// ---------------------------------------------------------------------------
// Observability: merged Prometheus exposition, cross-tier traces.
// ---------------------------------------------------------------------------

/// Parses a Prometheus text exposition into `series-with-labels → value`
/// (comment and `# TYPE` lines skipped).
fn parse_prom(text: &str) -> std::collections::BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("prometheus sample line");
            (
                series.to_string(),
                value.parse::<f64>().expect("prometheus sample value"),
            )
        })
        .collect()
}

/// True for series that are additive across shards: counters and
/// histogram components of the worker families. Gauges (in-flight,
/// backlog, cache entries, latency means) are snapshots, not sums, and
/// `tenet_process_*` families are per-process facts the merge drops.
fn summable(series: &str) -> bool {
    let name = series.split('{').next().unwrap();
    name.starts_with("tenet_worker_")
        && ["_total", "_bucket", "_sum", "_count"]
            .iter()
            .any(|s| name.ends_with(s))
}

#[test]
fn merged_metrics_exposition_is_the_sum_of_per_shard_expositions() {
    let prometheus_from_worker_doc = |doc: &Json| {
        tenet_server::stats::WorkerMetrics::decode(doc)
            .expect("a worker stats document decodes")
            .prometheus()
            .into_string()
    };
    // Hedging off: a hedge-raced duplicate compute would perturb the
    // exact counter equality this test asserts.
    let cluster = Cluster::boot_with(2, Duration::ZERO, |c| c.hedge_after = Duration::MAX);
    let addr = cluster.addr();
    for w in 1..=6 {
        for _ in 0..2 {
            let (status, _) = post(addr, "/v1/analyze", &analyze_body(w));
            assert_eq!(status, 200);
        }
    }

    // One consistent snapshot: the same fan-out produced the per-shard
    // documents and their merge, so rendering both through the shared
    // exposition code must agree exactly — no scrape-order skew.
    let stats = wait_for_stats(addr, "replication write-through", |s| {
        router_u64(s, &["replication", "warm_writes"]) >= 6
    });
    let merged = parse_prom(&prometheus_from_worker_doc(
        stats.get("merged").expect("merged doc"),
    ));
    let shard_texts: Vec<String> = stats
        .get("shards")
        .and_then(Json::as_arr)
        .expect("shards array")
        .iter()
        .filter(|s| s.get("alive").and_then(Json::as_bool) == Some(true))
        .map(|s| prometheus_from_worker_doc(s.get("stats").expect("shard stats")))
        .collect();
    assert_eq!(shard_texts.len(), 2);

    let mut summed: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for text in &shard_texts {
        for (series, value) in parse_prom(text) {
            if summable(&series) {
                *summed.entry(series).or_insert(0.0) += value;
            }
        }
    }
    assert!(
        summed.keys().any(|s| s.contains("_bucket")),
        "histogram buckets must participate in the sum"
    );
    for (series, sum) in &summed {
        assert_eq!(
            merged.get(series),
            Some(sum),
            "merged `{series}` must equal the sum over the shard expositions"
        );
    }
    // And nothing summable appears in the merge that no shard reported.
    for series in merged.keys().filter(|s| summable(s)) {
        assert!(
            summed.contains_key(series),
            "merged-only series `{series}` came from no shard"
        );
    }

    // The live endpoint serves both tiers' families, and its histogram
    // is well-formed: cumulative buckets ending at `+Inf`, with `_count`
    // equal to the terminal bucket.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("tenet_worker_requests_total"));
    assert!(text.contains("tenet_router_requests_total"));
    assert!(
        !text.contains("tenet_process_"),
        "process-wide gauges are per-worker facts and must not be merged"
    );
    let mut prev = -1.0;
    let mut terminal = None;
    for line in text
        .lines()
        .filter(|l| l.starts_with("tenet_worker_request_latency_us_bucket"))
    {
        let (series, value) = line.rsplit_once(' ').unwrap();
        let v: f64 = value.parse().unwrap();
        assert!(v >= prev, "bucket counts must be cumulative: {line}");
        prev = v;
        terminal = Some((series.to_string(), v));
    }
    let (series, inf) = terminal.expect("histogram buckets in the exposition");
    assert!(
        series.contains("le=\"+Inf\""),
        "the last bucket must be +Inf: {series}"
    );
    let exposed = parse_prom(&text);
    assert_eq!(
        exposed.get("tenet_worker_request_latency_us_count"),
        Some(&inf),
        "`_count` must equal the +Inf bucket"
    );
}

#[test]
fn hedged_trace_attributes_the_request_to_exactly_one_winner() {
    // The hedged race from the mock test above, traced: the timeline
    // must show one hedge firing and exactly one winner, with the
    // phase spans tiling the router's handling time.
    const HEDGE_AFTER: Duration = Duration::from_millis(40);
    const SLOW: Duration = Duration::from_millis(400);
    let slow = MockTransport::new("slow", SLOW, br#"{"from":"slow"}"#);
    let fast = MockTransport::new("fast", Duration::from_millis(1), br#"{"from":"fast"}"#);
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        health_interval: Duration::ZERO,
        hedge_after: HEDGE_AFTER,
        ..Default::default()
    };
    let specs = vec![
        WorkerSpec::Custom(Box::new(SharedMock(Arc::clone(&slow)))),
        WorkerSpec::Custom(Box::new(SharedMock(Arc::clone(&fast)))),
    ];
    let router = Router::spawn_with_workers(config, specs).expect("spawn router");
    let addr = router.addr();
    let ring = {
        let mut r = HashRing::new(VNODES);
        r.add(0);
        r.add(1);
        r
    };
    let body = (1u64..1000)
        .map(analyze_body)
        .find(|b| {
            let key = canonical_key(&canonical_request("POST", "/v1/analyze", b.as_bytes()));
            ring.owner(key) == Some(0)
        })
        .expect("some key must hash to the slow shard");

    let (status, bytes) = post_with_headers(
        addr,
        "/v1/analyze",
        &body,
        &[("X-Tenet-Trace-Id", "cafe0001")],
    );
    assert_eq!(status, 200);
    assert_eq!(bytes, br#"{"from":"fast"}"#.to_vec());

    // Mock workers keep no trace rings (their canned bodies carry no
    // `records` array), so the fan-out returns the router's record only.
    let (status, body) = get(addr, "/v1/trace/cafe0001");
    assert_eq!(status, 200);
    let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some("00000000cafe0001")
    );
    let records = doc.get("records").and_then(Json::as_arr).expect("records");
    let rec = records
        .iter()
        .find(|r| r.get("tier").and_then(Json::as_str) == Some("router"))
        .expect("the router tier must have recorded the request");
    let spans = rec.get("spans").and_then(Json::as_arr).expect("spans");
    let named = |name: &str| -> Vec<&Json> {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };
    assert_eq!(named("hedge_fired").len(), 1, "one hedge fired: {rec}");
    let won = named("hedge_won");
    assert_eq!(
        won.len(),
        1,
        "the timeline must attribute the answer to exactly one winner: {rec}"
    );
    assert_eq!(
        won[0].get("detail").and_then(Json::as_str),
        Some("replica=1"),
        "the fast replica is the winner"
    );
    assert_eq!(
        named("upstream").len(),
        1,
        "one dispatch attempt covers the whole race: {rec}"
    );
    let total = rec.get("total_us").and_then(Json::as_u64).unwrap();
    let phase_sum: u64 = spans
        .iter()
        .filter(|s| s.get("phase").and_then(Json::as_bool) == Some(true))
        .filter_map(|s| s.get("dur_us").and_then(Json::as_u64))
        .sum();
    assert!(
        phase_sum <= total && total - phase_sum <= total / 10,
        "phases must sum to within 10% of the end-to-end time \
         (sum {phase_sum}µs vs total {total}µs): {rec}"
    );
    router.shutdown_and_join().expect("router drained");
}

#[test]
fn chaos_retry_trace_shows_the_breaker_trip_and_phases_sum_to_total() {
    // The acceptance drill: under a fault plan that blacks out the owning
    // worker, the traced request must surface the failed attempt, the
    // breaker trip, and the rehashed retry — with phase durations summing
    // to within 10% of the end-to-end latency. Prober off and threshold 1
    // make the flap indices and the trip deterministic.
    let (router, _cores) = chaos_cluster(flap_plan(), None, |c| {
        c.breaker_threshold = 1;
        c.health_interval = Duration::ZERO;
    });
    let addr = router.addr();
    let ring = {
        let mut r = HashRing::new(VNODES);
        for w in 0..3 {
            r.add(w);
        }
        r
    };
    let body = (1u64..1000)
        .map(analyze_body)
        .find(|b| {
            let key = canonical_key(&canonical_request("POST", "/v1/analyze", b.as_bytes()));
            ring.owner(key) == Some(0)
        })
        .expect("some key must hash to the flapping shard");

    // Call index 0 falls in the flap-down window: the first dispatch
    // fails, trips the single-failure breaker, and the retry lands on
    // the rehashed surviving owner.
    let (status, bytes) = post_with_headers(
        addr,
        "/v1/analyze",
        &body,
        &[("X-Tenet-Trace-Id", "deadbeef")],
    );
    assert_eq!(
        status,
        200,
        "the retry must absorb the dark worker: {}",
        String::from_utf8_lossy(&bytes)
    );

    let (status, body) = get(addr, "/v1/trace/deadbeef");
    assert_eq!(status, 200);
    let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let records = doc.get("records").and_then(Json::as_arr).expect("records");
    let tiers: std::collections::BTreeSet<&str> = records
        .iter()
        .filter_map(|r| r.get("tier").and_then(Json::as_str))
        .collect();
    assert!(
        tiers.contains("router") && tiers.contains("worker"),
        "the trace must span both tiers: {doc}"
    );

    let rec = records
        .iter()
        .find(|r| r.get("tier").and_then(Json::as_str) == Some("router"))
        .unwrap();
    let spans = rec.get("spans").and_then(Json::as_arr).expect("spans");
    let named = |name: &str| -> Vec<&Json> {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };
    assert!(
        named("upstream").len() >= 2,
        "both the failed attempt and the retry must be on the timeline: {rec}"
    );
    let trips = named("breaker_trip");
    assert_eq!(trips.len(), 1, "the trip must be on the timeline: {rec}");
    let detail = trips[0].get("detail").and_then(Json::as_str).unwrap();
    assert!(
        detail.contains("worker=0") && detail.contains("state=open"),
        "the trip must name the shard and the breaker state: {detail}"
    );

    // The acceptance criterion proper: at every tier, phase durations
    // sum to within 10% of that tier's end-to-end time. (A 50 µs floor
    // absorbs timer granularity on sub-millisecond worker records.)
    for rec in records {
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
            "phases must sum to within 10% of the end-to-end time \
             (sum {phase_sum}µs vs total {total}µs): {rec}"
        );
    }
    router.shutdown_and_join().expect("router drained");
}

// ---------------------------------------------------------------------------
// Warm-state operations: ring-change shipping, malformed-input parity.
// ---------------------------------------------------------------------------

#[test]
fn ring_change_ships_warm_state_to_new_owners() {
    // Hedging off for exact counters; replication at its R = 2 default.
    let mut cluster = Cluster::boot_with(3, Duration::ZERO, |c| c.hedge_after = Duration::MAX);
    let addr = cluster.addr();
    let keys: Vec<String> = (1..=10).map(analyze_body).collect();
    let keys_n = keys.len() as u64;

    let mut first: Vec<Vec<u8>> = Vec::new();
    for body in &keys {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        first.push(bytes);
    }
    // Wait for replication: every key on exactly two of the three shards.
    let before = wait_for_stats(addr, "replication write-through", |s| {
        router_u64(s, &["replication", "warm_writes"]) >= keys_n
            && merged_u64(s, &["dedup", "entries"]) == 2 * keys_n
    });
    let rows = shard_rows(&before);
    let victim = rows.iter().max_by_key(|r| r.2).unwrap();
    let (victim_idx, victim_keys) = (victim.0 as usize, victim.2);
    assert!(victim_keys > 0, "victim must own at least one key");
    cluster.kill_worker(victim_idx);

    // The first post-kill dispatch (or stats probe) evicts the victim;
    // the eviction schedules the warm shipper, which streams the
    // survivors' copies of the moved keys to their new co-owners over
    // the same `/v1/warm` path replication uses.
    for (i, body) in keys.iter().enumerate() {
        let (status, bytes) = post(addr, "/v1/analyze", body);
        assert_eq!(
            status,
            200,
            "key {i} must survive the kill: {}",
            String::from_utf8_lossy(&bytes)
        );
        assert_eq!(bytes, first[i], "key {i} must replay bit-identical");
    }
    // Shipping restores full R = 2 coverage among the survivors: the
    // victim's copies are re-created on the keys' new second owners.
    let after = wait_for_stats(addr, "ring-change warm shipping", |s| {
        router_u64(s, &["replication", "warm_shipped"]) >= 1
            && merged_u64(s, &["dedup", "entries"]) == 2 * keys_n
    });
    assert_eq!(
        router_u64(&after, &["requests", "status_5xx"]),
        0,
        "the kill and the shipping must both be invisible to clients: {after}"
    );
    // The shipper moved cached bytes, never work: no survivor recomputed.
    let after_rows = shard_rows(&after);
    for (b, a) in rows.iter().zip(&after_rows) {
        if b.0 as usize == victim_idx {
            continue;
        }
        assert_eq!(
            a.5, b.5,
            "warm shipping must never trigger recomputes: {after_rows:?}"
        );
    }
    // And the counters surface in the Prometheus exposition too.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("tenet_router_warm_shipped_total"),
        "warm shipping must be scrapeable: {text}"
    );
}

#[test]
fn router_rejects_malformed_deadlines_and_trace_thresholds() {
    // The router speaks the same codec as the worker, so a garbled
    // deadline header fails identically at either tier: 400 with a JSON
    // parse error, never a silent "no deadline".
    let cluster = Cluster::boot(1, Duration::ZERO);
    let addr = cluster.addr();
    for bad in ["soon", "0", "-5", "1e3", ""] {
        let (status, bytes) = post_with_headers(
            addr,
            "/v1/analyze",
            &analyze_body(1),
            &[("X-Tenet-Deadline-Ms", bad)],
        );
        let text = String::from_utf8_lossy(&bytes).to_string();
        assert_eq!(status, 400, "deadline `{bad}` must be rejected: {text}");
        assert!(text.contains("\"parse\""), "{text}");
    }
    // A garbled slow-trace threshold is a usage error, not an unfiltered
    // ring served as if the filter had applied; `ms=0` stays valid.
    let (status, body) = get(addr, "/v1/trace/slow?ms=abc");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("\"usage\""));
    let (status, _) = get(addr, "/v1/trace/slow?ms=0");
    assert_eq!(status, 200);
}
