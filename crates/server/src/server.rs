//! The listener: accept loop, connection lifecycle, and graceful drain,
//! shared by both tiers.
//!
//! [`Listener::serve`] owns the TCP side — polling accept, the backlog
//! shed, keep-alive and pipelining, HTTP framing, and the response
//! headers. A [`Tier`] supplies only what differs between a worker and
//! the sharding router: its request handler, drain flag, counters, and
//! shed wording. [`Server`] runs a [`WorkerCore`] behind it, and all
//! request semantics (dedup, routing, counters) live in that core.

use crate::http::{self, Request, RequestBuffer};
use crate::pool::WorkerPool;
use crate::worker::{Call, WorkerCore};
use crate::{error_json, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenet_core::obs::{self, EdgeTimings, TraceRecord};

/// A cheap, clonable remote control for a running [`Server`] (or, under
/// its `RouterHandle` name, a running router).
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: stop accepting, finish in-flight work. A
    /// router's drain does not cascade to its workers; that is
    /// `POST /v1/shutdown`'s job.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// A worker spawned onto its own thread by [`Server::spawn`]: the handle
/// for remote control plus the join handle for clean teardown. This is
/// how the sharding router's CLI entry point and the cluster test
/// harness boot in-process workers.
pub struct SpawnedServer {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl SpawnedServer {
    /// The worker's remote control (clonable, thread-safe).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The worker's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Requests a graceful drain and waits for the worker to stop.
    /// Idempotent with an earlier cascaded shutdown: the flag is already
    /// set and the thread has (or is about to have) exited.
    pub fn shutdown_and_join(self) -> std::io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// Accepted connections allowed to wait for a thread before a tier's
/// listener sheds load with `503`; both tiers use it.
pub const QUEUE_CAPACITY: usize = 128;
/// Maximum request-body size in bytes (`413` beyond); both tiers use it.
pub const MAX_BODY: usize = 1 << 20;
/// Maximum header-block size in bytes (`431` beyond); both tiers use it.
pub const MAX_HEADER: usize = 16 * 1024;

/// The connection limits a tier's listener enforces.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Threads serving connections.
    pub threads: usize,
    /// Accepted connections allowed to wait for a thread before the
    /// listener sheds load with `503`.
    pub queue_capacity: usize,
    /// Per-connection read timeout (also bounds drain time).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Maximum header-block size in bytes (`431` beyond).
    pub max_header: usize,
    /// Maximum request-body size in bytes (`413` beyond).
    pub max_body: usize,
}

/// One tier's answer to one request, as the listener frames it.
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Entity bytes.
    pub body: Arc<Vec<u8>>,
    /// `Retry-After` seconds, for shed and throttle answers.
    pub retry_after: Option<u64>,
    /// The finished trace record of a traced request: echoed as
    /// `X-Tenet-Trace-Id` and `X-Tenet-Server-Timing`.
    pub trace: Option<Arc<TraceRecord>>,
}

/// What one tier plugs into the shared [`Listener`], besides the drain
/// flag it binds with.
pub trait Tier: Send + Sync + 'static {
    /// Thread count, backlog, timeouts, and size limits.
    fn limits(&self) -> Limits;
    /// Counts accepted connections.
    fn connections(&self) -> &AtomicU64;
    /// Counts connections shed with `503` because the backlog was full.
    fn rejected_busy(&self) -> &AtomicU64;
    /// The message of the `busy` error a shed connection is answered with.
    fn shed_message(&self) -> &'static str;
    /// Counts a request the framing layer rejected with `status`.
    fn framing_error(&self, status: u16);
    /// Answers one parsed request from `peer`. `edge` is the time the
    /// request spent queued and parsing before the handler ran.
    fn respond(self: &Arc<Self>, req: &Request, peer: SocketAddr, edge: EdgeTimings) -> Response;
    /// Receives the live backlog probe once the connection pool exists;
    /// the default drops it.
    fn backlog_probe(&self, _probe: Box<dyn Fn() -> usize + Send + Sync>) {}
}

/// A bound listening socket, not yet serving, and the drain flag that
/// stops it.
pub struct Listener {
    socket: TcpListener,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

/// An accepted connection waiting for a thread: when it was admitted,
/// the stream, and the peer address.
type Conn = (Instant, TcpStream, SocketAddr);

impl Listener {
    /// Binds `addr` for polling accept: the socket is non-blocking, so
    /// the accept loop wakes every few milliseconds to observe the
    /// tier's `shutdown` flag without platform signal machinery.
    pub fn bind(addr: &str, shutdown: &Arc<AtomicBool>) -> std::io::Result<Listener> {
        let socket = TcpListener::bind(addr)?;
        let addr = socket.local_addr()?;
        socket.set_nonblocking(true)?;
        let shutdown = Arc::clone(shutdown);
        Ok(Listener {
            socket,
            addr,
            shutdown,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control that sets the drain flag.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.addr,
        }
    }

    /// Serves `tier` until the drain flag is set, then drains.
    ///
    /// Every accepted connection is handed to a bounded pool of threads
    /// named after `name`; when the backlog is full the connection is
    /// answered `503` inline and closed. On drain the accept loop stops,
    /// admitted connections finish (bounded by the read timeout), and
    /// the pool joins. A fatal accept error (fd exhaustion) also drains
    /// the pool before it is returned, so admitted connections are not
    /// stranded.
    pub fn serve<T: Tier>(&self, name: &str, tier: Arc<T>) -> std::io::Result<()> {
        let limits = tier.limits();
        let (pool_tier, shutdown) = (Arc::clone(&tier), Arc::clone(&self.shutdown));
        let pool = WorkerPool::new(
            name,
            limits.threads,
            limits.queue_capacity,
            move |conn: Conn| serve_connection(conn, &pool_tier, &shutdown),
        );
        tier.backlog_probe(pool.backlog_probe());
        let outcome = loop {
            if self.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            match self.socket.accept() {
                Ok((stream, peer)) => {
                    tier.connections().fetch_add(1, Ordering::Relaxed);
                    if let Err(((_, stream, _), _)) =
                        pool.try_submit((Instant::now(), stream, peer))
                    {
                        tier.rejected_busy().fetch_add(1, Ordering::Relaxed);
                        shed(stream, limits.write_timeout, tier.shed_message());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        pool.shutdown();
        outcome
    }
}

/// Answers `503 busy` on the accept thread when the pool refused a
/// connection.
fn shed(mut stream: TcpStream, write_timeout: Duration, message: &str) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let body = error_json("busy", message).to_string();
    let _ = stream.write_all(&http::encode_response_with(
        503,
        "application/json",
        body.as_bytes(),
        false,
        &[("Retry-After", "1".to_string())],
    ));
}

/// Serves one connection: parse → respond → write, repeating for
/// keep-alive and pipelined requests until close, error, or drain. The
/// gap from admission until the first parsed request is its traced
/// queue phase.
fn serve_connection<T: Tier>(
    (queued_at, mut stream, peer): Conn,
    tier: &Arc<T>,
    shutdown: &AtomicBool,
) {
    let limits = tier.limits();
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut rb = RequestBuffer::new(limits.max_header, limits.max_body);
    // The queue phase is attributed to the connection's first request
    // only; parse time accumulates across the incremental parser calls
    // (blocking socket reads — the client's own think time — excluded).
    let mut queue_us = queued_at.elapsed().as_micros() as u64;
    let mut parse_acc = Duration::ZERO;
    loop {
        // Drain every already-buffered request (pipelining) before the
        // next blocking read.
        loop {
            let t_parse = Instant::now();
            let parsed = rb.next_request();
            parse_acc += t_parse.elapsed();
            let req = match parsed {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(e) => {
                    // Framing is broken (chunked bodies → 501 included);
                    // report and hang up, counting the request.
                    let body = error_json("parse", e.message()).to_string();
                    let _ = stream.write_all(&http::encode_response(
                        e.status(),
                        "application/json",
                        body.as_bytes(),
                        false,
                    ));
                    tier.framing_error(e.status());
                    return;
                }
            };
            let keep_alive = req.keep_alive && !shutdown.load(Ordering::Acquire);
            let edge = EdgeTimings {
                queue_us: std::mem::take(&mut queue_us),
                parse_us: parse_acc.as_micros() as u64,
            };
            parse_acc = Duration::ZERO;
            let response = tier.respond(&req, peer, edge);
            if stream
                .write_all(&encode(&req.path, &response, keep_alive))
                .is_err()
                || !keep_alive
            {
                return;
            }
        }
        match rb.fill_from(&mut stream) {
            Ok(0) | Err(_) => return, // peer closed, read timeout, or reset
            Ok(_) => {}
        }
    }
}

/// Frames one answer: `/metrics` is Prometheus text and everything else
/// JSON; `Retry-After` and the trace headers ride along when present.
fn encode(path: &str, response: &Response, keep_alive: bool) -> Vec<u8> {
    let content_type = if path == "/metrics" {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = response.retry_after {
        extra.push(("Retry-After", secs.to_string()));
    }
    if let Some(rec) = &response.trace {
        extra.push(("X-Tenet-Trace-Id", obs::TraceId(rec.id).to_string()));
        let timing = rec.server_timing();
        if !timing.is_empty() {
            extra.push(("X-Tenet-Server-Timing", timing));
        }
    }
    http::encode_response_with(
        response.status,
        content_type,
        &response.body,
        keep_alive,
        &extra,
    )
}

/// A bound (but not yet running) analysis service.
pub struct Server {
    listener: Listener,
    core: Arc<WorkerCore>,
}

impl Server {
    /// Binds `config.addr` and prepares the shared core.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let core = WorkerCore::new(config);
        let listener = Listener::bind(&core.config.addr, &core.shutdown)?;
        // Restore-on-boot: a present snapshot file warms the caches so a
        // restarted shard answers its old keys with bit-identical bytes.
        // Any failure (missing, corrupted, truncated, wrong version) is
        // reported and the worker starts cold — never crashed.
        if let Some(path) = core.config.snapshot_file.clone() {
            if path.exists() {
                match crate::snapshot::load_from_file(&core, &path) {
                    Ok(r) => eprintln!(
                        "tenet-server: restored snapshot {} (dedup {}, isl memo {}, isl parsed {}, skipped {})",
                        path.display(),
                        r.dedup,
                        r.isl_memo,
                        r.isl_parsed,
                        r.skipped
                    ),
                    Err(e) => eprintln!(
                        "tenet-server: rejecting snapshot {}: {e}; starting cold",
                        path.display()
                    ),
                }
            }
        }
        Ok(Server { listener, core })
    }

    /// Binds `config.addr` and runs the service on a new thread,
    /// returning the handles a supervisor (router, test harness) needs:
    /// bind errors surface here, run errors at join.
    pub fn spawn(config: ServerConfig) -> std::io::Result<SpawnedServer> {
        let server = Server::bind(config)?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name(format!("tenet-server-{}", handle.addr().port()))
            .spawn(move || server.run())?;
        Ok(SpawnedServer { handle, thread })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The request-handling core behind this listener.
    pub fn core(&self) -> Arc<WorkerCore> {
        Arc::clone(&self.core)
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        self.listener.handle()
    }

    /// Runs the [`Listener`] until a graceful shutdown is requested,
    /// then drains, with the worker's snapshot duties around it: the
    /// periodic writer while serving and one final save after the drain.
    pub fn run(self) -> std::io::Result<()> {
        let core = self.core;
        // The periodic snapshot writer: wakes in short slices so a drain
        // is observed promptly, writes every `snapshot_interval`. The
        // write is atomic (tmp+rename), so a kill mid-write never leaves
        // a torn file for the next boot.
        let snap_thread = match (&core.config.snapshot_file, core.config.snapshot_interval) {
            (Some(path), Some(interval)) => {
                let core = Arc::clone(&core);
                let path = path.clone();
                Some(
                    std::thread::Builder::new()
                        .name("tenet-snapshot".into())
                        .spawn(move || {
                            let mut last = Instant::now();
                            while !core.shutdown.load(Ordering::Acquire) {
                                std::thread::sleep(Duration::from_millis(20));
                                if last.elapsed() >= interval {
                                    if let Err(e) = crate::snapshot::save_to_file(&core, &path) {
                                        eprintln!("tenet-server: periodic snapshot failed: {e}");
                                    }
                                    last = Instant::now();
                                }
                            }
                        })?,
                )
            }
            _ => None,
        };
        let outcome = self.listener.serve("tenet-conn", Arc::clone(&core));
        if let Some(t) = snap_thread {
            let _ = t.join();
        }
        // One final save after the drain so an orderly shutdown persists
        // everything the last requests warmed.
        if let Some(path) = &core.config.snapshot_file {
            if let Err(e) = crate::snapshot::save_to_file(&core, path) {
                eprintln!("tenet-server: final snapshot failed: {e}");
            }
        }
        outcome
    }
}

/// The worker tier: a [`WorkerCore`] answers every request through
/// [`WorkerCore::handle`].
impl Tier for WorkerCore {
    fn limits(&self) -> Limits {
        let c = &self.config;
        Limits {
            threads: c.threads,
            queue_capacity: QUEUE_CAPACITY,
            read_timeout: c.read_timeout,
            write_timeout: c.write_timeout,
            max_header: MAX_HEADER,
            max_body: MAX_BODY,
        }
    }

    fn connections(&self) -> &AtomicU64 {
        &self.stats.connections
    }

    fn rejected_busy(&self) -> &AtomicU64 {
        &self.stats.rejected_busy
    }

    fn shed_message(&self) -> &'static str {
        "worker backlog full; retry later"
    }

    fn framing_error(&self, status: u16) {
        // Count the rejected request too, keeping the `total >=
        // completed` invariant of `/v1/stats`.
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.record(status, Duration::ZERO);
    }

    fn respond(self: &Arc<Self>, req: &Request, _peer: SocketAddr, edge: EdgeTimings) -> Response {
        let call = Call {
            deadline: req.anchor_deadline(),
            trace_id: req.resolve_trace_id(),
            edge,
            ..Call::new(&req.method, &req.path, &req.body)
        };
        let (status, body, trace) = self.handle(&call);
        Response {
            status,
            body,
            retry_after: None,
            trace,
        }
    }

    fn backlog_probe(&self, probe: Box<dyn Fn() -> usize + Send + Sync>) {
        self.set_backlog_probe(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ResponseReader;
    use std::sync::Mutex;
    use tenet_core::json::Json;

    /// A tier whose handler blocks on `gate` and whose counters the
    /// tests read back.
    struct Stub {
        gate: Mutex<()>,
        entered: AtomicU64,
        connections: AtomicU64,
        rejected: AtomicU64,
        framing: AtomicU64,
        shutdown: Arc<AtomicBool>,
    }

    impl Tier for Stub {
        fn limits(&self) -> Limits {
            Limits {
                threads: 1,
                queue_capacity: 1,
                read_timeout: Duration::from_secs(5),
                write_timeout: Duration::from_secs(5),
                max_header: 1024,
                max_body: 16,
            }
        }

        fn connections(&self) -> &AtomicU64 {
            &self.connections
        }

        fn rejected_busy(&self) -> &AtomicU64 {
            &self.rejected
        }

        fn shed_message(&self) -> &'static str {
            "stub backlog full"
        }

        fn framing_error(&self, _status: u16) {
            self.framing.fetch_add(1, Ordering::Relaxed);
        }

        fn respond(self: &Arc<Self>, _: &Request, _: SocketAddr, _: EdgeTimings) -> Response {
            self.entered.fetch_add(1, Ordering::SeqCst);
            drop(self.gate.lock().unwrap());
            Response {
                status: 200,
                body: Arc::new(b"{}".to_vec()),
                retry_after: None,
                trace: None,
            }
        }
    }

    /// Binds an ephemeral port and serves a fresh stub on a thread.
    fn serve_stub() -> (
        Arc<Stub>,
        SocketAddr,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let stub = Arc::new(Stub {
            gate: Mutex::new(()),
            entered: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            framing: AtomicU64::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
        });
        let listener = Listener::bind("127.0.0.1:0", &stub.shutdown).unwrap();
        let addr = listener.addr();
        let tier = Arc::clone(&stub);
        let thread = std::thread::spawn(move || listener.serve("stub", tier));
        (stub, addr, thread)
    }

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn get(stream: &mut TcpStream) {
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }

    #[test]
    fn full_backlog_sheds_503_busy_with_retry_after() {
        let (stub, addr, thread) = serve_stub();
        let held = stub.gate.lock().unwrap();
        // The one connection thread blocks inside the handler...
        let mut first = TcpStream::connect(addr).unwrap();
        get(&mut first);
        wait_for("first request in the handler", || {
            stub.entered.load(Ordering::SeqCst) == 1
        });
        // ...the second connection fills the one backlog slot...
        let mut second = TcpStream::connect(addr).unwrap();
        get(&mut second);
        wait_for("second connection accepted", || {
            stub.connections.load(Ordering::Relaxed) == 2
        });
        // ...so the third is shed on the accept thread.
        let third = TcpStream::connect(addr).unwrap();
        let (status, headers, body) = ResponseReader::new(third)
            .next_response_with_headers()
            .unwrap();
        assert_eq!(status, 503);
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(header("retry-after"), Some("1"));
        assert_eq!(header("connection"), Some("close"));
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("busy"));
        assert_eq!(
            error.get("message").and_then(Json::as_str),
            Some("stub backlog full")
        );
        assert_eq!(stub.rejected.load(Ordering::Relaxed), 1);

        // Releasing the handler serves both admitted connections.
        drop(held);
        for stream in [first, second] {
            let (status, _) = ResponseReader::new(stream).next_response().unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(stub.rejected.load(Ordering::Relaxed), 1);
        stub.shutdown.store(true, Ordering::Release);
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn framing_error_is_answered_counted_once_and_closes() {
        let (stub, addr, thread) = serve_stub();
        let mut stream = TcpStream::connect(addr).unwrap();
        // The declared body exceeds the stub's 16-byte limit.
        stream
            .write_all(b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n")
            .unwrap();
        let mut reader = ResponseReader::new(stream.try_clone().unwrap());
        let (status, headers, body) = reader.next_response_with_headers().unwrap();
        assert_eq!(status, 413);
        assert!(headers.contains(&("connection".into(), "close".into())));
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("parse")
        );
        // The listener hung up at once: the next read sees end of stream
        // well before the stub's 5 s read timeout would have closed it.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut rest = Vec::new();
        assert_eq!(
            std::io::Read::read_to_end(&mut stream, &mut rest).unwrap(),
            0
        );
        assert_eq!(stub.framing.load(Ordering::Relaxed), 1);
        assert_eq!(stub.entered.load(Ordering::SeqCst), 0, "never handled");
        stub.shutdown.store(true, Ordering::Release);
        thread.join().unwrap().unwrap();
    }
}
