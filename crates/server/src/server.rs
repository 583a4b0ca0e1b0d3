//! The listener: accept loop, connection lifecycle, and graceful drain.
//!
//! All request semantics (dedup, routing, counters) live in
//! [`WorkerCore`]; this module only owns the TCP side — accepting,
//! HTTP framing, keep-alive, and load shedding.

use crate::http::{self, RequestBuffer};
use crate::pool::{SubmitError, WorkerPool};
use crate::worker::{Call, WorkerCore};
use crate::{error_json, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenet_core::obs::{self, EdgeTimings};

/// A cheap, clonable remote control for a running [`Server`].
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

    /// Starts a graceful drain: stop accepting, finish in-flight work.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// A worker spawned onto its own thread by [`Server::spawn`]: the handle
/// for remote control plus the join handle for clean teardown. This is
/// how the sharding router's CLI entry point, the cluster test harness,
/// and the load generator all boot in-process workers.
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

/// A bound (but not yet running) analysis service.
pub struct Server {
    listener: TcpListener,
    core: Arc<WorkerCore>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `config.addr` and prepares the shared core.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Polling accept: wakes every few milliseconds to observe the
        // shutdown flag without platform signal machinery.
        listener.set_nonblocking(true)?;
        let core = WorkerCore::new(config);
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
        Ok(Server {
            listener,
            core,
            addr,
        })
    }

    /// Binds `config.addr` and runs the service on a new thread,
    /// returning the handles a supervisor (router, test harness, load
    /// generator) needs: bind errors surface here, run errors at join.
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
        self.addr
    }

    /// The request-handling core behind this listener.
    pub fn core(&self) -> Arc<WorkerCore> {
        Arc::clone(&self.core)
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.core.shutdown),
            addr: self.addr,
        }
    }

    /// Runs until a graceful shutdown is requested, then drains.
    ///
    /// Every accepted connection is handed to a bounded worker pool; when
    /// the backlog is full the connection is answered `503` inline and
    /// closed. On shutdown the accept loop stops, admitted connections
    /// finish (bounded by the read timeout), and the workers join.
    pub fn run(self) -> std::io::Result<()> {
        let core = Arc::clone(&self.core);
        let pool_core = Arc::clone(&self.core);
        let pool = WorkerPool::new(
            "tenet-conn",
            core.config.threads,
            core.config.queue_capacity,
            move |(queued_at, stream): (Instant, TcpStream)| {
                serve_connection(stream, queued_at, &pool_core)
            },
        );
        core.set_backlog_probe(pool.backlog_probe());
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
        let shutdown = Arc::clone(&core.shutdown);
        let outcome = loop {
            if shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    core.stats.connections.fetch_add(1, Ordering::Relaxed);
                    match pool.try_submit((Instant::now(), stream)) {
                        Ok(()) => {}
                        Err(((_, stream), SubmitError::Busy | SubmitError::ShuttingDown)) => {
                            core.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                            shed(stream, &core);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Fatal accept error (fd exhaustion, listener torn down):
                // still drain the pool so workers and admitted connections
                // are not stranded.
                Err(e) => break Err(e),
            }
        };
        pool.shutdown();
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

/// Answers `503` on the accept thread when the pool refused a connection.
fn shed(mut stream: TcpStream, core: &Arc<WorkerCore>) {
    let _ = stream.set_write_timeout(Some(core.config.write_timeout));
    let body = error_json("busy", "worker backlog full; retry later").to_string();
    let _ = stream.write_all(&http::encode_response_with(
        503,
        "application/json",
        body.as_bytes(),
        false,
        &[("Retry-After", "1".to_string())],
    ));
}

/// Serves one connection: parse → handle (via the core) → respond,
/// repeating for keep-alive/pipelined requests until close, error, or
/// drain. `queued_at` is when the accept loop admitted the connection;
/// the gap until the first parsed request is its traced queue phase.
fn serve_connection(mut stream: TcpStream, queued_at: Instant, core: &Arc<WorkerCore>) {
    let _ = stream.set_read_timeout(Some(core.config.read_timeout));
    let _ = stream.set_write_timeout(Some(core.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut rb = RequestBuffer::new(core.config.max_header, core.config.max_body);
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
            match parsed {
                Ok(Some(req)) => {
                    let draining = core.is_draining();
                    let keep_alive = req.keep_alive && !draining;
                    let call = Call {
                        deadline: req.anchor_deadline(),
                        trace_id: req.resolve_trace_id(),
                        edge: EdgeTimings {
                            queue_us: std::mem::take(&mut queue_us),
                            parse_us: parse_acc.as_micros() as u64,
                        },
                        ..Call::new(&req.method, &req.path, &req.body)
                    };
                    parse_acc = Duration::ZERO;
                    let (status, body, trace) = core.handle(&call);
                    let content_type = if req.path == "/metrics" {
                        "text/plain; version=0.0.4"
                    } else {
                        "application/json"
                    };
                    let bytes = match &trace {
                        Some(rec) => {
                            let mut extra =
                                vec![("X-Tenet-Trace-Id", obs::TraceId(rec.id).to_string())];
                            let timing = rec.server_timing();
                            if !timing.is_empty() {
                                extra.push(("X-Tenet-Server-Timing", timing));
                            }
                            http::encode_response_with(
                                status,
                                content_type,
                                &body,
                                keep_alive,
                                &extra,
                            )
                        }
                        None => http::encode_response(status, content_type, &body, keep_alive),
                    };
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                    if !keep_alive {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is broken; report and hang up.
                    let body = error_json("parse", e.message()).to_string();
                    let _ = stream.write_all(&http::encode_response(
                        e.status(),
                        "application/json",
                        body.as_bytes(),
                        false,
                    ));
                    // Count the rejected request too, keeping the
                    // `total >= completed` invariant of `/v1/stats`.
                    core.stats.requests.fetch_add(1, Ordering::Relaxed);
                    core.stats.record(e.status(), Duration::from_micros(0));
                    return;
                }
            }
        }
        match rb.fill_from(&mut stream) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(_) => return, // read timeout or reset: drop the connection
        }
    }
}
