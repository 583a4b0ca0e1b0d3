//! The HTTP transport: pooled keep-alive connections to a worker
//! process reachable over a socket (remote box or loopback).
//!
//! The router proxies every sharded request over a pooled connection to
//! the owning worker, so the steady-state per-request cost is one
//! round trip — no connect handshake. A pooled connection that fails
//! (stale keep-alive after a worker restart, read timeout) is retried
//! once on a fresh connect before the worker is reported dead; callers
//! then evict it from the ring and re-route. Shard identity, liveness
//! belief, and routing counters live in the router's
//! [`Shard`](crate::router::Shard), not here — this type only knows how
//! to move bytes.

use crate::transport::{ForwardError, Transport};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tenet_server::http::ResponseReader;
use tenet_server::Call;

/// One pooled connection: the write half plus its buffered reader over a
/// clone of the same socket.
struct Conn {
    stream: TcpStream,
    reader: ResponseReader<TcpStream>,
}

/// The connection pool's guarded state: idle connections plus the count
/// of every socket currently open to the worker (idle *and* in use).
#[derive(Default)]
struct PoolState {
    idle: Vec<Conn>,
    open: usize,
}

/// Pooled keep-alive HTTP/1.1 to one worker process.
///
/// The pool bounds `open` — idle plus in-flight — at `limit`. The bound
/// is load-bearing, not an optimization: the worker dedicates a thread
/// to each connection for its keep-alive lifetime, so an unbounded pool
/// of parked keep-alive sockets would occupy every worker thread and
/// starve fresh connections (including health probes, which would then
/// evict a perfectly healthy worker). A spawner must size the worker's
/// thread pool at `limit + 2` or better (probe + slack).
pub struct HttpTransport {
    /// The worker's socket address.
    pub addr: SocketAddr,
    pool: Mutex<PoolState>,
    pool_freed: Condvar,
    limit: usize,
}

impl HttpTransport {
    /// A transport to the worker at `addr`, keeping at most `limit`
    /// connections open to it.
    pub fn new(addr: SocketAddr, limit: usize) -> HttpTransport {
        HttpTransport {
            addr,
            pool: Mutex::new(PoolState::default()),
            pool_freed: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Drops every idle pooled connection (they point at a corpse after
    /// a worker death, or at a restarted process that won't recognize
    /// them).
    fn clear_pool(&self) {
        let mut pool = self.pool.lock().expect("pool poisoned");
        pool.open -= pool.idle.len();
        pool.idle.clear();
        drop(pool);
        self.pool_freed.notify_all();
    }

    /// Takes a connection: a pooled idle one, a fresh one when under the
    /// limit, or — with every slot in flight — waits up to `wait` for a
    /// peer to finish. Returns the connection and whether it was pooled.
    fn acquire(
        &self,
        read: Duration,
        write: Duration,
        wait: Duration,
    ) -> Result<(Conn, bool), ForwardError> {
        let deadline = std::time::Instant::now() + wait;
        let mut pool = self.pool.lock().expect("pool poisoned");
        loop {
            if let Some(conn) = pool.idle.pop() {
                return Ok((conn, true));
            }
            if pool.open < self.limit {
                pool.open += 1;
                drop(pool);
                // Connect outside the lock; roll the count back on failure.
                return match self.connect(read, write) {
                    Ok(conn) => Ok((conn, false)),
                    Err(e) => {
                        self.release_slot();
                        Err(ForwardError::Transport(e))
                    }
                };
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(ForwardError::Busy);
            }
            let (guard, _) = self
                .pool_freed
                .wait_timeout(pool, deadline - now)
                .expect("pool poisoned");
            pool = guard;
        }
    }

    /// Returns a finished connection to the idle pool for reuse.
    fn park(&self, conn: Conn) {
        let mut pool = self.pool.lock().expect("pool poisoned");
        pool.idle.push(conn);
        drop(pool);
        self.pool_freed.notify_one();
    }

    /// Accounts for a connection that was dropped instead of parked.
    fn release_slot(&self) {
        let mut pool = self.pool.lock().expect("pool poisoned");
        pool.open = pool.open.saturating_sub(1);
        drop(pool);
        self.pool_freed.notify_one();
    }

    fn connect(&self, read_timeout: Duration, write_timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&self.addr, read_timeout.max(write_timeout))?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        stream.set_nodelay(true)?;
        let reader = ResponseReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Writes one request on `conn` and reads the response. The call's
    /// trace id rides along as `X-Tenet-Trace-Id` (so the worker's tier
    /// of the timeline lands under the same id), and `deadline_ms`, the
    /// remaining budget, as `X-Tenet-Deadline-Ms` (so the worker can
    /// degrade instead of computing past it).
    fn send_on_with(
        conn: &mut Conn,
        call: &Call,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let Call {
            method,
            path,
            body,
            trace_id,
            ..
        } = *call;
        let deadline_header = match deadline_ms {
            Some(ms) => format!("X-Tenet-Deadline-Ms: {ms}\r\n"),
            None => String::new(),
        };
        let trace_header = match trace_id {
            Some(id) => format!("X-Tenet-Trace-Id: {id:016x}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: tenet-router\r\nContent-Type: application/json\r\n\
             {deadline_header}{trace_header}Content-Length: {}\r\n\r\n",
            body.len()
        );
        conn.stream.write_all(head.as_bytes())?;
        if !body.is_empty() {
            conn.stream.write_all(body)?;
        }
        conn.reader.next_response()
    }

    /// One request on a fresh, unpooled connection. The worker's
    /// `limit + 2` thread headroom exists exactly for these.
    fn send_once(
        &self,
        method: &str,
        path: &str,
        timeout: Duration,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut conn = self.connect(timeout, timeout)?;
        Self::send_on_with(&mut conn, &Call::new(method, path, b""), None)
    }
}

impl Transport for HttpTransport {
    /// Proxies one request, reusing a pooled keep-alive connection when
    /// one exists. A failure on a *pooled* connection is retried once on
    /// a fresh connect (the worker may simply have closed an idle
    /// socket); a failure on a fresh connection is the worker's answer —
    /// the caller should evict and re-route on
    /// [`ForwardError::Transport`], and shed load (never evict) on
    /// [`ForwardError::Busy`]. With a deadline, the socket read timeout
    /// is clamped to ~1.5× the remaining budget (a degraded worker answer
    /// is still worth waiting slightly past expiry for — it beats a torn
    /// connection) and the remaining budget rides along as
    /// `X-Tenet-Deadline-Ms`.
    fn call(
        &self,
        call: &Call,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<(u16, Arc<Vec<u8>>), ForwardError> {
        let (read_timeout, deadline_ms) = match call.deadline {
            Some(dl) => {
                let remaining = dl.saturating_duration_since(Instant::now());
                let clamped = (remaining + remaining / 2 + Duration::from_millis(20))
                    .min(read_timeout.max(Duration::from_millis(1)));
                (
                    clamped,
                    Some(remaining.as_millis().min(u64::MAX as u128) as u64),
                )
            }
            None => (read_timeout, None),
        };
        let (mut conn, was_pooled) = self.acquire(read_timeout, write_timeout, read_timeout)?;
        // Pooled sockets keep the timeouts of the call that created
        // them; re-arm for this call so a short-deadline fan-out is not
        // silently governed by an earlier long-deadline proxy call.
        let _ = conn.stream.set_read_timeout(Some(read_timeout));
        let _ = conn.stream.set_write_timeout(Some(write_timeout));
        let (conn, (status, bytes)) = match Self::send_on_with(&mut conn, call, deadline_ms) {
            Ok(reply) => (conn, reply),
            Err(_) if was_pooled => {
                // Stale keep-alive; one fresh attempt before giving up.
                // The slot stays ours: the dead socket closes and the
                // fresh one takes its place in the accounting.
                drop(conn);
                let retried = self.connect(read_timeout, write_timeout).and_then(|mut c| {
                    Self::send_on_with(&mut c, call, deadline_ms).map(|reply| (c, reply))
                });
                match retried {
                    Ok(pair) => pair,
                    Err(e) => {
                        self.release_slot();
                        return Err(ForwardError::Transport(e));
                    }
                }
            }
            Err(e) => {
                self.release_slot();
                return Err(ForwardError::Transport(e));
            }
        };
        self.park(conn);
        Ok((status, Arc::new(bytes)))
    }

    /// Control messages (`/v1/shutdown` cascades) go on a fresh unpooled
    /// connection so they get through even when every pool slot is busy
    /// or the worker was evicted and its pool cleared.
    fn send_control(
        &self,
        method: &str,
        path: &str,
        timeout: Duration,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.send_once(method, path, timeout)
    }

    /// One liveness probe: `GET /v1/healthz` on a short-deadline fresh
    /// connection (pooled sockets would mask a dead worker behind a
    /// buffered response).
    fn probe(&self, timeout: Duration) -> bool {
        matches!(self.send_once("GET", "/v1/healthz", timeout), Ok((200, _)))
    }

    fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    fn kind(&self) -> &'static str {
        "http"
    }

    fn on_dead(&self) {
        self.clear_pool();
    }
}
