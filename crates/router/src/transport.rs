//! The forward path abstraction: how the router talks to one worker.
//!
//! Everything the proxy path, the health prober, the stats fan-out, and
//! the shutdown cascade need from a worker fits one small trait. A new
//! transport implements one data-path method,
//! [`call`](Transport::call), which takes a [`Call`] (method, path, body,
//! and the optional canonical form, deadline, and trace id) plus read and
//! write timeouts and returns the worker's status and body. Beside it sit
//! [`send_control`](Transport::send_control),
//! [`probe`](Transport::probe), [`endpoint`](Transport::endpoint), and
//! [`kind`](Transport::kind); [`hedgeable`](Transport::hedgeable) and
//! [`on_dead`](Transport::on_dead) have defaults. The router is then
//! indifferent to *where* the worker runs:
//!
//! * [`HttpTransport`](crate::upstream::HttpTransport) — pooled
//!   keep-alive HTTP/1.1 to a remote (or loopback) worker process.
//! * [`LocalTransport`] — direct dispatch into an in-process
//!   [`WorkerCore`]: no socket, no HTTP reframe, no loopback hop. This
//!   is what collapses the router's single-box throughput tax.
//!
//! The distinction the router's failure handling depends on —
//! backpressure versus death — is carried by [`ForwardError`] for both.

use std::sync::Arc;
use std::time::Duration;
use tenet_server::{Call, WorkerCore};

/// Why a [`Transport::call`] failed — the distinction drives the
/// router's reaction.
#[derive(Debug)]
pub enum ForwardError {
    /// The worker refused new work but is not dead (every connection
    /// slot in flight past the wait deadline). The right reaction is
    /// backpressure (`503`), **not** eviction — evicting a busy worker
    /// would rehash its whole key population and throw away its warm
    /// cache.
    Busy,
    /// The transport failed: connect refused, reset, timeout
    /// mid-exchange, or (locally) a drained core. The worker is presumed
    /// dead; evict and re-route.
    Transport(std::io::Error),
}

impl std::fmt::Display for ForwardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForwardError::Busy => write!(f, "connection slots busy"),
            ForwardError::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

/// One way of reaching one worker. Implementations must be safe to call
/// from many router threads at once.
pub trait Transport: Send + Sync {
    /// Forwards one request and returns the worker's `(status, body)`.
    ///
    /// The timeouts bound the exchange where a wire is involved; an
    /// in-process dispatch runs on the caller's thread and ignores them.
    /// A transport propagates the call's deadline and trace id to the
    /// worker (as `X-Tenet-Deadline-Ms` / `X-Tenet-Trace-Id` over a wire,
    /// directly in-process) and clamps its own read timeout to the
    /// remaining budget, so a short-deadline request never waits out the
    /// full upstream timeout. The canonical form is an in-process
    /// shortcut: a wire transport ignores it, because the worker
    /// re-derives it on its side of the socket.
    fn call(
        &self,
        call: &Call,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<(u16, Arc<Vec<u8>>), ForwardError>;

    /// One control message (`/v1/shutdown` cascades) that must get
    /// through even when the data path is saturated or the worker was
    /// marked dead — delivered outside the pooled/drain-gated path.
    fn send_control(
        &self,
        method: &str,
        path: &str,
        timeout: Duration,
    ) -> std::io::Result<(u16, Vec<u8>)>;

    /// One liveness probe, outside the data path.
    fn probe(&self, timeout: Duration) -> bool;

    /// Where this worker lives, for stats/logs (`host:port`, or
    /// `local`).
    fn endpoint(&self) -> String;

    /// Transport flavor for stats/logs: `"http"` or `"local"`.
    fn kind(&self) -> &'static str;

    /// Whether hedging a slow call to a replica makes sense. True for
    /// anything with a wire in the middle; false for in-process dispatch,
    /// which runs synchronously on the caller's thread — there is no
    /// waiting to hedge against, and the replica would only duplicate
    /// work on the same box.
    fn hedgeable(&self) -> bool {
        true
    }

    /// Hook invoked when the router marks this worker dead (pooled
    /// connections should be dropped; they point at a corpse).
    fn on_dead(&self) {}
}

/// Direct in-process dispatch into a worker's [`WorkerCore`]: the
/// request bytes go straight into the worker's handler on the calling
/// thread and the response bytes come straight back — no socket, no
/// HTTP reframe. A drained core answers [`ForwardError::Transport`] on
/// the data path (in-process "worker death"), while control messages and
/// warm writes still land.
pub struct LocalTransport {
    core: Arc<WorkerCore>,
}

impl LocalTransport {
    /// Wraps an in-process worker core.
    pub fn new(core: Arc<WorkerCore>) -> LocalTransport {
        LocalTransport { core }
    }

    /// The wrapped core (test harnesses drain it to simulate a kill).
    pub fn core(&self) -> Arc<WorkerCore> {
        Arc::clone(&self.core)
    }
}

impl Transport for LocalTransport {
    fn call(
        &self,
        call: &Call,
        _read_timeout: Duration,
        _write_timeout: Duration,
    ) -> Result<(u16, Arc<Vec<u8>>), ForwardError> {
        if self.core.is_draining() {
            return Err(ForwardError::Transport(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "local worker drained",
            )));
        }
        // The worker stores its own tier's record in its trace ring; the
        // router assembles the cross-tier view from there, so the record
        // returned here is deliberately dropped.
        let (status, bytes, _record) = self.core.handle(call);
        Ok((status, bytes))
    }

    fn send_control(
        &self,
        method: &str,
        path: &str,
        _timeout: Duration,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        // Deliberately not drain-gated: a shutdown cascade must reach a
        // worker that is already draining (idempotently) — mirroring the
        // HTTP transport's fresh-connection control path.
        let (status, body, _) = self.core.handle(&Call::new(method, path, b""));
        Ok((status, body.as_ref().clone()))
    }

    fn probe(&self, _timeout: Duration) -> bool {
        !self.core.is_draining()
    }

    fn endpoint(&self) -> String {
        "local".into()
    }

    fn kind(&self) -> &'static str {
        "local"
    }

    fn hedgeable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenet_server::ServerConfig;

    fn local() -> LocalTransport {
        LocalTransport::new(WorkerCore::new(ServerConfig {
            addr: "unused".into(),
            ..Default::default()
        }))
    }

    #[test]
    fn local_dispatch_answers_without_a_socket() {
        let t = local();
        let (status, body) = t
            .call(
                &Call::new("GET", "/v1/healthz", b""),
                Duration::ZERO,
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("ok"));
        assert!(t.probe(Duration::ZERO));
        assert!(!t.hedgeable());
        assert_eq!(t.kind(), "local");
    }

    #[test]
    fn drained_core_fails_data_path_but_not_control() {
        let t = local();
        t.core().drain();
        assert!(matches!(
            t.call(
                &Call::new("GET", "/v1/healthz", b""),
                Duration::ZERO,
                Duration::ZERO
            ),
            Err(ForwardError::Transport(_))
        ));
        assert!(!t.probe(Duration::ZERO));
        // The control path still reaches the (already draining) worker.
        let (status, _) = t
            .send_control("POST", "/v1/shutdown", Duration::ZERO)
            .unwrap();
        assert_eq!(status, 200);
    }
}
