//! Deterministic fault injection for chaos testing the serving stack.
//!
//! [`FaultTransport`] wraps any [`Transport`] and injects failures on the
//! data path (`/v1/analyze`, `/v1/dse`) and liveness probes according to
//! a seeded [`FaultPlan`]: added latency, dropped connections, 5xx
//! bursts, torn (truncated) responses, and periodic flapping where the
//! worker goes entirely dark. Every decision is a pure function of the
//! plan's seed and a per-transport call counter — no wall-clock or OS
//! entropy — so a chaos run replays identically and test assertions can
//! be exact.
//!
//! Operator paths are deliberately exempt: `/v1/stats` fan-out,
//! `/v1/warm` replication writes, and control messages (shutdown
//! cascades) always pass through, mirroring real incidents where the
//! serving path degrades long before the management plane does.

use crate::ring::mix;
use crate::transport::{ForwardError, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tenet_server::{error_json, Call};

/// A seeded, deterministic description of what to break and how often.
/// All rates are per-mille (‰) of data-path calls; `Default` injects
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every injection decision; two transports with the same
    /// seed and call history fail identically.
    pub seed: u64,
    /// ‰ of calls delayed by [`latency`](FaultPlan::latency) before
    /// dispatch (a slow-but-alive shard).
    pub latency_per_mille: u32,
    /// The injected delay for latency faults.
    pub latency: Duration,
    /// ‰ of calls failing as a reset connection (worker reachable,
    /// socket torn down mid-exchange).
    pub drop_per_mille: u32,
    /// ‰ of calls answered with an injected `503` burst response.
    pub err_per_mille: u32,
    /// ‰ of calls failing as a torn response (unexpected EOF mid-body).
    pub torn_per_mille: u32,
    /// Call-index period of the flap cycle; `0` disables flapping.
    pub flap_period: u64,
    /// Calls at the start of each period during which the worker is
    /// entirely dark (data calls fail, probes report dead).
    pub flap_down: u64,
    /// When `Some(n)`, a multi-worker spawner (the CLI) applies this plan
    /// only to worker `n`; `None` applies it to every worker. The
    /// transport itself ignores the field.
    pub only_worker: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            latency_per_mille: 0,
            latency: Duration::from_millis(10),
            drop_per_mille: 0,
            err_per_mille: 0,
            torn_per_mille: 0,
            flap_period: 0,
            flap_down: 0,
            only_worker: None,
        }
    }
}

impl FaultPlan {
    /// Parses the compact `key=value[,key=value]...` spelling used by
    /// `--fault-plan`. Keys: `seed`, `latency_pm`, `latency_ms`,
    /// `drop_pm`, `err_pm`, `torn_pm`, `flap_period`, `flap_down`,
    /// `worker`. Example: `worker=0,seed=7,flap_period=40,flap_down=12`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry `{part}` is not key=value"))?;
            let number: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault-plan `{key}` value `{value}` is not a number"))?;
            let pm = |n: u64| -> Result<u32, String> {
                if n > 1000 {
                    return Err(format!(
                        "fault-plan `{key}` is per-mille; max 1000, got {n}"
                    ));
                }
                Ok(n as u32)
            };
            match key.trim() {
                "seed" => plan.seed = number,
                "latency_pm" => plan.latency_per_mille = pm(number)?,
                "latency_ms" => plan.latency = Duration::from_millis(number),
                "drop_pm" => plan.drop_per_mille = pm(number)?,
                "err_pm" => plan.err_per_mille = pm(number)?,
                "torn_pm" => plan.torn_per_mille = pm(number)?,
                "flap_period" => plan.flap_period = number,
                "flap_down" => plan.flap_down = number,
                "worker" => plan.only_worker = Some(number as usize),
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        if plan.flap_down > plan.flap_period {
            return Err(format!(
                "fault-plan flap_down ({}) exceeds flap_period ({})",
                plan.flap_down, plan.flap_period
            ));
        }
        Ok(plan)
    }
}

/// What the plan decided for one data-path call.
enum Injected {
    /// Proceed to the wrapped transport (possibly after injected sleep).
    Pass,
    /// Answer with an injected upstream 5xx burst response.
    Respond(u16, Arc<Vec<u8>>),
    /// Fail with an injected transport error.
    Fail(ForwardError),
}

/// A [`Transport`] decorator that injects the wrapped [`FaultPlan`].
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl FaultTransport {
    /// Wraps `inner` with the given plan. Wrapping is composable: a
    /// flap-only plan around a latency-only plan applies both.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> FaultTransport {
        FaultTransport {
            inner,
            plan,
            calls: AtomicU64::new(0),
        }
    }

    /// Whether call index `i` falls in a flap-down window.
    fn flapped_down(&self, i: u64) -> bool {
        self.plan.flap_period > 0 && i % self.plan.flap_period < self.plan.flap_down
    }

    /// Draws the per-mille decision for fault `kind` at call index `i`.
    fn roll(&self, i: u64, kind: u64, per_mille: u32) -> bool {
        per_mille > 0
            && mix(self.plan.seed ^ i.wrapping_mul(6).wrapping_add(kind)) % 1000 < per_mille as u64
    }

    /// Runs the plan for one data-path call: advances the call counter,
    /// sleeps injected latency inline, and decides the call's fate.
    fn gate(&self) -> Injected {
        let i = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.flapped_down(i) {
            return Injected::Fail(ForwardError::Transport(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "injected flap: worker dark this window",
            )));
        }
        if self.roll(i, 0, self.plan.latency_per_mille) {
            std::thread::sleep(self.plan.latency);
        }
        if self.roll(i, 1, self.plan.drop_per_mille) {
            return Injected::Fail(ForwardError::Transport(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected connection drop",
            )));
        }
        if self.roll(i, 2, self.plan.torn_per_mille) {
            return Injected::Fail(ForwardError::Transport(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "injected torn response",
            )));
        }
        if self.roll(i, 3, self.plan.err_per_mille) {
            let body = error_json("injected", "injected 5xx burst").to_string();
            return Injected::Respond(503, Arc::new(body.into_bytes()));
        }
        Injected::Pass
    }

    /// Whether faults apply to this path at all. Only the sharded data
    /// path is chaos territory; stats, warm writes, and control messages
    /// model a management plane that outlives serving-path degradation.
    fn data_path(path: &str) -> bool {
        matches!(path, "/v1/analyze" | "/v1/dse")
    }
}

impl Transport for FaultTransport {
    fn call(
        &self,
        call: &Call,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<(u16, Arc<Vec<u8>>), ForwardError> {
        if Self::data_path(call.path) {
            match self.gate() {
                Injected::Pass => {}
                Injected::Respond(status, bytes) => return Ok((status, bytes)),
                Injected::Fail(e) => return Err(e),
            }
        }
        self.inner.call(call, read_timeout, write_timeout)
    }

    fn send_control(
        &self,
        method: &str,
        path: &str,
        timeout: Duration,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.inner.send_control(method, path, timeout)
    }

    /// Probes observe flapping (the prober must see the worker die and
    /// revive) and advance the call counter, so flap windows keep
    /// cycling even while the router routes around the shard.
    fn probe(&self, timeout: Duration) -> bool {
        let i = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.flapped_down(i) {
            return false;
        }
        self.inner.probe(timeout)
    }

    fn endpoint(&self) -> String {
        self.inner.endpoint()
    }

    fn kind(&self) -> &'static str {
        "fault"
    }

    fn hedgeable(&self) -> bool {
        self.inner.hedgeable()
    }

    fn on_dead(&self) {
        self.inner.on_dead();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenet_server::{ServerConfig, WorkerCore};

    fn wrapped(plan: FaultPlan) -> FaultTransport {
        let core = WorkerCore::new(ServerConfig {
            addr: "unused".into(),
            ..Default::default()
        });
        FaultTransport::new(Box::new(crate::LocalTransport::new(core)), plan)
    }

    #[test]
    fn plan_parses_the_compact_spelling() {
        let plan = FaultPlan::parse(
            "worker=1, seed=42, latency_pm=100, latency_ms=20, flap_period=40, flap_down=12",
        )
        .unwrap();
        assert_eq!(plan.only_worker, Some(1));
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.latency_per_mille, 100);
        assert_eq!(plan.latency, Duration::from_millis(20));
        assert_eq!(plan.flap_period, 40);
        assert_eq!(plan.flap_down, 12);
        assert!(
            FaultPlan::parse("latency_pm=2000").is_err(),
            "per-mille cap"
        );
        assert!(FaultPlan::parse("flap_period=5,flap_down=9").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("seed").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn same_seed_same_outcomes() {
        let plan = FaultPlan {
            seed: 7,
            drop_per_mille: 300,
            ..Default::default()
        };
        let run = || -> Vec<bool> {
            let t = wrapped(plan.clone());
            (0..64)
                .map(|_| {
                    t.call(
                        &Call::new("POST", "/v1/analyze", b"{}"),
                        Duration::ZERO,
                        Duration::ZERO,
                    )
                    .is_err()
                })
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded plans must replay identically");
        assert!(
            a.iter().any(|&e| e),
            "a 300\u{2030} drop rate must fire in 64 calls"
        );
        assert!(!a.iter().all(|&e| e), "and must not fire every time");
    }

    #[test]
    fn flap_windows_darken_data_path_and_probes_only() {
        let plan = FaultPlan {
            flap_period: 4,
            flap_down: 2,
            ..Default::default()
        };
        let t = wrapped(plan);
        // Calls 0,1 down; 2,3 up; 4,5 down...
        assert!(t
            .call(
                &Call::new("POST", "/v1/analyze", b"{}"),
                Duration::ZERO,
                Duration::ZERO
            )
            .is_err());
        assert!(!t.probe(Duration::ZERO), "call 1 still in the down window");
        assert!(t.probe(Duration::ZERO), "call 2 is back up");
        // Operator paths neither fault nor advance the flap clock: the
        // next data call (index 3, an up window) still succeeds after
        // stats and healthz pass-throughs.
        let (status, _) = t
            .call(
                &Call::new("GET", "/v1/stats", b""),
                Duration::ZERO,
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(status, 200);
        assert!(t
            .call(
                &Call::new("POST", "/v1/analyze", b"not json"),
                Duration::ZERO,
                Duration::ZERO
            )
            .is_ok());
    }

    #[test]
    fn injected_5xx_bursts_answer_without_reaching_the_worker() {
        let plan = FaultPlan {
            seed: 3,
            err_per_mille: 1000,
            ..Default::default()
        };
        let t = wrapped(plan);
        let (status, body) = t
            .call(
                &Call::new("POST", "/v1/dse", b"{}"),
                Duration::ZERO,
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(status, 503);
        assert!(String::from_utf8_lossy(&body).contains("injected"));
    }
}
