//! # tenet-dse
//!
//! Dataflow design-space exploration (Sections IV-A and VI-B): the
//! design-space size formulas comparing relation-centric and data-centric
//! notations, a practical dataflow enumerator, and a latency-driven
//! search over the enumerated space.

#![warn(missing_docs)]

pub mod enumerate;
pub mod hardware;
pub mod space_size;

pub use enumerate::{enumerate_1d, enumerate_2d, enumerate_all};
pub use search::{explore, explore_parallel, pareto, DesignPoint};

/// Latency/bandwidth-driven search over a list of candidate dataflows.
pub mod search {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;
    use tenet_core::json::Json;
    use tenet_core::{
        export, isl_cache, Analysis, ArchSpec, Dataflow, Error, PerformanceReport, Result, TensorOp,
    };

    /// One evaluated design point.
    #[derive(Debug, Clone)]
    pub struct DesignPoint {
        /// The dataflow evaluated.
        pub dataflow: Dataflow,
        /// Its full performance report.
        pub report: PerformanceReport,
    }

    impl DesignPoint {
        /// Overall latency in cycles.
        pub fn latency(&self) -> f64 {
            self.report.latency.total()
        }

        /// Scratchpad bandwidth requirement.
        pub fn sbw(&self) -> f64 {
            self.report.bandwidth.scratchpad
        }

        /// Serializes the point for the analysis service's `/v1/dse`
        /// responses: the dataflow (name plus its space/time expressions),
        /// the two objective scalars, and the full report.
        pub fn to_json(&self) -> Json {
            Json::obj([
                (
                    "dataflow",
                    Json::obj([
                        ("name", Json::from(self.dataflow.name().map(str::to_string))),
                        ("space", Json::from(self.dataflow.space_exprs().to_vec())),
                        ("time", Json::from(self.dataflow.time_exprs().to_vec())),
                    ]),
                ),
                ("latency", Json::from(self.latency())),
                ("sbw", Json::from(self.sbw())),
                ("report", export::to_json(&self.report)),
            ])
        }
    }

    /// Evaluates every candidate that is valid for (`op`, `arch`),
    /// returning the points sorted by latency, ties in candidate order:
    /// [`explore_parallel`] on one thread with no deadline.
    ///
    /// All candidates for one operation share their access maps (and most
    /// of their intermediate relations), so evaluation leans heavily on
    /// the process-wide [`isl_cache`] memo: the first candidate pays for
    /// the shared relational work, later ones mostly hit the cache.
    ///
    /// # Errors
    ///
    /// As [`explore_parallel`]: only a panicking worker.
    pub fn explore(
        op: &TensorOp,
        arch: &ArchSpec,
        candidates: &[Dataflow],
    ) -> Result<Vec<DesignPoint>> {
        explore_parallel(op, arch, candidates, 1, None).map(|(points, _)| points)
    }

    /// Evaluates the candidates on `n_threads` OS threads (the analysis
    /// of one dataflow is independent of every other), which claim them
    /// one at a time in order and claim none once `deadline` has passed.
    /// Returns the valid points sorted by latency, ties in candidate
    /// order, and how many candidates were tried: all of them unless the
    /// deadline cut the sweep short.
    ///
    /// Every candidate whose analysis fails is skipped, whatever the
    /// error: enumeration intentionally over-generates, so most failures
    /// are validity rejections (out-of-bounds space-stamps, dimension
    /// mismatches).
    ///
    /// # Errors
    ///
    /// Only when a worker thread panics.
    pub fn explore_parallel(
        op: &TensorOp,
        arch: &ArchSpec,
        candidates: &[Dataflow],
        n_threads: usize,
        deadline: Option<Instant>,
    ) -> Result<(Vec<DesignPoint>, usize)> {
        let n_threads = n_threads.max(1).min(candidates.len().max(1));
        // The next unclaimed candidate. Relaxed: it hands out indices and
        // publishes no other data.
        let cursor = AtomicUsize::new(0);
        // Counter handles attached on the caller's thread (a server
        // request's stats scope) must keep observing the work after it
        // fans out, so re-attach them on every worker.
        let inherited = isl_cache::attached_handles();
        let worker = || {
            let _attached: Vec<_> = inherited.iter().map(|h| h.attach()).collect();
            let mut points = Vec::new();
            let mut tried = 0;
            while deadline.is_none_or(|d| Instant::now() < d) {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(df) = candidates.get(i) else { break };
                tried += 1;
                if let Ok(report) = Analysis::new(op, df, arch).and_then(|a| a.report()) {
                    let dataflow = df.clone();
                    points.push((i, DesignPoint { dataflow, report }));
                }
            }
            (points, tried)
        };
        let mut ranked = Vec::new();
        let mut tried = 0;
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = (0..n_threads).map(|_| scope.spawn(worker)).collect();
            for h in handles {
                let (points, n) = h
                    .join()
                    .map_err(|_| Error::Invalid("worker panicked".into()))?;
                ranked.extend(points);
                tried += n;
            }
            Ok(())
        })?;
        ranked
            .sort_unstable_by(|(i, a), (j, b)| a.latency().total_cmp(&b.latency()).then(i.cmp(j)));
        Ok((ranked.into_iter().map(|(_, p)| p).collect(), tried))
    }

    /// The latency/scratchpad-bandwidth Pareto frontier of a set of
    /// evaluated points.
    pub fn pareto(points: &[DesignPoint]) -> Vec<&DesignPoint> {
        let mut out: Vec<&DesignPoint> = Vec::new();
        for p in points {
            let dominated = points.iter().any(|q| {
                (q.latency() < p.latency() && q.sbw() <= p.sbw())
                    || (q.latency() <= p.latency() && q.sbw() < p.sbw())
            });
            if !dominated {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenet_core::{ArchSpec, Interconnect};

    #[test]
    fn explore_ranks_by_latency() {
        let op = tenet_workloads::kernels::gemm(16, 16, 16).unwrap();
        let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Systolic2D, 16.0);
        let candidates = tenet_workloads::dataflows::gemm_dataflows(8, 64);
        // Only the 2-D space-stamp dataflows fit an 8x8 array.
        let points = search::explore(&op, &arch, &candidates).unwrap();
        assert!(points.len() >= 3);
        for w in points.windows(2) {
            assert!(w[0].latency() <= w[1].latency());
        }
    }

    #[test]
    fn pareto_is_subset_and_nonempty() {
        let op = tenet_workloads::kernels::gemm(16, 16, 16).unwrap();
        let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Systolic2D, 16.0);
        let candidates = enumerate_2d(&op, 8).unwrap();
        let points = search::explore(&op, &arch, &candidates).unwrap();
        let front = search::pareto(&points);
        assert!(!front.is_empty());
        assert!(front.len() <= points.len());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use std::time::{Duration, Instant};
    use tenet_core::{ArchSpec, Interconnect, TensorOp};

    fn gemm() -> TensorOp {
        TensorOp::builder("gemm")
            .dim("i", 16)
            .dim("j", 16)
            .dim("k", 16)
            .read("A", ["i", "k"])
            .read("B", ["k", "j"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_explore_matches_sequential() {
        let op = gemm();
        let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 16.0);
        let candidates = enumerate_2d(&op, 4).unwrap();
        let seq = explore(&op, &arch, &candidates).unwrap();
        let generous = Some(Instant::now() + Duration::from_secs(3600));
        for (threads, deadline) in [(1, generous), (3, None), (8, generous), (64, None)] {
            let (par, tried) =
                explore_parallel(&op, &arch, &candidates, threads, deadline).unwrap();
            assert_eq!(tried, candidates.len(), "{threads} threads");
            assert_eq!(par.len(), seq.len(), "{threads} threads");
            for (a, b) in par.iter().zip(seq.iter()) {
                assert_eq!(a.dataflow, b.dataflow, "{threads} threads");
                assert_eq!(a.latency(), b.latency(), "{threads} threads");
                assert_eq!(a.sbw(), b.sbw(), "{threads} threads");
            }
        }
    }

    #[test]
    fn parallel_explore_handles_empty_candidate_list() {
        let op = gemm();
        let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 16.0);
        let (points, tried) = explore_parallel(&op, &arch, &[], 4, None).unwrap();
        assert!(points.is_empty());
        assert_eq!(tried, 0);
    }

    #[test]
    fn a_past_deadline_tries_no_candidate() {
        let op = gemm();
        let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 16.0);
        let candidates = enumerate_2d(&op, 4).unwrap();
        let past = Some(Instant::now());
        let (points, tried) = explore_parallel(&op, &arch, &candidates, 2, past).unwrap();
        assert!(points.is_empty());
        assert_eq!(tried, 0);
    }
}
