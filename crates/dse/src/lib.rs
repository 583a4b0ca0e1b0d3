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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// As [`explore_parallel`]: the integer-set error of the first
    /// candidate whose analysis fails with one.
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
    /// A candidate that is invalid for (`op`, `arch`) ([`Error::Invalid`]:
    /// out-of-bounds space-stamps, dimension mismatches) is skipped, since
    /// enumeration intentionally over-generates. An integer-set failure
    /// ([`Error::Isl`]) is not a rejection: the workers claim no further
    /// candidate, and the sweep returns the error of the lowest-index
    /// candidate that failed. Every lower index was claimed before it and
    /// is evaluated to the end, so which error comes back does not depend
    /// on thread timing.
    ///
    /// # Errors
    ///
    /// The integer-set error of the lowest-index failing candidate, or
    /// [`Error::Invalid`] when a worker thread panics.
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
        // Set once a candidate fails with an integer-set error, so no
        // worker claims another. Relaxed: it publishes no data; the error
        // itself comes back through the join.
        let failed = AtomicBool::new(false);
        // Counter handles attached on the caller's thread (a server
        // request's stats scope) must keep observing the work after it
        // fans out, so re-attach them on every worker.
        let inherited = isl_cache::attached_handles();
        let worker = || {
            let _attached: Vec<_> = inherited.iter().map(|h| h.attach()).collect();
            let mut points = Vec::new();
            let mut tried = 0;
            let mut error = None;
            while !failed.load(Ordering::Relaxed) && deadline.is_none_or(|d| Instant::now() < d) {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(df) = candidates.get(i) else { break };
                tried += 1;
                match Analysis::new(op, df, arch).and_then(|a| a.report()) {
                    Ok(report) => {
                        let dataflow = df.clone();
                        points.push((i, DesignPoint { dataflow, report }));
                    }
                    Err(Error::Invalid(_)) => {}
                    Err(e) => {
                        failed.store(true, Ordering::Relaxed);
                        error = Some((i, e));
                        break;
                    }
                }
            }
            (points, tried, error)
        };
        let mut ranked = Vec::new();
        let mut tried = 0;
        let mut first_error: Option<(usize, Error)> = None;
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = (0..n_threads).map(|_| scope.spawn(worker)).collect();
            for h in handles {
                let (points, n, error) = h
                    .join()
                    .map_err(|_| Error::Invalid("worker panicked".into()))?;
                ranked.extend(points);
                tried += n;
                if let Some((i, e)) = error {
                    if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_error = Some((i, e));
                    }
                }
            }
            Ok(())
        })?;
        if let Some((_, e)) = first_error {
            return Err(e);
        }
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
    use tenet_core::{Analysis, ArchSpec, Dataflow, Error, Interconnect, TensorOp};

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

    /// A candidate whose analysis fails in the integer-set layer is not
    /// skipped: `explore`, and `explore_parallel` on any thread count,
    /// return what `Analysis::report` returns for the lowest-index such
    /// candidate, and still skip invalid ones. The two failing dataflows
    /// pass validation on an 8x8x8 GEMM over `mesh8x8`, each failing with
    /// its own error.
    #[test]
    fn the_lowest_index_integer_set_error_is_returned() {
        let op = tenet_workloads::kernels::gemm(8, 8, 8).unwrap();
        let arch = tenet_core::presets::by_name("mesh8x8").unwrap();
        let report = |df: &Dataflow| Analysis::new(&op, df, &arch).and_then(|x| x.report());
        let a = Dataflow::new(["i", "(j + k) % 8"], ["5 * k + j"]);
        let b = Dataflow::new(
            ["i % 8", "(j + k) % 8"],
            ["floor((j + k) / 8)", "3 * (i % 8) + 5 * k + j"],
        );
        let valid = Dataflow::new(["i", "j"], ["i + j + k"]);
        let invalid = Dataflow::new(["i"], ["j", "k"]);
        assert!(matches!(report(&invalid), Err(Error::Invalid(_))));
        let dataflows = [valid, invalid, a, b];
        let orders: [&[usize]; 4] = [&[0, 2], &[2, 0], &[1, 0, 2, 0, 3], &[1, 0, 3, 0, 2]];
        for order in orders {
            let candidates: Vec<Dataflow> = order.iter().map(|&i| dataflows[i].clone()).collect();
            let expect = candidates.iter().find_map(|df| match report(df) {
                Err(e @ Error::Isl(_)) => Some(e),
                _ => None,
            });
            let n_ok = candidates.iter().filter(|df| report(df).is_ok()).count();
            for threads in [1, 2, 4] {
                let explored = match threads {
                    1 => explore(&op, &arch, &candidates),
                    n => explore_parallel(&op, &arch, &candidates, n, None).map(|(p, _)| p),
                };
                let at = format!("order {order:?}, {threads} threads");
                match &expect {
                    Some(e) => assert_eq!(explored.err().as_ref(), Some(e), "{at}"),
                    None => assert_eq!(explored.map(|p| p.len()), Ok(n_ok), "{at}"),
                }
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
