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
    use tenet_core::json::Json;
    use tenet_core::{
        export, isl_cache, Analysis, ArchSpec, Dataflow, PerformanceReport, Result, TensorOp,
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
    /// returning the points sorted by latency. Invalid candidates
    /// (out-of-bounds space-stamps, dimension mismatches) are skipped —
    /// enumeration intentionally over-generates.
    ///
    /// All candidates for one operation share their access maps (and most
    /// of their intermediate relations), so evaluation leans heavily on
    /// the process-wide [`isl_cache`] memo: the first candidate pays for
    /// the shared relational work, later ones mostly hit the cache.
    pub fn explore(
        op: &TensorOp,
        arch: &ArchSpec,
        candidates: &[Dataflow],
    ) -> Result<Vec<DesignPoint>> {
        let mut out = Vec::new();
        for df in candidates {
            let Ok(report) = Analysis::new(op, df, arch).and_then(|a| a.report()) else {
                continue;
            };
            out.push(DesignPoint {
                dataflow: df.clone(),
                report,
            });
        }
        out.sort_by(|a, b| a.latency().total_cmp(&b.latency()));
        Ok(out)
    }

    /// Like [`explore`] but fans candidates out over `n_threads` OS
    /// threads (the analysis of one dataflow is independent of every
    /// other). Results are identical to [`explore`] — same points, same
    /// latency-sorted order.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures other than per-candidate validity
    /// rejections.
    pub fn explore_parallel(
        op: &TensorOp,
        arch: &ArchSpec,
        candidates: &[Dataflow],
        n_threads: usize,
    ) -> Result<Vec<DesignPoint>> {
        let n_threads = n_threads.max(1).min(candidates.len().max(1));
        let chunk = candidates.len().div_ceil(n_threads);
        let mut out: Vec<DesignPoint> = Vec::with_capacity(candidates.len());
        // Counter handles attached on the caller's thread (a server
        // request's stats scope) must keep observing the work after it
        // fans out, so re-attach them on every worker.
        let inherited = isl_cache::attached_handles();
        std::thread::scope(|scope| -> Result<()> {
            let mut handles = Vec::new();
            for slice in candidates.chunks(chunk.max(1)) {
                let inherited = inherited.clone();
                handles.push(scope.spawn(move || {
                    let _attached: Vec<_> = inherited.iter().map(|h| h.attach()).collect();
                    explore(op, arch, slice)
                }));
            }
            for h in handles {
                let points = h
                    .join()
                    .map_err(|_| tenet_core::Error::Invalid("worker panicked".into()))??;
                out.extend(points);
            }
            Ok(())
        })?;
        out.sort_by(|a, b| a.latency().total_cmp(&b.latency()));
        Ok(out)
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
        for threads in [1, 3, 8, 64] {
            let par = explore_parallel(&op, &arch, &candidates, threads).unwrap();
            assert_eq!(par.len(), seq.len(), "{threads} threads");
            for (a, b) in par.iter().zip(seq.iter()) {
                assert_eq!(a.latency(), b.latency(), "{threads} threads");
                assert_eq!(a.sbw(), b.sbw(), "{threads} threads");
            }
        }
    }

    #[test]
    fn parallel_explore_handles_empty_candidate_list() {
        let op = gemm();
        let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 16.0);
        let points = explore_parallel(&op, &arch, &[], 4).unwrap();
        assert!(points.is_empty());
    }
}
