//! One analysis split at the public calls of `tenet_core`, each timed:
//! the traced runs' `core.*` breakdown.

use crate::util::timed;
use tenet_core::{Analysis, AnalysisOptions, ArchSpec, Dataflow, PerformanceReport, TensorOp};

/// Accumulated wall milliseconds per `core` stage.
#[derive(Default)]
pub struct Stages {
    pub new: f64,
    pub volumes: f64,
    pub utilization: f64,
    pub metrics: f64,
    pub report: f64,
    pub export: f64,
}

impl Stages {
    pub fn sum(&self) -> f64 {
        self.new + self.volumes + self.utilization + self.metrics + self.report + self.export
    }

    pub fn write(&self, t: &mut crate::util::Trace, ops: u64) {
        let n = ops.max(1) as f64;
        t.set("core.new_ms", self.new / n);
        t.set("core.volumes_ms", self.volumes / n);
        t.set("core.utilization_ms", self.utilization / n);
        t.set("core.metrics_ms", self.metrics / n);
        t.set("core.report_ms", self.report / n);
        t.set("core.export_ms", self.export / n);
    }
}

/// `Analysis::new`, `volumes` per tensor, `utilization`,
/// `latency`/`bandwidth`/`energy`, then `report` (which finds the
/// latched parts ready). The same work as `Analysis::new(..)?.report()`.
pub fn report(
    op: &TensorOp,
    df: &Dataflow,
    arch: &ArchSpec,
    st: &mut Stages,
) -> tenet_core::Result<PerformanceReport> {
    let analysis = timed(&mut st.new, || {
        Analysis::with_options(op, df, arch, AnalysisOptions::default())
    })?;
    let mut tensors: Vec<&str> = Vec::new();
    for a in op.accesses() {
        if !tensors.contains(&a.tensor.as_str()) {
            tensors.push(&a.tensor);
        }
    }
    for t in tensors {
        timed(&mut st.volumes, || analysis.volumes(t))?;
    }
    timed(&mut st.utilization, || analysis.utilization())?;
    timed(&mut st.metrics, || -> tenet_core::Result<()> {
        analysis.latency()?;
        analysis.bandwidth()?;
        analysis.energy()?;
        Ok(())
    })?;
    timed(&mut st.report, || analysis.report())
}
