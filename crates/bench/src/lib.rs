//! # tenet-bench
//!
//! The benchmark harness regenerating every table and figure of the TENET
//! evaluation (Section VI). Each `fig*` / `table*` binary prints the rows
//! or series of the corresponding figure; `cargo bench` runs the
//! Criterion timing studies (Figure 8 and the ablations).

#![warn(missing_docs)]

use tenet_core::{
    Analysis, AnalysisOptions, ArchSpec, Dataflow, Interconnect, PerformanceReport, Result, Role,
    TensorOp,
};

/// Builds an architecture whose PE array exactly fits the space-stamps a
/// dataflow uses (the paper's Section VI-C experiments do not normalize
/// dataflows onto one array size).
pub fn arch_for(
    df: &Dataflow,
    op: &TensorOp,
    interconnect: Interconnect,
    bandwidth: f64,
) -> Result<ArchSpec> {
    let used = df.used_pes(op)?;
    let mut dims = Vec::with_capacity(used.n_dim());
    for d in 0..used.n_dim() {
        let (_, hi) = used.dim_bounds(d)?;
        dims.push(hi + 1);
    }
    Ok(ArchSpec::new("fitted", dims, interconnect, bandwidth))
}

/// Latency of a report re-evaluated at a different scratchpad bandwidth
/// (volumes are bandwidth-independent, so sweeps are free).
pub fn latency_at(report: &PerformanceReport, bandwidth: f64) -> f64 {
    let unique_in = report.unique_volume(Role::Input) as f64;
    let unique_out = report.unique_volume(Role::Output) as f64;
    report
        .latency
        .compute
        .max(unique_in / bandwidth)
        .max(unique_out / bandwidth)
}

/// Runs the full analysis for one dataflow on a fitted array.
pub fn analyze_fitted(
    op: &TensorOp,
    df: &Dataflow,
    interconnect: Interconnect,
    bandwidth: f64,
    window: u32,
) -> Result<PerformanceReport> {
    let arch = arch_for(df, op, interconnect, bandwidth)?;
    let options = AnalysisOptions {
        reuse_window: window,
    };
    Analysis::with_options(op, df, &arch, options)?.report()
}

/// Prints a row of right-aligned columns.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Bits per tensor element assumed when converting the paper's bit/cycle
/// bandwidth axis to elements/cycle (16-bit fixed point, as in Eyeriss).
pub const BITS_PER_ELEMENT: f64 = 16.0;
