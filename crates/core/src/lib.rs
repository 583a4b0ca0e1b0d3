//! # tenet-core
//!
//! The relation-centric notation and performance model of
//! *TENET: A Framework for Modeling Tensor Dataflow Based on
//! Relation-centric Notation* (ISCA 2021).
//!
//! A tensor computation on a spatial architecture is described by four
//! relations (Section IV):
//!
//! 1. **Dataflow** `Θ = { S[n] -> (PE[p] | T[t]) }` — where and when every
//!    loop instance executes ([`Dataflow`]).
//! 2. **Data assignment** `A_{D,F} = Θ⁻¹ . A_{S,F}` — which tensor element
//!    each spacetime-stamp touches ([`Analysis::assignment`]).
//! 3. **Interconnection** `{ PE[p] -> PE[p'] }` — how data may move between
//!    PEs ([`Interconnect`]).
//! 4. **Spacetime maps** `M_{D,D'}` — adjacency between stamps, from which
//!    data reuse is detected ([`Analysis::spatial_map`],
//!    [`Analysis::temporal_map`]).
//!
//! Every metric of Section V (volumes, latency, bandwidth, utilization,
//! energy) is an exact integer-set computation over these relations.
//!
//! ```
//! use tenet_core::{Analysis, ArchSpec, Dataflow, Interconnect, TensorOp};
//!
//! let gemm = TensorOp::builder("gemm")
//!     .dim("i", 2).dim("j", 2).dim("k", 4)
//!     .read("A", ["i", "k"])
//!     .read("B", ["k", "j"])
//!     .write("Y", ["i", "j"])
//!     .build()?;
//! let dataflow = Dataflow::new(["i", "j"], ["i + j + k"]);
//! let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
//! let report = Analysis::new(&gemm, &dataflow, &arch)?.report()?;
//! assert_eq!(report.macs, 16);
//! assert_eq!(report.latency.total(), 6.0);
//! # Ok::<(), tenet_core::Error>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod arch;
mod dataflow;
mod error;
pub mod export;
pub mod json;
mod metrics;
pub mod obs;
mod op;
mod validate;

pub use analysis::{Analysis, AnalysisOptions};
pub use arch::{presets, ArchSpec, EnergyModel, Interconnect};
pub use dataflow::Dataflow;
pub use error::{Error, Result};
pub use metrics::{
    Bandwidth, Energy, Latency, PerformanceReport, ReuseClass, TensorMetrics, Utilization,
    VolumeMetrics,
};
pub use op::{LoopDim, Role, TensorAccess, TensorOp, TensorOpBuilder};
pub use validate::{validate, ValidationReport};

/// The process-wide integer-set operation cache (re-exported from
/// [`tenet_isl::cache`]): statistics, reset, and enable/disable controls.
/// Exploration drivers use it to amortize relational work across
/// candidates and to report hit rates.
pub use tenet_isl::cache as isl_cache;
pub use tenet_isl::{fast_path_stats, CacheStats, CountStats, CounterHandle};
