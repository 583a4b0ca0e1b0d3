//! Metric records produced by the performance model (Section V).

use crate::op::Role;
use std::collections::BTreeMap;

/// The volume metrics of Table II plus the spatial/temporal split of
/// Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeMetrics {
    /// Total tensor-data accesses across all spacetime-stamps.
    pub total: u128,
    /// Accesses satisfiable from an adjacent spacetime-stamp.
    pub reuse: u128,
    /// `total - reuse`: minimum scratchpad traffic.
    pub unique: u128,
    /// Reuse across interconnected, distinct PEs.
    pub spatial_reuse: u128,
    /// Reuse within the same PE across consecutive time-stamps.
    pub temporal_reuse: u128,
}

impl VolumeMetrics {
    /// `ReuseFactor = TotalVolume / UniqueVolume` (Table II).
    pub fn reuse_factor(&self) -> f64 {
        if self.unique == 0 {
            f64::INFINITY
        } else {
            self.total as f64 / self.unique as f64
        }
    }

    /// Classifies how the tensor is reused under this dataflow — the
    /// vocabulary of Section VI-C ("tensor Y is kept stationary ...
    /// A and B flow through the PE array").
    pub fn reuse_class(&self) -> ReuseClass {
        match (self.temporal_reuse > 0, self.spatial_reuse > 0) {
            (false, false) => ReuseClass::NoReuse,
            (true, false) => ReuseClass::Stationary,
            (false, true) => ReuseClass::Flowing,
            (true, true) => ReuseClass::Mixed,
        }
    }
}

/// How a tensor is reused by a dataflow (Section VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseClass {
    /// No adjacent spacetime-stamp ever re-touches an element: every
    /// access is a scratchpad fetch.
    NoReuse,
    /// Purely temporal reuse — the element stays in one PE's registers
    /// across time-stamps (an output-stationary accumulator).
    Stationary,
    /// Purely spatial reuse — the element travels between PEs over the
    /// interconnect (systolic or multicast flow).
    Flowing,
    /// Both temporal and spatial reuse occur.
    Mixed,
}

impl std::fmt::Display for ReuseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReuseClass::NoReuse => "no-reuse",
            ReuseClass::Stationary => "stationary",
            ReuseClass::Flowing => "flowing",
            ReuseClass::Mixed => "mixed",
        };
        f.pad(s)
    }
}

/// Metrics attached to one tensor of the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorMetrics {
    /// Input or output.
    pub role: Role,
    /// Volume metrics of this tensor.
    pub volumes: VolumeMetrics,
    /// Number of distinct elements touched (off-chip footprint).
    pub footprint: u128,
}

/// PE utilization (Section VI-C / Equation 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Average fraction of the PE array active per time-stamp.
    pub average: f64,
    /// Maximum fraction active in any (probed) time-stamp.
    pub max: f64,
    /// Whether `max` came from an exhaustive sweep (exact) or probing.
    pub max_is_exact: bool,
    /// Number of distinct PEs ever used.
    pub pes_used: u128,
    /// Number of distinct time-stamps.
    pub time_stamps: u128,
}

/// Latency decomposition (Equations 7–8); the pipeline-overlapped total is
/// the maximum of the three components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// `UniqueVolume(inputs) / bandwidth`.
    pub read: f64,
    /// `UniqueVolume(outputs) / bandwidth`.
    pub write: f64,
    /// `sum(D_S) / (Util_PE × PE_size)` — equals the time-stamp count.
    pub compute: f64,
}

impl Latency {
    /// Overall latency under double buffering: `max(read, write, compute)`.
    pub fn total(&self) -> f64 {
        self.read.max(self.write).max(self.compute)
    }
}

/// Bandwidth requirements (Equations 9–10), in elements per cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Bandwidth {
    /// Interconnect bandwidth `SpatialReuseVolume / Delay_compute`.
    pub interconnect: f64,
    /// Scratchpad bandwidth `UniqueVolume / Delay_compute`.
    pub scratchpad: f64,
    /// Scratchpad bandwidth broken down per tensor.
    pub scratchpad_per_tensor: BTreeMap<String, f64>,
    /// Interconnect bandwidth broken down per tensor.
    pub interconnect_per_tensor: BTreeMap<String, f64>,
}

/// Energy estimate based on the [`crate::EnergyModel`] cost table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Energy {
    /// MAC energy.
    pub compute: f64,
    /// PE register-file energy (every access touches a register).
    pub register: f64,
    /// Inter-PE transfer energy.
    pub noc: f64,
    /// Scratchpad access energy.
    pub scratchpad: f64,
    /// Off-chip energy (one DRAM access per footprint element).
    pub dram: f64,
}

impl Energy {
    /// Total normalized energy.
    pub fn total(&self) -> f64 {
        self.compute + self.register + self.noc + self.scratchpad + self.dram
    }
}

/// Everything the model computes for one (op, dataflow, architecture)
/// triple.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceReport {
    /// Operation name.
    pub op: String,
    /// Dataflow display name, if any.
    pub dataflow: Option<String>,
    /// Number of MAC operations (`sum(D_S)`).
    pub macs: u128,
    /// Per-tensor metrics.
    pub tensors: BTreeMap<String, TensorMetrics>,
    /// PE utilization.
    pub utilization: Utilization,
    /// Latency decomposition.
    pub latency: Latency,
    /// Bandwidth requirements.
    pub bandwidth: Bandwidth,
    /// Energy estimate.
    pub energy: Energy,
}

impl PerformanceReport {
    /// Sum of `UniqueVolume` over tensors with the given role.
    pub fn unique_volume(&self, role: Role) -> u128 {
        self.tensors
            .values()
            .filter(|t| t.role == role)
            .map(|t| t.volumes.unique)
            .sum()
    }
}
