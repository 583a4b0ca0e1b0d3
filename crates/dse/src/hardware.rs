//! Hardware design-space exploration — the right-hand branch of the
//! paper's Figure 2 flow.
//!
//! Where [`crate::enumerate`] fixes the architecture and varies the
//! dataflow, this module fixes a *workload* and co-explores hardware
//! configurations: PE array shapes under a PE budget, interconnect
//! topologies, and scratchpad bandwidths. Every candidate architecture is
//! paired with the dataflows enumerated for its shape, and the best
//! (dataflow, architecture) pair per architecture is reported.

use crate::enumerate::{enumerate_1d, enumerate_2d};
use crate::search::{explore_parallel, DesignPoint};
use tenet_core::{ArchSpec, Interconnect, Result, TensorOp};

/// The hardware axes to sweep.
#[derive(Debug, Clone)]
pub struct HardwareSpace {
    /// Maximum number of PEs a candidate array may use.
    pub pe_budget: i64,
    /// Interconnects to try.
    pub interconnects: Vec<Interconnect>,
    /// Scratchpad bandwidths (elements/cycle) to try.
    pub bandwidths: Vec<f64>,
    /// Also consider 1D arrays of `pe_budget` PEs.
    pub include_1d: bool,
    /// Cap on dataflow candidates evaluated per architecture (the
    /// enumerator over-generates combinatorially for deep loop nests).
    pub max_candidates: usize,
    /// Worker threads for the per-architecture dataflow evaluation.
    pub threads: usize,
}

impl Default for HardwareSpace {
    fn default() -> Self {
        HardwareSpace {
            pe_budget: 64,
            interconnects: vec![
                Interconnect::Systolic1D,
                Interconnect::Systolic2D,
                Interconnect::Mesh,
            ],
            bandwidths: vec![16.0, 64.0],
            include_1d: true,
            max_candidates: 48,
            threads: 4,
        }
    }
}

/// One explored architecture with its best dataflow.
#[derive(Debug, Clone)]
pub struct HardwarePoint {
    /// The candidate architecture.
    pub arch: ArchSpec,
    /// The best dataflow found for it and its report.
    pub best: DesignPoint,
    /// How many dataflow candidates were valid on this architecture.
    pub valid_candidates: usize,
}

impl HardwarePoint {
    /// Overall latency of the best mapping.
    pub fn latency(&self) -> f64 {
        self.best.latency()
    }

    /// Total energy of the best mapping.
    pub fn energy(&self) -> f64 {
        self.best.report.energy.total()
    }
}

/// Every 2D array shape `r x c` with `r * c <= budget` where both sides
/// are powers of two (the shapes real accelerators use) — plus the
/// budget-wide 1D row when requested.
fn array_shapes(budget: i64, include_1d: bool) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut r = 1i64;
    while r <= budget {
        let mut c = r; // avoid transposed duplicates: c >= r
        while r * c <= budget {
            out.push(vec![r, c]);
            c *= 2;
        }
        r *= 2;
    }
    // Keep only maximal shapes (no shape dominated by a larger one with
    // the same aspect class is pruned here — the model decides) but drop
    // degenerate 1x1 unless the budget itself is 1.
    out.retain(|s| s[0] * s[1] > 1 || budget == 1);
    if include_1d && budget > 1 {
        out.push(vec![budget]);
    }
    out
}

/// Explores the hardware space for one workload; returns points sorted by
/// best-mapping latency. Architectures on which no enumerated dataflow is
/// valid are skipped.
///
/// # Errors
///
/// Propagates enumeration failures and a panicking search worker. Every
/// candidate whose analysis fails is skipped, whatever the error (see
/// [`explore_parallel`]).
///
/// ```
/// use tenet_dse::hardware::{co_explore, HardwareSpace};
/// # use tenet_core::TensorOp;
/// let gemm = TensorOp::builder("gemm")
///     .dim("i", 16).dim("j", 16).dim("k", 16)
///     .read("A", ["i", "k"]).read("B", ["k", "j"]).write("Y", ["i", "j"])
///     .build()?;
/// let space = HardwareSpace { pe_budget: 16, bandwidths: vec![16.0], ..Default::default() };
/// let points = co_explore(&gemm, &space)?;
/// assert!(!points.is_empty());
/// // Sorted by latency: the frontier point is first.
/// assert!(points[0].latency() <= points.last().unwrap().latency());
/// # Ok::<(), tenet_core::Error>(())
/// ```
pub fn co_explore(op: &TensorOp, space: &HardwareSpace) -> Result<Vec<HardwarePoint>> {
    let mut out = Vec::new();
    for shape in array_shapes(space.pe_budget, space.include_1d) {
        let mut candidates = if shape.len() == 2 {
            // Square tiling factor: the smaller side of the array.
            enumerate_2d(op, shape[0].min(shape[1]))?
        } else {
            enumerate_1d(op, shape[0])?
        };
        candidates.truncate(space.max_candidates);
        for ic in &space.interconnects {
            // A 1D multicast row only makes sense for 1D shapes; the
            // offsets() call would reject mismatched custom widths.
            for &bw in &space.bandwidths {
                let name = format!(
                    "{}@{}x{}",
                    ic.label(),
                    shape[0],
                    shape.get(1).copied().unwrap_or(1)
                );
                let arch = ArchSpec::new(&name, shape.clone(), ic.clone(), bw);
                let (points, _) = explore_parallel(op, &arch, &candidates, space.threads, None)?;
                if let Some(best) = points.first() {
                    out.push(HardwarePoint {
                        arch,
                        best: best.clone(),
                        valid_candidates: points.len(),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| a.latency().total_cmp(&b.latency()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenet_core::TensorOp;

    fn gemm16() -> TensorOp {
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
    fn shapes_respect_budget() {
        for s in array_shapes(64, true) {
            assert!(s.iter().product::<i64>() <= 64, "{s:?}");
        }
    }

    #[test]
    fn shapes_include_square_and_row() {
        let shapes = array_shapes(64, true);
        assert!(shapes.contains(&vec![8, 8]));
        assert!(shapes.contains(&vec![64]));
        assert!(!shapes.contains(&vec![1, 1]));
    }

    #[test]
    fn shapes_have_no_transposed_duplicates() {
        let shapes = array_shapes(64, false);
        for s in &shapes {
            assert!(s[0] <= s[1], "{s:?}");
            assert!(!shapes.contains(&vec![s[1], s[0]]) || s[0] == s[1]);
        }
    }

    #[test]
    fn co_explore_finds_mappings_and_sorts() {
        let op = gemm16();
        let space = HardwareSpace {
            pe_budget: 16,
            bandwidths: vec![16.0],
            ..Default::default()
        };
        let points = co_explore(&op, &space).unwrap();
        assert!(!points.is_empty());
        for w in points.windows(2) {
            assert!(w[0].latency() <= w[1].latency());
        }
        // Every best point is a valid mapping: finite latency, >= 1
        // candidate.
        for p in &points {
            assert!(p.latency().is_finite() && p.latency() > 0.0);
            assert!(p.valid_candidates >= 1);
        }
    }

    #[test]
    fn bigger_bandwidth_never_hurts_best_latency() {
        let op = gemm16();
        let lo = HardwareSpace {
            pe_budget: 16,
            interconnects: vec![Interconnect::Systolic2D],
            bandwidths: vec![4.0],
            include_1d: false,
            max_candidates: 24,
            threads: 2,
        };
        let hi = HardwareSpace {
            bandwidths: vec![64.0],
            ..lo.clone()
        };
        let best_lo = co_explore(&op, &lo).unwrap()[0].latency();
        let best_hi = co_explore(&op, &hi).unwrap()[0].latency();
        assert!(best_hi <= best_lo);
    }
}
