//! The TENET performance model (Section V): every metric is an exact
//! integer-set computation over the four relations of the notation.

use crate::arch::ArchSpec;
use crate::dataflow::Dataflow;
use crate::metrics::*;
use crate::op::{Role, TensorOp};
use crate::{Error, Result};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use tenet_isl::value::{ceil_div, floor_div};
use tenet_isl::Map;

/// Options of the model; the reuse window is the only one. Max
/// utilization is exact up to 1024 time-stamps and probed above (see
/// [`Analysis::utilization`]), and every dataflow is checked to keep its
/// space-stamps inside the PE array.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// The reuse time interval of Section IV-D: data can be reused from a
    /// stamp up to `reuse_window` cycles in the past (register-file
    /// residency). `1` is the paper's default for registered links; larger
    /// windows model PEs that hold data across an inner loop (e.g. the
    /// Eyeriss row-stationary analysis of Section VI-E).
    pub reuse_window: u32,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions { reuse_window: 1 }
    }
}

/// The most time-stamps a schedule may have for its max utilization to be
/// counted exactly, one slice count per stamp (see
/// [`Analysis::utilization`]).
const MAX_UTIL_SWEEP_LIMIT: u128 = 1024;

/// Analyzes one (operation, dataflow, architecture) triple.
///
/// ```
/// use tenet_core::{Analysis, ArchSpec, Dataflow, Interconnect, TensorOp};
/// // Figure 3: GEMM 2x2x4 on a 2x2 systolic array.
/// let gemm = TensorOp::builder("gemm")
///     .dim("i", 2).dim("j", 2).dim("k", 4)
///     .read("A", ["i", "k"]).read("B", ["k", "j"]).write("Y", ["i", "j"])
///     .build()?;
/// let df = Dataflow::new(["i", "j"], ["i + j + k"]);
/// let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
/// let analysis = Analysis::new(&gemm, &df, &arch)?;
/// let vols = analysis.volumes("A")?;
/// assert_eq!(vols.total, 16);
/// # Ok::<(), tenet_core::Error>(())
/// ```
pub struct Analysis<'a> {
    op: &'a TensorOp,
    df: &'a Dataflow,
    arch: &'a ArchSpec,
    options: AnalysisOptions,
    theta: Map,
    /// The max-utilization sweep is the one non-relational computation of
    /// the model (a loop over time-stamps); its scalar summary is latched
    /// here. Every *relational* intermediate (assignment, availability,
    /// volume counts) is memoized in the process-wide
    /// [`tenet_isl::cache`] context instead, so it is shared across all
    /// `Analysis` instances — in a DSE sweep, candidates that agree on an
    /// access map or an intermediate relation reuse each other's work.
    util: OnceLock<Utilization>,
    /// Per-tensor volume metrics latch. `latency`, `bandwidth`, `energy`,
    /// and `report` each walk every tensor's volumes; without the latch a
    /// full report pays that relational pipeline four times over — the
    /// process-wide memo absorbs the repeats only when the cache is
    /// enabled, and a cold shard (or a cache-off run) would recompute.
    vols: Mutex<BTreeMap<String, VolumeMetrics>>,
    /// Latched spacetime maps: both are pure functions of the dataflow +
    /// architecture and are needed once per tensor per volumes call.
    smap: OnceLock<Map>,
    tmap: OnceLock<Map>,
}

impl<'a> Analysis<'a> {
    /// Builds the relations and validates basic consistency.
    ///
    /// # Errors
    ///
    /// Fails when the dataflow's space dimensionality does not match the
    /// PE array, or when some loop instance is mapped outside the array.
    pub fn new(op: &'a TensorOp, df: &'a Dataflow, arch: &'a ArchSpec) -> Result<Analysis<'a>> {
        Analysis::with_options(op, df, arch, AnalysisOptions::default())
    }

    /// Like [`Analysis::new`] with explicit options.
    pub fn with_options(
        op: &'a TensorOp,
        df: &'a Dataflow,
        arch: &'a ArchSpec,
        options: AnalysisOptions,
    ) -> Result<Analysis<'a>> {
        if df.n_space() != arch.pe_dims.len() {
            return Err(Error::Invalid(format!(
                "dataflow has {} space dims but the PE array has {}",
                df.n_space(),
                arch.pe_dims.len()
            )));
        }
        let theta = df.theta(op)?;
        if !df.used_pes(op)?.is_subset(&arch.pe_set()?)? {
            return Err(Error::Invalid(format!(
                "dataflow `{}` maps instances outside the {:?} PE array",
                df.name().unwrap_or("<unnamed>"),
                arch.pe_dims
            )));
        }
        Ok(Analysis {
            op,
            df,
            arch,
            options,
            theta,
            util: OnceLock::new(),
            vols: Mutex::new(BTreeMap::new()),
            smap: OnceLock::new(),
            tmap: OnceLock::new(),
        })
    }

    /// The dataflow relation Θ (`S -> ST`).
    pub fn theta(&self) -> &Map {
        &self.theta
    }

    /// The data assignment relation `A_{D,F} = Θ⁻¹ . A_{S,F}` for one
    /// tensor (Definition 2).
    pub fn assignment(&self, tensor: &str) -> Result<Map> {
        let asf = self.op.access_map(tensor)?;
        // Both steps hit the shared isl memo on recomputation.
        Ok(self.theta.reverse().apply_range(&asf)?)
    }

    /// Text of the spacetime-stamp map (Definition 4) that moves a stamp
    /// by each space offset in `offsets` and each time-stamp delta in
    /// `deltas`: one disjunct per pair, every one a pure translation
    /// (`t' = t + Δ`), which `apply_range` composes by substitution, with
    /// no projection at all.
    fn spacetime_map_text(&self, offsets: &[Vec<i64>], deltas: &[Vec<i64>]) -> String {
        let in_dims: Vec<String> = (0..self.df.n_space())
            .map(|i| format!("p{i}"))
            .chain((0..self.df.n_time()).map(|i| format!("t{i}")))
            .collect();
        let shift = |base: &str, i: usize, v: i64| -> String {
            match v {
                0 => format!("{base}{i}"),
                v if v > 0 => format!("{base}{i} + {v}"),
                v => format!("{base}{i} - {}", -v),
            }
        };
        let mut disjuncts = Vec::new();
        for off in offsets {
            for delta in deltas {
                let mut out_exprs: Vec<String> = off
                    .iter()
                    .enumerate()
                    .map(|(i, o)| shift("p", i, *o))
                    .collect();
                out_exprs.extend(delta.iter().enumerate().map(|(i, d)| shift("t", i, *d)));
                disjuncts.push(format!(
                    "ST[{}] -> ST[{}]",
                    in_dims.join(", "),
                    out_exprs.join(", ")
                ));
            }
        }
        format!("{{ {} }}", disjuncts.join("; "))
    }

    /// The time-stamp deltas of a spacetime map whose stamps lie `lo..=hi`
    /// cycles apart: the single delta `[0, …, 0, lo]` when `single`, else
    /// every delta whose mixed-radix ordinal (the cycle number in a
    /// rectangular schedule) lies in the window. Expanding the window into
    /// constant deltas keeps every disjunct a translation; a single
    /// ordinal inequality with mixed-radix weights is equivalent but
    /// forces the projector into range splits.
    fn time_deltas(&self, lo: i64, hi: i64, single: bool) -> Result<Vec<Vec<i64>>> {
        if single {
            let mut delta = vec![0; self.df.n_time()];
            if let Some(last) = delta.last_mut() {
                *last = lo;
            }
            return Ok(vec![delta]);
        }
        window_deltas(&self.time_extents()?, lo, hi, 2000)
    }

    /// The extents of the time-stamp dimensions (for ordinal windows).
    fn time_extents(&self) -> Result<Vec<i64>> {
        let stamps = self.df.time_stamps(self.op)?;
        let mut out = Vec::with_capacity(self.df.n_time());
        for d in 0..self.df.n_time() {
            let (lo, hi) = stamps.dim_bounds(d)?;
            out.push(hi - lo + 1);
        }
        Ok(out)
    }

    /// The spatial spacetime map `M_spatial`: interconnected, distinct PEs
    /// at exactly the interconnect's transfer delay (the fixed "time
    /// interval" of Section V-A — 1 cycle for registered links, 0 for
    /// multicast wires). Multi-dimensional time-stamps advance in
    /// mixed-radix order, so "one cycle later" includes inner-dimension
    /// rollover (expressed as explicit stamp deltas).
    pub fn spatial_map(&self) -> Result<Map> {
        if let Some(m) = self.smap.get() {
            return Ok(m.clone());
        }
        let offsets = self.arch.interconnect.offsets(self.df.n_space())?;
        let dt = self.arch.interconnect.time_delta();
        let deltas = self.time_deltas(dt, dt, dt == 0 || self.df.n_time() == 1)?;
        let m = Map::parse(&self.spacetime_map_text(&offsets, &deltas))?;
        Ok(self.smap.get_or_init(|| m).clone())
    }

    /// The temporal spacetime map `M_temporal`: same PE, a previous
    /// time-stamp within the reuse window (Section IV-D's time interval).
    pub fn temporal_map(&self) -> Result<Map> {
        if let Some(m) = self.tmap.get() {
            return Ok(m.clone());
        }
        let zero = vec![vec![0i64; self.df.n_space()]];
        let w = self.options.reuse_window.max(1) as i64;
        let deltas = self.time_deltas(1, w, self.df.n_time() == 1 && w == 1)?;
        let m = Map::parse(&self.spacetime_map_text(&zero, &deltas))?;
        Ok(self.tmap.get_or_init(|| m).clone())
    }

    fn avail(&self, tensor: &str, spatial: bool) -> Result<Map> {
        let adf = self.assignment(tensor)?;
        let m = if spatial {
            self.spatial_map()?
        } else {
            self.temporal_map()?
        };
        // M⁻¹ . A_{D,F}: the data visible at a stamp via its predecessors.
        Ok(m.reverse().apply_range(&adf)?)
    }

    /// Volume metrics for one tensor (Table II and Figure 5).
    ///
    /// `reuse = temporal + spatial` by construction: temporal reuse is
    /// counted first (same-PE), and spatial reuse counts the remaining
    /// accesses satisfiable only from an interconnected neighbor.
    pub fn volumes(&self, tensor: &str) -> Result<VolumeMetrics> {
        if let Some(v) = self.vols.lock().expect("volumes latch").get(tensor) {
            return Ok(*v);
        }
        let adf = self.assignment(tensor)?;
        let total = adf.card()?;
        let avail_t = self.avail(tensor, false)?;
        let avail_s = self.avail(tensor, true)?;
        let temporal_set = adf.intersect(&avail_t)?;
        let temporal = temporal_set.card()?;
        let reuse_set = adf.intersect(&avail_s.union(&avail_t)?)?;
        let reuse = reuse_set.card()?;
        let v = VolumeMetrics {
            total,
            reuse,
            unique: total - reuse,
            temporal_reuse: temporal,
            spatial_reuse: reuse - temporal,
        };
        Ok(*self
            .vols
            .lock()
            .expect("volumes latch")
            .entry(tensor.to_string())
            .or_insert(v))
    }

    /// PE utilization. The average is exact. The max is exact when the
    /// schedule has at most 1024 time-stamps: it is the largest stamp
    /// slice of the activity relation, from
    /// [`tenet_isl::Set::max_suffix_slice_card`]. Longer schedules probe up
    /// to 81 stamps (each time dimension's low, middle and high value) and
    /// report `max_is_exact: false`. Both count stamps through
    /// [`tenet_isl::Set::max_slice_card`], which stops at the first stamp
    /// that keeps every used PE busy, since no stamp can keep more.
    pub fn utilization(&self) -> Result<Utilization> {
        if let Some(u) = self.util.get() {
            return Ok(*u);
        }
        let ns = self.df.n_space();
        let nt = self.df.n_time();
        let act = self.theta.range()?;
        let stamps = act.project_out(0, ns)?;
        let n_stamps = stamps.card()?;
        let pes_used = act.project_out(ns, nt)?.card()?;
        let pe_count = self.arch.pe_count();
        let instances = self.op.instances()?;
        let average = if n_stamps == 0 || pe_count == 0 {
            0.0
        } else {
            instances as f64 / (pe_count as f64 * n_stamps as f64)
        };
        let exact = n_stamps <= MAX_UTIL_SWEEP_LIMIT;
        let max_active = if exact {
            act.max_suffix_slice_card(ns, MAX_UTIL_SWEEP_LIMIT as usize)?
        } else {
            // Probe a handful of stamps: per-dimension low/mid/high.
            let mut probes: Vec<Vec<i64>> = vec![Vec::new()];
            for d in 0..nt {
                let (lo, hi) = stamps.dim_bounds(d)?;
                let mid = lo + (hi - lo) / 2;
                let mut next = Vec::new();
                for p in &probes {
                    for v in [lo, mid, hi] {
                        let mut q = p.clone();
                        q.push(v);
                        next.push(q);
                    }
                }
                next.dedup();
                probes = next;
                if probes.len() > 81 {
                    probes.truncate(81);
                }
            }
            act.max_slice_card(ns, &probes)?
        };
        let u = Utilization {
            average,
            max: max_active as f64 / pe_count as f64,
            max_is_exact: exact,
            pes_used,
            time_stamps: n_stamps,
        };
        Ok(*self.util.get_or_init(|| u))
    }

    fn tensor_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for a in self.op.accesses() {
            if !names.contains(&a.tensor) {
                names.push(a.tensor.clone());
            }
        }
        names
    }

    /// Latency decomposition (Equations 7–8).
    pub fn latency(&self) -> Result<Latency> {
        let util = self.utilization()?;
        let mut unique_in = 0u128;
        let mut unique_out = 0u128;
        for t in self.tensor_names() {
            let v = self.volumes(&t)?;
            match self.op.role_of(&t) {
                Some(Role::Output) => unique_out += v.unique,
                _ => unique_in += v.unique,
            }
        }
        Ok(Latency {
            read: unique_in as f64 / self.arch.bandwidth,
            write: unique_out as f64 / self.arch.bandwidth,
            compute: util.time_stamps as f64,
        })
    }

    /// Bandwidth requirements (Equations 9–10).
    pub fn bandwidth(&self) -> Result<Bandwidth> {
        let util = self.utilization()?;
        let compute = util.time_stamps as f64;
        let mut sbw = BTreeMap::new();
        let mut ibw = BTreeMap::new();
        let mut sbw_total = 0.0;
        let mut ibw_total = 0.0;
        for t in self.tensor_names() {
            let v = self.volumes(&t)?;
            let s = v.unique as f64 / compute;
            let i = v.spatial_reuse as f64 / compute;
            sbw_total += s;
            ibw_total += i;
            sbw.insert(t.clone(), s);
            ibw.insert(t, i);
        }
        Ok(Bandwidth {
            interconnect: ibw_total,
            scratchpad: sbw_total,
            scratchpad_per_tensor: sbw,
            interconnect_per_tensor: ibw,
        })
    }

    /// Energy estimate from the architecture's cost table.
    pub fn energy(&self) -> Result<Energy> {
        let e = &self.arch.energy;
        let macs = self.op.instances()? as f64;
        let mut register = 0.0;
        let mut noc = 0.0;
        let mut scratchpad = 0.0;
        let mut dram = 0.0;
        for t in self.tensor_names() {
            let v = self.volumes(&t)?;
            register += v.total as f64 * e.register;
            noc += v.spatial_reuse as f64 * e.noc_hop;
            scratchpad += v.unique as f64 * e.scratchpad;
            dram += self.op.footprint(&t)?.card()? as f64 * e.dram;
        }
        Ok(Energy {
            compute: macs * e.mac,
            register,
            noc,
            scratchpad,
            dram,
        })
    }

    /// The complete report.
    pub fn report(&self) -> Result<PerformanceReport> {
        let mut tensors = BTreeMap::new();
        for t in self.tensor_names() {
            let volumes = self.volumes(&t)?;
            let role = self.op.role_of(&t).unwrap_or(Role::Input);
            let footprint = self.op.footprint(&t)?.card()?;
            tensors.insert(
                t.clone(),
                TensorMetrics {
                    role,
                    volumes,
                    footprint,
                },
            );
        }
        Ok(PerformanceReport {
            op: self.op.name().to_string(),
            dataflow: self.df.name().map(String::from),
            macs: self.op.instances()?,
            tensors,
            utilization: self.utilization()?,
            latency: self.latency()?,
            bandwidth: self.bandwidth()?,
            energy: self.energy()?,
        })
    }
}

/// Enumerates the constant time-stamp delta vectors whose mixed-radix
/// ordinal difference lies in `[lo, hi]`, given the per-dimension extents.
///
/// Each component of a returned vector is bounded by the dimension's
/// extent, so the vectors are exactly the stamp translations realizable in
/// a rectangular schedule.
fn window_deltas(extents: &[i64], lo: i64, hi: i64, cap: usize) -> Result<Vec<Vec<i64>>> {
    let nt = extents.len();
    let mut weights = vec![1i64; nt];
    for d in (0..nt.saturating_sub(1)).rev() {
        weights[d] = weights[d + 1]
            .checked_mul(extents[d + 1].max(1))
            .ok_or_else(|| Error::Invalid("time-stamp extents overflow".into()))?;
    }
    let mut out = Vec::new();
    let mut cur = vec![0i64; nt];
    #[allow(clippy::too_many_arguments)] // recursive helper threading its whole state
    fn rec(
        d: usize,
        lo: i64,
        hi: i64,
        extents: &[i64],
        weights: &[i64],
        cur: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
        cap: usize,
    ) -> Result<()> {
        if out.len() > cap {
            return Err(Error::Invalid(format!(
                "reuse window expands to more than {cap} stamp deltas"
            )));
        }
        if d == extents.len() {
            if lo <= 0 && 0 <= hi {
                out.push(cur.clone());
            }
            return Ok(());
        }
        let w = weights[d];
        // Maximum ordinal magnitude representable by the inner dims.
        let inner_max = w - 1;
        let dmin = ceil_div(lo - inner_max, w).max(-(extents[d] - 1));
        let dmax = floor_div(hi + inner_max, w).min(extents[d] - 1);
        for delta in dmin..=dmax {
            cur[d] = delta;
            let sub_lo = (lo - delta * w).max(-inner_max);
            let sub_hi = (hi - delta * w).min(inner_max);
            if sub_lo <= sub_hi || d + 1 == extents.len() {
                rec(
                    d + 1,
                    lo - delta * w,
                    hi - delta * w,
                    extents,
                    weights,
                    cur,
                    out,
                    cap,
                )?;
            }
        }
        cur[d] = 0;
        Ok(())
    }
    rec(0, lo, hi, extents, &weights, &mut cur, &mut out, cap)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Interconnect;

    #[test]
    fn window_deltas_single_dim() {
        let d = window_deltas(&[10], 1, 3, 100).unwrap();
        assert_eq!(d, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn window_deltas_with_rollover() {
        // Two dims with extents [4, 3]: ordinal = 3*t0 + t1.
        // Window [1, 1]: (0,+1) and the rollover (+1,-2).
        let d = window_deltas(&[4, 3], 1, 1, 100).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.contains(&vec![0, 1]));
        assert!(d.contains(&vec![1, -2]));
    }

    #[test]
    fn window_deltas_ordinals_in_range() {
        let extents = [5, 4, 3];
        let weights = [12i64, 3, 1];
        for (lo, hi) in [(1, 1), (1, 7), (0, 0), (2, 5)] {
            let ds = window_deltas(&extents, lo, hi, 10_000).unwrap();
            for d in &ds {
                let ord: i64 = d.iter().zip(weights.iter()).map(|(a, w)| a * w).sum();
                assert!(ord >= lo && ord <= hi, "delta {d:?} has ordinal {ord}");
            }
            // Exhaustive cross-check against brute force.
            let mut expect = 0;
            for a in -4i64..=4 {
                for b in -3i64..=3 {
                    for c in -2i64..=2 {
                        let ord = 12 * a + 3 * b + c;
                        if ord >= lo && ord <= hi {
                            expect += 1;
                        }
                    }
                }
            }
            assert_eq!(ds.len(), expect, "window [{lo}, {hi}]");
        }
    }

    fn figure3() -> (TensorOp, Dataflow, ArchSpec) {
        let gemm = TensorOp::builder("gemm")
            .dim("i", 2)
            .dim("j", 2)
            .dim("k", 4)
            .read("A", ["i", "k"])
            .read("B", ["k", "j"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap();
        let df = Dataflow::new(["i", "j"], ["i + j + k"]);
        let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
        (gemm, df, arch)
    }

    /// The paper's worked example (Section V-A): over the full execution
    /// the TotalVolume of every tensor equals the instance count (16); the
    /// truncated time-stamps 0..3 shown in the text give 12 / 5 / 7.
    #[test]
    fn figure3_total_volume() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        assert_eq!(a.volumes("A").unwrap().total, 16);
        assert_eq!(a.volumes("B").unwrap().total, 16);
        assert_eq!(a.volumes("Y").unwrap().total, 16);
    }

    /// Tensor A flows horizontally: every access after the first load per
    /// element is spatial reuse from the left neighbor.
    #[test]
    fn figure3_tensor_a_reuse() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        let v = a.volumes("A").unwrap();
        // A has 8 distinct elements; each is used by 2 PEs (j = 0, 1):
        // unique = 8, reuse = 8, all spatial.
        assert_eq!(v.unique, 8);
        assert_eq!(v.reuse, 8);
        assert_eq!(v.spatial_reuse, 8);
        assert_eq!(v.temporal_reuse, 0);
    }

    /// Tensor Y is stationary: all reuse is temporal.
    #[test]
    fn figure3_tensor_y_stationary() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        let v = a.volumes("Y").unwrap();
        assert_eq!(v.unique, 4); // 4 output elements
        assert_eq!(v.temporal_reuse, 12);
        assert_eq!(v.spatial_reuse, 0);
        assert_eq!(v.reuse_factor(), 4.0);
    }

    /// The truncated window of the paper: time-stamps 0..3 for A give
    /// TotalVolume 12, ReuseVolume 5, UniqueVolume 7.
    #[test]
    fn figure3_truncated_window_matches_paper_text() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        let adf = a.assignment("A").unwrap();
        // Keep stamps with t <= 3: dims of ST are [p0, p1, t].
        let window = Map::parse("{ ST[p0, p1, t] -> ST[p0, p1, t] : 0 <= t <= 3 }").unwrap();
        let adf_w = window.apply_range(&adf).unwrap();
        assert_eq!(adf_w.card().unwrap(), 12);
        let avail = a
            .spatial_map()
            .unwrap()
            .reverse()
            .apply_range(&a.assignment("A").unwrap())
            .unwrap();
        let reuse_w = adf_w.intersect(&avail).unwrap().card().unwrap();
        assert_eq!(reuse_w, 5);
        assert_eq!(adf_w.card().unwrap() - reuse_w, 7);
    }

    #[test]
    fn figure3_reuse_classes_match_section6c() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        use crate::metrics::ReuseClass;
        // "tensor Y is kept stationary ... A and B flow through the array."
        assert_eq!(
            a.volumes("Y").unwrap().reuse_class(),
            ReuseClass::Stationary
        );
        assert_eq!(a.volumes("A").unwrap().reuse_class(), ReuseClass::Flowing);
        assert_eq!(a.volumes("B").unwrap().reuse_class(), ReuseClass::Flowing);
    }

    #[test]
    fn figure3_utilization_and_latency() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        let u = a.utilization().unwrap();
        assert_eq!(u.time_stamps, 6);
        assert_eq!(u.pes_used, 4);
        assert!((u.average - 16.0 / 24.0).abs() < 1e-9);
        assert!(u.max_is_exact);
        assert!((u.max - 1.0).abs() < 1e-9); // stamps 2 and 3 use all 4 PEs
        let l = a.latency().unwrap();
        assert_eq!(l.compute, 6.0);
        // unique inputs = 8 + 8, bw = 4 -> read = 4 cycles.
        assert_eq!(l.read, 4.0);
        assert_eq!(l.write, 1.0);
        assert_eq!(l.total(), 6.0);
    }

    /// A serial loop on one PE takes one time-stamp per iteration: the max
    /// is counted exactly up to 1024 stamps and probed from 1025 on.
    #[test]
    fn max_utilization_is_exact_up_to_1024_stamps() {
        let df = Dataflow::new(["i - i"], ["i"]);
        let arch = ArchSpec::new("1", [1], Interconnect::Systolic1D, 1.0);
        for (n, exact) in [(1024, true), (1025, false)] {
            let op = TensorOp::builder("copy")
                .dim("i", n)
                .read("A", ["i"])
                .write("Y", ["i"])
                .build()
                .unwrap();
            let u = Analysis::new(&op, &df, &arch)
                .unwrap()
                .utilization()
                .unwrap();
            assert_eq!(u.time_stamps, n as u128);
            assert_eq!(u.max_is_exact, exact, "{n} stamps");
            assert_eq!(u.max, 1.0, "{n} stamps");
        }
    }

    #[test]
    fn volume_identities() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        for t in ["A", "B", "Y"] {
            let v = a.volumes(t).unwrap();
            assert_eq!(v.reuse + v.unique, v.total, "tensor {t}");
            assert_eq!(v.spatial_reuse + v.temporal_reuse, v.reuse, "tensor {t}");
        }
    }

    #[test]
    fn out_of_bounds_dataflow_rejected() {
        let (op, df, _) = figure3();
        let small = ArchSpec::new("1x1", [1, 1], Interconnect::Systolic2D, 4.0);
        assert!(Analysis::new(&op, &df, &small).is_err());
    }

    #[test]
    fn space_dim_mismatch_rejected() {
        let (op, _, arch) = figure3();
        let df1 = Dataflow::new(["i"], ["j", "k"]);
        assert!(Analysis::new(&op, &df1, &arch).is_err());
    }

    /// The reuse window (Section IV-D's time interval) exposes reuse that
    /// a 1-cycle window misses: in GEMM (K-P | I,J-T), tensor B[k,j] is
    /// re-accessed every J cycles (once per i), so it only shows temporal
    /// reuse once the window reaches J.
    #[test]
    fn reuse_window_reveals_strided_reuse() {
        let op = TensorOp::builder("gemm")
            .dim("i", 3)
            .dim("j", 4)
            .dim("k", 8)
            .read("A", ["i", "k"])
            .read("B", ["k", "j"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap();
        let df = Dataflow::new(["k mod 8"], ["floor(k/8)", "i", "j"]);
        let arch = ArchSpec::new("1d", [8], Interconnect::Systolic1D, 8.0);
        let narrow = Analysis::new(&op, &df, &arch).unwrap();
        assert_eq!(narrow.volumes("B").unwrap().temporal_reuse, 0);
        let opts = AnalysisOptions {
            reuse_window: 4, // = extent of j
        };
        let wide = Analysis::with_options(&op, &df, &arch, opts).unwrap();
        let v = wide.volumes("B").unwrap();
        // Each B[k,j] is accessed I=3 times per PE, J cycles apart: with a
        // window of J the 2 later accesses per element reuse the first.
        assert_eq!(v.temporal_reuse, 2 * 4 * 8);
        // A[i,k] is accessed J consecutive cycles: full chain either way.
        assert_eq!(
            narrow.volumes("A").unwrap().temporal_reuse,
            wide.volumes("A").unwrap().temporal_reuse
        );
    }

    /// Energy decomposes according to the cost table and the volumes.
    #[test]
    fn energy_matches_cost_table() {
        let (op, df, arch) = figure3();
        let a = Analysis::new(&op, &df, &arch).unwrap();
        let e = a.energy().unwrap();
        // 16 MACs at cost 1.
        assert_eq!(e.compute, 16.0);
        // Register: every access (3 tensors x 16).
        assert_eq!(e.register, 48.0);
        // NoC: spatial reuse of A and B (8 + 8) at cost 2.
        assert_eq!(e.noc, 32.0);
        // Scratchpad: unique volumes (8 + 8 + 4) at cost 6.
        assert_eq!(e.scratchpad, 120.0);
        // DRAM: footprints (8 + 8 + 4) at cost 200.
        assert_eq!(e.dram, 4000.0);
        assert_eq!(e.total(), 16.0 + 48.0 + 32.0 + 120.0 + 4000.0);
    }

    /// Multicast reuse happens in the same cycle (time interval 0).
    #[test]
    fn multicast_same_cycle_reuse() {
        // 1D conv on a 1D multicast array: Y[i] += A[i+j]*B[j],
        // dataflow (i-P | j-T): B[j] broadcast to all PEs each cycle.
        let op = TensorOp::builder("conv1d")
            .dim("i", 4)
            .dim("j", 3)
            .read("A", ["i + j"])
            .read("B", ["j"])
            .write("Y", ["i"])
            .build()
            .unwrap();
        let df = Dataflow::new(["i"], ["j"]);
        let arch = ArchSpec::new("mc", [4], Interconnect::Multicast { radius: 3 }, 4.0);
        let a = Analysis::new(&op, &df, &arch).unwrap();
        let vb = a.volumes("B").unwrap();
        // B[j] is used by 4 PEs in the same cycle: 3 of the 4 accesses per
        // stamp are wire reuse -> unique = 3 (one per j).
        assert_eq!(vb.total, 12);
        assert_eq!(vb.unique, 3);
        assert_eq!(vb.spatial_reuse, 9);
    }
}
