//! Rendering of performance reports as human-readable tables, CSV, and
//! JSON — the output formats the benchmark harness prints for every
//! figure and the analysis service returns for every query.

use crate::json::Json;
use crate::metrics::PerformanceReport;
use crate::op::Role;
use std::fmt::Write as _;

/// Renders a report as an aligned text table.
pub fn to_table(report: &PerformanceReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "op: {}  dataflow: {}  MACs: {}",
        report.op,
        report.dataflow.as_deref().unwrap_or("<unnamed>"),
        report.macs
    );
    let _ = writeln!(
        s,
        "{:<8} {:<7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>11}",
        "tensor", "role", "total", "reuse", "unique", "spatial", "temporal", "factor", "class"
    );
    for (name, t) in &report.tensors {
        let v = &t.volumes;
        let _ = writeln!(
            s,
            "{:<8} {:<7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9.2} {:>11}",
            name,
            match t.role {
                Role::Input => "input",
                Role::Output => "output",
            },
            v.total,
            v.reuse,
            v.unique,
            v.spatial_reuse,
            v.temporal_reuse,
            v.reuse_factor(),
            v.reuse_class()
        );
    }
    let u = &report.utilization;
    let _ = writeln!(
        s,
        "utilization: avg {:.3} max {:.3}{} over {} stamps ({} PEs used)",
        u.average,
        u.max,
        if u.max_is_exact { "" } else { " (probed)" },
        u.time_stamps,
        u.pes_used
    );
    let l = &report.latency;
    let _ = writeln!(
        s,
        "latency: read {:.1} write {:.1} compute {:.1} -> total {:.1}",
        l.read,
        l.write,
        l.compute,
        l.total()
    );
    let b = &report.bandwidth;
    let _ = writeln!(
        s,
        "bandwidth: interconnect {:.3} scratchpad {:.3} (elements/cycle)",
        b.interconnect, b.scratchpad
    );
    let e = &report.energy;
    let _ = writeln!(
        s,
        "energy: compute {:.0} register {:.0} noc {:.0} scratchpad {:.0} dram {:.0} -> {:.0}",
        e.compute,
        e.register,
        e.noc,
        e.scratchpad,
        e.dram,
        e.total()
    );
    s
}

/// The CSV header matching [`to_csv_rows`].
pub fn csv_header() -> &'static str {
    "op,dataflow,tensor,role,total,reuse,unique,spatial_reuse,temporal_reuse,\
     reuse_factor,avg_util,max_util,latency,ibw,sbw,energy"
}

/// Renders one CSV row per tensor of the report.
pub fn to_csv_rows(report: &PerformanceReport) -> Vec<String> {
    let mut out = Vec::new();
    for (name, t) in &report.tensors {
        let v = &t.volumes;
        out.push(format!(
            "{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.1},{:.4},{:.4},{:.1}",
            report.op,
            report.dataflow.as_deref().unwrap_or(""),
            name,
            match t.role {
                Role::Input => "input",
                Role::Output => "output",
            },
            v.total,
            v.reuse,
            v.unique,
            v.spatial_reuse,
            v.temporal_reuse,
            v.reuse_factor(),
            report.utilization.average,
            report.utilization.max,
            report.latency.total(),
            report.bandwidth.interconnect,
            report.bandwidth.scratchpad,
            report.energy.total(),
        ));
    }
    out
}

/// Serializes a full report as a [`Json`] object — the response body of
/// the analysis service's `/v1/analyze` and the `report` field of every
/// `/v1/dse` design point.
///
/// Volumes and footprints stay exact integers; derived ratios
/// (`reuse_factor`, utilization, latency, bandwidth, energy) are floats.
/// A `reuse_factor` of `+inf` (zero unique volume) serializes as `null`.
pub fn to_json(report: &PerformanceReport) -> Json {
    let tensors = report
        .tensors
        .iter()
        .map(|(name, t)| {
            let v = &t.volumes;
            (
                name.clone(),
                Json::obj([
                    (
                        "role",
                        Json::from(match t.role {
                            Role::Input => "input",
                            Role::Output => "output",
                        }),
                    ),
                    ("total", Json::from(v.total)),
                    ("reuse", Json::from(v.reuse)),
                    ("unique", Json::from(v.unique)),
                    ("spatial_reuse", Json::from(v.spatial_reuse)),
                    ("temporal_reuse", Json::from(v.temporal_reuse)),
                    ("reuse_factor", Json::from(v.reuse_factor())),
                    ("reuse_class", Json::from(v.reuse_class().to_string())),
                    ("footprint", Json::from(t.footprint)),
                ]),
            )
        })
        .collect();
    let u = &report.utilization;
    let l = &report.latency;
    let b = &report.bandwidth;
    let e = &report.energy;
    let per_tensor = |m: &std::collections::BTreeMap<String, f64>| {
        Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect())
    };
    Json::obj([
        ("op", Json::from(report.op.as_str())),
        (
            "dataflow",
            Json::from(report.dataflow.as_deref().map(str::to_string)),
        ),
        ("macs", Json::from(report.macs)),
        ("tensors", Json::Obj(tensors)),
        (
            "utilization",
            Json::obj([
                ("average", Json::from(u.average)),
                ("max", Json::from(u.max)),
                ("max_is_exact", Json::from(u.max_is_exact)),
                ("pes_used", Json::from(u.pes_used)),
                ("time_stamps", Json::from(u.time_stamps)),
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("read", Json::from(l.read)),
                ("write", Json::from(l.write)),
                ("compute", Json::from(l.compute)),
                ("total", Json::from(l.total())),
            ]),
        ),
        (
            "bandwidth",
            Json::obj([
                ("interconnect", Json::from(b.interconnect)),
                ("scratchpad", Json::from(b.scratchpad)),
                (
                    "scratchpad_per_tensor",
                    per_tensor(&b.scratchpad_per_tensor),
                ),
                (
                    "interconnect_per_tensor",
                    per_tensor(&b.interconnect_per_tensor),
                ),
            ]),
        ),
        (
            "energy",
            Json::obj([
                ("compute", Json::from(e.compute)),
                ("register", Json::from(e.register)),
                ("noc", Json::from(e.noc)),
                ("scratchpad", Json::from(e.scratchpad)),
                ("dram", Json::from(e.dram)),
                ("total", Json::from(e.total())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::arch::{ArchSpec, Interconnect};
    use crate::dataflow::Dataflow;
    use crate::op::TensorOp;

    fn report() -> PerformanceReport {
        let gemm = TensorOp::builder("gemm")
            .dim("i", 2)
            .dim("j", 2)
            .dim("k", 4)
            .read("A", ["i", "k"])
            .read("B", ["k", "j"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap();
        let df = Dataflow::new(["i", "j"], ["i + j + k"]).named("fig3");
        let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
        Analysis::new(&gemm, &df, &arch).unwrap().report().unwrap()
    }

    #[test]
    fn table_contains_key_numbers() {
        let t = to_table(&report());
        assert!(t.contains("MACs: 16"));
        assert!(t.contains("tensor"));
        assert!(t.contains("Y"));
        assert!(t.contains("total 6.0"));
    }

    #[test]
    fn json_report_is_deterministic_and_reparses() {
        let r = report();
        let text = to_json(&r).to_string();
        assert_eq!(text, to_json(&r).to_string(), "encoding must be stable");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("gemm"));
        assert_eq!(v.get("macs").and_then(Json::as_u64), Some(16));
        let y = v.get("tensors").and_then(|t| t.get("Y")).unwrap();
        assert_eq!(y.get("role").and_then(Json::as_str), Some("output"));
        assert_eq!(
            v.get("latency")
                .and_then(|l| l.get("total"))
                .and_then(Json::as_f64),
            Some(r.latency.total())
        );
    }

    #[test]
    fn csv_row_count_and_fields() {
        let r = report();
        let rows = to_csv_rows(&r);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.split(',').count(), csv_header().split(',').count());
        }
    }
}
