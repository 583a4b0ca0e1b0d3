//! What one candidate of the Section VI-B CONV sweep leaves in the
//! process-wide memo. The assertions read the whole memo, so this binary
//! holds this one test.

use tenet_core::{isl_cache, Analysis, ArchSpec, Interconnect};

/// From an empty memo, one candidate's report stores its reuse counts
/// as `reuse_card` entries (two per tensor) and none of the relations
/// that lead to them: no intersection is stored.
#[test]
fn a_conv_candidates_report_stores_reuse_counts_not_intersections() {
    let op = tenet_workloads::kernels::conv2d(16, 16, 8, 8, 3, 3).unwrap();
    let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Mesh, 8.0);
    let candidates = tenet_dse::enumerate_all(&op, 8, 64).unwrap();
    let df = candidates
        .iter()
        .find(|df| df.name() == Some("(COX-P | K,COXK-T)"))
        .expect("the sweep's best candidate is enumerated");
    isl_cache::set_enabled(true);
    isl_cache::clear();
    let report = Analysis::new(&op, df, &arch).unwrap().report().unwrap();
    let snap = isl_cache::export();
    let count = |op: &str| snap.memo.iter().filter(|e| e.op == op).count();
    assert_eq!(count("reuse_card"), 2 * report.tensors.len());
    assert_eq!(count("intersect"), 0);
}
