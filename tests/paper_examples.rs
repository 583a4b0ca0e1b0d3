//! Integration tests pinning the numbers the paper states explicitly:
//! the Figure 3 worked example, the Figure 1(c) reuse comparison, the
//! Section IV-A design-space sizes, and the notation round trips.

use tenet::core::{presets, Analysis, AnalysisOptions, ArchSpec, Dataflow, Interconnect, TensorOp};
use tenet::isl::Map;
use tenet::maestro::{evaluate, representable, DcMapping};
use tenet::workloads::{dataflows, kernels};

fn figure3() -> (TensorOp, Dataflow, ArchSpec) {
    let gemm = kernels::gemm(2, 2, 4).unwrap();
    let df = Dataflow::new(["i", "j"], ["i + j + k"]);
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
    (gemm, df, arch)
}

/// Figure 3: at time-stamp T[1] exactly the instances [0,0,1], [1,0,0],
/// [0,1,0] execute.
#[test]
fn figure3_time_stamp_one() {
    let (op, df, _) = figure3();
    let theta = df.theta(&op).unwrap();
    // ST = [p0, p1, t]; fix t = 1.
    let slice = theta.fix_out(2, 1);
    let pts = slice.points(100).unwrap();
    let instances: Vec<Vec<i64>> = pts.iter().map(|p| p[..3].to_vec()).collect();
    assert_eq!(instances.len(), 3);
    assert!(instances.contains(&vec![0, 0, 1]));
    assert!(instances.contains(&vec![1, 0, 0]));
    assert!(instances.contains(&vec![0, 1, 0]));
}

/// Section V-A worked volumes for tensor A, truncated to time-stamps 0..3
/// exactly as in the text: Total 12, Reuse 5 (stamps 1..3), Unique 7.
#[test]
fn section5_truncated_volumes() {
    let (op, df, arch) = figure3();
    let analysis = Analysis::new(&op, &df, &arch).unwrap();
    let adf = analysis.assignment("A").unwrap();
    let window = Map::parse("{ ST[p0,p1,t] -> ST[p0,p1,t] : 0 <= t <= 3 }").unwrap();
    let adf_w = window.apply_range(&adf).unwrap();
    assert_eq!(adf_w.card().unwrap(), 12, "TotalVolume over stamps 0..3");
    let avail = analysis
        .spatial_map()
        .unwrap()
        .reverse()
        .apply_range(&adf)
        .unwrap();
    let reuse = adf_w.intersect(&avail).unwrap().card().unwrap();
    assert_eq!(reuse, 5, "ReuseVolume over stamps 1..3");
    assert_eq!(
        adf_w.card().unwrap() - reuse,
        7,
        "UniqueVolume over stamps 0..3"
    );
}

/// Over the full execution every tensor's TotalVolume equals |D_S| = 16
/// for an injective dataflow, and the volume identities hold.
#[test]
fn figure3_full_volume_identities() {
    let (op, df, arch) = figure3();
    let analysis = Analysis::new(&op, &df, &arch).unwrap();
    for t in ["A", "B", "Y"] {
        let v = analysis.volumes(t).unwrap();
        assert_eq!(v.total, 16);
        assert_eq!(v.unique + v.reuse, v.total);
        assert_eq!(v.spatial_reuse + v.temporal_reuse, v.reuse);
    }
    // Y stationary: unique = 4 output elements, reuse factor 4.
    let y = analysis.volumes("Y").unwrap();
    assert_eq!(y.unique, 4);
    assert_eq!(y.reuse_factor(), 4.0);
}

/// Figure 1(c): the actual reuse of tensor A in the skewed 1D-CONV
/// dataflow is 6, while the data-centric estimate is 8.
#[test]
fn figure1c_reuse_comparison() {
    let op = TensorOp::builder("conv1d")
        .dim("i", 4)
        .dim("j", 3)
        .read("A", ["i + j"])
        .read("B", ["j"])
        .write("Y", ["i"])
        .build()
        .unwrap();
    // TENET: dataflow (i-P | j-T) on a 4-wide mesh-linked array — element
    // A[k] travels anti-diagonally (PE i+1 at cycle j-1 feeds PE i at j),
    // which needs the bidirectional neighbor links of a mesh.
    let df = Dataflow::new(["i"], ["j"]);
    let arch = ArchSpec::new("1d", [4], Interconnect::Mesh, 4.0);
    let analysis = Analysis::new(&op, &df, &arch).unwrap();
    let v = analysis.volumes("A").unwrap();
    assert_eq!(v.total, 12);
    assert_eq!(v.unique, 6, "footprint of A[i+j] is 6 distinct elements");
    assert_eq!(v.reuse, 6, "actual reuse of A is 6");
    // MAESTRO: same mapping in data-centric notation reports reuse 8.
    let mapping = DcMapping::new().spatial(1, 1, "i").temporal(1, 1, "j");
    let m = evaluate(&op, &mapping, &arch);
    let a = &m.tensors["A"];
    assert_eq!(a.total - a.unique, 8.0, "data-centric reuse estimate is 8");
}

/// Section IV-A: GEMM design-space sizes 512 vs 18 (28x).
#[test]
fn design_space_sizes() {
    assert_eq!(tenet::dse::space_size::relation_centric(3), 512);
    assert_eq!(tenet::dse::space_size::data_centric(3), 18);
    assert_eq!(tenet::dse::space_size::pruned_conv_space(), 25_920);
}

/// Section IV-A: the quasi-affine TPU dataflow covers an 8x8 array and is
/// injective.
#[test]
fn section4a_quasi_affine_dataflow() {
    let op = kernels::gemm(16, 16, 8).unwrap();
    let df = &dataflows::gemm_dataflows(8, 64)[0]; // (IJ-P | J,IJK-T)
    assert!(df.is_injective(&op).unwrap());
    assert_eq!(df.used_pes(&op).unwrap().card().unwrap(), 64);
}

/// Table III: the three skewed GEMM dataflows are TENET-only; the two
/// 1-D ones have data-centric forms.
#[test]
fn table3_expressiveness_split() {
    let op = kernels::gemm(16, 16, 16).unwrap();
    let dfs = dataflows::gemm_dataflows(8, 64);
    let representable_count = dfs.iter().filter(|d| representable(d, &op)).count();
    assert_eq!(representable_count, 2);
}

/// Figure 12 oracle: AlexNet CONV3 under the Eyeriss row-stationary
/// dataflow has filter reuse factor 13x13 = 169 and output reuse factor
/// 12x12 = 144 (Section VI-E), which MAESTRO misestimates.
#[test]
fn figure12_alexnet_conv3_reuse_factors() {
    let op = kernels::conv2d(96, 64, 13, 13, 3, 3).unwrap(); // channel-scaled CONV3
    let df = dataflows::eyeriss_row_stationary();
    let arch = presets::eyeriss_noc(12, 14, 16.0);
    let opts = AnalysisOptions { reuse_window: 12 };
    let analysis = Analysis::with_options(&op, &df, &arch, opts).unwrap();
    let filter = analysis.volumes("B").unwrap();
    assert!(
        (filter.reuse_factor() - 169.0).abs() < 1e-6,
        "filter reuse factor = {}",
        filter.reuse_factor()
    );
    let output = analysis.volumes("Y").unwrap();
    assert!(
        (output.reuse_factor() - 144.0).abs() < 1e-6,
        "output reuse factor = {}",
        output.reuse_factor()
    );
}

/// Figure 12 oracle: GoogLeNet inception-4a filter reuse is OX*OY = 3136
/// exactly (TENET), while the sliding-window polynomial gives 54*54 =
/// 2916 (MAESTRO).
#[test]
fn figure12_inception4a_filter_reuse() {
    // Channel-scaled inception-4a: factors depend only on the spatial
    // extents.
    let op = kernels::conv2d(16, 16, 56, 56, 3, 3).unwrap();
    let df = dataflows::conv_dataflows(8, 64)
        .into_iter()
        .find(|d| d.name() == Some("(KC-P | OY,OX-T)"))
        .unwrap();
    let arch = presets::mesh(8, 8, 16.0);
    let analysis = Analysis::new(&op, &df, &arch).unwrap();
    let filter = analysis.volumes("B").unwrap();
    assert!(
        (filter.reuse_factor() - 3136.0).abs() < 1e-6,
        "TENET filter reuse factor = {}",
        filter.reuse_factor()
    );
    let mapping = DcMapping::new()
        .spatial(1, 1, "k")
        .temporal(1, 1, "c")
        .temporal(3, 1, "ox")
        .temporal(3, 1, "oy")
        .temporal(3, 3, "rx")
        .temporal(3, 3, "ry");
    let m = evaluate(&op, &mapping, &arch);
    assert_eq!(m.tensors["B"].reuse_factor, 2916.0);
}
