//! The exact max-utilization count (`Set::max_suffix_slice_card` over the
//! activity relation) must match the ISL-free cycle-level simulator on
//! every workload preset and on the paper's named architecture examples,
//! and the reported utilization must be identical with the memo layer on
//! and off.

use tenet::core::{presets, Analysis, ArchSpec, Dataflow, Interconnect, TensorOp};
use tenet::isl::cache;
use tenet::sim::{simulate, SimOptions};
use tenet::workloads::{dataflows, kernels};

/// Builds an arch that fits the dataflow's space-stamp dimensionality.
fn arch_for(df: &Dataflow, pe: i64, pe1d: i64, bw: f64) -> ArchSpec {
    match df.n_space() {
        1 => ArchSpec::new("1d", [pe1d], Interconnect::Systolic1D, bw),
        2 => ArchSpec::new("2d", [pe, pe], Interconnect::Systolic2D, bw),
        n => {
            let dims: Vec<i64> = vec![pe; n];
            ArchSpec::new("nd", dims, Interconnect::Mesh, bw)
        }
    }
}

/// Asserts the exact max active-PE count equals the simulator's for one
/// triple, and that the reported max agrees whenever it is exact; returns
/// false when the dataflow does not apply to the kernel (dimension
/// mismatch).
fn check(op: &TensorOp, df: &Dataflow, arch: &ArchSpec) -> bool {
    let a = match Analysis::new(op, df, arch) {
        Ok(a) => a,
        Err(_) => return false,
    };
    let name = df.name().unwrap_or("<unnamed>");
    // Counted exactly on every preset, including those past the 1024
    // stamps up to which `utilization` reports an exact max.
    let exact = a
        .theta()
        .range()
        .unwrap()
        .max_suffix_slice_card(df.n_space(), 1 << 20)
        .unwrap();
    let sim = simulate(op, df, arch, &SimOptions::default())
        .unwrap_or_else(|e| panic!("{name}: simulator failed: {e}"));
    assert_eq!(
        exact, sim.max_active as u128,
        "max active PEs diverge from the simulator for {name}"
    );
    let u = a.utilization().unwrap();
    if u.max_is_exact {
        assert_eq!(u.max, sim.max_utilization(), "reported max for {name}");
    }
    true
}

/// Every `workloads::` dataflow preset, on its matching kernel.
#[test]
fn exact_max_matches_simulator_on_all_presets() {
    let (pe, pe1d) = (4, 16);
    let mut checked = 0;
    let gemm = kernels::gemm(8, 8, 8).unwrap();
    for df in dataflows::gemm_dataflows(pe, pe1d) {
        checked += check(&gemm, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let conv = kernels::conv2d(8, 8, 4, 4, 3, 3).unwrap();
    for df in dataflows::conv_dataflows(pe, pe1d) {
        checked += check(&conv, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let mttkrp = kernels::mttkrp(4, 4, 8, 8).unwrap();
    for df in dataflows::mttkrp_dataflows(pe) {
        checked += check(&mttkrp, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let jacobi = kernels::jacobi2d(16).unwrap();
    for df in dataflows::jacobi_dataflows(pe, pe1d) {
        checked += check(&jacobi, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let mmc = kernels::mmc(4, 4, 8, 8).unwrap();
    for df in dataflows::mmc_dataflows(pe) {
        checked += check(&mmc, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    // The MAERI 1-D dataflow rides on a small conv layer.
    let conv_small = kernels::conv2d(8, 4, 4, 4, 3, 3).unwrap();
    checked += check(
        &conv_small,
        &dataflows::maeri_dataflow(16),
        &presets::maeri_like(16, 16.0),
    ) as usize;
    assert!(
        checked >= 15,
        "only {checked} preset dataflows were checked"
    );
}

/// The paper's two worked architecture examples: the Figure 3 GEMM on the
/// 2×2 systolic array and the Eyeriss row-stationary conv on the 12×14
/// mesh array.
#[test]
fn exact_max_matches_simulator_on_paper_archs() {
    let gemm = kernels::gemm(2, 2, 4).unwrap();
    let figure3 = Dataflow::new(["i", "j"], ["i + j + k"]);
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
    assert!(check(&gemm, &figure3, &arch));

    let conv = kernels::conv2d(16, 16, 4, 12, 3, 3).unwrap();
    let rs = dataflows::eyeriss_row_stationary();
    assert!(check(&conv, &rs, &presets::eyeriss_like(16.0)));
}

/// The reported utilization itself is bit-identical with the memo layer
/// enabled and disabled (the differential oracle for the analysis layer).
#[test]
fn utilization_identical_with_cache_on_and_off() {
    let op = kernels::gemm(8, 8, 8).unwrap();
    let df = dataflows::gemm_dataflows(4, 16)[0].clone();
    let arch = ArchSpec::new("2d", [4, 4], Interconnect::Systolic2D, 16.0);
    let run = || {
        let a = Analysis::new(&op, &df, &arch).unwrap();
        a.utilization().unwrap()
    };
    cache::set_enabled(false);
    let cold = run();
    cache::clear();
    cache::set_enabled(true);
    let _ = run();
    let warm = run();
    assert_eq!(cold, warm);
}
