//! Ablation: cost of the volume metrics as the design choices DESIGN.md
//! calls out are varied — reuse window width, interconnect complexity,
//! and skewed vs rectangular dataflows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tenet_core::{Analysis, AnalysisOptions, ArchSpec, Interconnect};
use tenet_workloads::{dataflows, kernels};

fn bench_window(c: &mut Criterion) {
    let op = kernels::conv2d(32, 16, 8, 8, 3, 3).unwrap();
    let df = dataflows::conv_dataflows(8, 64)
        .into_iter()
        .find(|d| d.name() == Some("(KC-P | OY,OX-T)"))
        .unwrap();
    let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Mesh, 8.0);
    let mut g = c.benchmark_group("ablation_reuse_window");
    g.sample_size(10);
    for w in [1u32, 4, 12] {
        g.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                let opts = AnalysisOptions { reuse_window: w };
                let a = Analysis::with_options(&op, &df, &arch, opts).unwrap();
                a.volumes("B").unwrap()
            })
        });
    }
    g.finish();
}

fn bench_skew(c: &mut Criterion) {
    let op = kernels::gemm(64, 64, 64).unwrap();
    let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Systolic2D, 8.0);
    let mut g = c.benchmark_group("ablation_skew");
    g.sample_size(10);
    for df in dataflows::gemm_dataflows(8, 64) {
        if df.n_space() != 2 {
            continue;
        }
        let name = df.name().unwrap().to_string();
        g.bench_with_input(BenchmarkId::from_parameter(name), &df, |b, df| {
            b.iter(|| {
                let a = Analysis::new(&op, df, &arch).unwrap();
                a.volumes("A").unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_window, bench_skew);
criterion_main!(benches);
