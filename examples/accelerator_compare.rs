//! Compares three published accelerator dataflows — Eyeriss (row
//! stationary), ShiDianNao (output stationary), and NVDLA (channel
//! parallel) — on the same convolution layer, and cross-checks the
//! analytical model against the cycle-level simulator.
//!
//! Run with: `cargo run --release --example accelerator_compare`

use tenet::core::{presets, Analysis, AnalysisOptions};
use tenet::sim::{simulate, SimOptions};
use tenet::workloads::{dataflows, kernels};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size layer every dataflow can host: K=32, C=16, 13x13, 3x3.
    let layer = kernels::conv2d(32, 16, 13, 13, 3, 3)?;
    println!(
        "layer: K=32 C=16 OX=OY=13 RX=RY=3  ({} MACs)\n",
        layer.instances()?
    );
    println!(
        "{:<38} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "dataflow", "latency", "avgU", "maxU", "SBW", "sim-lat"
    );

    // Eyeriss: row stationary on a 12x14 array with multicast buses.
    {
        let df = dataflows::eyeriss_row_stationary();
        let arch = presets::eyeriss_noc(12, 14, 16.0);
        let opts = AnalysisOptions { reuse_window: 12 };
        let a = Analysis::with_options(&layer, &df, &arch, opts)?;
        let r = a.report()?;
        let sim = simulate(&layer, &df, &arch, &SimOptions::default())?;
        println!(
            "{:<38} {:>10.0} {:>8.2} {:>8.2} {:>10.2} {:>10}",
            "Eyeriss (RYOY-P | OY,OX-T)",
            r.latency.total(),
            r.utilization.average,
            r.utilization.max,
            r.bandwidth.scratchpad,
            sim.latency()
        );
    }

    // ShiDianNao: output stationary on an 8x8 mesh.
    {
        let df = dataflows::conv_dataflows(8, 64)
            .into_iter()
            .find(|d| d.name() == Some("(OYOX-P | OY,OX-T)"))
            .unwrap();
        let arch = presets::shidiannao_like(16.0);
        let a = Analysis::new(&layer, &df, &arch)?;
        let r = a.report()?;
        let sim = simulate(&layer, &df, &arch, &SimOptions::default())?;
        println!(
            "{:<38} {:>10.0} {:>8.2} {:>8.2} {:>10.2} {:>10}",
            "ShiDianNao (OYOX-P | OY,OX-T)",
            r.latency.total(),
            r.utilization.average,
            r.utilization.max,
            r.bandwidth.scratchpad,
            sim.latency()
        );
    }

    // NVDLA: channel-parallel on an 8x8 mesh.
    {
        let df = dataflows::conv_dataflows(8, 64)
            .into_iter()
            .find(|d| d.name() == Some("(KC-P | OY,OX-T)"))
            .unwrap();
        let arch = presets::mesh(8, 8, 16.0);
        let a = Analysis::new(&layer, &df, &arch)?;
        let r = a.report()?;
        let sim = simulate(&layer, &df, &arch, &SimOptions::default())?;
        println!(
            "{:<38} {:>10.0} {:>8.2} {:>8.2} {:>10.2} {:>10}",
            "NVDLA (KC-P | OY,OX-T)",
            r.latency.total(),
            r.utilization.average,
            r.utilization.max,
            r.bandwidth.scratchpad,
            sim.latency()
        );
    }

    // TPU-style skewed systolic GEMM for contrast (Figure 3 scaled up).
    {
        let gemm = kernels::gemm(32, 32, 32)?;
        let df = &dataflows::gemm_dataflows(8, 64)[0];
        let arch = presets::tpu_like(8, 8, 16.0);
        let a = Analysis::new(&gemm, df, &arch)?;
        let r = a.report()?;
        let sim = simulate(&gemm, df, &arch, &SimOptions::default())?;
        println!(
            "{:<38} {:>10.0} {:>8.2} {:>8.2} {:>10.2} {:>10}",
            "TPU GEMM (IJ-P | J,IJK-T)",
            r.latency.total(),
            r.utilization.average,
            r.utilization.max,
            r.bandwidth.scratchpad,
            sim.latency()
        );
    }
    println!("\n(analytical latency assumes double buffering; the simulator");
    println!("serializes scratchpad fetches above the bandwidth budget)");
    Ok(())
}
