//! Figure 11: latency and PE-utilization estimation accuracy.
//!
//! The paper compares TENET's and MAESTRO's estimates against the numbers
//! reported by the Eyeriss and MAERI silicon. This reproduction uses the
//! cycle-level simulator (`tenet-sim`) as the golden reference — the same
//! dataflow executed on a PE array with finite scratchpad bandwidth —
//! and reports each model's relative error. Layers are channel-scaled so
//! the instance-by-instance simulation stays tractable (geometry, and
//! therefore per-layer error structure, is preserved).

use tenet_core::{presets, Analysis, AnalysisOptions, ArchSpec, Interconnect};
use tenet_maestro::{evaluate, DcMapping};
use tenet_sim::{simulate, ReusePolicy, SimOptions};
use tenet_workloads::{dataflows, networks};

fn pct_err(model: f64, golden: f64) -> f64 {
    100.0 * (model - golden).abs() / golden
}

fn main() {
    println!("Figure 11: latency / utilization accuracy vs cycle-level simulation\n");

    // ---- (a)/(b): Eyeriss row-stationary dataflow on AlexNet C1..C5 ----
    println!("Eyeriss row-stationary on AlexNet (12x14 array, multicast NoC)");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>9} {:>9} | {:>8} {:>8} {:>8}",
        "layer", "sim lat", "TENET lat", "MAESTRO", "T err%", "M err%", "sim U", "T util", "M util"
    );
    let mut terr = Vec::new();
    let mut merr = Vec::new();
    for l in networks::alexnet() {
        let l = l.scaled_channels(4);
        if l.rx != 3 {
            // The 12-row row-stationary mapping is only injective for 3x3
            // filters (ry + 3*(c mod 4) tiles exactly); Eyeriss maps
            // CONV1/CONV2 with dedicated configurations the paper does
            // not specify, so the accuracy study covers CONV3-5.
            eprintln!("skip {} (row-stationary needs rx = 3)", l.name);
            continue;
        }
        let op = l.op().unwrap();
        let df = if l.ox > 14 {
            dataflows::eyeriss_row_stationary_tiled(14)
        } else {
            dataflows::eyeriss_row_stationary()
        };
        let mut arch = presets::eyeriss_noc(12, 14, 16.0);
        if df.used_pes(&op).is_err() {
            eprintln!("skip {}", l.name);
            continue;
        }
        // Golden: the same dataflow executed cycle by cycle under the
        // reuse discipline the interconnect supports (Adjacent); the
        // Resident policy is available for RF-capacity sensitivity runs.
        let sim = match simulate(
            &op,
            &df,
            &arch,
            &SimOptions {
                policy: ReusePolicy::Adjacent,
                rf_capacity: None,
                ..Default::default()
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skip {} (sim): {e}", l.name);
                continue;
            }
        };
        arch.bandwidth = 16.0;
        let opts = AnalysisOptions { reuse_window: 12 };
        let analysis = match Analysis::with_options(&op, &df, &arch, opts) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("skip {} (model): {e}", l.name);
                continue;
            }
        };
        let lat = analysis.latency().unwrap().total();
        let util = analysis.utilization().unwrap().average;
        // MAESTRO models only the c = 0 case of the row-stationary mapping
        // (Section VI-E): filter rows spatial, outputs spatial.
        let mapping = DcMapping::new()
            .temporal(4, 4, "c")
            .temporal(16, 16, "k")
            .spatial(l.rx, 1, "oy")
            .temporal(l.rx, 1, "ox")
            .spatial(1, 1, "ry")
            .temporal(1, 1, "rx");
        let m = evaluate(&op, &mapping, &arch);
        let golden_lat = sim.latency() as f64;
        let golden_util = sim.avg_utilization();
        terr.push(pct_err(lat, golden_lat));
        merr.push(pct_err(m.latency(), golden_lat));
        println!(
            "{:<8} {:>12} {:>12.0} {:>12.0} {:>8.1}% {:>8.1}% | {:>8.3} {:>8.3} {:>8.3}",
            l.name,
            sim.latency(),
            lat,
            m.latency(),
            pct_err(lat, golden_lat),
            pct_err(m.latency(), golden_lat),
            golden_util,
            util,
            m.utilization,
        );
    }
    let tavg = 100.0 - terr.iter().sum::<f64>() / terr.len() as f64;
    let mavg = 100.0 - merr.iter().sum::<f64>() / merr.len() as f64;
    println!("latency estimation accuracy: TENET {tavg:.1}%  MAESTRO {mavg:.1}%\n");

    // ---- (c)/(d): MAERI dataflow on VGG C1-1..C5-1 ----------------------
    println!("MAERI dataflow on VGG-16 (64 multipliers, multicast tree)");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>9} {:>9} | {:>8} {:>8}",
        "layer", "sim lat", "TENET lat", "MAESTRO", "T err%", "M err%", "sim U", "T util"
    );
    let mut terr = Vec::new();
    let mut merr = Vec::new();
    let vgg_scale = [8i64, 4, 4, 4, 4];
    for (i, l) in networks::vgg16().iter().enumerate() {
        let l = l.scaled(vgg_scale[i]);
        let op = l.op().unwrap();
        let df = dataflows::maeri_dataflow(64);
        let arch = ArchSpec::new("maeri", [64], Interconnect::Multicast { radius: 3 }, 16.0);
        let sim = match simulate(
            &op,
            &df,
            &arch,
            &SimOptions {
                policy: ReusePolicy::Adjacent,
                rf_capacity: None,
                ..Default::default()
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skip {} (sim): {e}", l.name);
                continue;
            }
        };
        let opts = AnalysisOptions { reuse_window: 4 };
        let analysis = Analysis::with_options(&op, &df, &arch, opts).unwrap();
        let lat = analysis.latency().unwrap().total();
        let util = analysis.utilization().unwrap().average;
        let mapping = DcMapping::new()
            .spatial(1, 1, "k")
            .temporal(1, 1, "c")
            .temporal(l.rx, 1, "oy")
            .temporal(l.rx, 1, "ox");
        let m = evaluate(&op, &mapping, &arch);
        let golden_lat = sim.latency() as f64;
        terr.push(pct_err(lat, golden_lat));
        merr.push(pct_err(m.latency(), golden_lat));
        println!(
            "{:<8} {:>12} {:>12.0} {:>12.0} {:>8.1}% {:>8.1}% | {:>8.3} {:>8.3}",
            l.name,
            sim.latency(),
            lat,
            m.latency(),
            pct_err(lat, golden_lat),
            pct_err(m.latency(), golden_lat),
            sim.avg_utilization(),
            util,
        );
    }
    let tavg = 100.0 - terr.iter().sum::<f64>() / terr.len() as f64;
    let mavg = 100.0 - merr.iter().sum::<f64>() / merr.len() as f64;
    println!("latency estimation accuracy: TENET {tavg:.1}%  MAESTRO {mavg:.1}%");
}
