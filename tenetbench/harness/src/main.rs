//! The TENET benchmark harness: runs one workload in this process from a
//! seed, checks every output against the committed references, and
//! prints one JSON result line last.
//!
//! ```text
//! tenetbench --workload <dse_conv|analyze_cold|serve_mixed> --seed N
//!            --seconds S --trace <0|1> [--refs DIR]
//! tenetbench --write-refs <workload> [--refs DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that prints the per-layer
//! metrics (and, on the line before, the counts that must repeat exactly
//! for one seed).

mod calib;
mod cold;
mod dse;
mod serve;
mod staged;
mod util;

use std::path::{Path, PathBuf};
use util::{metrics_json, HostCpu, Measured, Trace, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    refs: PathBuf,
    write_refs: bool,
}

const WORKLOADS: [&str; 3] = ["dse_conv", "analyze_cold", "serve_mixed"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        refs: PathBuf::from("tenetbench/refs"),
        write_refs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--write-refs" => {
                args.workload = value()?;
                args.write_refs = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--refs" => args.refs = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Reference lines of a committed `.tsv` file (`#` lines are comments).
pub fn read_ref_lines(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

pub fn write_ref_lines(path: &Path, workload: &str, lines: &[String]) -> Result<(), String> {
    let mut text = format!(
        "# {workload} reference outputs, written once by `tenetbench --write-refs {workload}`.\n\
         # Runs compare against this file; they never regenerate it.\n"
    );
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_measured(args: &Args, m: &Measured, steal: f64) {
    let ops = m.attempted();
    let failed = ops - m.ok;
    // Printed every run but not gated: on a shared host wall-clock
    // figures follow the steal level more than the code.
    let ungated = metrics_json(&[
        ("ops_per_s", m.ops_per_s(), "1/s"),
        ("op_p50_ms", m.op_quantile(0.50), "ms"),
        ("op_p90_ms", m.op_quantile(0.90), "ms"),
    ]);
    let raw_cpu_ms = m.cpu_s * 1e3 / ops as f64;
    let context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"ops\": {ops}, \"wall_s\": {:?}, \"cpu_s\": {:?}, \"raw_setup_s\": {:?}, \"raw_cpu_ms_per_op\": {raw_cpu_ms:?}, \"cal_passes\": {}, \"cal_pass_ms\": {:?}, \"slowdown\": {:?}, \"host.steal_frac\": {steal:?}, \"ungated\": {ungated}, \"problems\": {}}}}}",
        args.workload,
        args.seed,
        m.wall_s,
        m.cpu_s,
        m.setup_s,
        m.cal_passes,
        m.cal_pass_ms,
        m.slowdown(),
        json_strings(&m.problems)
    );
    println!("{context}");
    for p in &m.problems {
        eprintln!("check failed: {p}");
    }
    // Set-up and CPU time at the calibration's reference speed (see `calib`).
    let metrics = metrics_json(&[
        ("setup_s", m.setup_s / m.slowdown(), "s"),
        ("cpu_ms_per_op", raw_cpu_ms / m.slowdown(), "ms"),
        ("peak_rss_mb", m.peak_rss_mb, "MB"),
        ("ok_frac", m.ok as f64 / ops.max(1) as f64, "ratio"),
    ]);
    println!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        m.problems.is_empty() && failed == 0 && ops > 0
    );
}

fn print_trace(t: &mut Trace, steal: f64) {
    t.set("host.steal_frac", steal);
    let counts: Vec<String> = t
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"counts\": {{{}}}}}", counts.join(", "));
    for p in &t.problems {
        eprintln!("check failed: {p}");
    }
    let rows: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, t.metrics[name], unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.problems.is_empty() && t.failed == 0 && t.ops > 0,
        t.ops,
        t.failed,
        metrics_json(&rows)
    );
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let refs = args.refs.as_path();
    if args.write_refs {
        return match args.workload.as_str() {
            "dse_conv" => dse::write_refs(refs),
            "analyze_cold" => cold::write_refs(refs),
            _ => serve::write_refs(refs),
        };
    }
    let host0 = HostCpu::now();
    if args.trace {
        let mut t = match args.workload.as_str() {
            "dse_conv" => dse::trace(refs)?,
            "analyze_cold" => cold::trace(args.seed, refs)?,
            _ => serve::trace(args.seed, refs)?,
        };
        print_trace(&mut t, HostCpu::now().steal_frac_since(&host0));
    } else {
        let m = match args.workload.as_str() {
            "dse_conv" => dse::measure(args.seconds, refs)?,
            "analyze_cold" => cold::measure(args.seed, args.seconds, refs)?,
            _ => serve::measure(args.seed, args.seconds, refs)?,
        };
        print_measured(args, &m, HostCpu::now().steal_frac_since(&host0));
    }
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("tenetbench: {e}");
        std::process::exit(1);
    }
}
