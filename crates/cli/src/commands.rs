//! Subcommand implementations. Each command returns the text to print so
//! the logic is unit-testable without spawning processes.

use crate::args::Args;
use std::fmt::Write as _;
use tenet_core::{export, presets, Analysis, AnalysisOptions, ArchSpec, Dataflow};
use tenet_frontend::{
    arch_to_spec, dataflow_to_notation, kernel_to_c, parse_arch, parse_problem, problem_to_text,
    Problem,
};

/// Top-level command error: a message for stderr plus the exit code.
#[derive(Debug)]
pub struct CmdError {
    /// Message printed to stderr.
    pub message: String,
    /// Process exit code (1 = usage, 2 = input error, 3 = analysis error).
    pub code: i32,
}

impl CmdError {
    fn usage(message: impl Into<String>) -> CmdError {
        CmdError {
            message: message.into(),
            code: 1,
        }
    }

    fn input(message: impl Into<String>) -> CmdError {
        CmdError {
            message: message.into(),
            code: 2,
        }
    }

    fn analysis(message: impl Into<String>) -> CmdError {
        CmdError {
            message: message.into(),
            code: 3,
        }
    }
}

type CmdResult = Result<String, CmdError>;

/// The `--help` text.
pub const USAGE: &str = "\
tenet — relation-centric tensor dataflow modeling (ISCA 2021 reproduction)

USAGE:
  tenet analyze  <problem.tenet> [--arch FILE | --preset NAME] [--dataflow N]
                 [--format table|csv] [--window W]
  tenet validate <problem.tenet> [--arch FILE | --preset NAME]
  tenet explore  <problem.tenet> [--arch FILE | --preset NAME] [--pe P]
                 [--top K] [--objective latency|sbw|energy] [--pareto]
  tenet simulate <problem.tenet> [--arch FILE | --preset NAME] [--dataflow N]
  tenet hardware <problem.tenet> [--pe-budget N] [--top K]
  tenet trace    <problem.tenet> [--dataflow N]
  tenet fmt      <problem.tenet>
  tenet demo     <gemm|conv2d|mttkrp|mmc|jacobi2d>
  tenet serve    [--addr HOST:PORT] [--threads N]
                 [--trace-buffer N] [--slow-ms MS]
                 [--snapshot-file PATH] [--snapshot-interval-s N]
  tenet route    [--addr HOST:PORT] [--workers N] [--transport local|http]
                 [--worker-addr HOST:PORT]... [--replication R]
                 [--hedge-ms MS] [--threads N] [--admission-rps N]
                 [--trace-buffer N] [--slow-ms MS]
                 [--fault-plan key=value[,...]]...

A problem file holds a C-like kernel, zero or more dataflows in
relation-centric notation, and optionally an `arch { ... }` block:

  for (i = 0; i < 2; i++)
    for (j = 0; j < 2; j++)
      for (k = 0; k < 4; k++)
        S: Y[i][j] += A[i][k] * B[k][j];

  { S[i,j,k] -> (PE[i,j] | T[i + j + k]) }

  arch \"2x2\" { array = [2, 2] interconnect = systolic2d bandwidth = 4 }

PRESETS: tpu8x8, tpu16x16, eyeriss, shidiannao, maeri64, mesh8x8
";

fn read_file(path: &str) -> Result<String, CmdError> {
    std::fs::read_to_string(path).map_err(|e| CmdError::input(format!("cannot read `{path}`: {e}")))
}

fn load_problem(args: &Args) -> Result<Problem, CmdError> {
    let path = args
        .positional(1)
        .ok_or_else(|| CmdError::usage("missing <problem.tenet> argument"))?;
    let source = read_file(path)?;
    let mut problem = parse_problem(&source)
        .map_err(|e| CmdError::input(format!("{path}: parse error\n{}", e.render(&source))))?;

    if let Some(arch_path) = args.option("arch") {
        let arch_src = read_file(arch_path)?;
        let arch = parse_arch(&arch_src).map_err(|e| {
            CmdError::input(format!("{arch_path}: parse error\n{}", e.render(&arch_src)))
        })?;
        problem.arch = Some(arch);
    } else if let Some(preset) = args.option("preset") {
        problem.arch = Some(preset_arch(preset)?);
    }
    Ok(problem)
}

fn preset_arch(name: &str) -> Result<ArchSpec, CmdError> {
    presets::by_name(name).ok_or_else(|| {
        CmdError::usage(format!(
            "unknown preset `{name}` (try {})",
            presets::names().join(", ")
        ))
    })
}

fn require_arch(problem: &Problem) -> Result<&ArchSpec, CmdError> {
    problem.arch.as_ref().ok_or_else(|| {
        CmdError::usage(
            "no architecture: add an `arch { ... }` block to the problem file, or pass \
             --arch FILE or --preset NAME",
        )
    })
}

fn select_dataflows<'p>(
    problem: &'p Problem,
    args: &Args,
) -> Result<Vec<(usize, &'p Dataflow)>, CmdError> {
    if problem.dataflows.is_empty() {
        return Err(CmdError::usage(
            "the problem file declares no dataflow; add one, e.g. \
             `{ S[...] -> (PE[...] | T[...]) }`",
        ));
    }
    match args
        .option_as::<usize>("dataflow")
        .map_err(CmdError::usage)?
    {
        Some(n) => {
            let df = problem.dataflows.get(n).ok_or_else(|| {
                CmdError::usage(format!(
                    "--dataflow {n} out of range (file has {})",
                    problem.dataflows.len()
                ))
            })?;
            Ok(vec![(n, df)])
        }
        None => Ok(problem.dataflows.iter().enumerate().collect()),
    }
}

fn analysis_options(args: &Args) -> Result<AnalysisOptions, CmdError> {
    let mut opts = AnalysisOptions::default();
    if let Some(w) = args.option_as::<u32>("window").map_err(CmdError::usage)? {
        opts.reuse_window = w;
    }
    Ok(opts)
}

/// `tenet analyze`.
pub fn analyze(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    let arch = require_arch(&problem)?;
    let opts = analysis_options(args)?;
    let format = args.option("format").unwrap_or("table");

    let mut out = String::new();
    if format == "csv" {
        out.push_str(export::csv_header());
        out.push('\n');
    }
    for (idx, df) in select_dataflows(&problem, args)? {
        let analysis = Analysis::with_options(&problem.kernel, df, arch, opts.clone())
            .map_err(|e| CmdError::analysis(format!("dataflow #{idx}: {e}")))?;
        let report = analysis
            .report()
            .map_err(|e| CmdError::analysis(format!("dataflow #{idx}: {e}")))?;
        match format {
            "table" => {
                let _ = writeln!(out, "== dataflow #{idx} ==");
                out.push_str(&export::to_table(&report));
                out.push('\n');
            }
            "csv" => {
                for row in export::to_csv_rows(&report) {
                    out.push_str(&row);
                    out.push('\n');
                }
            }
            other => {
                return Err(CmdError::usage(format!(
                    "unknown --format `{other}` (expected table or csv)"
                )))
            }
        }
    }
    Ok(out)
}

/// `tenet validate`.
pub fn validate(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    let arch = require_arch(&problem)?;
    let mut out = String::new();
    let mut any_invalid = false;
    for (idx, df) in problem.dataflows.iter().enumerate() {
        let report = tenet_core::validate(&problem.kernel, df, arch)
            .map_err(|e| CmdError::analysis(format!("dataflow #{idx}: {e}")))?;
        let verdict = if report.is_valid() { "ok" } else { "INVALID" };
        any_invalid |= !report.is_valid();
        let name = df.name().unwrap_or("<unnamed>");
        let _ = writeln!(out, "dataflow #{idx} {name}: {verdict}");
        if !report.injective {
            let _ = writeln!(
                out,
                "  - not injective: two loop instances share a spacetime-stamp"
            );
        }
        if !report.in_bounds {
            let _ = writeln!(
                out,
                "  - out of bounds: a space-stamp falls outside the PE array"
            );
        }
        let _ = writeln!(
            out,
            "  - PE coverage {:.1}%, working footprint {} elements ({})",
            report.pe_coverage * 100.0,
            report.footprint,
            if report.fits_scratchpad {
                "fits scratchpad"
            } else {
                "EXCEEDS scratchpad"
            }
        );
    }
    if problem.dataflows.is_empty() {
        out.push_str("problem file has no dataflows; nothing to validate\n");
    }
    if any_invalid {
        return Err(CmdError {
            message: out,
            code: 4,
        });
    }
    Ok(out)
}

/// `tenet explore`.
pub fn explore(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&["pareto"])
        .map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    let arch = require_arch(&problem)?;
    let pe = match args.option_as::<i64>("pe").map_err(CmdError::usage)? {
        Some(p) if p > 0 => p,
        Some(p) => return Err(CmdError::usage(format!("--pe must be positive, got {p}"))),
        None => *arch.pe_dims.first().unwrap_or(&8),
    };
    let top = args
        .option_as::<usize>("top")
        .map_err(CmdError::usage)?
        .unwrap_or(10);
    let objective = args.option("objective").unwrap_or("latency");

    let pe1d = arch.pe_count().min(i64::MAX as u128) as i64;
    let candidates = tenet_dse::enumerate_all(&problem.kernel, pe, pe1d)
        .map_err(|e| CmdError::analysis(e.to_string()))?;
    let mut points = tenet_dse::explore(&problem.kernel, arch, &candidates)
        .map_err(|e| CmdError::analysis(e.to_string()))?;
    match objective {
        "latency" => {}
        "sbw" => points.sort_by(|a, b| a.sbw().total_cmp(&b.sbw())),
        "energy" => {
            points.sort_by(|a, b| a.report.energy.total().total_cmp(&b.report.energy.total()))
        }
        other => {
            return Err(CmdError::usage(format!(
                "unknown --objective `{other}` (expected latency, sbw, energy)"
            )))
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "explored {} candidate dataflows ({} valid) on {}",
        candidates.len(),
        points.len(),
        arch.name
    );
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>10} {:>10}",
        "dataflow", "latency", "SBW", "energy"
    );
    for p in points.iter().take(top) {
        let name = p
            .dataflow
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| dataflow_signature(&p.dataflow));
        let _ = writeln!(
            out,
            "{:<44} {:>12.0} {:>10.2} {:>10.0}",
            name,
            p.latency(),
            p.sbw(),
            p.report.energy.total()
        );
    }
    if args.flag("pareto") {
        let frontier = tenet_dse::pareto(&points);
        let _ = writeln!(out, "\nPareto frontier (latency vs scratchpad bandwidth):");
        for p in frontier {
            let name = p
                .dataflow
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| dataflow_signature(&p.dataflow));
            let _ = writeln!(out, "{:<44} {:>12.0} {:>10.2}", name, p.latency(), p.sbw());
        }
    }
    Ok(out)
}

fn dataflow_signature(df: &Dataflow) -> String {
    format!(
        "(PE[{}] | T[{}])",
        df.space_exprs().join(","),
        df.time_exprs().join(",")
    )
}

/// `tenet simulate`: runs the cycle-level simulator next to the
/// analytical model and prints both.
pub fn simulate(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    let arch = require_arch(&problem)?;
    let mut out = String::new();
    for (idx, df) in select_dataflows(&problem, args)? {
        let report = Analysis::new(&problem.kernel, df, arch)
            .and_then(|a| a.report())
            .map_err(|e| CmdError::analysis(format!("dataflow #{idx}: {e}")))?;
        let sim = tenet_sim::simulate(&problem.kernel, df, arch, &tenet_sim::SimOptions::default())
            .map_err(|e| CmdError::analysis(format!("dataflow #{idx}: {e}")))?;
        let _ = writeln!(out, "== dataflow #{idx} ==");
        let _ = writeln!(out, "{:<26} {:>14} {:>14}", "metric", "model", "simulator");
        let _ = writeln!(
            out,
            "{:<26} {:>14.0} {:>14}",
            "latency (cycles)",
            report.latency.total(),
            sim.latency()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>14.3} {:>14.3}",
            "avg PE utilization",
            report.utilization.average,
            sim.avg_utilization()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>14} {:>14}",
            "scratchpad traffic",
            report.unique_volume(tenet_core::Role::Input)
                + report.unique_volume(tenet_core::Role::Output),
            sim.scratchpad_total()
        );
        out.push('\n');
    }
    Ok(out)
}

/// `tenet hardware`: co-explores PE array shapes, interconnects, and
/// bandwidths for the problem's kernel (Figure 2's hardware DSE branch).
pub fn hardware(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    let budget = args
        .option_as::<i64>("pe-budget")
        .map_err(CmdError::usage)?
        .unwrap_or(64);
    if budget <= 0 {
        return Err(CmdError::usage("--pe-budget must be positive"));
    }
    let top = args
        .option_as::<usize>("top")
        .map_err(CmdError::usage)?
        .unwrap_or(10);
    let space = tenet_dse::hardware::HardwareSpace {
        pe_budget: budget,
        ..Default::default()
    };
    let points = tenet_dse::hardware::co_explore(&problem.kernel, &space)
        .map_err(|e| CmdError::analysis(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hardware DSE for `{}` under a {budget}-PE budget ({} architectures with a valid mapping)",
        problem.kernel.name(),
        points.len()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>10} {:>8} {:>10} {:>10}",
        "architecture", "bw", "latency", "util", "SBW", "energy"
    );
    for p in points.iter().take(top) {
        let r = &p.best.report;
        let _ = writeln!(
            out,
            "{:<18} {:>6.0} {:>10.0} {:>8.2} {:>10.2} {:>10.0}",
            p.arch.name,
            p.arch.bandwidth,
            r.latency.total(),
            r.utilization.average,
            r.bandwidth.scratchpad,
            r.energy.total(),
        );
    }
    Ok(out)
}

/// `tenet trace`: prints the Figure 3-style per-time-stamp execution
/// table (small workloads only).
pub fn trace(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    let arch = require_arch(&problem)?;
    let mut out = String::new();
    for (idx, df) in select_dataflows(&problem, args)? {
        let t = tenet_sim::trace(&problem.kernel, df, arch, 4096)
            .map_err(|e| CmdError::analysis(format!("dataflow #{idx}: {e}")))?;
        let _ = writeln!(out, "== dataflow #{idx} ==");
        out.push_str(&t.render());
    }
    Ok(out)
}

/// `tenet fmt`: canonical re-printing of a problem file.
pub fn fmt(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let problem = load_problem(args)?;
    Ok(problem_to_text(&problem))
}

/// `tenet demo`: prints a ready-to-run problem file for a named kernel.
pub fn demo(args: &Args) -> CmdResult {
    use tenet_workloads::kernels;
    let which = args
        .positional(1)
        .ok_or_else(|| CmdError::usage("missing kernel name (try `tenet demo gemm`)"))?;
    let map_err = |e: tenet_core::Error| CmdError::analysis(e.to_string());
    let (op, df, arch) = match which {
        "gemm" => (
            kernels::gemm(16, 16, 16).map_err(map_err)?,
            Dataflow::new(
                ["i % 8", "j % 8"],
                ["floor(i / 8)", "floor(j / 8)", "i % 8 + j % 8 + k"],
            )
            .named("(IJ-P | J,IJK-T)"),
            presets::tpu_like(8, 8, 64.0),
        ),
        "conv2d" => (
            kernels::conv2d(16, 16, 14, 14, 3, 3).map_err(map_err)?,
            Dataflow::new(
                ["k % 8", "c % 8"],
                ["floor(k / 8)", "floor(c / 8)", "oy", "k % 8 + c % 8 + ox"],
            )
            .named("(KC-P | OY,KCOX-T)"),
            presets::tpu_like(8, 8, 64.0),
        ),
        "mttkrp" => (
            kernels::mttkrp(16, 16, 8, 8).map_err(map_err)?,
            Dataflow::new(
                ["i % 8", "j % 8"],
                ["k", "floor(i / 8)", "floor(j / 8)", "i % 8 + j % 8 + l"],
            )
            .named("(IJ-P | J,IJL-T)"),
            presets::tpu_like(8, 8, 64.0),
        ),
        "mmc" => (
            kernels::mmc(16, 16, 8, 8).map_err(map_err)?,
            Dataflow::new(
                ["i % 8", "j % 8"],
                ["k", "floor(i / 8)", "floor(j / 8)", "i % 8 + j % 8 + l"],
            )
            .named("(IJ-P | J,IJL-T)"),
            presets::tpu_like(8, 8, 64.0),
        ),
        "jacobi2d" => (
            kernels::jacobi2d(18).map_err(map_err)?,
            Dataflow::new(["i % 8", "j % 8"], ["floor(i / 8)", "floor(j / 8)"])
                .named("(IJ-P | I,J-T)"),
            presets::mesh(8, 8, 16.0),
        ),
        other => {
            return Err(CmdError::usage(format!(
                "unknown demo kernel `{other}` (try gemm, conv2d, mttkrp, mmc, jacobi2d)"
            )))
        }
    };
    let iters: Vec<String> = op.dims().iter().map(|d| d.name.clone()).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# `tenet demo {which}` — save as {which}.tenet and run:"
    );
    let _ = writeln!(out, "#   tenet analyze {which}.tenet");
    out.push('\n');
    out.push_str(&kernel_to_c(&op));
    out.push('\n');
    if let Some(name) = df.name() {
        let _ = writeln!(out, "# {name}");
    }
    out.push_str(&dataflow_to_notation(&df, &iters));
    out.push_str("\n\n");
    out.push_str(&arch_to_spec(&arch));
    Ok(out)
}

/// Parses the shared observability knobs: `--trace-buffer N` (trace
/// ring capacity, 0 disables tracing) and `--slow-ms MS` (threshold
/// for the slow-request ring).
fn trace_options(args: &Args) -> Result<(Option<usize>, Option<u64>), CmdError> {
    let buffer = match args
        .option_as::<usize>("trace-buffer")
        .map_err(CmdError::usage)?
    {
        Some(n) if n <= 65536 => Some(n),
        Some(n) => {
            return Err(CmdError::usage(format!(
                "--trace-buffer must be at most 65536, got {n}"
            )))
        }
        None => None,
    };
    let slow = args.option_as::<u64>("slow-ms").map_err(CmdError::usage)?;
    Ok((buffer, slow))
}

/// `tenet serve`: runs the HTTP/JSON analysis service until a graceful
/// shutdown (`POST /v1/shutdown`) drains it.
pub fn serve(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let mut config = tenet_server::ServerConfig::default();
    if let Some(addr) = args.option("addr") {
        config.addr = addr.to_string();
    }
    match args
        .option_as::<usize>("threads")
        .map_err(CmdError::usage)?
    {
        Some(t) if t >= 1 => config.threads = t.min(256),
        Some(_) => return Err(CmdError::usage("--threads must be at least 1")),
        None => {}
    }
    let (buffer, slow) = trace_options(args)?;
    if let Some(n) = buffer {
        config.trace_buffer = n;
    }
    if let Some(ms) = slow {
        config.slow_ms = ms;
    }
    if let Some(path) = args.option("snapshot-file") {
        config.snapshot_file = Some(std::path::PathBuf::from(path));
    }
    match args
        .option_as::<u64>("snapshot-interval-s")
        .map_err(CmdError::usage)?
    {
        Some(s) if s >= 1 => {
            if config.snapshot_file.is_none() {
                return Err(CmdError::usage(
                    "--snapshot-interval-s needs --snapshot-file PATH",
                ));
            }
            config.snapshot_interval = Some(std::time::Duration::from_secs(s));
        }
        Some(_) => return Err(CmdError::usage("--snapshot-interval-s must be at least 1")),
        None => {}
    }
    let server = tenet_server::Server::bind(config)
        .map_err(|e| CmdError::input(format!("cannot bind: {e}")))?;
    // Announce the address before blocking so scripts (and the CI smoke
    // test) can discover an ephemeral port.
    println!("tenet-server listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .run()
        .map_err(|e| CmdError::analysis(format!("server error: {e}")))?;
    Ok("server drained and stopped\n".to_string())
}

/// `tenet route`: fronts N analysis workers with the consistent-hash
/// sharding router, running until a cascaded drain (`POST
/// /v1/shutdown`). The default topology is all in-process: each worker
/// is a [`tenet_server::WorkerCore`] dispatched to directly, with no
/// worker sockets at all; `--transport http` spawns the workers as
/// loopback HTTP processes-in-threads instead, and `--worker-addr`
/// attaches already-running external workers over HTTP either way.
pub fn route(args: &Args) -> CmdResult {
    args.reject_unknown_flags(&[]).map_err(CmdError::usage)?;
    let external: Vec<String> = args.option_all("worker-addr").map(str::to_string).collect();
    let workers = match args
        .option_as::<usize>("workers")
        .map_err(CmdError::usage)?
    {
        Some(n) if (1..=16).contains(&n) || (n == 0 && !external.is_empty()) => n,
        Some(n) => {
            return Err(CmdError::usage(format!(
                "--workers must be in [1, 16] (0 only with --worker-addr), got {n}"
            )))
        }
        None => 2,
    };
    let transport = args.option("transport").unwrap_or("local");
    if !matches!(transport, "local" | "http") {
        return Err(CmdError::usage(format!(
            "--transport must be `local` or `http`, got `{transport}`"
        )));
    }
    let mut config = tenet_router::RouterConfig::default();
    if let Some(addr) = args.option("addr") {
        config.addr = addr.to_string();
    }
    match args
        .option_as::<usize>("threads")
        .map_err(CmdError::usage)?
    {
        Some(t) if t >= 1 => config.threads = t.min(256),
        Some(_) => return Err(CmdError::usage("--threads must be at least 1")),
        None => {}
    }
    match args
        .option_as::<usize>("replication")
        .map_err(CmdError::usage)?
    {
        Some(r) if (1..=8).contains(&r) => config.replication = r,
        Some(r) => {
            return Err(CmdError::usage(format!(
                "--replication must be in [1, 8], got {r}"
            )))
        }
        None => {}
    }
    match args.option_as::<u64>("hedge-ms").map_err(CmdError::usage)? {
        Some(0) => config.hedge_after = std::time::Duration::MAX, // 0 = off
        Some(ms) => config.hedge_after = std::time::Duration::from_millis(ms),
        None => {}
    }
    if let Some(rps) = args
        .option_as::<u64>("admission-rps")
        .map_err(CmdError::usage)?
    {
        config.admission_rps = rps; // 0 = off (the default)
    }
    let (buffer, slow) = trace_options(args)?;
    if let Some(n) = buffer {
        config.trace_buffer = n;
    }
    if let Some(ms) = slow {
        config.slow_ms = ms;
    }
    // Chaos drills: each --fault-plan wraps the in-process workers it
    // targets (`worker=N` scoping; no `worker=` applies to all) in a
    // seeded fault-injection transport. Plans wrap the spawned local
    // cores, so they need the default local transport; external
    // `--worker-addr` workers are never wrapped.
    let fault_plans: Vec<tenet_router::FaultPlan> = args
        .option_all("fault-plan")
        .map(tenet_router::FaultPlan::parse)
        .collect::<Result<_, _>>()
        .map_err(CmdError::usage)?;
    if !fault_plans.is_empty() && transport != "local" {
        return Err(CmdError::usage(
            "--fault-plan wraps in-process worker transports; it needs --transport local",
        ));
    }
    config.workers = external.clone();

    let mut specs = Vec::new();
    let mut spawned: Vec<tenet_server::SpawnedServer> = Vec::new();
    if transport == "local" {
        for i in 0..workers {
            let core = tenet_server::WorkerCore::new(tenet_server::ServerConfig {
                addr: "in-process".into(),
                ..Default::default()
            });
            let mut t: Box<dyn tenet_router::Transport> =
                Box::new(tenet_router::LocalTransport::new(core));
            for plan in &fault_plans {
                if plan.only_worker.is_none_or(|w| w == i) {
                    t = Box::new(tenet_router::FaultTransport::new(t, plan.clone()));
                }
            }
            specs.push(tenet_router::WorkerSpec::Custom(t));
        }
    } else {
        for _ in 0..workers {
            let worker = tenet_server::Server::spawn(tenet_server::ServerConfig {
                addr: "127.0.0.1:0".into(),
                // The worker parks a thread per keep-alive connection, so
                // it needs headroom over the router's connection-pool
                // bound: probes and stats fan-outs must never queue
                // behind parked proxy sockets.
                threads: tenet_router::UPSTREAM_CONNECTIONS + 2,
                ..Default::default()
            })
            .map_err(|e| CmdError::input(format!("cannot spawn worker: {e}")))?;
            config.workers.push(worker.addr().to_string());
            spawned.push(worker);
        }
    }
    let router = tenet_router::Router::bind_with_workers(config, specs).map_err(|e| {
        // A failed router bind must not strand the worker threads.
        for w in spawned.drain(..) {
            let _ = w.shutdown_and_join();
        }
        CmdError::input(format!("cannot bind router: {e}"))
    })?;
    // Announce the address before blocking so scripts (and the CI smoke
    // test) can discover an ephemeral port.
    let mut names: Vec<String> = if transport == "local" {
        (0..workers).map(|i| format!("local#{i}")).collect()
    } else {
        spawned.iter().map(|w| w.addr().to_string()).collect()
    };
    names.extend(external.iter().cloned());
    println!(
        "tenet-router listening on http://{} ({} workers: {})",
        router.local_addr(),
        names.len(),
        names.join(", ")
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let outcome = router.run();
    // The drain normally cascades through the shutdown endpoint; make
    // teardown unconditional so workers never outlive the router.
    for w in spawned {
        let _ = w.shutdown_and_join();
    }
    outcome.map_err(|e| CmdError::analysis(format!("router error: {e}")))?;
    Ok("router and workers drained and stopped\n".to_string())
}

/// Dispatches a subcommand; returns the stdout text.
pub fn run(raw: Vec<String>) -> CmdResult {
    let Some(cmd) = raw.first().cloned() else {
        return Err(CmdError::usage(USAGE));
    };
    let args = Args::parse(raw).map_err(CmdError::usage)?;
    match cmd.as_str() {
        "analyze" => analyze(&args),
        "validate" => validate(&args),
        "explore" => explore(&args),
        "simulate" => simulate(&args),
        "hardware" => hardware(&args),
        "trace" => trace(&args),
        "fmt" => fmt(&args),
        "demo" => demo(&args),
        "serve" => serve(&args),
        "route" => route(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CmdError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}
