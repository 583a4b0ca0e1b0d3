//! `analyze_cold`: the first query a freshly booted or re-sharded worker
//! serves. The inputs are the 13 Table III presets (5 GEMM dataflows on a
//! 32³ GEMM, 8 CONV dataflows on the `dse_conv` shape), each on a mesh
//! fitted to its space-stamps and rendered as problem text. The memo is
//! cleared before every op; one op is `parse_problem` → report → JSON.
//! A run measures whole seeded rotations (every preset once, in a fresh
//! seeded order) for at least `--seconds`.

use crate::calib::{process_cpu_s, Calib};
use crate::staged::{self, Stages};
use crate::util::{median, memo_entries, time_setup, timed, IslTally, Measured, Rng, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tenet_core::{
    export, isl_cache, Analysis, ArchSpec, CounterHandle, Dataflow, Interconnect,
    PerformanceReport, TensorOp,
};
use tenet_frontend::{parse_problem, problem_to_text, Problem};
use tenet_workloads::{dataflows, kernels};

const SETUP_REPEATS: usize = 31;
/// Rotations in each pass of the traced run (13 ops per rotation).
const TRACE_ROTATIONS: usize = 8;

struct Preset {
    label: String,
    text: String,
}

/// The smallest mesh holding every space-stamp the dataflow uses.
fn fitted_mesh(op: &TensorOp, df: &Dataflow) -> ArchSpec {
    let used = df.used_pes(op).expect("space-stamps of a preset");
    let dims: Vec<i64> = (0..df.n_space())
        .map(|d| used.dim_bounds(d).expect("bounded space-stamps").1 + 1)
        .collect();
    let name: Vec<String> = dims.iter().map(i64::to_string).collect();
    ArchSpec::new(&name.join("x"), dims, Interconnect::Mesh, 8.0)
}

/// Set-up: generate the 13 problem texts.
fn presets() -> Vec<Preset> {
    let gemm = kernels::gemm(32, 32, 32).expect("gemm shape");
    let conv = kernels::conv2d(16, 16, 8, 8, 3, 3).expect("conv2d shape");
    let groups = [
        ("gemm", &gemm, dataflows::gemm_dataflows(8, 64)),
        ("conv", &conv, dataflows::conv_dataflows(8, 64)),
    ];
    let mut out = Vec::new();
    for (kind, op, dfs) in groups {
        for df in dfs {
            let problem = Problem {
                kernel: op.clone(),
                arch: Some(fitted_mesh(op, &df)),
                dataflows: vec![df.clone()],
            };
            out.push(Preset {
                label: format!("{kind} {}", df.name().unwrap_or("")),
                text: problem_to_text(&problem),
            });
        }
    }
    out
}

/// The checked part of a report: volumes, utilization and latency.
fn summary(r: &PerformanceReport) -> String {
    let mut s = String::new();
    for (name, t) in &r.tensors {
        let v = &t.volumes;
        let _ = write!(
            s,
            "{name}:{},{},{},{},{};",
            v.total, v.reuse, v.unique, v.temporal_reuse, v.spatial_reuse
        );
    }
    let u = &r.utilization;
    let _ = write!(
        s,
        "util:{:?},{:?},{},{},{};",
        u.average, u.max, u.max_is_exact, u.pes_used, u.time_stamps
    );
    let l = &r.latency;
    let _ = write!(s, "lat:{:?},{:?},{:?}", l.read, l.write, l.compute);
    s
}

/// One op, untraced: parse → analysis report → JSON text.
fn analyze(text: &str) -> Result<(PerformanceReport, String), String> {
    let problem = parse_problem(text).map_err(|e| e.to_string())?;
    let arch = problem.arch.as_ref().ok_or("problem text has no arch")?;
    let df = problem
        .dataflows
        .first()
        .ok_or("problem text has no dataflow")?;
    let report = Analysis::new(&problem.kernel, df, arch)
        .and_then(|a| a.report())
        .map_err(|e| e.to_string())?;
    let json = export::to_json(&report).to_string();
    Ok((report, json))
}

fn load_refs(dir: &std::path::Path) -> Result<BTreeMap<String, String>, String> {
    let mut refs = BTreeMap::new();
    for l in crate::read_ref_lines(&dir.join("analyze_cold.tsv"))? {
        let (label, summary) = l
            .split_once('\t')
            .ok_or_else(|| format!("malformed analyze_cold reference line `{l}`"))?;
        refs.insert(label.to_string(), summary.to_string());
    }
    Ok(refs)
}

/// Whether an op's result matches the committed reference of its preset.
fn matches(
    refs: &BTreeMap<String, String>,
    p: &Preset,
    out: &Result<(PerformanceReport, String), String>,
) -> bool {
    match out {
        Ok((report, json)) => !json.is_empty() && refs.get(&p.label) == Some(&summary(report)),
        Err(_) => false,
    }
}

/// One untraced op on an empty memo, timed and checked.
fn plain_op(p: &Preset, refs: &BTreeMap<String, String>, m: &mut Measured) {
    isl_cache::clear();
    let t = Instant::now();
    let out = analyze(&p.text);
    m.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if matches(refs, p, &out) {
        m.ok += 1;
    } else {
        let msg = format!("analyze_cold: `{}` differs from the reference", p.label);
        if !m.problems.contains(&msg) {
            m.problems.push(msg);
        }
    }
}

pub fn measure(seed: u64, seconds: f64, refs_dir: &std::path::Path) -> Result<Measured, String> {
    let refs = load_refs(refs_dir)?;
    let (mut setup_secs, ps) = time_setup(SETUP_REPEATS, presets);
    if ps.iter().any(|p| !refs.contains_key(&p.label)) {
        return Err("analyze_cold reference misses a preset".into());
    }
    let mut m = Measured::default();
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..ps.len()).collect();
    let mut cal = Calib::new();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    while m.op_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            plain_op(&ps[i], &refs, &mut m);
            cal.tick();
        }
    }
    // A window shorter than the sampling interval still gets a sample.
    cal.sample();
    let (cal_cpu_s, cal_wall_s) = cal.spent_s();
    m.wall_s = t0.elapsed().as_secs_f64() - cal_wall_s;
    m.cpu_s = process_cpu_s() - cpu0 - cal_cpu_s;
    m.peak_rss_mb = crate::util::peak_rss_mb();
    m.calibrate(&cal);
    setup_secs.extend(time_setup(SETUP_REPEATS, presets).0);
    m.setup_s = median(&setup_secs);
    Ok(m)
}

/// Traced run: `TRACE_ROTATIONS` seeded rotations in which every op runs
/// twice, untraced and then with a timer around every public call and an
/// ISL counter handle around it. Pairing the two makes the tracing
/// overhead immune to the host's speed drifting during the run.
pub fn trace(seed: u64, refs_dir: &std::path::Path) -> Result<Trace, String> {
    let refs = load_refs(refs_dir)?;
    let ps = presets();
    let mut t = Trace::new();
    let mut plain = Measured::default();
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..ps.len()).collect();
    let mut st = Stages::default();
    let mut isl = IslTally::default();
    let (mut parse_ms, mut wall_ms, mut ops) = (0.0, 0.0, 0u64);
    for _ in 0..TRACE_ROTATIONS {
        rng.shuffle(&mut order);
        for &i in &order {
            plain_op(&ps[i], &refs, &mut plain);
            plain.wall_s += plain.op_ms.last().expect("an untraced op") / 1e3;
            isl_cache::clear();
            let handle = CounterHandle::new();
            let before = memo_entries();
            let t0 = Instant::now();
            let out = {
                let _attached = handle.attach();
                traced_op(&ps[i].text, &mut parse_ms, &mut st)
            };
            wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            isl.add_handle(&handle);
            isl.note_entries(before, memo_entries());
            ops += 1;
            if !matches(&refs, &ps[i], &out) {
                t.failed += 1;
                t.problems.push(format!(
                    "analyze_cold: traced `{}` differs from the reference",
                    ps[i].label
                ));
            }
        }
    }
    t.problems.append(&mut plain.problems);
    t.ops = ops;
    isl.write(&mut t, ops);
    st.write(&mut t, ops);
    t.set("frontend.parse_ms", parse_ms / ops as f64);
    let covered = (parse_ms + st.sum()) / wall_ms;
    t.set("core.stage_sum_ratio", covered);
    t.set_wall(&plain, wall_ms / plain.op_ms.iter().sum::<f64>() - 1.0);
    if (covered - 1.0).abs() > 0.10 {
        eprintln!(
            "attribution: parse + core stages cover {covered:.3} of op wall time; residual {:.4} ms/op",
            (wall_ms - parse_ms - st.sum()) / ops as f64
        );
    }
    Ok(t)
}

fn traced_op(
    text: &str,
    parse_ms: &mut f64,
    st: &mut Stages,
) -> Result<(PerformanceReport, String), String> {
    let problem = timed(parse_ms, || parse_problem(text)).map_err(|e| e.to_string())?;
    let arch = problem.arch.as_ref().ok_or("problem text has no arch")?;
    let df = problem
        .dataflows
        .first()
        .ok_or("problem text has no dataflow")?;
    let report = staged::report(&problem.kernel, df, arch, st).map_err(|e| e.to_string())?;
    let json = timed(&mut st.export, || export::to_json(&report).to_string());
    Ok((report, json))
}

/// Writes `refs/analyze_cold.tsv` from one cold analysis per preset.
pub fn write_refs(refs_dir: &std::path::Path) -> Result<(), String> {
    let mut lines = Vec::new();
    for p in presets() {
        isl_cache::clear();
        let (report, _) = analyze(&p.text)?;
        lines.push(format!("{}\t{}", p.label, summary(&report)));
    }
    crate::write_ref_lines(&refs_dir.join("analyze_cold.tsv"), "analyze_cold", &lines)
}
