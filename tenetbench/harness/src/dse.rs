//! `dse_conv`: the Section VI-B CONV sweep, run the way `tenet explore`
//! runs it. Every candidate of `enumerate_all(pe=8, pe1d=64)` is
//! evaluated serially from an empty memo; one op is one candidate, and a
//! run measures a fixed number of whole sweeps: one per
//! `SECONDS_PER_SWEEP` of `--seconds`, and at least two.

use crate::calib::{process_cpu_s, Calib};
use crate::staged::{self, Stages};
use crate::util::{median, memo_entries, time_setup, IslTally, Measured, Trace};
use std::time::Instant;
use tenet_core::{isl_cache, Analysis, ArchSpec, CounterHandle, Dataflow, Interconnect, TensorOp};

const SETUP_REPEATS: usize = 31;
/// Sweeps per measured run: one sweep's time follows the host's speed of
/// the moment, so a run averages over two at least.
const MIN_SWEEPS: usize = 2;
/// `--seconds` per sweep. The count is fixed rather than run to a
/// deadline: only a process's first sweep faults in the memo's memory, so
/// a count that followed the host's speed would move the per-op mean.
const SECONDS_PER_SWEEP: f64 = 10.0;
const BEST: &str = "(COX-P | K,COXK-T)";

struct Input {
    op: TensorOp,
    arch: ArchSpec,
    candidates: Vec<Dataflow>,
}

/// Set-up: build the op and enumerate the candidates.
fn setup() -> Input {
    let op = tenet_workloads::kernels::conv2d(16, 16, 8, 8, 3, 3).expect("conv2d shape");
    let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Mesh, 8.0);
    let candidates = tenet_dse::enumerate_all(&op, 8, 64).expect("enumerate_all");
    Input {
        op,
        arch,
        candidates,
    }
}

/// One candidate's (latency, SBW), or `None` when it is rejected.
type Outcome = Option<(f64, f64)>;

fn line(idx: usize, df: &Dataflow, out: Outcome) -> String {
    let name = df.name().unwrap_or("");
    match out {
        Some((lat, sbw)) => format!("{idx}\t{name}\t1\t{lat:.6}\t{sbw:.6}"),
        None => format!("{idx}\t{name}\t0\t-\t-"),
    }
}

/// The sweep-level summary lines: counts, the best point, and a digest
/// of every (dataflow, latency, SBW) triple.
fn summary(inp: &Input, outs: &[Outcome]) -> Vec<String> {
    let mut digest_text = String::new();
    let mut best: Option<(usize, f64, f64)> = None;
    for (i, (df, out)) in inp.candidates.iter().zip(outs).enumerate() {
        digest_text.push_str(&line(i, df, *out));
        digest_text.push('\n');
        if let Some((lat, sbw)) = *out {
            // `explore` sorts stably by latency: ties keep enumeration order.
            if best.is_none_or(|(_, b, _)| lat < b) {
                best = Some((i, lat, sbw));
            }
        }
    }
    let best = match best {
        Some((i, lat, sbw)) => format!(
            "best\t{}\t{lat:.6}\t{sbw:.6}",
            inp.candidates[i].name().unwrap_or("")
        ),
        None => "best\t-".to_string(),
    };
    vec![
        format!("enumerated\t{}", outs.len()),
        format!("valid\t{}", outs.iter().flatten().count()),
        best,
        format!(
            "digest\t{:016x}",
            crate::util::fnv1a(digest_text.as_bytes())
        ),
    ]
}

struct Refs {
    summary: Vec<String>,
    per_op: Vec<String>,
}

fn load_refs(dir: &std::path::Path) -> Result<Refs, String> {
    let lines = crate::read_ref_lines(&dir.join("dse_conv.tsv"))?;
    if lines.len() < 4 {
        return Err("dse_conv reference is truncated".into());
    }
    let (summary, per_op) = lines.split_at(4);
    if !summary[2].starts_with(&format!("best\t{BEST}\t")) {
        return Err(format!(
            "dse_conv reference names another best point: {}",
            summary[2]
        ));
    }
    Ok(Refs {
        summary: summary.to_vec(),
        per_op: per_op.to_vec(),
    })
}

/// Checks one finished sweep against the references.
fn check_sweep(inp: &Input, refs: &Refs, outs: &[Outcome], problems: &mut Vec<String>) {
    for (got, want) in summary(inp, outs).iter().zip(&refs.summary) {
        if got != want {
            problems.push(format!("dse_conv: got `{got}`, reference `{want}`"));
        }
    }
}

/// One untraced sweep from an empty memo, timing each candidate; with a
/// calibration, its passes run between candidates.
fn sweep(inp: &Input, refs: &Refs, m: &mut Measured, mut cal: Option<&mut Calib>) {
    isl_cache::clear();
    let mut outs = Vec::with_capacity(inp.candidates.len());
    for (i, df) in inp.candidates.iter().enumerate() {
        let t0 = Instant::now();
        let report = Analysis::new(&inp.op, df, &inp.arch).and_then(|a| a.report());
        m.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let out = report
            .ok()
            .map(|r| (r.latency.total(), r.bandwidth.scratchpad));
        if refs.per_op.get(i) == Some(&line(i, df, out)) {
            m.ok += 1;
        }
        outs.push(out);
        if let Some(cal) = &mut cal {
            cal.tick();
        }
    }
    check_sweep(inp, refs, &outs, &mut m.problems);
}

pub fn measure(seconds: f64, refs_dir: &std::path::Path) -> Result<Measured, String> {
    let refs = load_refs(refs_dir)?;
    let (mut setup_secs, inp) = time_setup(SETUP_REPEATS, setup);
    let mut m = Measured::default();
    let mut cal = Calib::new();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let sweeps = ((seconds / SECONDS_PER_SWEEP).round() as usize).max(MIN_SWEEPS);
    for _ in 0..sweeps {
        sweep(&inp, &refs, &mut m, Some(&mut cal));
    }
    // A window shorter than the sampling interval still gets a sample.
    cal.sample();
    let (cal_cpu_s, cal_wall_s) = cal.spent_s();
    m.wall_s = t0.elapsed().as_secs_f64() - cal_wall_s;
    m.cpu_s = process_cpu_s() - cpu0 - cal_cpu_s;
    m.peak_rss_mb = crate::util::peak_rss_mb();
    m.calibrate(&cal);
    setup_secs.extend(time_setup(SETUP_REPEATS, setup).0);
    m.setup_s = median(&setup_secs);
    Ok(m)
}

/// Traced run: two untraced sweeps, one sweep with a timer around every
/// public call and an ISL counter handle around every candidate, and one
/// more untraced sweep. Only the first sweep of a process faults in the
/// memo's memory, and the host's speed drifts from sweep to sweep by up to
/// a tenth, so the tracing overhead is taken against the mean of the
/// untraced sweeps on either side of the traced one.
pub fn trace(refs_dir: &std::path::Path) -> Result<Trace, String> {
    let refs = load_refs(refs_dir)?;
    let inp = setup();
    let mut t = Trace::new();
    let mut enumerate_s = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let n = tenet_dse::enumerate_all(&inp.op, 8, 64)
            .expect("enumerate_all")
            .len();
        enumerate_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(n);
    }
    t.set("dse.enumerate_ms", median(&enumerate_s) * 1e3);

    let mut plain = Measured::default();
    let t0 = Instant::now();
    for _ in 0..MIN_SWEEPS {
        sweep(&inp, &refs, &mut plain, None);
    }
    plain.wall_s = t0.elapsed().as_secs_f64();
    t.problems.append(&mut plain.problems);
    let last_sweep_ms: f64 = plain.op_ms[plain.op_ms.len() - inp.candidates.len()..]
        .iter()
        .sum();

    isl_cache::clear();
    let mut st = Stages::default();
    let mut isl = IslTally::default();
    let (mut wall_ms, mut wasted_ms) = (0.0, 0.0);
    let mut outs = Vec::with_capacity(inp.candidates.len());
    for (i, df) in inp.candidates.iter().enumerate() {
        let handle = CounterHandle::new();
        let before = memo_entries();
        let t0 = Instant::now();
        let report = {
            let _attached = handle.attach();
            staged::report(&inp.op, df, &inp.arch, &mut st)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        isl.add_handle(&handle);
        isl.note_entries(before, memo_entries());
        wall_ms += ms;
        let out = report
            .ok()
            .map(|r| (r.latency.total(), r.bandwidth.scratchpad));
        if out.is_none() {
            wasted_ms += ms;
        }
        if refs.per_op.get(i) != Some(&line(i, df, out)) {
            t.failed += 1;
            t.problems.push(format!(
                "dse_conv: traced candidate {i} differs from the reference"
            ));
        }
        outs.push(out);
    }
    check_sweep(&inp, &refs, &outs, &mut t.problems);
    let mut after = Measured::default();
    sweep(&inp, &refs, &mut after, None);
    t.problems.append(&mut after.problems);
    let untraced_ms = (last_sweep_ms + after.op_ms.iter().sum::<f64>()) / 2.0;
    let ops = outs.len() as u64;
    let valid = outs.iter().flatten().count() as u64;
    t.ops = ops;
    isl.write(&mut t, ops);
    st.write(&mut t, ops);
    t.set("core.stage_sum_ratio", st.sum() / wall_ms);
    t.set("dse.valid_ratio", valid as f64 / ops as f64);
    t.set("dse.wasted_frac", wasted_ms / wall_ms);
    t.set_wall(&plain, wall_ms / untraced_ms - 1.0);
    t.counts.insert("dse.enumerated", ops);
    t.counts.insert("dse.valid", valid);
    if (st.sum() / wall_ms - 1.0).abs() > 0.10 {
        eprintln!(
            "attribution: core stages cover {:.3} of candidate wall time; residual {:.4} ms/op",
            st.sum() / wall_ms,
            (wall_ms - st.sum()) / ops as f64
        );
    }
    Ok(t)
}

/// Writes `refs/dse_conv.tsv` from one sweep of the current code.
pub fn write_refs(refs_dir: &std::path::Path) -> Result<(), String> {
    let inp = setup();
    isl_cache::clear();
    let outs: Vec<Outcome> = inp
        .candidates
        .iter()
        .map(|df| {
            Analysis::new(&inp.op, df, &inp.arch)
                .and_then(|a| a.report())
                .ok()
                .map(|r| (r.latency.total(), r.bandwidth.scratchpad))
        })
        .collect();
    let mut lines = summary(&inp, &outs);
    lines.extend(
        inp.candidates
            .iter()
            .zip(&outs)
            .enumerate()
            .map(|(i, (df, out))| line(i, df, *out)),
    );
    crate::write_ref_lines(&refs_dir.join("dse_conv.tsv"), "dse_conv", &lines)
}
