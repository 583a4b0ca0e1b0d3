//! Process probes, statistics, the seeded generator, and the JSON output
//! the harness prints. Standard library only.

use std::collections::BTreeMap;
use std::time::Instant;

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().expect("cpu line in /proc/stat");
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().expect("numeric /proc/stat field"))
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already inside user/nice, so it is not re-added.
        HostCpu {
            steal: v.get(7).copied().unwrap_or(0),
            total: v.iter().take(8).sum(),
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor took.
    pub fn steal_frac_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Times `f` `repeats` times; returns the seconds of each repeat and the
/// last result (the one the measured phase then uses). Workloads time
/// their set-up before and again after the measured window and report the
/// median of both: the host's speed drifts within a run, and samples from
/// both ends let the median see the host the measured ops saw.
pub fn time_setup<T>(repeats: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        let out = f();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (secs, last.expect("at least one set-up repeat"))
}

/// splitmix64: the benchmark's only source of randomness, keyed by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5445_4e45_5442_454e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// splitmix64's output function: a 64-bit hash of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, for output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one measured run of a workload produced.
#[derive(Default)]
pub struct Measured {
    /// Median wall seconds of the repeated set-up.
    pub setup_s: f64,
    /// Per-op wall latency, milliseconds.
    pub op_ms: Vec<f64>,
    /// Ops whose output matched the committed reference.
    pub ok: u64,
    /// Wall and process-CPU seconds of the measured window, calibration
    /// passes left out.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Calibration over the window: passes recorded, and the mean CPU
    /// milliseconds of one.
    pub cal_passes: usize,
    pub cal_pass_ms: f64,
    /// `VmHWM` at the end of the measured window, before the harness
    /// gathers and sorts its samples.
    pub peak_rss_mb: f64,
    /// Run-level check failures (empty when every check passed).
    pub problems: Vec<String>,
}

impl Measured {
    /// Records the host's speed the window's calibration passes saw.
    pub fn calibrate(&mut self, cal: &crate::calib::Calib) {
        self.cal_passes = cal.passes();
        self.cal_pass_ms = cal.pass_ms();
    }

    /// How much slower than the calibration's reference the host ran:
    /// CPU times divided by it read at the reference speed.
    pub fn slowdown(&self) -> f64 {
        self.cal_pass_ms / crate::calib::REF_PASS_MS
    }

    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }

    /// Nearest-rank quantile of the per-op latencies, in milliseconds.
    pub fn op_quantile(&self, q: f64) -> f64 {
        let mut sorted = self.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, q)
    }

    /// Completed ops per wall second of the measured window.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted() as f64 / self.wall_s
    }
}

/// Per-layer values of a traced run, plus the counts that must repeat
/// exactly for one seed.
pub struct Trace {
    pub metrics: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, u64>,
    pub ops: u64,
    /// Traced ops whose output differed from the reference.
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            metrics: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
            counts: BTreeMap::new(),
            ops: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Run context from the traced run's untraced pass: its wall-clock
    /// throughput and tail, and the tracing overhead (traced op time over
    /// untraced op time of the same ops, minus one).
    pub fn set_wall(&mut self, untraced: &Measured, overhead_frac: f64) {
        self.set("wall.ops_per_s", untraced.ops_per_s());
        self.set("wall.op_p50_ms", untraced.op_quantile(0.50));
        self.set("wall.op_p90_ms", untraced.op_quantile(0.90));
        self.set("trace.overhead_frac", overhead_frac);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.metrics.contains_key(name),
            "unknown per-layer metric {name}"
        );
        self.metrics.insert(name, value);
    }
}

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isl.memo_hit_ratio", "ratio"),
    ("isl.memo_lookups_per_op", "count/op"),
    ("isl.cold_ms_per_op", "ms"),
    ("isl.fastpath_per_op", "count/op"),
    ("isl.fastpath.window", "count"),
    ("isl.fastpath.box", "count"),
    ("isl.fastpath.slab", "count"),
    ("isl.fastpath.multi_slab", "count"),
    ("isl.fastpath.pair_chain", "count"),
    ("isl.fastpath.coupled_slab", "count"),
    ("isl.memo_entries", "count"),
    ("isl.memo_evictions", "count"),
    ("core.new_ms", "ms"),
    ("core.volumes_ms", "ms"),
    ("core.utilization_ms", "ms"),
    ("core.metrics_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.export_ms", "ms"),
    ("core.stage_sum_ratio", "ratio"),
    ("frontend.parse_ms", "ms"),
    ("dse.enumerate_ms", "ms"),
    ("dse.valid_ratio", "ratio"),
    ("dse.wasted_frac", "ratio"),
    ("server.queue_ms", "ms"),
    ("server.parse_ms", "ms"),
    ("server.canon_ms", "ms"),
    ("server.dedup_ms", "ms"),
    ("server.compute_ms", "ms"),
    ("server.isl_ms", "ms"),
    ("server.serialize_ms", "ms"),
    ("server.dedup_hit_ratio", "ratio"),
    ("server.dedup_entries", "count"),
    ("server.phase_sum_ratio", "ratio"),
    ("router.queue_ms", "ms"),
    ("router.parse_ms", "ms"),
    ("router.upstream_ms", "ms"),
    ("router.self_ms", "ms"),
    ("router.transport_ms", "ms"),
    ("router.hedges_fired", "count"),
    ("router.retries", "count"),
    ("router.shard_share_max", "ratio"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("wall.ops_per_s", "1/s"),
    ("wall.op_p50_ms", "ms"),
    ("wall.op_p90_ms", "ms"),
];

/// The ISL counters of one op (or one pass), read from a `CounterHandle`.
#[derive(Default, Clone, Copy)]
pub struct IslTally {
    pub hits: u64,
    pub misses: u64,
    pub cold_ns: u64,
    pub fast: [u64; 6],
    pub max_entries: u64,
    pub evictions: u64,
}

/// Fast-path dispatches per kind, in `IslTally::fast` order.
pub fn fast_kinds(f: &tenet_core::CountStats) -> [u64; 6] {
    [
        f.window_counts,
        f.box_counts,
        f.slab_counts,
        f.multi_slab_counts,
        f.pair_chain_counts,
        f.coupled_slab_counts,
    ]
}

impl IslTally {
    pub fn add_handle(&mut self, h: &tenet_core::CounterHandle) {
        self.hits += h.hits();
        self.misses += h.misses();
        self.cold_ns += h.cold_ns();
        self.add_fast(fast_kinds(&h.fast_path_stats()));
    }

    pub fn add_fast(&mut self, kinds: [u64; 6]) {
        for (acc, k) in self.fast.iter_mut().zip(kinds) {
            *acc += k;
        }
    }

    /// Memo size before and after one op: the high-water mark, and a
    /// wholesale clear (the table shrank) between the two reads.
    pub fn note_entries(&mut self, before: u64, after: u64) {
        self.max_entries = self.max_entries.max(after);
        if after < before {
            self.evictions += 1;
        }
    }

    pub fn write(&self, t: &mut Trace, ops: u64) {
        let ops_f = ops.max(1) as f64;
        let lookups = self.hits + self.misses;
        t.set(
            "isl.memo_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.hits as f64 / lookups as f64
            },
        );
        t.set("isl.memo_lookups_per_op", lookups as f64 / ops_f);
        t.set("isl.cold_ms_per_op", self.cold_ns as f64 / 1e6 / ops_f);
        t.set(
            "isl.fastpath_per_op",
            self.fast.iter().sum::<u64>() as f64 / ops_f,
        );
        let names = [
            "isl.fastpath.window",
            "isl.fastpath.box",
            "isl.fastpath.slab",
            "isl.fastpath.multi_slab",
            "isl.fastpath.pair_chain",
            "isl.fastpath.coupled_slab",
        ];
        for (name, &n) in names.iter().zip(&self.fast) {
            t.set(name, n as f64);
            t.counts.insert(name, n);
        }
        t.set("isl.memo_entries", self.max_entries as f64);
        t.set("isl.memo_evictions", self.evictions as f64);
        t.counts.insert("isl.lookups", lookups);
        t.counts.insert("isl.misses", self.misses);
    }
}

/// Memo entries right now.
pub fn memo_entries() -> u64 {
    tenet_core::isl_cache::stats().entries
}

/// One `"name": {"value": v, "unit": u}` map as JSON text.
pub fn metrics_json(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Wall milliseconds of `f`, added to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64() * 1e3;
    out
}
