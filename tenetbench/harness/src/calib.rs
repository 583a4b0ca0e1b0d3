//! Host-speed calibration. The shared host this benchmark runs on changes
//! speed by 2× or more within an hour, and CPU time per op follows it:
//! hypervisor steal is left out of CPU time, but a slower clock or a busy
//! neighbour on the same core is not. A run therefore
//! spreads short passes of a fixed kernel over its measured window — one
//! that shares no code with the repository, mixing what the TENET
//! engine does (small allocations, hashing, ordered maps, integer
//! division, pointer chasing) — and states its CPU cost per op at the
//! reference speed of `REF_PASS_MS` per pass.

use crate::util::{mix64, Rng};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of this process, all threads (exited ones too).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU milliseconds one calibration pass takes at the reference speed
/// (a 2-vCPU Intel Xeon host running fast took 1.36–1.41 ms).
pub const REF_PASS_MS: f64 = 1.5;
/// Wall time between two samples inside a measured window.
const EVERY: Duration = Duration::from_millis(200);
/// Passes a sample records, after one pass that warms the caches the
/// measured work just took over (that first pass runs about twice as
/// long, and how much longer depends on what ran before it).
const RECORDED: usize = 2;
/// Entries of the pointer-chasing table (256 KiB of `u32`).
const CHAIN_LEN: usize = 1 << 16;

pub struct Calib {
    /// One random cycle through every slot.
    chain: Vec<u32>,
    table: HashMap<u64, u64>,
    /// CPU seconds of every recorded pass so far.
    pass_s: Vec<f64>,
    /// CPU and wall seconds of all passes so far, warm-ups included.
    spent_cpu_s: f64,
    spent_wall_s: f64,
    last: Instant,
}

impl Calib {
    pub fn new() -> Calib {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut perm: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut rng = Rng::new(0);
        for i in (1..CHAIN_LEN).rev() {
            perm.swap(i, rng.below(i));
        }
        let mut chain = vec![0u32; CHAIN_LEN];
        for i in 0..CHAIN_LEN {
            chain[perm[i] as usize] = perm[(i + 1) % CHAIN_LEN];
        }
        let mut calib = Calib {
            chain,
            table: HashMap::with_capacity(4096),
            pass_s: Vec::new(),
            spent_cpu_s: 0.0,
            spent_wall_s: 0.0,
            last: Instant::now(),
        };
        // Fault the tables in before any pass counts.
        for _ in 0..3 {
            calib.pass();
        }
        calib.spent_cpu_s = 0.0;
        calib.spent_wall_s = 0.0;
        calib
    }

    /// Runs the kernel once; returns the calling thread's CPU seconds.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let c0 = thread_cpu_s();
        black_box(self.kernel());
        let cpu_s = thread_cpu_s() - c0;
        self.last = Instant::now();
        self.spent_cpu_s += cpu_s;
        self.spent_wall_s += (self.last - t0).as_secs_f64();
        cpu_s
    }

    /// One warm-up pass, then `RECORDED` passes whose CPU time counts.
    pub fn sample(&mut self) {
        self.pass();
        for _ in 0..RECORDED {
            let cpu_s = self.pass();
            self.pass_s.push(cpu_s);
        }
    }

    /// Takes a sample when `EVERY` has gone by since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// CPU and wall seconds spent in calibration so far; a measured
    /// window takes them out of its own times.
    pub fn spent_s(&self) -> (f64, f64) {
        (self.spent_cpu_s, self.spent_wall_s)
    }

    pub fn passes(&self) -> usize {
        self.pass_s.len()
    }

    /// The mean CPU milliseconds of one pass, leaving out the fastest
    /// and the slowest tenth (a page fault or an interrupt in one pass).
    pub fn pass_ms(&self) -> f64 {
        let mut v = self.pass_s.clone();
        v.sort_by(f64::total_cmp);
        let cut = v.len() / 10;
        let kept = &v[cut..v.len() - cut];
        kept.iter().sum::<f64>() / kept.len().max(1) as f64 * 1e3
    }

    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        // Integer division and mixing.
        let mut x = 0x9e37_79b9u64;
        for i in 1..120_000u64 {
            x = mix64(x.wrapping_add(i));
            acc = acc.wrapping_add((x as i64 / ((i % 97) as i64 + 3)) as u64);
        }
        // Small short-lived allocations.
        for i in 0..12_000i64 {
            let v: Vec<i64> = (0..4 + i % 13).map(|k| k * i).collect();
            acc = acc.wrapping_add(black_box(v).iter().sum::<i64>() as u64);
        }
        // Hashing into a table that keeps its capacity between passes.
        self.table.clear();
        for i in 0..4_000u64 {
            self.table.insert(mix64(i), i);
        }
        for i in 0..8_000u64 {
            acc = acc.wrapping_add(self.table.get(&mix64(i % 4_500)).copied().unwrap_or(1));
        }
        // An ordered map keyed by short vectors.
        let mut ordered: BTreeMap<Vec<i64>, u64> = BTreeMap::new();
        for i in 0..3_000i64 {
            ordered.insert(vec![i % 7, (i * 31) % 101, i], i as u64);
        }
        for i in 0..3_000i64 {
            acc = acc.wrapping_add(
                ordered
                    .get(&[i % 7, (i * 31) % 101, i][..])
                    .copied()
                    .unwrap_or(0),
            );
        }
        // Dependent loads through a table larger than the L1 cache.
        let mut p = 0u32;
        for _ in 0..30_000 {
            p = self.chain[p as usize];
        }
        acc.wrapping_add(u64::from(p))
    }
}
