//! Differential enumeration oracle for the counting engine.
//!
//! `count_by_points` re-counts a set by scanning its bounding box with
//! `contains_point` only — a code path independent of the closed-form
//! counters, the recursive enumerator, *and* the memo layer — so any fast
//! path that silently diverges from enumeration fails here. Every property
//! runs once with the cache disabled and once against a warm cache (the
//! same switch `TENET_ISL_CACHE=off` flips), so the memo layer is
//! differentially tested too.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tenet_isl::{cache, CountStats, CounterHandle, Error, Map, Set};

/// Calls `f` on every point of the box `[lo, hi]^d`.
fn for_each_point(d: usize, lo: i64, hi: i64, mut f: impl FnMut(&[i64])) {
    let mut point = vec![lo; d];
    loop {
        f(&point);
        let mut i = 0;
        loop {
            if i == d {
                return;
            }
            point[i] += 1;
            if point[i] <= hi {
                break;
            }
            point[i] = lo;
            i += 1;
        }
    }
}

/// Brute-force points of `s` in the bounding box `[lo, hi]^d`, sorted,
/// found using only `contains_point`.
fn scan_points(s: &Set, lo: i64, hi: i64) -> Vec<Vec<i64>> {
    let mut points = Vec::new();
    for_each_point(s.n_dim(), lo, hi, |p| {
        if s.contains_point(p).unwrap() {
            points.push(p.to_vec());
        }
    });
    points.sort();
    points
}

/// Brute-force point count over the bounding box `[lo, hi]^d`.
fn count_by_points(s: &Set, lo: i64, hi: i64) -> u128 {
    scan_points(s, lo, hi).len() as u128
}

/// Serializes tests that toggle the global cache-enabled flag. A test
/// that panics while holding the lock leaves nothing half-done that a
/// later test depends on (each one sets the flag it needs), so the guard
/// of a poisoned lock is taken as it is: only the test at fault fails.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock, PoisonError};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the cache disabled, then twice against an enabled cache
/// (second run replays from the tables); returns (cold, warm-hit).
fn with_and_without_cache<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = test_lock();
    cache::set_enabled(false);
    let cold = f();
    cache::clear();
    cache::set_enabled(true);
    let _warm_miss = f();
    let warm_hit = f();
    cache::set_enabled(true);
    (cold, warm_hit)
}

/// Text of a random box over `x0..x{d-1}` with bounds in `[-5, 8]`.
fn box_strategy(d: usize) -> BoxedStrategy<String> {
    proptest::collection::vec((-5i64..=8, -5i64..=8), d).prop_map(move |bounds| {
        let dims: Vec<String> = (0..bounds.len()).map(|i| format!("x{i}")).collect();
        let cons: Vec<String> = bounds
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let (lo, hi) = (a.min(b), a.max(b));
                format!("{lo} <= x{i} and x{i} <= {hi}")
            })
            .collect();
        format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "))
    })
}

/// Appends `k` random slabs (window constraints on random directions) to a
/// box text: the multi-slab stack shapes of the new counter.
fn slab_stack_strategy(d: usize, k: usize) -> BoxedStrategy<String> {
    (
        box_strategy(d),
        proptest::collection::vec(
            (
                proptest::collection::vec(-3i64..=3, d),
                -12i64..=6,
                0i64..=16,
            ),
            k,
        ),
    )
        .prop_map(|(text, slabs)| {
            let mut t = text.trim_end_matches(" }").to_string();
            for (coefs, lo, width) in &slabs {
                let terms: Vec<String> = coefs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != 0)
                    .map(|(i, c)| format!("{c}*x{i}"))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                let e = terms.join(" + ");
                t.push_str(&format!(" and {lo} <= {e} and {e} <= {}", lo + width));
            }
            t.push_str(" }");
            t
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random box ∩ slab-stack shapes: `card` equals the enumeration
    /// oracle, cached and uncached.
    #[test]
    fn slab_stack_card_matches_oracle(text in slab_stack_strategy(3, 3)) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().card().unwrap()
        });
        let s = Set::parse(&text).unwrap();
        let oracle = count_by_points(&s, -6, 9);
        prop_assert_eq!(cold, oracle, "cold card vs oracle for {}", text);
        prop_assert_eq!(warm, oracle, "warm card vs oracle for {}", text);
    }

    /// Two-dimensional stacks hit the interval-collapse corners of the
    /// multi-slab split (every non-kept slab shares all variables).
    #[test]
    fn planar_slab_stack_card_matches_oracle(text in slab_stack_strategy(2, 2)) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().card().unwrap()
        });
        let s = Set::parse(&text).unwrap();
        let oracle = count_by_points(&s, -6, 9);
        prop_assert_eq!(cold, oracle, "cold card vs oracle for {}", text);
        prop_assert_eq!(warm, oracle, "warm card vs oracle for {}", text);
    }

    /// Random `fix` pinnings: pinning a dimension then counting agrees
    /// with the oracle of the pinned set.
    #[test]
    fn fixed_card_matches_oracle(
        text in slab_stack_strategy(3, 1),
        dim in 0usize..3,
        val in -6i64..=9,
    ) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().fix(dim, val).card().unwrap()
        });
        let fixed = Set::parse(&text).unwrap().fix(dim, val);
        let oracle = count_by_points(&fixed, -6, 9);
        prop_assert_eq!(cold, oracle, "cold fixed card for {} [x{}={}]", text, dim, val);
        prop_assert_eq!(warm, oracle, "warm fixed card for {} [x{}={}]", text, dim, val);
    }

    /// Random unions: the disjoint-decomposition count agrees with the
    /// oracle of the union.
    #[test]
    fn union_card_matches_oracle(
        a_text in slab_stack_strategy(2, 1),
        b_text in box_strategy(2),
    ) {
        let (cold, warm) = with_and_without_cache(|| {
            let a = Set::parse(&a_text).unwrap();
            let b = Set::parse(&b_text).unwrap();
            a.union(&b).unwrap().card().unwrap()
        });
        let u = Set::parse(&a_text)
            .unwrap()
            .union(&Set::parse(&b_text).unwrap())
            .unwrap();
        let oracle = count_by_points(&u, -6, 9);
        prop_assert_eq!(cold, oracle, "cold union card for {} ∪ {}", a_text, b_text);
        prop_assert_eq!(warm, oracle, "warm union card for {} ∪ {}", a_text, b_text);
    }

    /// `max_suffix_slice_card` (the max-utilization primitive) agrees with
    /// pinning every suffix value and counting separately, and
    /// `max_slice_card` (the probe path) agrees with the same loop over a
    /// seeded subset of the suffix values.
    #[test]
    fn suffix_slice_max_matches_fix_loop(
        text in slab_stack_strategy(3, 1),
        split in 1usize..3,
        pick in 0u64..u64::MAX,
    ) {
        let s = Set::parse(&text).unwrap();
        let d = s.n_dim();
        // Reference: pin every suffix assignment over the oracle window and
        // count it, then keep each suffix in the subset with probability 1/4.
        let mut expect = 0u128;
        let (mut subset, mut subset_expect) = (Vec::new(), 0u128);
        let mut rng = Rng(pick);
        for_each_point(d - split, -6, 9, |suffix| {
            let mut fixed = s.clone();
            for (i, &v) in suffix.iter().enumerate() {
                fixed = fixed.fix(split + i, v);
            }
            let n = count_by_points(&fixed, -6, 9);
            expect = expect.max(n);
            if rng.below(4) == 0 {
                subset.push(suffix.to_vec());
                subset_expect = subset_expect.max(n);
            }
        });
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().max_suffix_slice_card(split, 1 << 20).unwrap()
        });
        prop_assert_eq!(cold, expect, "cold slice max for {} split {}", text, split);
        prop_assert_eq!(warm, expect, "warm slice max for {} split {}", text, split);
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().max_slice_card(split, &subset).unwrap()
        });
        prop_assert_eq!(cold, subset_expect, "cold probe max for {} split {}", text, split);
        prop_assert_eq!(warm, subset_expect, "warm probe max for {} split {}", text, split);
    }
}

/// The slice sweep stops at the first slice that holds the whole prefix
/// projection, so a schedule whose first stamp keeps every PE busy costs
/// two counts (the bound and that slice), not one per stamp. Sets that
/// never reach the bound, or reach it only at their last stamp, still
/// give their true max.
#[test]
fn slice_max_stops_at_the_prefix_bound() {
    let max_with_dispatch = |text: &str| {
        with_dispatch(|| {
            Set::parse(text)
                .unwrap()
                .max_suffix_slice_card(1, 2000)
                .unwrap()
        })
    };
    let (max, stats) = max_with_dispatch("{ A[p, t] : 0 <= p < 4 and 0 <= t < 1000 }");
    assert_eq!(max, 4);
    assert!(stats.total() <= 2, "swept past the bound: {stats:?}");
    // Bound 5 (p in 0..=4), yet no stamp holds more than 2 points.
    let (max, _) = max_with_dispatch("{ A[p, t] : 0 <= t < 4 and t <= p <= t + 1 }");
    assert_eq!(max, 2);
    // Only the last stamp holds all 5 points of the bound.
    let (max, _) = max_with_dispatch("{ A[p, t] : 0 <= t < 5 and 0 <= p <= t }");
    assert_eq!(max, 5);
}

/// The slice counts bypass the memo but are still integer-set work, so
/// they are charged to an attached handle's cold time even when every
/// memo lookup of the sweep (the bound) is a hit.
#[test]
fn slice_counts_are_charged_as_cold_time() {
    let _guard = test_lock();
    cache::set_enabled(true);
    let s = Set::parse("{ A[p, t] : 0 <= t < 4 and t <= p <= t + 1 }").unwrap();
    s.project_out(1, 1).unwrap().card().unwrap();
    let handle = CounterHandle::new();
    let max = {
        let _attached = handle.attach();
        s.max_slice_card(1, &[vec![0], vec![3]]).unwrap()
    };
    assert_eq!(max, 2);
    assert_eq!(handle.misses(), 0);
    assert!(handle.cold_ns() > 0, "slice counts not charged");
}

/// Runs `f` with the cache off while a scoped [`CounterHandle`] is
/// attached, returning its result together with the handle's per-kind
/// dispatch stats. Unlike the process-global [`tenet_isl::fast_path_stats`],
/// the handle only sees this thread's dispatches, so the assertions stay
/// exact when the test harness runs other counting tests in parallel.
fn with_dispatch<T>(f: impl FnOnce() -> T) -> (T, CountStats) {
    let _guard = test_lock();
    cache::set_enabled(false);
    let handle = CounterHandle::new();
    let out = {
        let _attached = handle.attach();
        f()
    };
    cache::set_enabled(true);
    (out, handle.fast_path_stats())
}

/// `card()` of `text` under [`with_dispatch`].
fn card_with_dispatch(text: &str) -> (u128, CountStats) {
    with_dispatch(|| Set::parse(text).unwrap().card().unwrap())
}

/// `is_empty()` of `text` (the limited emptiness probe) under
/// [`with_dispatch`].
fn empty_with_dispatch(text: &str) -> (bool, CountStats) {
    with_dispatch(|| Set::parse(text).unwrap().is_empty().unwrap())
}

/// The k≥2 multi-slab closed form must actually be taken (not silently
/// fall back) and stay exact, for both the interval-collapse and the
/// kept-slab floor-sum shapes.
#[test]
fn multi_slab_fast_path_taken_and_exact() {
    let shapes = [
        // Shared-support pair: every slab collapses to intervals.
        "{ A[x, y] : 0 <= x < 25 and 0 <= y < 25 \
         and 4 <= x + y and x + y <= 30 and -10 <= x - 2y and x - 2y <= 10 }",
        // Chain x+y, y+z: one kept slab closes with floor-sums.
        "{ A[x, y, z] : 0 <= x < 18 and 0 <= y < 18 and 0 <= z < 18 \
         and 5 <= x + y and x + y <= 24 and 3 <= y + z and y + z <= 27 }",
        // Three directions over three dims.
        "{ A[x, y, z] : 0 <= x < 12 and 0 <= y < 12 and 0 <= z < 12 \
         and 2 <= x + y and x + y <= 18 and 1 <= y + z and y + z <= 19 \
         and 0 <= x + z and x + z <= 16 }",
    ];
    for text in shapes {
        let (card, stats) = card_with_dispatch(text);
        let s = Set::parse(text).unwrap();
        assert_eq!(card, count_by_points(&s, -1, 27), "{text}");
        assert!(
            stats.multi_slab_counts + stats.coupled_slab_counts > 0,
            "multi-slab path not taken for {text}: {stats:?}"
        );
    }
    // Boxes too wide for the brute-force window above; the counts come
    // from a direct enumeration of each box.
    let known: [(&str, u128); 3] = [
        (
            "{ A[x, y, z] : 0 <= x < 60 and 0 <= y < 60 and 0 <= z < 60 \
             and 20 <= x + y and x + y <= 70 and 15 <= y + z and y + z <= 80 }",
            109_459,
        ),
        (
            "{ A[x, y, z] : 0 <= x < 40 and 0 <= y < 40 and 0 <= z < 40 \
             and 10 <= x + y and x + y <= 60 and 5 <= y + z and y + z <= 70 \
             and 0 <= x + z and x + z <= 50 }",
            41_553,
        ),
        (
            "{ A[x, y, z, w] : 0 <= x < 30 and 0 <= y < 30 and 0 <= z < 30 and 0 <= w < 30 \
             and 10 <= x + y and x + y <= 40 and 5 <= z + w and z + w <= 45 }",
            535_156,
        ),
    ];
    for (text, expect) in known {
        let (card, stats) = card_with_dispatch(text);
        assert_eq!(card, expect, "{text}");
        assert!(
            stats.multi_slab_counts + stats.coupled_slab_counts > 0,
            "multi-slab path not taken for {text}: {stats:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded generative corpus
//
// A hand-rolled splitmix64 stream (not proptest) drives these so a failing
// case reproduces exactly from the seed printed in the panic message:
//
//     TENET_ORACLE_SEED=0x1234 cargo test -p tenet-isl --test oracle
//
// Five shape classes — window, box, slab, coupled-slab, pair-chain — are
// generated over 1–5 dimensions with the bounding window shrunk as the
// dimension grows (the brute-force oracle scans the full window). Every
// case checks `card` and `points` against the `scan_points` scan cold
// (cache off) and warm (second run against populated tables). The `wide`
// class puts i64-extreme bounds and one i64-extreme coefficient on sets
// that stay inside the window, and the `wide-eq` class an equality whose
// substitution multiplies two i64-extreme coefficients; there `card` and
// `points` may also refuse with a structured error, but never return
// another answer. `TENET_ORACLE_DEEP=1` grows the corpus from 64 to 500
// cases per class (the CI oracle-deep job), and so it does for the
// `compose` and `reuse` classes below.
// ---------------------------------------------------------------------------

/// splitmix64: tiny, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// A nonzero coefficient in `[-bound, bound]`.
    fn coef(&mut self, bound: i64) -> i64 {
        loop {
            let c = self.range(-bound, bound);
            if c != 0 {
                return c;
            }
        }
    }
}

fn corpus_seed() -> u64 {
    match std::env::var("TENET_ORACLE_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(h) => u64::from_str_radix(h, 16).ok(),
                None => v.parse().ok(),
            };
            parsed.unwrap_or_else(|| panic!("unparseable TENET_ORACLE_SEED: {v:?}"))
        }
        Err(_) => 0xC0FF_EE5E_EDC0_FFEE,
    }
}

fn corpus_cases() -> usize {
    match std::env::var("TENET_ORACLE_DEEP") {
        Ok(v) if !v.is_empty() && v != "0" => 500,
        _ => 64,
    }
}

/// Brute-force window per dimension count: higher dimensions scan a
/// smaller box so the oracle stays cheap (7^5 points at d = 5).
fn window_for(d: usize) -> (i64, i64) {
    match d {
        0..=2 => (-6, 9),
        3 => (-4, 7),
        4 => (-3, 5),
        _ => (-2, 4),
    }
}

/// Random box text over `d` dims with bounds inside the oracle window.
/// One case in 16 deliberately inverts a dimension's bounds to cover the
/// empty-set corners of every fast path.
fn gen_box(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let invert = if rng.below(16) == 0 {
        Some(rng.below(d as u64) as usize)
    } else {
        None
    };
    let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
    let cons: Vec<String> = (0..d)
        .map(|i| {
            let a = rng.range(wlo, whi);
            let b = rng.range(wlo, whi);
            let (mut lo, mut hi) = (a.min(b), a.max(b));
            if invert == Some(i) && lo != hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            format!("{lo} <= x{i} and x{i} <= {hi}")
        })
        .collect();
    format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "))
}

/// Appends extra `and …` constraints to a box text.
fn with_extra(base: String, extra: &[String]) -> String {
    let mut t = base.trim_end_matches(" }").to_string();
    for e in extra {
        t.push_str(" and ");
        t.push_str(e);
    }
    t.push_str(" }");
    t
}

/// A linear expression over a subset of the dims (at least one term).
fn gen_dir(rng: &mut Rng, dims: &[usize]) -> String {
    let k = 1 + rng.below(dims.len() as u64) as usize;
    let terms: Vec<String> = dims[..k]
        .iter()
        .map(|&v| format!("{}*x{v}", rng.coef(3)))
        .collect();
    terms.join(" + ")
}

/// Slab constraint `lo <= e <= lo + width` (or a single halfspace).
fn gen_slab_on(rng: &mut Rng, e: &str) -> String {
    let lo = rng.range(-12, 6);
    if rng.below(4) == 0 {
        format!("{e} <= {}", lo + rng.range(0, 16))
    } else {
        format!("{lo} <= {e} and {e} <= {}", lo + rng.range(0, 16))
    }
}

fn gen_window_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let n = 1 + rng.below(2);
    let extra: Vec<String> = (0..n)
        .map(|_| {
            let terms: Vec<String> = (0..d)
                .filter_map(|v| {
                    let c = rng.range(0, 3);
                    (c != 0 || v == 0).then(|| format!("{}*x{v}", c.max(1)))
                })
                .collect();
            let m = rng.range(2, 5);
            let r = rng.range(0, m - 1);
            format!("({}) mod {m} <= {r}", terms.join(" + "))
        })
        .collect();
    with_extra(base, &extra)
}

fn gen_slab_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let dims: Vec<usize> = (0..d).collect();
    let e = gen_dir(rng, &dims);
    let slab = gen_slab_on(rng, &e);
    with_extra(base, &[slab])
}

/// Two-plus slab directions, half the time on disjoint variable subsets
/// (the coupled-slab split where both slabs survive the pinning).
fn gen_coupled_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let all: Vec<usize> = (0..d).collect();
    let mut extra = Vec::new();
    if d >= 4 && rng.below(2) == 0 {
        let cut = d / 2;
        let (e1, e2) = (gen_dir(rng, &all[..cut]), gen_dir(rng, &all[cut..]));
        extra.push(gen_slab_on(rng, &e1));
        extra.push(gen_slab_on(rng, &e2));
    } else {
        let k = 2 + rng.below(2);
        for _ in 0..k {
            let e = gen_dir(rng, &all);
            extra.push(gen_slab_on(rng, &e));
        }
    }
    with_extra(base, &extra)
}

/// A random forest of two-variable rows: each dim optionally links back
/// to an earlier dim with a slab or halfspace on `a*xi + b*xj`.
fn gen_chain_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let mut extra = Vec::new();
    for j in 1..d {
        if rng.below(4) < 3 {
            let i = rng.below(j as u64) as usize;
            let e = format!("{}*x{i} + {}*x{j}", rng.coef(3), rng.coef(3));
            extra.push(gen_slab_on(rng, &e));
        }
    }
    with_extra(base, &extra)
}

/// i64-extreme rows around a small set. Every variable after the first
/// carries single-variable bounds at i64 extremes and is capped by a
/// two-variable row against an earlier, already small one, so all points
/// lie in the scan window. Extra two-variable slabs add directions (past
/// the slab counter's cap, into bound propagation), and one row carries an
/// i64-extreme coefficient.
fn gen_wide_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    const HUGE: [i64; 4] = [i64::MAX, i64::MAX - 1, 1 << 62, (1 << 62) + 12_345];
    let huge = |rng: &mut Rng| HUGE[rng.below(4) as usize];
    let lo = rng.range(wlo, whi);
    let mut range = vec![(lo, rng.range(lo, whi))];
    let mut cons = vec![format!("{lo} <= x0 and x0 <= {}", range[0].1)];
    for i in 1..d {
        let j = rng.below(i as u64) as usize;
        let (jlo, jhi) = range[j];
        // x_i - x_j in [dlo, dhi] keeps x_i inside the window.
        let dlo = rng.range(wlo - jlo, 0);
        let dhi = rng.range(dlo, whi - jhi);
        range.push((jlo + dlo, jhi + dhi));
        cons.push(format!("{} <= x{i} and x{i} <= {}", -huge(rng), huge(rng)));
        cons.push(format!("{dlo} <= x{i} - x{j} and x{i} - x{j} <= {dhi}"));
    }
    for _ in 0..rng.below(5) {
        let (i, j) = (rng.below(d as u64), rng.below(d as u64));
        if i != j {
            let e = format!("{}*x{i} + {}*x{j}", rng.coef(3), rng.coef(3));
            cons.push(gen_slab_on(rng, &e));
        }
    }
    let p = rng.below(d as u64);
    let q = (p + 1 + rng.below(d as u64 - 1)) % d as u64;
    let sign = if rng.below(2) == 0 { 1 } else { -1 };
    cons.push(format!(
        "{}*x{p} + {}*x{q} >= {}",
        sign * huge(rng),
        rng.coef(3),
        rng.range(-3, 3)
    ));
    let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
    format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "))
}

/// An equality whose unit-pivot substitution multiplies two i64-extreme
/// coefficients, as in `substituted_equalities_count_exactly_or_refuse`:
/// `x - y + H·z = c` with `z` confined to `{0, 1}` and every other dim
/// boxed in the window, so `z = 1` puts `x - y` far outside it and every
/// point lies in it. A second row weights `x` by another extreme `H2`
/// (and `y` by `-H2` or a small coefficient); one case in two adds a slab
/// on two dims.
fn gen_wide_eq_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    const HUGE: [i64; 4] = [1 << 32, 3 << 40, 1 << 62, i64::MAX];
    let huge = |rng: &mut Rng| HUGE[rng.below(4) as usize];
    let x = rng.below(d as u64) as usize;
    let y = (x + 1 + rng.below(d as u64 - 1) as usize) % d;
    let z = (0..d).find(|&v| v != x && v != y).unwrap();
    let mut cons: Vec<String> = (0..d)
        .map(|v| {
            let (a, b) = if v == z {
                (0, 1)
            } else {
                (rng.range(wlo, whi), rng.range(wlo, whi))
            };
            format!("{} <= x{v} <= {}", a.min(b), a.max(b))
        })
        .collect();
    let h2 = if rng.below(2) == 0 {
        huge(rng)
    } else {
        -huge(rng)
    };
    let y_coef = if rng.below(2) == 0 { -h2 } else { rng.coef(3) };
    cons.push(format!(
        "x{x} - x{y} + {}*x{z} = {}",
        huge(rng),
        rng.range(-2, 2)
    ));
    cons.push(format!(
        "{h2}*x{x} + {y_coef}*x{y} + {}*x{z} >= {}",
        rng.coef(3),
        rng.range(-3, 3)
    ));
    if rng.below(2) == 0 {
        let i = rng.below(d as u64) as usize;
        let j = (i + 1 + rng.below(d as u64 - 1) as usize) % d;
        let e = format!("{}*x{i} + {}*x{j}", rng.coef(3), rng.coef(3));
        cons.push(gen_slab_on(rng, &e));
    }
    let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
    format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "))
}

/// Differentially checks every generated case against the `contains_point`
/// scan of the full window: `card` must equal the scan's count and
/// `points` its points, cold and warm. With `may_refuse`, `card` may
/// instead fail with `Overflow` or `TooComplex`, and `points` with those
/// or `Unbounded`.
fn run_corpus(
    class: &str,
    min_d: usize,
    may_refuse: bool,
    gen: impl Fn(&mut Rng, usize, i64, i64) -> String,
) {
    let seed = corpus_seed();
    let cases = corpus_cases();
    let mut h = DefaultHasher::new();
    class.hash(&mut h);
    let mut rng = Rng(seed ^ h.finish());
    for case in 0..cases {
        let d = rng.range(min_d as i64, 5) as usize;
        let (wlo, whi) = window_for(d);
        let text = gen(&mut rng, d, wlo, whi);
        let tag = format!("[{class} seed={seed:#x} case={case}]");
        let s = Set::parse(&text).unwrap_or_else(|e| panic!("{tag} parse {text}: {e}"));
        let oracle = scan_points(&s, wlo, whi);
        let (cold, warm) = with_and_without_cache(|| {
            let s = Set::parse(&text).unwrap();
            (s.card(), s.points(1 << 16))
        });
        for (run, (card, points)) in [("cold", cold), ("warm", warm)] {
            match card {
                Ok(c) => assert_eq!(c, oracle.len() as u128, "{tag} {run} card for {text}"),
                Err(Error::Overflow | Error::TooComplex(_)) if may_refuse => {}
                Err(e) => panic!("{tag} {run} card {text}: {e}"),
            }
            match points {
                Ok(p) => assert_eq!(p, oracle, "{tag} {run} points for {text}"),
                Err(Error::Overflow | Error::TooComplex(_) | Error::Unbounded(_)) if may_refuse => {
                }
                Err(e) => panic!("{tag} {run} points {text}: {e}"),
            }
        }
    }
}

#[test]
fn corpus_box() {
    run_corpus("box", 1, false, gen_box);
}

#[test]
fn corpus_window() {
    run_corpus("window", 1, false, gen_window_case);
}

#[test]
fn corpus_slab() {
    run_corpus("slab", 2, false, gen_slab_case);
}

#[test]
fn corpus_coupled_slab() {
    run_corpus("coupled-slab", 2, false, gen_coupled_case);
}

#[test]
fn corpus_pair_chain() {
    run_corpus("pair-chain", 2, false, gen_chain_case);
}

#[test]
fn corpus_wide() {
    run_corpus("wide", 2, true, gen_wide_case);
}

#[test]
fn corpus_wide_eq() {
    run_corpus("wide-eq", 3, true, gen_wide_eq_case);
}

// ---------------------------------------------------------------------------
// Composition corpus
//
// `apply_range` composes a left disjunct that is the graph of an affine
// function of its inputs by substitution, and everything else by
// projection. The left maps here are such graphs — translations,
// permutations and unit-output skews, solved in a triangular order so the
// oracle can invert them by plain arithmetic — with optional input-only
// bounds and equalities. One case in three is a near miss that must stay
// on the projection path: a ±2 output coefficient, an inequality on an
// output, or a div (in an output definition or an input constraint). The
// right maps are window, slab and coupled-slab sets split into input and
// output dims, some with a `mod` output and a `floor` constraint. The
// oracle scans the right map's window with `contains_point`, inverts the
// left map per point, and compares the result with `card` and `points` of
// the composition, cold and warm.
// ---------------------------------------------------------------------------

/// A generated left map `P[x] -> B[y]`, solvable for `x` given `y`: input
/// `x_j` (for `j < k`) defines output `perm[j]` through
/// `scale_j·y_perm[j] = x_j + Σ skew_j[i]·x_i + shift_j [+ floor(x_e / 2)]`,
/// where every `x_i` on the right was solved earlier (the extra input
/// `x_k`, when present, comes first and is enumerated over its bounds).
struct LeftCase {
    text: String,
    k: usize,
    extra: Option<(i64, i64)>,
    perm: Vec<usize>,
    scale: Vec<i64>,
    /// `(input, coefficient)` terms per definition.
    skew: Vec<Vec<(usize, i64)>>,
    shift: Vec<i64>,
    /// The input whose `floor(x / 2)` joins definition `j` (near miss).
    floor_term: Vec<Option<usize>>,
    /// Input-only constraints plus the output inequality near miss.
    checks: Vec<Check>,
}

/// A constraint of a generated left map, as a predicate over `(x, y)`.
type Check = Box<dyn Fn(&[i64], &[i64]) -> bool>;

fn gen_left(rng: &mut Rng, k: usize) -> LeftCase {
    let n = if rng.below(3) == 0 { k + 1 } else { k };
    let extra = (n > k).then(|| {
        let lo = rng.range(-2, 1);
        (lo, lo + rng.range(0, 2))
    });
    // 0: function graph; 1: ±2 output coefficient; 2: output inequality;
    // 3: floor in an output definition; 4: mod constraint on the inputs.
    let miss = if rng.below(3) == 0 {
        rng.range(1, 4)
    } else {
        0
    };
    let mut perm: Vec<usize> = (0..k).collect();
    for j in (1..k).rev() {
        perm.swap(j, rng.below(j as u64 + 1) as usize);
    }
    let earlier = |j: usize| -> Vec<usize> { (0..j).chain((n > k).then_some(k)).collect() };
    let miss_at = rng.below(k as u64) as usize;
    let mut case = LeftCase {
        text: String::new(),
        k,
        extra,
        perm,
        scale: Vec::new(),
        skew: Vec::new(),
        shift: Vec::new(),
        floor_term: Vec::new(),
        checks: Vec::new(),
    };
    let mut cons = Vec::new();
    for j in 0..k {
        let sign = if rng.below(2) == 0 { 1 } else { -1 };
        let scale = if miss == 1 && j == miss_at {
            2 * sign
        } else {
            sign
        };
        // Each earlier input joins the definition with probability 1/2;
        // definitions without one are translations (permuted by `perm`).
        let mut skew = Vec::new();
        for i in earlier(j) {
            if rng.below(2) == 0 {
                skew.push((i, rng.coef(2)));
            }
        }
        let shift = rng.range(-3, 3);
        let floor_term = (miss == 3 && j == miss_at)
            .then(|| earlier(j).first().copied())
            .flatten();
        let terms: String = skew.iter().map(|(i, c)| format!(" + {c}*x{i}")).collect();
        let mut rhs = format!("x{j}{terms} + {shift}");
        if let Some(e) = floor_term {
            rhs.push_str(&format!(" + floor(x{e} / 2)"));
        }
        cons.push(format!("{scale}*y{} = {rhs}", case.perm[j]));
        case.scale.push(scale);
        case.skew.push(skew);
        case.shift.push(shift);
        case.floor_term.push(floor_term);
    }
    if let Some((lo, hi)) = extra {
        cons.push(format!("{lo} <= x{k} and x{k} <= {hi}"));
    }
    if miss == 2 {
        let (p, i, c) = (
            rng.below(k as u64) as usize,
            rng.below(n as u64) as usize,
            rng.range(-2, 4),
        );
        cons.push(format!("y{p} <= x{i} + {c}"));
        case.checks.push(Box::new(move |x, y| y[p] <= x[i] + c));
    }
    if miss == 4 {
        let (i, m) = (rng.below(n as u64) as usize, rng.range(2, 3));
        let r = rng.range(0, m - 1);
        cons.push(format!("(x{i}) mod {m} <= {r}"));
        case.checks
            .push(Box::new(move |x, _| x[i].rem_euclid(m) <= r));
    }
    if rng.below(2) == 0 {
        let (i, lo) = (rng.below(n as u64) as usize, rng.range(-8, 0));
        let hi = lo + rng.range(4, 12);
        cons.push(format!("{lo} <= x{i} and x{i} <= {hi}"));
        case.checks
            .push(Box::new(move |x, _| lo <= x[i] && x[i] <= hi));
    }
    if n >= 2 && rng.below(4) == 0 {
        let (a, b, c) = (rng.coef(2), rng.coef(2), rng.range(-4, 4));
        cons.push(format!("{a}*x0 + {b}*x1 = {c}"));
        case.checks
            .push(Box::new(move |x, _| a * x[0] + b * x[1] == c));
    }
    let xs: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
    let ys: Vec<String> = (0..k).map(|i| format!("y{i}")).collect();
    case.text = format!(
        "{{ P[{}] -> B[{}] : {} }}",
        xs.join(", "),
        ys.join(", "),
        cons.join(" and ")
    );
    case
}

impl LeftCase {
    /// Every `x` with `(x, y)` in the left map, by triangular solving.
    fn preimages(&self, y: &[i64]) -> Vec<Vec<i64>> {
        let k = self.k;
        let extras: Vec<Option<i64>> = match self.extra {
            Some((lo, hi)) => (lo..=hi).map(Some).collect(),
            None => vec![None],
        };
        let mut out = Vec::new();
        'extra: for e in extras {
            let mut x = vec![0i64; k];
            x.extend(e);
            for j in 0..k {
                let mut v = self.scale[j] * y[self.perm[j]] - self.shift[j];
                for &(i, c) in &self.skew[j] {
                    v -= c * x[i];
                }
                if let Some(i) = self.floor_term[j] {
                    v -= x[i].div_euclid(2);
                }
                x[j] = v;
            }
            for check in &self.checks {
                if !check(&x, y) {
                    continue 'extra;
                }
            }
            out.push(x);
        }
        out
    }
}

/// A window, slab or coupled-slab set over `k + kz` dims, split into a map
/// `B[first k] -> C[rest]`, optionally with an extra `mod` output `w` and
/// a `floor` constraint. Returns the text and the number of `w` values.
fn gen_right(rng: &mut Rng, k: usize, kz: usize, wlo: i64, whi: i64) -> (String, i64) {
    let d = k + kz;
    let set = match rng.below(3) {
        0 => gen_window_case(rng, d, wlo, whi),
        1 => gen_slab_case(rng, d, wlo, whi),
        _ => gen_coupled_case(rng, d, wlo, whi),
    };
    let cons = set.split_once(" : ").unwrap().1.trim_end_matches(" }");
    let ins: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
    let mut outs: Vec<String> = (k..d).map(|i| format!("x{i}")).collect();
    let mut extra = String::new();
    let mut w_values = 1;
    if rng.below(2) == 0 {
        let m = rng.range(2, 3);
        let dims: Vec<usize> = (0..d).collect();
        extra.push_str(&format!(
            " and w = ({}) mod {m} and 0 <= w < {m}",
            gen_dir(rng, &dims)
        ));
        outs.push("w".into());
        w_values = m;
    }
    if rng.below(3) == 0 {
        let (i, m) = (rng.below(d as u64) as usize, rng.range(2, 3));
        extra.push_str(&format!(
            " and floor((x{i} + {}) / {m}) <= {}",
            rng.range(0, 2),
            rng.range(-1, 2)
        ));
    }
    let text = format!(
        "{{ B[{}] -> C[{}] : {cons}{extra} }}",
        ins.join(", "),
        outs.join(", ")
    );
    (text, w_values)
}

/// Every point of `m` (in ++ out) inside `[lo, hi]^d × [0, w_values)`,
/// where the last factor is the optional `w` output.
fn scan_map(m: &Map, d: usize, w_values: i64, lo: i64, hi: i64) -> Vec<Vec<i64>> {
    let with_w = m.n_in() + m.n_out() > d;
    let mut found = Vec::new();
    for_each_point(d, lo, hi, |point| {
        for w in 0..w_values {
            let mut p = point.to_vec();
            if with_w {
                p.push(w);
            }
            if m.contains_point(&p).unwrap() {
                found.push(p);
            }
        }
    });
    found
}

#[test]
fn corpus_compose() {
    let class = "compose";
    let seed = corpus_seed();
    let mut h = DefaultHasher::new();
    class.hash(&mut h);
    let mut rng = Rng(seed ^ h.finish());
    for case in 0..corpus_cases() {
        let k = rng.range(1, 3) as usize;
        let kz = rng.range(1, 4 - k as i64) as usize;
        let (wlo, whi) = window_for(k + kz);
        let left = gen_left(&mut rng, k);
        // Redraw an empty right map up to twice: empties stay a corner
        // case instead of a third of the corpus.
        let mut attempt = 0;
        let (right, scanned) = loop {
            let (right, w_values) = gen_right(&mut rng, k, kz, wlo, whi);
            let r = Map::parse(&right).unwrap_or_else(|e| panic!("[{class}] parse {right}: {e}"));
            let scanned = scan_map(&r, k + kz, w_values, wlo, whi);
            attempt += 1;
            if !scanned.is_empty() || attempt == 3 {
                break (right, scanned);
            }
        };
        let tag = format!(
            "[{class} seed={seed:#x} case={case}] {} . {right}",
            left.text
        );
        let mut expect = std::collections::BTreeSet::new();
        for p in scanned {
            for x in left.preimages(&p[..k]) {
                expect.insert([&x[..], &p[k..]].concat());
            }
        }
        let expect: Vec<Vec<i64>> = expect.into_iter().collect();
        let (cold, warm) = with_and_without_cache(|| {
            let l = Map::parse(&left.text).unwrap();
            let c = l
                .apply_range(&Map::parse(&right).unwrap())
                .unwrap_or_else(|e| panic!("{tag}: apply_range: {e}"));
            let card = c.card().unwrap_or_else(|e| panic!("{tag}: card: {e}"));
            let points = c
                .points(1 << 20)
                .unwrap_or_else(|e| panic!("{tag}: points: {e}"));
            (card, points)
        });
        for (run, (card, points)) in [("cold", cold), ("warm", warm)] {
            assert_eq!(card, expect.len() as u128, "{tag}: {run} card");
            assert_eq!(points, expect, "{tag}: {run} points");
        }
    }
}

// ---------------------------------------------------------------------------
// Reuse corpus
//
// `Map::reuse_card(moves)` counts `f ∩ moves⁻¹ . f`, TENET's reuse relation
// for a data assignment `f` and a spacetime map `moves`, as one memoized
// operation. Here `f` is a single-disjunct function graph `ST[x] -> A[y]`
// over a box, half the time cut by one more inequality, each output affine
// in `x` and one in three also carrying a `floor(x_i / m)` or `x_i mod m`
// term, and `moves` a union of one to four distinct nonzero translations
// of `ST`. Over a bare box an affine `f` counts the same with `moves` and
// with its reverse (the box is centrally symmetric), so the cut is what
// tells a predecessor from a successor. The oracle scans the domain with
// `contains_point` only: the pair `(x, f(x))` is reused when some
// translation `o` puts `(x - o, f(x))` in `f` as well.
// ---------------------------------------------------------------------------

/// One output of a generated function graph: `shift + Σ coefs_i·x_i`,
/// plus `floor(x_i / m)` or, when the flag is set, `x_i mod m`.
struct ReuseOut {
    shift: i64,
    coefs: Vec<i64>,
    div: Option<(usize, i64, bool)>,
}

impl ReuseOut {
    fn gen(rng: &mut Rng, d: usize) -> ReuseOut {
        // Half the inputs drop out of each output, as loop indices do out
        // of an access, so translations along them reuse.
        let coefs = (0..d)
            .map(|_| if rng.below(2) == 0 { 0 } else { rng.coef(2) })
            .collect();
        let div = (rng.below(3) == 0).then(|| {
            let i = rng.below(d as u64) as usize;
            (i, rng.range(2, 3), rng.below(2) == 0)
        });
        ReuseOut {
            shift: rng.range(-3, 3),
            coefs,
            div,
        }
    }

    fn eval(&self, x: &[i64]) -> i64 {
        let linear: i64 = self.coefs.iter().zip(x).map(|(c, v)| c * v).sum();
        let div = match self.div {
            Some((i, m, false)) => x[i].div_euclid(m),
            Some((i, m, true)) => x[i].rem_euclid(m),
            None => 0,
        };
        self.shift + linear + div
    }

    fn text(&self) -> String {
        let mut t = self.shift.to_string();
        for (i, c) in self.coefs.iter().enumerate().filter(|(_, c)| **c != 0) {
            t.push_str(&format!(" + {c}*x{i}"));
        }
        match self.div {
            Some((i, m, false)) => t.push_str(&format!(" + floor(x{i} / {m})")),
            Some((i, m, true)) => t.push_str(&format!(" + (x{i}) mod {m}")),
            None => {}
        }
        t
    }
}

#[test]
fn corpus_reuse() {
    let class = "reuse";
    let seed = corpus_seed();
    let mut h = DefaultHasher::new();
    class.hash(&mut h);
    let mut rng = Rng(seed ^ h.finish());
    // Every box below lies in [-3, 7]^d.
    let (wlo, whi) = (-3, 7);
    for case in 0..corpus_cases() {
        let d = rng.range(1, 3) as usize;
        let bounds: Vec<(i64, i64)> = (0..d)
            .map(|_| {
                let lo = rng.range(wlo, 2);
                (lo, lo + rng.range(1, 5))
            })
            .collect();
        // A cut `Σ c_i·x_i <= k` through the box's middle.
        let cut = (rng.below(2) == 0).then(|| {
            let c: Vec<i64> = (0..d).map(|_| rng.range(-2, 2)).collect();
            let mid: i64 = c
                .iter()
                .zip(&bounds)
                .map(|(c, (lo, hi))| c * (lo + hi) / 2)
                .sum();
            (c, mid + rng.range(-1, 1))
        });
        let in_cut = |x: &[i64]| {
            cut.as_ref()
                .is_none_or(|(c, k)| c.iter().zip(x).map(|(c, v)| c * v).sum::<i64>() <= *k)
        };
        let outs: Vec<ReuseOut> = (0..rng.range(1, 2))
            .map(|_| ReuseOut::gen(&mut rng, d))
            .collect();
        let n_moves = rng.range(1, 4) as usize;
        let mut offsets: Vec<Vec<i64>> = Vec::new();
        while offsets.len() < n_moves {
            let o: Vec<i64> = (0..d)
                .map(|_| if rng.below(2) == 0 { 0 } else { rng.coef(2) })
                .collect();
            // A spacetime map never moves a stamp onto itself.
            if o.iter().any(|&v| v != 0) && !offsets.contains(&o) {
                offsets.push(o);
            }
        }
        let xs: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
        let ys: Vec<String> = outs.iter().map(ReuseOut::text).collect();
        let mut cons: Vec<String> = bounds
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| format!("{lo} <= x{i} and x{i} <= {hi}"))
            .collect();
        if let Some((c, k)) = &cut {
            let terms: Vec<String> = c
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c}*x{i}"))
                .collect();
            cons.push(format!("{} <= {k}", terms.join(" + ")));
        }
        let f_text = format!(
            "{{ ST[{}] -> A[{}] : {} }}",
            xs.join(", "),
            ys.join(", "),
            cons.join(" and ")
        );
        let moved: Vec<String> = offsets
            .iter()
            .map(|o| {
                let to: Vec<String> = o
                    .iter()
                    .enumerate()
                    .map(|(i, v)| format!("x{i} + {v}"))
                    .collect();
                format!("ST[{}] -> ST[{}]", xs.join(", "), to.join(", "))
            })
            .collect();
        let moves_text = format!("{{ {} }}", moved.join("; "));
        let tag = format!("[{class} seed={seed:#x} case={case}] {f_text} with {moves_text}");
        let f = Map::parse(&f_text).unwrap_or_else(|e| panic!("{tag}: parse: {e}"));
        let mut expect = 0u128;
        for_each_point(d, wlo, whi, |x| {
            if x.iter().zip(&bounds).any(|(v, (lo, hi))| v < lo || v > hi) || !in_cut(x) {
                return;
            }
            let y: Vec<i64> = outs.iter().map(|o| o.eval(x)).collect();
            let pair = |x: &[i64]| f.contains_point(&[x, &y[..]].concat()).unwrap();
            assert!(pair(x), "{tag}: the graph misses {x:?} -> {y:?}");
            let reused = offsets.iter().any(|o| {
                let from: Vec<i64> = x.iter().zip(o).map(|(v, d)| v - d).collect();
                pair(&from)
            });
            expect += u128::from(reused);
        });
        let (cold, warm) = with_and_without_cache(|| {
            let f = Map::parse(&f_text).unwrap();
            f.reuse_card(&Map::parse(&moves_text).unwrap())
        });
        for (run, count) in [("cold", cold), ("warm", warm)] {
            let count = count.unwrap_or_else(|e| panic!("{tag}: {run} reuse_card: {e}"));
            assert_eq!(count, expect, "{tag}: {run} reuse_card");
        }
    }
}

// ---------------------------------------------------------------------------
// i64-extreme constants: the counters must either produce the exact value
// or report a structured error (Overflow / TooComplex / Unbounded) — never
// panic, wrap, or disagree between cold and warm runs.
// ---------------------------------------------------------------------------

#[test]
fn extreme_constants_known_values() {
    const M: u128 = 2_000_000_000_000_000_000;
    let cases: [(&str, u128); 4] = [
        // Full symmetric i64-width interval: 2^64 - 1 points.
        (
            "{ A[x] : -9223372036854775807 <= x <= 9223372036854775807 }",
            u64::MAX as u128,
        ),
        // Near-max box times a small factor.
        (
            "{ A[x, y] : 0 <= x <= 9223372036854775806 and 0 <= y <= 1 }",
            ((1u128 << 63) - 1) * 2,
        ),
        // Huge-slope pair series: y ≤ M·x over x ∈ [0, 9] sums to 45M+10,
        // far beyond any enumerable range.
        (
            "{ A[x, y] : 0 <= x <= 9 and 0 <= y and 2000000000000000000*x - y >= 0 }",
            45 * M + 10,
        ),
        // Triangle with a 2^31-wide leg: closed form, no enumeration.
        (
            "{ A[x, y] : 0 <= x <= 2147483647 and 0 <= y and x - y >= 0 }",
            (1u128 << 31) * ((1u128 << 31) + 1) / 2,
        ),
    ];
    for (text, expect) in cases {
        let (cold, warm) = with_and_without_cache(|| Set::parse(text).unwrap().card().unwrap());
        assert_eq!(cold, expect, "cold {text}");
        assert_eq!(warm, expect, "warm {text}");
    }
}

#[test]
fn extreme_constants_never_panic_and_agree() {
    let seed = corpus_seed();
    let mut rng = Rng(seed ^ 0xE17E_4E5E);
    let cases = corpus_cases().min(200);
    let extremes: [i64; 8] = [
        i64::MAX,
        i64::MIN + 1,
        1 << 62,
        -(1 << 62),
        (1 << 62) + 12_345,
        i64::MAX - 1,
        1 << 45,
        -(1 << 45),
    ];
    for case in 0..cases {
        let d = rng.range(1, 3) as usize;
        let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
        let mut cons = Vec::new();
        for i in 0..d {
            // Either a tiny window or an astronomically wide one: wide
            // ranges must be rejected structurally (TooComplex/Overflow),
            // not ground through enumeration.
            if rng.below(2) == 0 {
                let lo = rng.range(-4, 2);
                cons.push(format!("{lo} <= x{i} and x{i} <= {}", lo + rng.range(0, 5)));
            } else {
                let hi = extremes[rng.below(8) as usize].max(2);
                cons.push(format!("0 <= x{i} and x{i} <= {hi}"));
            }
        }
        if d >= 2 {
            let a = extremes[rng.below(8) as usize];
            cons.push(format!("{a}*x0 + {}*x1 <= {a}", rng.coef(3)));
        }
        let text = format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "));
        let (cold, warm) = with_and_without_cache(|| Set::parse(&text).unwrap().card());
        assert_eq!(
            cold, warm,
            "[extreme seed={seed:#x} case={case}] cold and warm must agree for {text}"
        );
    }
}

/// Five variables whose last row weights `x0..x2` by `m`; with `m` at
/// i64::MAX, bound propagation sums `m·m` products past i128. Eight slab
/// directions exceed the slab counter's cap, so counting reaches that
/// propagation. Every point has `x_i <= w <= 3` and `z <= 10`.
fn wrapped_sum_text(m: i64) -> String {
    format!(
        "{{ A[x0, x1, x2, w, z] : 0 <= x0 <= {m} and 0 <= x1 <= {m} and 0 <= x2 <= {m} \
         and 0 <= w <= 3 and x0 <= w and x1 <= w and x2 <= w and 0 <= z <= 10 \
         and x0 + x1 <= 100 and x0 + x2 <= 100 and x1 + x2 <= 100 and x0 - x1 <= 100 \
         and {m}*x0 + {m}*x1 + {m}*x2 - z >= 0 }}"
    )
}

#[test]
fn wrapped_bound_sum_never_counts_wrong() {
    let small = Set::parse(&wrapped_sum_text(1_000_000)).unwrap();
    assert_eq!(count_by_points(&small, 0, 10), 1060);
    assert_eq!(small.card().unwrap(), 1060);
    let text = wrapped_sum_text(i64::MAX);
    assert_eq!(count_by_points(&Set::parse(&text).unwrap(), 0, 10), 1060);
    let (cold, warm) = with_and_without_cache(|| {
        let s = Set::parse(&text).unwrap();
        (s.card(), s.points(1 << 20).map(|p| p.len()))
    });
    for (run, (card, points)) in [("cold", cold), ("warm", warm)] {
        assert!(
            matches!(card, Ok(1060) | Err(Error::Overflow)),
            "{run} card: {card:?}"
        );
        assert!(
            matches!(points, Ok(1060) | Err(Error::Overflow)),
            "{run} points: {points:?}"
        );
    }
}

#[test]
fn wrapped_bound_sum_leaves_dim_bounds_exact() {
    let m = i64::MAX;
    let s = Set::parse(&format!(
        "{{ A[x0, x1, x2, z] : 0 <= x0 <= {m} and 0 <= x1 <= {m} and 0 <= x2 <= {m} \
         and 0 <= z <= 10 and {m}*x0 + {m}*x1 + {m}*x2 - z >= 0 }}"
    ))
    .unwrap();
    assert_eq!(s.dim_bounds(3).unwrap(), (0, 10));
}

// ---------------------------------------------------------------------------
// Row arithmetic at i64 extremes: each input below once produced a wrong
// count, a wrong `contains_point`, a misclassified error or a debug-build
// overflow panic. Every answer must be exact or `Overflow`.
// ---------------------------------------------------------------------------

#[test]
fn substituted_equalities_count_exactly_or_refuse() {
    // `z = 1` puts `x` 2^32 (resp. `y` past 10) away from the box, so the
    // points are `x = y` (resp. `x = 3·2^40·y`); substituting the pivot
    // into the other row multiplies two large coefficients past i64.
    let cases = [
        (
            "{ A[x, y, z] : x - y + 4294967296*z = 0 and \
             4294967296*x - 4294967296*y + z + 2 >= 0 and 0 <= y <= 3 and 0 <= z <= 1 }",
            4,
        ),
        (
            "{ A[x, y] : x = 3298534883328*y and 1073741824*x - y + 5 >= 0 and 0 <= y <= 10 }",
            11,
        ),
    ];
    let s = Set::parse(cases[0].0).unwrap();
    assert_eq!(count_by_points(&s, -1, 4), 4);
    let s = Set::parse(cases[1].0).unwrap();
    for y in 0..=10 {
        assert!(s.contains_point(&[3_298_534_883_328 * y, y]).unwrap());
    }
    for (text, expect) in cases {
        let (cold, warm) = with_and_without_cache(|| {
            let s = Set::parse(text).unwrap();
            (s.card(), s.is_empty())
        });
        for (run, (card, empty)) in [("cold", cold), ("warm", warm)] {
            assert!(
                matches!(card, Err(Error::Overflow)) || card == Ok(expect),
                "{run} card {text}: {card:?}"
            );
            assert!(
                matches!(empty, Ok(false) | Err(Error::Overflow)),
                "{run} is_empty {text}: {empty:?}"
            );
        }
    }
}

#[test]
fn max_corner_rows_evaluate_exactly_or_refuse() {
    // Four i64::MAX·i64::MAX terms sum past i128 at every point.
    let m = i64::MAX;
    let text = format!(
        "{{ A[x0, x1, x2, x3, z] : {a} <= x0 <= {m} and {a} <= x1 <= {m} and {a} <= x2 <= {m} \
         and {a} <= x3 <= {m} and 0 <= z <= 1 and {m}*x0 + {m}*x1 + {m}*x2 + {m}*x3 - z >= 0 }}",
        a = m - 1
    );
    let s = Set::parse(&text).unwrap();
    let inside = s.contains_point(&[m, m, m, m, 0]);
    assert!(
        matches!(inside, Ok(true) | Err(Error::Overflow)),
        "{inside:?}"
    );
    let mut expect = Vec::new();
    for_each_point(5, 0, 1, |p| {
        let mut q: Vec<i64> = p[..4].iter().map(|&b| m - 1 + b).collect();
        q.push(p[4]);
        expect.push(q);
    });
    expect.sort();
    let (cold, warm) = with_and_without_cache(|| Set::parse(&text).unwrap().points(100));
    for (run, points) in [("cold", cold), ("warm", warm)] {
        match points {
            Ok(p) => assert_eq!(p, expect, "{run} points"),
            Err(e) => assert_eq!(e, Error::Overflow, "{run} points"),
        }
    }
}

#[test]
fn points_bounded_at_i64_max_enumerate() {
    // `y <= i64::MAX` is a real bound, not an open side.
    let m = i64::MAX;
    let s = Set::parse(&format!("{{ A[x, y] : 0 <= x <= 3 and y = {m} - x }}")).unwrap();
    let expect: Vec<Vec<i64>> = (0..=3).map(|x| vec![x, m - x]).collect();
    assert_eq!(s.points(100).unwrap(), expect);
}

#[test]
fn sandwich_search_at_i64_max_never_panics() {
    // The two rows' `y` coefficients sum past i64 in the sandwich search.
    let s = Set::parse(
        "{ A[x, y] : 0 <= y <= 1 and 2*x + 9223372036854775807*y >= 0 and -2*x + y + 1 >= 0 }",
    )
    .unwrap();
    match s.project_out(0, 1) {
        Ok(p) => assert_eq!(p.points(10).unwrap(), vec![vec![0], vec![1]]),
        Err(e) => assert!(
            matches!(
                e,
                Error::Unbounded(_) | Error::Overflow | Error::TooComplex(_)
            ),
            "{e}"
        ),
    }
}

// ---------------------------------------------------------------------------
// Dispatch proofs: one deterministic shape per fast-path kind, asserted
// through a scoped CounterHandle so the counters cannot be perturbed by
// concurrent tests.
// ---------------------------------------------------------------------------

#[test]
fn box_dispatch_taken() {
    // Bounded boxes collapse through the functional-window drop, so the
    // residual-box branch is exercised by feasibility probes on one-sided
    // boxes instead (unbounded vars can't be window-dropped, and limited
    // counts saturate through `count_box`).
    let (empty, stats) = empty_with_dispatch("{ A[x, y] : x >= 0 and y >= 0 }");
    assert!(!empty);
    assert!(stats.box_counts > 0, "box path not taken: {stats:?}");
}

#[test]
fn window_dispatch_taken() {
    // A plain bounded box is the canonical functional-window shape: each
    // variable's two rows sandwich a width-w window with m = 1, so the
    // whole box collapses through the drop as a multiplicative factor.
    let text = "{ A[x, y] : 0 <= x < 12 and 0 <= y < 12 }";
    let (card, stats) = card_with_dispatch(text);
    assert_eq!(card, 144);
    assert!(stats.window_counts > 0, "window path not taken: {stats:?}");
}

#[test]
fn slab_dispatch_taken() {
    let text = "{ A[x, y] : 0 <= x < 10 and 0 <= y < 10 and 3 <= x + y and x + y <= 11 }";
    let (card, stats) = card_with_dispatch(text);
    let s = Set::parse(text).unwrap();
    assert_eq!(card, count_by_points(&s, -1, 10));
    assert!(stats.slab_counts > 0, "slab path not taken: {stats:?}");
    // Emptiness probe, ±1 coefficients: the slab expression attains every
    // integer of its range over the box, so the probe answers from the
    // box factor alone.
    let (empty, stats) = empty_with_dispatch(text);
    assert!(!empty);
    assert!(stats.slab_counts > 0, "slab probe not taken: {stats:?}");
    // Coefficients 2 and -3 can step over the window, so the probe must
    // defer to the exact path. Only x = 5, y = 0 satisfies the row.
    let wide = "{ A[x, y] : 0 <= x <= 5 and 0 <= y <= 5 and 2x - 3y >= 9 }";
    let (empty, stats) = empty_with_dispatch(wide);
    assert!(!empty);
    assert_eq!(stats.slab_counts, 0, "non-unit slab probed: {stats:?}");
}

#[test]
fn coupled_slab_dispatch_taken() {
    // Disjoint supports: both slabs survive pinning untouched.
    let disjoint = "{ A[x, y, z, w] : 0 <= x < 8 and 0 <= y < 8 and 0 <= z < 8 and 0 <= w < 8 \
                    and 3 <= x + y and x + y <= 10 and 2 <= z + w and z + w <= 12 }";
    // Shared variable: pinning x decouples the two three-term slabs.
    let shared = "{ A[v, w, x, y, z] : 0 <= v < 8 and 0 <= w < 8 and 0 <= x < 8 \
                  and 0 <= y < 8 and 0 <= z < 8 \
                  and 3 <= v + w + x and v + w + x <= 14 \
                  and 2 <= x + y + z and x + y + z <= 15 }";
    for text in [disjoint, shared] {
        let (card, stats) = card_with_dispatch(text);
        let s = Set::parse(text).unwrap();
        assert_eq!(card, count_by_points(&s, -1, 8), "{text}");
        assert!(
            stats.coupled_slab_counts > 0,
            "coupled-slab path not taken for {text}: {stats:?}"
        );
    }
}

#[test]
fn pair_series_dispatch_taken() {
    // y's upper bound (M·9 ≈ 1.8e19) exceeds i64, so the slab path cannot
    // box it and the two-variable floor-sum series must close the count.
    const M: u128 = 2_000_000_000_000_000_000;
    let text = "{ A[x, y] : 0 <= x <= 9 and 0 <= y and 2000000000000000000*x - y >= 0 }";
    let (card, stats) = card_with_dispatch(text);
    assert_eq!(card, 45 * M + 10);
    assert!(
        stats.pair_chain_counts > 0,
        "pair-series path not taken: {stats:?}"
    );
}

#[test]
fn pair_chain_dispatch_taken() {
    // Monotone 5-chain over [0, 1999]: the multi-slab odometer would pin
    // two shared variables (2000² assignments > its work cap) so the
    // value-table DP must take over. Count is multichoose(2000, 5).
    let text = "{ A[a, b, c, d, e] : 0 <= a <= 1999 and 0 <= b <= 1999 and 0 <= c <= 1999 \
                and 0 <= d <= 1999 and 0 <= e <= 1999 \
                and 0 <= a - b and 0 <= b - c and 0 <= c - d and 0 <= d - e }";
    let (card, stats) = card_with_dispatch(text);
    let expect: u128 = 2004 * 2003 * 2002 * 2001 * 2000 / 120;
    assert_eq!(card, expect);
    assert!(
        stats.pair_chain_counts > 0,
        "pair-chain DP not taken: {stats:?}"
    );
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Locks the `Arc<Space>` refactor: structural hash and canonical `fmt`
/// output of parsed maps are unchanged across clone and memo round trips,
/// cached or not. These two values key the server's request dedup and its
/// bit-identical `/v1/analyze` responses.
#[test]
fn space_sharing_keeps_hash_and_fmt_stable() {
    let _guard = test_lock();
    let texts = [
        "{ S[i,j,k] -> ST[i mod 4, j mod 4, floor(i/4), floor(j/4), i mod 4 + j mod 4 + k] \
         : 0 <= i < 8 and 0 <= j < 8 and 0 <= k < 8 }",
        "{ S[i,j] -> PE[i + j] : 0 <= i < 5 and 0 <= j < 4 }",
        "{ S[i] -> T[i] : 0 <= i < 2 or 5 <= i < 9 }",
    ];
    for text in texts {
        cache::set_enabled(true);
        cache::clear();
        let m = Map::parse(text).unwrap();
        let h0 = hash_of(&m);
        let s0 = m.to_string();
        // Clones share the space; structure must be indistinguishable.
        let c = m.clone();
        assert_eq!(hash_of(&c), h0, "{text}");
        assert_eq!(c.to_string(), s0, "{text}");
        // Memo round trips (parse hit, reverse twice, card) must hand
        // back structurally identical relations.
        let again = Map::parse(text).unwrap();
        assert_eq!(hash_of(&again), h0, "parse memo round trip: {text}");
        assert_eq!(again.to_string(), s0, "parse memo round trip: {text}");
        let rr = m.reverse().reverse();
        assert_eq!(rr, m, "reverse round trip: {text}");
        assert_eq!(hash_of(&rr), h0, "reverse round trip: {text}");
        let _ = m.card().unwrap();
        assert_eq!(hash_of(&m), h0, "card must not disturb the map: {text}");
        // Uncached parse of the same text: same hash, same rendering.
        cache::set_enabled(false);
        let cold = Map::parse(text).unwrap();
        assert_eq!(hash_of(&cold), h0, "uncached parse: {text}");
        assert_eq!(cold.to_string(), s0, "uncached parse: {text}");
        cache::set_enabled(true);
    }
}
