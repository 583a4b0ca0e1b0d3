//! Equivalence property tests for the performance layer.
//!
//! Two families of guarantees are asserted here:
//!
//! 1. **Cache transparency** — every memoized operation returns results
//!    *bit-identical* to the uncached computation (same `Map` value, same
//!    `card`), across randomized relation shapes.
//! 2. **Closed-form exactness** — the counting shortcuts (axis-aligned
//!    boxes, box ∩ halfspace/slab prisms, functional mod/floor windows)
//!    agree with the recursive enumerator and with brute force over the
//!    bounding box.
//!
//! The generators deliberately concentrate on the shapes the fast paths
//! dispatch on, including degenerate and empty variants.

use proptest::prelude::*;
use tenet_isl::{cache, Map, Set};

/// Brute-force point count over a bounding box.
fn brute_count(s: &Set, lo: i64, hi: i64) -> u128 {
    let d = s.n_dim();
    let mut count = 0u128;
    let mut point = vec![lo; d];
    loop {
        if s.contains_point(&point).unwrap() {
            count += 1;
        }
        let mut i = 0;
        loop {
            if i == d {
                return count;
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

/// Runs `f` once with the cache disabled and once enabled (cleared first),
/// returning both results for equivalence checks. Serialized so parallel
/// test threads cannot observe each other's enable/disable windows.
fn with_and_without_cache<T>(f: impl Fn() -> T) -> (T, T) {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
    cache::set_enabled(false);
    let cold = f();
    cache::clear();
    cache::set_enabled(true);
    let warm_miss = f(); // populates the tables
    let warm_hit = f(); // must replay from the tables
    cache::set_enabled(true);
    drop(warm_miss);
    (cold, warm_hit)
}

/// Random box set text over `d` dims with bounds in a small window.
fn box_strategy(d: usize) -> BoxedStrategy<String> {
    let b = proptest::collection::vec((-6i64..=8, -6i64..=8), d);
    b.prop_map(move |bounds| {
        let dims: Vec<String> = (0..bounds.len()).map(|i| format!("x{i}")).collect();
        let mut text = format!("{{ A[{}] : ", dims.join(", "));
        let cons: Vec<String> = bounds
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let (lo, hi) = (a.min(b), a.max(b));
                format!("{lo} <= x{i} and x{i} <= {hi}")
            })
            .collect();
        text.push_str(&cons.join(" and "));
        text.push_str(" }");
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Boxes: closed-form count equals brute force.
    #[test]
    fn box_count_matches_brute_force(text in box_strategy(3)) {
        let s = Set::parse(&text).unwrap();
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -7, 9));
    }

    /// Simplex prisms (box ∩ one halfspace): closed form vs brute force.
    #[test]
    fn halfspace_count_matches_brute_force(
        text in box_strategy(3),
        coefs in proptest::collection::vec(-3i64..=3, 3),
        k in -10i64..=20,
    ) {
        let mut t = text.trim_end_matches(" }").to_string();
        let terms: Vec<String> = coefs
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| format!("{c}*x{i}"))
            .collect();
        if !terms.is_empty() {
            t.push_str(&format!(" and {} <= {k}", terms.join(" + ")));
        }
        t.push_str(" }");
        let s = Set::parse(&t).unwrap();
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -7, 9), "{}", t);
    }

    /// Slabs (box ∩ two parallel halfspaces): closed form vs brute force.
    #[test]
    fn slab_count_matches_brute_force(
        text in box_strategy(3),
        coefs in proptest::collection::vec(-3i64..=3, 3),
        lo in -12i64..=6,
        width in 0i64..=14,
    ) {
        let mut t = text.trim_end_matches(" }").to_string();
        let terms: Vec<String> = coefs
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| format!("{c}*x{i}"))
            .collect();
        if !terms.is_empty() {
            let e = terms.join(" + ");
            t.push_str(&format!(" and {lo} <= {e} and {e} <= {}", lo + width));
        }
        t.push_str(" }");
        let s = Set::parse(&t).unwrap();
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -7, 9), "{}", t);
    }

    /// Mod/floor lattice-coset shapes: functional-window elimination vs
    /// brute force.
    #[test]
    fn mod_coset_count_matches_brute_force(
        m in 2i64..=5,
        r in 0i64..=4,
        a in 1i64..=3,
        n in 4i64..=24,
    ) {
        let r = r % m;
        let text = format!(
            "{{ A[x, y] : 0 <= x < {n} and 0 <= y < {n} and ({a}*x + y) mod {m} <= {r} }}"
        );
        let s = Set::parse(&text).unwrap();
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -1, 24), "{}", text);
    }

    /// Quotient images (floor maps): range counting through divs.
    #[test]
    fn floor_image_count_matches_brute_force(
        m in 2i64..=6,
        n in 8i64..=40,
    ) {
        let f = Map::parse(&format!(
            "{{ S[i] -> Q[floor(i / {m}), i mod {m}] : 0 <= i < {n} }}"
        )).unwrap();
        prop_assert_eq!(f.card().unwrap(), n as u128);
        let rng = f.range().unwrap();
        // The image of [0, n) under (floor(i/m), i mod m) is a bijection.
        prop_assert_eq!(rng.card().unwrap(), n as u128);
    }
}

/// The full op suite, cached vs uncached, must agree bit-for-bit.
#[test]
fn cached_and_uncached_results_are_identical() {
    let shapes = [
        "{ S[i,j,k] -> ST[i mod 4, j mod 4, floor(i/4), floor(j/4), i mod 4 + j mod 4 + k] \
         : 0 <= i < 8 and 0 <= j < 8 and 0 <= k < 8 }",
        "{ S[i,j,k] -> A[i,k] : 0 <= i < 8 and 0 <= j < 8 and 0 <= k < 8 }",
        "{ S[i,j] -> PE[i + j] : 0 <= i < 5 and 0 <= j < 4 }",
    ];
    let (cold, warm) = with_and_without_cache(|| {
        let theta = Map::parse(shapes[0]).unwrap();
        let access = Map::parse(shapes[1]).unwrap();
        let skew = Map::parse(shapes[2]).unwrap();
        let rev = theta.reverse();
        let adf = rev.apply_range(&access).unwrap();
        let inter = adf.intersect(&adf).unwrap();
        let sub = adf.subtract(&inter).unwrap();
        let proj = adf.project_out_in(0, 2).unwrap();
        let skew_card = skew.card().unwrap();
        (
            rev,
            adf.clone(),
            inter,
            sub.card().unwrap(),
            proj,
            adf.card().unwrap(),
            skew_card,
            adf.is_empty().unwrap(),
        )
    });
    assert_eq!(cold.0, warm.0, "reverse must be cache-transparent");
    assert_eq!(cold.1, warm.1, "apply_range must be cache-transparent");
    assert_eq!(cold.2, warm.2, "intersect must be cache-transparent");
    assert_eq!(cold.3, warm.3, "subtract card must be cache-transparent");
    assert_eq!(cold.4, warm.4, "project must be cache-transparent");
    assert_eq!(cold.5, warm.5, "card must be cache-transparent");
    assert_eq!(cold.6, warm.6, "fast-path card must be cache-transparent");
    assert_eq!(cold.7, warm.7, "is_empty must be cache-transparent");
}

/// `union` must be cache-transparent too, including the bulky shapes that
/// clear its memo-weight gate.
#[test]
fn union_is_cache_transparent() {
    // Multi-disjunct operands: each parse below yields several basic
    // maps once the mod/floor windows split, so the union carries enough
    // constraint rows to go through the memo (not the small-map bypass).
    let bulky_a = "{ S[i,j] -> PE[i mod 3, j mod 3] : 0 <= i < 9 and 0 <= j < 9 \
                   and (i + j) mod 2 <= 0 }";
    let bulky_b = "{ S[i,j] -> PE[i mod 3, j mod 3] : 0 <= i < 9 and 0 <= j < 9 \
                   and (i + 2j) mod 3 <= 1 }";
    let small_a = "{ S[i] -> T[i] : 0 <= i < 4 }";
    let small_b = "{ S[i] -> T[i] : 2 <= i < 7 }";
    let (cold, warm) = with_and_without_cache(|| {
        let ba = Map::parse(bulky_a).unwrap();
        let bb = Map::parse(bulky_b).unwrap();
        let sa = Map::parse(small_a).unwrap();
        let sb = Map::parse(small_b).unwrap();
        let bulky_union = ba.union(&bb).unwrap();
        let small_union = sa.union(&sb).unwrap();
        (
            bulky_union.clone(),
            bulky_union.card().unwrap(),
            small_union.clone(),
            small_union.card().unwrap(),
        )
    });
    assert_eq!(cold.0, warm.0, "bulky union must be cache-transparent");
    assert_eq!(cold.1, warm.1, "bulky union card");
    assert_eq!(cold.2, warm.2, "small union must be cache-transparent");
    assert_eq!(cold.3, warm.3, "small union card");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized union equivalence: warm results (and cards) must be
    /// bit-identical to cold ones.
    #[test]
    fn union_cache_transparency_randomized(
        a_text in box_strategy(2),
        b_text in box_strategy(2),
    ) {
        let (cold, warm) = with_and_without_cache(|| {
            let a = Set::parse(&a_text).unwrap();
            let b = Set::parse(&b_text).unwrap();
            let u = a.union(&b).unwrap();
            (u.clone(), u.card().unwrap())
        });
        prop_assert_eq!(cold.0, warm.0);
        prop_assert_eq!(cold.1, warm.1);
    }
}

/// Randomized cached-vs-uncached sweep over set algebra.
#[test]
fn cached_and_uncached_set_algebra_agree_randomized() {
    // Deterministic xorshift so failures reproduce.
    let mut state = 0x5DEECE66Du64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for _case in 0..24 {
        let d = 2 + next(2) as usize;
        let mut cons = Vec::new();
        for i in 0..d {
            let lo = next(6) as i64 - 3;
            let hi = lo + next(8) as i64;
            cons.push(format!("{lo} <= x{i} and x{i} <= {hi}"));
        }
        if next(2) == 0 {
            let c0 = next(5) as i64 - 2;
            let c1 = next(5) as i64 - 2;
            if c0 != 0 || c1 != 0 {
                cons.push(format!("{c0}*x0 + {c1}*x1 <= {}", next(10) as i64));
            }
        }
        let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
        let text = format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "));
        let (cold, warm) = with_and_without_cache(|| {
            let s = Set::parse(&text).unwrap();
            let card = s.card().unwrap();
            let shifted = s.intersect(&s).unwrap();
            (card, shifted.card().unwrap(), s.is_empty().unwrap())
        });
        assert_eq!(cold, warm, "mismatch for {text}");
    }
}

/// A cached `Set::parse` of a text must not make `Map::parse` of the same
/// text succeed (and vice versa): the parse memo is keyed per entry point.
#[test]
fn parse_memo_does_not_cross_entry_points() {
    let set_text = "{ Q[a, b] : 0 <= a < 3 and 0 <= b < 2 }";
    let map_text = "{ Q[a] -> R[a] : 0 <= a < 3 }";
    assert!(Set::parse(set_text).is_ok());
    assert!(
        Map::parse(set_text).is_err(),
        "set text must still be rejected by Map::parse after caching"
    );
    assert!(Map::parse(map_text).is_ok());
    assert!(
        Set::parse(map_text).is_err(),
        "map text must still be rejected by Set::parse after caching"
    );
}
