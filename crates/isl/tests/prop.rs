//! Property tests: every integer-set operation is compared against a
//! brute-force enumeration oracle on randomly generated bounded sets.

use proptest::prelude::*;
use tenet_isl::{Map, Set};

/// Brute-force point count over a bounding box.
fn brute_count(s: &Set, lo: i64, hi: i64) -> u128 {
    let d = s.n_dim();
    let mut count = 0u128;
    let mut point = vec![lo; d];
    loop {
        if s.contains_point(&point).unwrap() {
            count += 1;
        }
        // Odometer increment.
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

/// A strategy producing random affine inequality constraints as text.
fn constraint_strategy(dims: &'static [&'static str]) -> impl Strategy<Value = String> {
    let coef = -3i64..=3;
    let coefs = proptest::collection::vec(coef, dims.len());
    (coefs, -6i64..=6).prop_map(move |(cs, k)| {
        let mut terms: Vec<String> = Vec::new();
        for (c, d) in cs.iter().zip(dims.iter()) {
            if *c != 0 {
                terms.push(format!("{c}*{d}"));
            }
        }
        if terms.is_empty() {
            terms.push("0".to_string());
        }
        format!("{} + {k} >= 0", terms.join(" + "))
    })
}

/// Builds a random bounded 2-D set: a box intersected with random
/// half-planes.
fn set2_strategy() -> impl Strategy<Value = Set> {
    let dims: &'static [&'static str] = &["x", "y"];
    proptest::collection::vec(constraint_strategy(dims), 0..4).prop_map(|cons| {
        let mut text = String::from("{ A[x, y] : 0 <= x <= 6 and 0 <= y <= 6");
        for c in &cons {
            text.push_str(" and ");
            text.push_str(c);
        }
        text.push_str(" }");
        Set::parse(&text).unwrap()
    })
}

/// Random 3-D set with a mod or floor constraint mixed in.
fn set3_div_strategy() -> impl Strategy<Value = Set> {
    let dims: &'static [&'static str] = &["x", "y", "z"];
    (
        proptest::collection::vec(constraint_strategy(dims), 0..3),
        2i64..=4,
        0i64..=3,
    )
        .prop_map(|(cons, m, r)| {
            let r = r % m;
            let mut text =
                String::from("{ A[x, y, z] : 0 <= x <= 5 and 0 <= y <= 5 and 0 <= z <= 5");
            text.push_str(&format!(" and (x + 2*y) mod {m} <= {r}"));
            for c in &cons {
                text.push_str(" and ");
                text.push_str(c);
            }
            text.push_str(" }");
            Set::parse(&text).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn card_matches_brute_force(s in set2_strategy()) {
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -1, 7));
    }

    #[test]
    fn card_matches_brute_force_with_divs(s in set3_div_strategy()) {
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -1, 6));
    }

    #[test]
    fn inclusion_exclusion(a in set2_strategy(), b in set2_strategy()) {
        let u = a.union(&b).unwrap().card().unwrap();
        let i = a.intersect(&b).unwrap().card().unwrap();
        prop_assert_eq!(u + i, a.card().unwrap() + b.card().unwrap());
    }

    #[test]
    fn subtract_matches_brute_force(a in set2_strategy(), b in set2_strategy()) {
        let d = a.subtract(&b).unwrap();
        let mut expect = 0u128;
        for x in -1..=7i64 {
            for y in -1..=7i64 {
                let p = [x, y];
                if a.contains_point(&p).unwrap() && !b.contains_point(&p).unwrap() {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(d.card().unwrap(), expect);
        // Difference must be disjoint from b and inside a.
        prop_assert!(d.intersect(&b).unwrap().is_empty().unwrap());
        prop_assert!(d.is_subset(&a).unwrap());
    }

    #[test]
    fn projection_matches_brute_force(s in set2_strategy()) {
        let p = s.project_out(1, 1).unwrap();
        let mut expect = std::collections::BTreeSet::new();
        for x in -1..=7i64 {
            for y in -1..=7i64 {
                if s.contains_point(&[x, y]).unwrap() {
                    expect.insert(x);
                }
            }
        }
        prop_assert_eq!(p.card().unwrap(), expect.len() as u128);
        for &x in &expect {
            prop_assert!(p.contains_point(&[x]).unwrap());
        }
    }

    #[test]
    fn print_parse_roundtrip(s in set3_div_strategy()) {
        let printed = s.to_string();
        let re = Set::parse(&printed).unwrap();
        prop_assert!(s.is_equal(&re).unwrap(), "printed: {}", printed);
    }

    #[test]
    fn points_agree_with_contains(s in set2_strategy()) {
        let pts = s.points(10_000).unwrap();
        let n = pts.len() as u128;
        prop_assert_eq!(n, s.card().unwrap());
        for p in &pts {
            prop_assert!(s.contains_point(p).unwrap());
        }
    }
}

// Composition compared point-wise: for random quasi-affine functions
// f: A -> B and g: B -> C, `apply_range` must contain exactly the pairs
// (x, g(f(x))).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_range_pointwise(a in 1i64..=3, b in -2i64..=2, m in 2i64..=4, c in 1i64..=3) {
        let f = Map::parse(&format!(
            "{{ A[i] -> B[{a}*i + {b}, i mod {m}] : 0 <= i < 12 }}"
        )).unwrap();
        let g = Map::parse(&format!(
            "{{ B[u, v] -> C[{c}*u + v] }}"
        )).unwrap();
        let h = f.apply_range(&g).unwrap();
        for i in 0..12i64 {
            let u = a * i + b;
            let v = i.rem_euclid(m);
            let z = c * u + v;
            prop_assert!(h.contains_point(&[i, z]).unwrap(), "i={} z={}", i, z);
        }
        prop_assert_eq!(h.card().unwrap(), 12);
    }

    #[test]
    fn reverse_involution(s in set2_strategy()) {
        // Treat the set's 2-D space as a map by unwrapping; check that
        // reversing twice is the identity on points.
        let m = Map::parse("{ A[x] -> B[y] : 0 <= x <= 4 and 0 <= y <= x }").unwrap();
        let rr = m.reverse().reverse();
        prop_assert!(m.is_equal(&rr).unwrap());
        // Also: |reverse| == |m|.
        prop_assert_eq!(m.reverse().card().unwrap(), m.card().unwrap());
        let _ = s;
    }
}

/// Random pair-graph shapes (a forest of two-variable windows over a
/// box): the chained closed forms must agree with brute force.
fn set3_chain_strategy() -> impl Strategy<Value = Set> {
    (
        -2i64..=2,
        proptest::collection::vec((1i64..=2, 1i64..=2, -8i64..=2, 0i64..=10), 2),
    )
        .prop_map(|(lo0, links)| {
            let mut text =
                String::from("{ A[x, y, z] : 0 <= x <= 6 and 0 <= y <= 6 and 0 <= z <= 6");
            let dims = ["x", "y", "z"];
            for (i, (a, b, lo, w)) in links.iter().enumerate() {
                let (u, v) = (dims[i], dims[i + 1]);
                text.push_str(&format!(
                    " and {lo} <= {a}*{u} + -{b}*{v} and {a}*{u} + -{b}*{v} <= {}",
                    lo + w
                ));
            }
            text.push_str(&format!(" and {lo0} <= x"));
            text.push_str(" }");
            Set::parse(&text).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chained two-variable windows: card equals brute force, and the
    /// count survives pinning any single variable.
    #[test]
    fn chain_card_matches_brute_force(s in set3_chain_strategy(), dim in 0usize..3, val in 0i64..=6) {
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -1, 7));
        let fixed = s.fix(dim, val);
        prop_assert_eq!(fixed.card().unwrap(), brute_count(&fixed, -1, 7));
    }

    /// Coupled slabs (two multi-variable windows sharing a dimension):
    /// card equals brute force across random widths and offsets.
    #[test]
    fn coupled_slab_card_matches_brute_force(
        lo1 in -4i64..=4, w1 in 0i64..=12,
        lo2 in -4i64..=4, w2 in 0i64..=12,
    ) {
        let text = format!(
            "{{ A[x, y, z, w] : 0 <= x <= 6 and 0 <= y <= 6 and 0 <= z <= 6 and 0 <= w <= 6 \
             and {lo1} <= x + y + z and x + y + z <= {} \
             and {lo2} <= z + w and z + w <= {} }}",
            lo1 + w1,
            lo2 + w2,
        );
        let s = Set::parse(&text).unwrap();
        prop_assert_eq!(s.card().unwrap(), brute_count(&s, -1, 7), "{}", text);
    }
}

#[test]
fn huge_extent_chain_closed_form() {
    // Monotone 5-chain over [0, 1999]: far beyond enumeration, the
    // value-table DP must close it exactly (multichoose(2000, 5)).
    let s = Set::parse(
        "{ A[a, b, c, d, e] : 0 <= a <= 1999 and 0 <= b <= 1999 and 0 <= c <= 1999 \
         and 0 <= d <= 1999 and 0 <= e <= 1999 \
         and 0 <= a - b and 0 <= b - c and 0 <= c - d and 0 <= d - e }",
    )
    .unwrap();
    let expect: u128 = 2004 * 2003 * 2002 * 2001 * 2000 / 120;
    assert_eq!(s.card().unwrap(), expect);
}

#[test]
fn compose_with_mod_div_through_mid() {
    // Eliminating the mid dims requires looking through divs: the
    // round-trip i -> (i mod 8, floor(i/8)) -> i is the identity.
    let split = Map::parse("{ A[i] -> B[i mod 8, floor(i/8)] : 0 <= i < 64 }").unwrap();
    let join = Map::parse("{ B[r, q] -> C[8*q + r] }").unwrap();
    let h = split.apply_range(&join).unwrap();
    for i in 0..64i64 {
        assert!(h.contains_point(&[i, i]).unwrap(), "i={i}");
    }
    assert_eq!(h.card().unwrap(), 64);
}

#[test]
fn large_sparse_counts_factor() {
    // Independent components must factor: a 1000 x 1000 x 7 box.
    let s = Set::parse("{ A[x, y, z] : 0 <= x < 1000 and 0 <= y < 1000 and 0 <= z < 7 }").unwrap();
    assert_eq!(s.card().unwrap(), 7_000_000);
}

#[test]
fn huge_extent_series() {
    // Coupled pair with huge extents exercises the arithmetic-series path.
    let s = Set::parse("{ A[x, y] : 0 <= x < 500000 and 0 <= y <= x }").unwrap();
    let n: u128 = 500_000;
    assert_eq!(s.card().unwrap(), n * (n + 1) / 2);
}

// Injectivity compared against brute force on a random family.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn injective_matches_bruteforce(
        cons in proptest::collection::vec(constraint_strategy(&["x", "y"]), 0..3),
    ) {
        let mut text = String::from("{ S[x] -> T[y] : 0 <= x <= 5 and 0 <= y <= 5");
        for c in &cons {
            text.push_str(" and ");
            text.push_str(c);
        }
        text.push_str(" }");
        let m = Map::parse(&text).unwrap();
        let pts = m.points(10_000).unwrap();
        let mut inj = true;
        for p in &pts {
            for q in &pts {
                if p[1] == q[1] && p[0] != q[0] {
                    inj = false;
                }
            }
        }
        prop_assert_eq!(m.is_injective().unwrap(), inj);
    }
}
