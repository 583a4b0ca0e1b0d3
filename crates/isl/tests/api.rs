//! API-surface tests: error paths, helpers, and behaviours not already
//! covered by the module unit tests or the property suite.

use tenet_isl::{Error, Map, Set, Space, Tuple};

#[test]
fn dim_bounds_across_union() {
    let s = Set::parse("{ A[i] : 0 <= i < 4 or 10 <= i < 12 }").unwrap();
    assert_eq!(s.dim_bounds(0).unwrap(), (0, 11));
}

#[test]
fn dim_bounds_unbounded_errors() {
    let s = Set::parse("{ A[i] : i >= 0 }").unwrap();
    assert!(matches!(s.dim_bounds(0), Err(Error::Unbounded(_))));
}

#[test]
fn card_unbounded_errors() {
    let s = Set::parse("{ A[i] : i >= 3 }").unwrap();
    assert!(s.card().is_err());
}

#[test]
fn apply_range_arity_mismatch() {
    let a = Map::parse("{ A[i] -> B[i, i] }").unwrap();
    let b = Map::parse("{ C[x] -> D[x] }").unwrap();
    assert!(matches!(a.apply_range(&b), Err(Error::SpaceMismatch(_))));
}

#[test]
fn union_space_mismatch() {
    let a = Set::parse("{ A[i] : 0 <= i < 2 }").unwrap();
    let b = Set::parse("{ A[i, j] : 0 <= i < 2 and 0 <= j < 2 }").unwrap();
    assert!(a.union(&b).is_err());
}

#[test]
fn intersect_domain_and_range() {
    let m = Map::parse("{ A[i] -> B[j] : 0 <= i < 10 and 0 <= j < 10 }").unwrap();
    let dom = Set::parse("{ A[i] : 2 <= i < 4 }").unwrap();
    let rng = Set::parse("{ B[j] : 5 <= j < 6 }").unwrap();
    let r = m
        .intersect_domain(&dom)
        .unwrap()
        .intersect_range(&rng)
        .unwrap();
    assert_eq!(r.card().unwrap(), 2);
    assert!(r.contains_point(&[2, 5]).unwrap());
    assert!(!r.contains_point(&[4, 5]).unwrap());
}

#[test]
fn fix_in_and_out() {
    let m = Map::parse("{ A[i] -> B[j] : 0 <= i < 3 and 0 <= j <= i }").unwrap();
    assert_eq!(m.fix_in(0, 2).card().unwrap(), 3);
    assert_eq!(m.fix_out(0, 0).card().unwrap(), 3);
    assert_eq!(m.fix_in(0, 9).card().unwrap(), 0);
}

#[test]
fn wrap_unwrap_roundtrip() {
    let m = Map::parse("{ A[i] -> B[j] : 0 <= i < 3 and 0 <= j < 2 }").unwrap();
    let w = m.wrap();
    assert_eq!(w.n_dim(), 2);
    let space = Space::map(Tuple::new("A", ["i"]), Tuple::new("B", ["j"]));
    let back = w.unwrap_map(1, space).unwrap();
    assert!(m.is_equal(&back).unwrap());
}

#[test]
fn with_space_renames() {
    let m = Map::parse("{ A[i] -> B[j] : j = i and 0 <= i < 2 }").unwrap();
    let space = Space::map(Tuple::new("X", ["a"]), Tuple::new("Y", ["b"]));
    let r = m.with_space(space).unwrap();
    assert_eq!(r.space().input.name.as_deref(), Some("X"));
    assert_eq!(r.card().unwrap(), 2);
}

#[test]
fn with_space_arity_checked() {
    let m = Map::parse("{ A[i] -> B[j] }").unwrap();
    let bad = Space::map(Tuple::new("X", ["a", "b"]), Tuple::new("Y", ["c"]));
    assert!(m.with_space(bad).is_err());
}

#[test]
fn empty_and_universe() {
    let t = Tuple::new("A", ["x"]);
    let e = Set::empty(t.clone());
    assert!(e.is_empty().unwrap());
    assert_eq!(e.card().unwrap(), 0);
    let u = Set::universe(t);
    assert!(!u.is_empty().unwrap());
    assert!(u.card().is_err()); // unbounded
}

#[test]
fn points_limit_enforced() {
    let s = Set::parse("{ A[i] : 0 <= i < 100 }").unwrap();
    assert!(s.points(10).is_err());
    assert_eq!(s.points(100).unwrap().len(), 100);
    // Overlapping disjuncts: the limit counts distinct points, so the 20
    // shared values count once.
    let u = Set::parse("{ A[i] : 0 <= i < 60 or 40 <= i < 100 }").unwrap();
    assert_eq!(u.as_map().basics().len(), 2);
    let pts = u.points(100).unwrap();
    assert_eq!(pts, (0..100).map(|i| vec![i]).collect::<Vec<_>>());
    assert!(matches!(u.points(99), Err(Error::TooComplex(_))));
}

#[test]
fn negative_coordinates() {
    let s = Set::parse("{ A[i, j] : -5 <= i < 0 and -2 <= j <= 2 }").unwrap();
    assert_eq!(s.card().unwrap(), 25);
    assert!(s.contains_point(&[-5, -2]).unwrap());
    assert!(!s.contains_point(&[0, 0]).unwrap());
}

#[test]
fn mod_of_negative_is_floor_mod() {
    // i mod 8 over negative i follows floor semantics (non-negative).
    let m = Map::parse("{ A[i] -> B[i mod 8] : -8 <= i < 0 }").unwrap();
    assert!(m.contains_point(&[-3, 5]).unwrap());
    assert!(!m.contains_point(&[-3, -3]).unwrap());
    assert_eq!(m.range().unwrap().card().unwrap(), 8);
}

#[test]
fn deeply_nested_floor() {
    let m = Map::parse("{ A[i] -> B[floor(floor(i/2)/3)] : 0 <= i < 36 }").unwrap();
    // floor(floor(i/2)/3) == floor(i/6)
    let n = Map::parse("{ A[i] -> B[floor(i/6)] : 0 <= i < 36 }").unwrap();
    assert!(m.is_equal(&n).unwrap());
}

#[test]
fn subtract_with_divs_exact() {
    let a = Set::parse("{ A[i] : 0 <= i < 32 }").unwrap();
    let evens = Set::parse("{ A[i] : i = 2*floor(i/2) and 0 <= i < 32 }").unwrap();
    assert_eq!(evens.card().unwrap(), 16);
    let odds = a.subtract(&evens).unwrap();
    assert_eq!(odds.card().unwrap(), 16);
    assert!(odds.contains_point(&[5]).unwrap());
    assert!(!odds.contains_point(&[6]).unwrap());
}

#[test]
fn chain_of_compositions() {
    // Four composition steps keep exactness through divs and skews.
    let m1 = Map::parse("{ A[i] -> B[i mod 6, floor(i/6)] : 0 <= i < 36 }").unwrap();
    let m2 = Map::parse("{ B[r, q] -> C[r + q] }").unwrap();
    let m3 = Map::parse("{ C[s] -> D[s mod 2] }").unwrap();
    let c = m1.apply_range(&m2).unwrap().apply_range(&m3).unwrap();
    for i in 0..36i64 {
        let s = (i % 6) + (i / 6);
        assert!(c.contains_point(&[i, s % 2]).unwrap(), "i={i}");
    }
    assert_eq!(c.card().unwrap(), 36);
}

#[test]
fn display_is_parseable_for_maps() {
    let m = Map::parse(
        "{ S[i, j] -> PE[i mod 4, j] : 0 <= i < 8 and 0 <= j < 2 or 0 <= i < 2 and 3 <= j < 5 }",
    )
    .unwrap();
    let re = Map::parse(&m.to_string()).unwrap();
    assert!(m.is_equal(&re).unwrap());
}

#[test]
fn huge_slope_pair_card_is_exact() {
    // y ≤ M·x with M = 2e18: y's derived bound overflows i64, so no slab
    // closed form applies — the generalized pair series must still return
    // the exact Σ (M·x + 1) without enumerating anything.
    const M: u128 = 2_000_000_000_000_000_000;
    let s = Set::parse("{ A[x, y] : 0 <= x <= 9 and 0 <= y and 2000000000000000000*x - y >= 0 }")
        .unwrap();
    assert_eq!(s.card().unwrap(), 45 * M + 10);
}

#[test]
fn card_overflow_is_reported_not_wrapped() {
    // The same series with x spanning [0, 2^62]: the total exceeds i128,
    // which must surface as a structured error, never a wrapped count.
    let s = Set::parse(
        "{ A[x, y] : 0 <= x <= 4611686018427387904 and 0 <= y \
         and 4611686018427387904*x - y >= 0 }",
    )
    .unwrap();
    assert!(
        matches!(s.card(), Err(Error::Overflow)),
        "expected Overflow, got {:?}",
        s.card()
    );
}

#[test]
fn wide_symmetric_bounds_not_empty() {
    // Regression: simplify()'s opposite-pair contradiction check summed the
    // two constants in i64, wrapping 2^62 + 2^62 negative and reporting
    // this obviously inhabited set as empty in release builds.
    let s = Set::parse("{ A[x] : -4611686018427387904 <= x <= 4611686018427387904 }").unwrap();
    assert!(!s.is_empty().unwrap());
    assert_eq!(s.card().unwrap(), (1u128 << 63) + 1);
}
