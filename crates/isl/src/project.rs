//! Exact projection of variables out of a [`BasicMap`].
//!
//! Eliminating an (existentially quantified) integer variable is the one
//! genuinely hard Presburger operation. This module implements an exact
//! ladder in the spirit of the Omega test / ISL:
//!
//! 1. **Unit-coefficient equality**: substitute the variable away — always
//!    exact.
//! 2. **Non-unit equality** `a·x + e = 0`: eliminate `x` from every other
//!    row, then record the divisibility condition `a | e` with a fresh div
//!    `q = floor(e/a)` and the equality `e - a·q = 0` — exact.
//! 3. **Sandwich recognition**: a pair `e <= a·x <= e + k` with `k < a`
//!    pins `x = floor((e+k)/a)`; substitute through a div — exact.
//! 4. **One-sided inequalities**: if the variable has only lower or only
//!    upper bounds, projection simply drops those constraints — exact over ℤ.
//! 5. **Fourier–Motzkin** when every (lower, upper) bound pair either has
//!    a unit coefficient on one side (the classical Omega condition) or is
//!    a *wide sandwich* — coefficients `a`/`-a` cancelling to a constant
//!    `k >= a-1`, whose numerator window spans `a` consecutive integers
//!    and therefore always contains a multiple of `a` (the dark-shadow
//!    special case) — exact.
//! 6. **Productive div expansion**: a div referencing the variable with a
//!    unit coefficient is expanded into a fresh variable (its bracket
//!    constraints then give unit bounds enabling step 5).
//! 7. **Finite splitting**: otherwise the variable is enumerated over its
//!    (finite) range, producing one disjunct per value — exact for bounded
//!    sets, which is the only regime TENET's evaluation exercises.
//!
//! Ordering matters: expansion is deliberately *late* — expanding eagerly
//! can ping-pong between mod and div structures forever, whereas splitting
//! a small-range variable always terminates.

use crate::basic::{BasicMap, Row};
use crate::count::var_range;
use crate::row::{cancel_constant, combine, div_brackets, negated};
use crate::value::gcd;
use crate::{Error, Result};

/// Upper bound on how many values a split (ladder step 5) may enumerate.
const SPLIT_LIMIT: i128 = 4096;
/// Upper bound on the total number of pieces produced by one projection.
const PIECE_LIMIT: usize = 1 << 16;

/// Eliminates the variable columns listed in `targets` (indices into the
/// visible in+out columns) from `bm`, returning the exact projection as a
/// union of basic maps. The caller must already have removed the
/// corresponding dimensions' visibility expectations: on return the basic
/// maps have those columns removed and their space shrunk accordingly.
pub(crate) fn eliminate_vars(bm: BasicMap, targets: Vec<usize>) -> Result<Vec<BasicMap>> {
    let mut result = Vec::new();
    let mut work: Vec<(BasicMap, Vec<usize>)> = vec![(bm, targets)];
    let mut produced = 0usize;
    while let Some((mut bm, mut targets)) = work.pop() {
        if !bm.simplify() {
            continue;
        }
        if targets.is_empty() {
            bm.drop_unused_divs();
            result.push(bm);
            continue;
        }
        produced += 1;
        if produced > PIECE_LIMIT {
            return Err(Error::TooComplex(
                "projection produced too many disjuncts".into(),
            ));
        }
        match eliminate_one(&mut bm, &mut targets)? {
            Step::Continue => work.push((bm, targets)),
            Step::Split(pieces) => {
                for p in pieces {
                    work.push((p, targets.clone()));
                }
            }
            Step::Empty => {}
        }
    }
    Ok(result)
}

enum Step {
    /// One variable was eliminated (or a div expanded); keep going.
    Continue,
    /// The basic map was split into value cases.
    Split(Vec<BasicMap>),
    /// The basic map is infeasible.
    Empty,
}

/// Performs one ladder step on the best candidate variable.
fn eliminate_one(bm: &mut BasicMap, targets: &mut Vec<usize>) -> Result<Step> {
    // --- Step 1/2: equality-based elimination. --------------------------
    // Find the (target, equality) pair with the smallest |coefficient|,
    // preferring unit coefficients and, among equal coefficients, an
    // equality that needs no div expansion first (see the cycle guard
    // below): alternating expansion with non-unit elimination can
    // ping-pong between the same two systems forever.
    let div0 = bm.div0();
    let cyclic_div =
        |eq: &Row, col| (0..bm.n_div()).find(|&d| eq[div0 + d] != 0 && bm.div_depends_on(d, col));
    // (target idx, eq idx, |coef|, div to expand first)
    let mut best: Option<(usize, usize, u64, Option<usize>)> = None;
    for (ti, &col) in targets.iter().enumerate() {
        for (ei, eq) in bm.eqs.iter().enumerate() {
            let a = eq[col].unsigned_abs();
            if a == 0 || best.is_some_and(|(_, _, b, bd)| a > b || (a == b && bd.is_none())) {
                continue;
            }
            let d = cyclic_div(eq, col);
            if best.is_none_or(|(_, _, b, bd)| (a, d.is_some()) < (b, bd.is_some())) {
                best = Some((ti, ei, a, d));
            }
        }
    }
    if let Some((ti, ei, a, cyclic)) = best {
        let col = targets[ti];
        // Cycle guard: substituting via an equality that references a div
        // which (transitively) depends on `col` would create a cyclic div
        // definition. Expand such divs into ordinary variables first.
        if let Some(d) = cyclic {
            let new_col = div_to_var(bm, d)?;
            shift_targets(targets, new_col);
            targets.push(new_col);
            return Ok(Step::Continue);
        }
        let eq = bm.eqs.swap_remove(ei);
        if a == 1 {
            bm.eliminate_using_eq(&eq, col)?;
            remove_var(bm, col);
            retarget_after_removal(targets, ti, col);
            return Ok(Step::Continue);
        }
        // Non-unit equality: eliminate from other rows, then record the
        // divisibility condition a | e  (where  a·x + e = 0, a > 0).
        let eq = if eq[col] < 0 { negated(&eq, 0)? } else { eq };
        let a = eq[col];
        bm.eliminate_using_eq(&eq, col)?;
        // Divs may still syntactically mention col only through eq itself;
        // eliminate_using_eq already cleared them.
        let mut e = eq.clone();
        e[col] = 0;
        // Remove the variable column from bm and from e.
        remove_var(bm, col);
        e.remove(col);
        retarget_after_removal(targets, ti, col);
        // Skip the divisibility constraint when e is trivially divisible.
        let g = e.iter().fold(0, |acc, &c| gcd(acc, c));
        if g % a == 0 {
            return Ok(Step::Continue);
        }
        let n_div = bm.n_div();
        let q = bm.add_div(e.clone(), a)?;
        // A new div widened the rows by one column (before the constant);
        // a reused identical div did not.
        if bm.n_div() > n_div {
            let k_old = e.len() - 1;
            e.insert(k_old, 0);
        }
        e[q] = -a;
        bm.add_eq(e);
        return Ok(Step::Continue);
    }

    // --- No equalities on any target: inequality-based elimination. -----
    // Sandwich recognition: a pair of inequalities `a·x + e >= 0` and
    // `-a·x - e + k >= 0` with `0 <= k < a` pins x to `floor((e+k)/a)` —
    // substitute through a div instead of splitting (the pattern arises
    // from remainder-class constraints such as `0 <= p - 3c + 12z <= 2`).
    // Guard: the sandwich numerator must not reference another target
    // variable, otherwise the new div re-introduces elimination work and
    // the ladder can ping-pong between mod/div structures forever.
    for ti in 0..targets.len() {
        let col = targets[ti];
        if let Some((q_num, a)) = find_sandwich(bm, col) {
            let refs_target = targets.iter().any(|&t| t != col && q_num[t] != 0);
            let cyclic =
                (0..bm.n_div()).any(|d| q_num[bm.div0() + d] != 0 && bm.div_depends_on(d, col));
            if !refs_target && !cyclic {
                let q = bm.add_div(q_num, a)?;
                let mut eq = bm.zero_row();
                eq[col] = 1;
                eq[q] = -1;
                bm.eliminate_using_eq(&eq, col)?;
                remove_var(bm, col);
                retarget_after_removal(targets, ti, col);
                return Ok(Step::Continue);
            }
        }
    }
    // One-sided / exact-FM classification. Both require the variable to be
    // free of div references (FM cannot look through a floor).
    let mut one_sided: Option<usize> = None;
    let mut fm_best: Option<(usize, usize)> = None; // (target idx, fill-in)
    for (ti, &col) in targets.iter().enumerate() {
        if (0..bm.n_div()).any(|d| bm.divs[d].num[col] != 0) {
            continue;
        }
        let lowers: Vec<usize> = bm
            .ineqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r[col] > 0)
            .map(|(i, _)| i)
            .collect();
        let uppers: Vec<usize> = bm
            .ineqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r[col] < 0)
            .map(|(i, _)| i)
            .collect();
        if lowers.is_empty() || uppers.is_empty() {
            one_sided = Some(ti);
            break;
        }
        // A (lower, upper) pair eliminates exactly when one coefficient is
        // a unit (classical Omega condition) — or when the pair is a wide
        // sandwich: coefficients a and -a whose sum cancels every variable
        // and leaves a constant k >= a-1. The window then spans a
        // consecutive integer numerator values, which always contain a
        // multiple of a, so an integer solution exists for every outer
        // point (the dark-shadow special case).
        let pair_exact = |l: &Row, u: &Row| -> bool {
            l[col] == 1
                || u[col] == -1
                || cancel_constant(l, u).is_some_and(|k| k >= i128::from(l[col]) - 1)
        };
        let exact = lowers.iter().all(|&l| {
            uppers
                .iter()
                .all(|&u| pair_exact(&bm.ineqs[l], &bm.ineqs[u]))
        });
        if exact {
            let fill = lowers.len() * uppers.len();
            if fm_best.is_none_or(|(_, f)| fill < f) {
                fm_best = Some((ti, fill));
            }
        }
    }
    if let Some(ti) = one_sided {
        let col = targets[ti];
        bm.ineqs.retain(|r| r[col] == 0);
        remove_var(bm, col);
        retarget_after_removal(targets, ti, col);
        return Ok(Step::Continue);
    }
    if let Some((ti, _)) = fm_best {
        let col = targets[ti];
        fourier_motzkin(bm, col)?;
        remove_var(bm, col);
        retarget_after_removal(targets, ti, col);
        return Ok(Step::Continue);
    }
    // Productive div expansion: when a div references the target with a
    // unit coefficient, its bracket constraints give the target unit
    // bounds, so expansion unblocks exact FM. (Non-unit references are
    // left alone — expanding those can ping-pong forever.)
    for &col in targets.iter() {
        if let Some(d) = (0..bm.n_div()).find(|&d| bm.divs[d].num[col].unsigned_abs() == 1) {
            let new_col = div_to_var(bm, d)?;
            shift_targets(targets, new_col);
            targets.push(new_col);
            return Ok(Step::Continue);
        }
    }
    // --- Finite splitting (exact; works through div references because a
    // constant substitutes cleanly into numerators). Split the target with
    // the smallest finite range.
    let mut best: Option<(usize, i64, i64)> = None;
    let width = |lo: i64, hi: i64| i128::from(hi) - i128::from(lo);
    for (ti, &col) in targets.iter().enumerate() {
        if let Ok((lo, hi)) = var_range(bm, col) {
            if best.is_none_or(|(_, bl, bh)| width(lo, hi) < width(bl, bh)) {
                best = Some((ti, lo, hi));
            }
        }
    }
    if let Some((ti, lo, hi)) = best {
        if hi < lo {
            return Ok(Step::Empty);
        }
        if width(lo, hi) < SPLIT_LIMIT {
            let col = targets[ti];
            let mut pieces = Vec::with_capacity((hi - lo + 1) as usize);
            for v in lo..=hi {
                let mut p = bm.clone();
                p.add_fix(col, v);
                pieces.push(p);
            }
            return Ok(Step::Split(pieces));
        }
    }
    // --- Last resort: expand a div that blocks one-sided/FM treatment of
    // some huge-range target, then retry.
    for &col in targets.iter() {
        if let Some(d) = (0..bm.n_div()).find(|&d| bm.divs[d].num[col] != 0) {
            let new_col = div_to_var(bm, d)?;
            shift_targets(targets, new_col);
            targets.push(new_col);
            return Ok(Step::Continue);
        }
    }
    Err(Error::Unbounded(
        "cannot project an unbounded non-unit variable exactly".into(),
    ))
}

/// Looks for a sandwich pair on `col`: inequalities `L: a·x + e >= 0` and
/// `U: -a·x + f >= 0` whose sum cancels every variable and leaves a
/// constant `k` with `0 <= k < a`. Then `x = floor(f / a)` exactly.
/// Returns the div numerator (`f` with the `col` coefficient cleared) and
/// denominator `a`.
fn find_sandwich(bm: &BasicMap, col: usize) -> Option<(Row, i64)> {
    for l in &bm.ineqs {
        let a = l[col];
        if a <= 1 {
            continue; // a == 1 is already handled exactly by FM
        }
        for u in &bm.ineqs {
            if u[col] == -a
                && cancel_constant(l, u).is_some_and(|k| (0..i128::from(a)).contains(&k))
            {
                let mut num = u.clone();
                num[col] = 0;
                return Some((num, a));
            }
        }
    }
    None
}

/// Fourier–Motzkin elimination of `col` (caller checked exactness).
fn fourier_motzkin(bm: &mut BasicMap, col: usize) -> Result<()> {
    let (lowers, uppers): (Vec<Row>, Vec<Row>) = {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        for r in &bm.ineqs {
            if r[col] > 0 {
                lo.push(r.clone());
            } else if r[col] < 0 {
                up.push(r.clone());
            }
        }
        (lo, up)
    };
    bm.ineqs.retain(|r| r[col] == 0);
    for l in &lowers {
        for u in &uppers {
            debug_assert!(
                l[col] == 1 || u[col] == -1 || i128::from(l[col]) == -i128::from(u[col]),
                "FM exactness precondition violated"
            );
            let row = combine(l[col], u.clone(), u[col], l)?;
            debug_assert_eq!(row[col], 0);
            bm.add_ineq(row);
        }
    }
    Ok(())
}

/// Converts div `d_idx` into a fresh output variable with bracket
/// constraints; returns the new variable's column index.
pub(crate) fn div_to_var(bm: &mut BasicMap, d_idx: usize) -> Result<usize> {
    let def = bm.divs[d_idx].clone();
    let div0 = bm.div0();
    let new_col = div0;
    // Insert the variable column at the end of the output block.
    bm.insert_var_cols(new_col, 1);
    let name = fresh_name(bm);
    std::sync::Arc::make_mut(&mut bm.space)
        .output
        .dims
        .push(name);
    // The div block shifted right by one. Move every reference from the
    // old div column to the new variable's (still zero) column.
    let old_div_col = bm.div0() + d_idx;
    for r in bm.eqs.iter_mut().chain(bm.ineqs.iter_mut()) {
        r.swap(new_col, old_div_col);
    }
    for d in bm.divs.iter_mut() {
        d.num.swap(new_col, old_div_col);
    }
    // Widen the captured definition to the post-insert layout and drop the
    // old column reference (a div never references itself).
    let mut num = def.num.clone();
    num.insert(new_col, 0);
    debug_assert_eq!(num[old_div_col], 0);
    bm.remove_div(d_idx);
    num.remove(old_div_col);
    for r in div_brackets(&num, def.den, new_col)? {
        bm.add_ineq(r);
    }
    Ok(new_col)
}

fn fresh_name(bm: &BasicMap) -> String {
    let mut i = bm.n_in() + bm.n_out();
    loop {
        let name = format!("_e{i}");
        let clash = bm
            .space
            .input
            .dims
            .iter()
            .chain(bm.space.output.dims.iter())
            .any(|d| *d == name);
        if !clash {
            return name;
        }
        i += 1;
    }
}

/// Removes a variable column and its dimension name from the space.
fn remove_var(bm: &mut BasicMap, col: usize) {
    // Any remaining references in rows were cleared by the caller, except
    // possibly stale rows mentioning col through the removed equality;
    // remove_var_col asserts cleanliness in debug builds.
    bm.remove_var_col(col);
    let n_in = bm.space.n_in();
    let space = std::sync::Arc::make_mut(&mut bm.space);
    if col < n_in {
        space.input.dims.remove(col);
    } else {
        space.output.dims.remove(col - n_in);
    }
}

/// Updates the targets list after removing `col` (which was `targets[ti]`).
fn retarget_after_removal(targets: &mut Vec<usize>, ti: usize, col: usize) {
    targets.swap_remove(ti);
    for t in targets.iter_mut() {
        if *t > col {
            *t -= 1;
        }
    }
}

/// Shifts all target columns at or beyond `inserted_at` right by one
/// (a fresh variable column was inserted there).
fn shift_targets(targets: &mut [usize], inserted_at: usize) {
    for t in targets.iter_mut() {
        if *t >= inserted_at {
            *t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Space, Tuple};

    /// { [x, y] : 0 <= x < 8, y = x } projecting out x gives 0 <= y < 8.
    #[test]
    fn project_via_unit_equality() {
        let mut bm = BasicMap::universe(Space::set(Tuple::new("A", ["x", "y"])));
        let k = bm.konst();
        let mut lo = bm.zero_row();
        lo[0] = 1;
        bm.add_ineq(lo);
        let mut hi = bm.zero_row();
        hi[0] = -1;
        hi[k] = 7;
        bm.add_ineq(hi);
        let mut eq = bm.zero_row();
        eq[0] = 1;
        eq[1] = -1;
        bm.add_eq(eq);
        let out = eliminate_vars(bm, vec![0]).unwrap();
        assert_eq!(out.len(), 1);
        let r = &out[0];
        assert_eq!(r.space.output.dims, vec!["y".to_string()]);
        assert!(r.contains_point(&[0]).unwrap());
        assert!(r.contains_point(&[7]).unwrap());
        assert!(!r.contains_point(&[8]).unwrap());
    }

    /// { [x, y] : y = 2x, 0 <= x < 5 } projecting x -> even y in [0, 8].
    #[test]
    fn project_via_nonunit_equality() {
        let mut bm = BasicMap::universe(Space::set(Tuple::new("A", ["x", "y"])));
        let k = bm.konst();
        let mut lo = bm.zero_row();
        lo[0] = 1;
        bm.add_ineq(lo);
        let mut hi = bm.zero_row();
        hi[0] = -1;
        hi[k] = 4;
        bm.add_ineq(hi);
        let mut eq = bm.zero_row();
        eq[0] = 2;
        eq[1] = -1;
        bm.add_eq(eq);
        let out = eliminate_vars(bm, vec![0]).unwrap();
        let total: usize = out
            .iter()
            .map(|b| {
                (0..=10)
                    .filter(|&y| b.contains_point(&[y]).unwrap())
                    .count()
            })
            .sum();
        assert_eq!(total, 5); // y in {0, 2, 4, 6, 8}
        assert!(out.iter().any(|b| b.contains_point(&[8]).unwrap()));
        assert!(!out.iter().any(|b| b.contains_point(&[3]).unwrap()));
    }

    /// One-sided bounds disappear on projection.
    #[test]
    fn project_one_sided() {
        let mut bm = BasicMap::universe(Space::set(Tuple::new("A", ["x", "y"])));
        let mut lo = bm.zero_row();
        lo[0] = 1;
        lo[1] = -1; // x >= y
        bm.add_ineq(lo);
        let k = bm.konst();
        let mut ylo = bm.zero_row();
        ylo[1] = 1;
        bm.add_ineq(ylo);
        let mut yhi = bm.zero_row();
        yhi[1] = -1;
        yhi[k] = 3;
        bm.add_ineq(yhi);
        let out = eliminate_vars(bm, vec![0]).unwrap();
        assert_eq!(out.len(), 1);
        for y in 0..=3 {
            assert!(out[0].contains_point(&[y]).unwrap());
        }
    }

    /// FM with unit coefficients: { [x,y] : y <= x <= y + 2, 0 <= x <= 10 }
    /// projecting x gives -2 <= y <= 10.
    #[test]
    fn project_fm_exact() {
        let mut bm = BasicMap::universe(Space::set(Tuple::new("A", ["x", "y"])));
        let k = bm.konst();
        let mut a = bm.zero_row();
        a[0] = 1;
        a[1] = -1; // x - y >= 0
        bm.add_ineq(a);
        let mut b = bm.zero_row();
        b[0] = -1;
        b[1] = 1;
        b[k] = 2; // y + 2 - x >= 0
        bm.add_ineq(b);
        let mut c = bm.zero_row();
        c[0] = 1;
        bm.add_ineq(c);
        let mut d = bm.zero_row();
        d[0] = -1;
        d[k] = 10;
        bm.add_ineq(d);
        let out = eliminate_vars(bm, vec![0]).unwrap();
        assert_eq!(out.len(), 1);
        for y in -2..=10 {
            assert!(out[0].contains_point(&[y]).unwrap(), "y={y}");
        }
        assert!(!out[0].contains_point(&[-3]).unwrap());
        assert!(!out[0].contains_point(&[11]).unwrap());
    }

    /// Non-unit two-sided bounds trigger the exact splitting fallback:
    /// { [x, y] : 2x <= y <= 2x + 1, 0 <= y < 10, 0 <= x < 5 } projected
    /// over x covers every y in [0, 10): all of them (each y has x =
    /// floor(y/2)).
    #[test]
    fn project_split_fallback() {
        let mut bm = BasicMap::universe(Space::set(Tuple::new("A", ["x", "y"])));
        let k = bm.konst();
        let mut a = bm.zero_row();
        a[0] = -2;
        a[1] = 1; // y - 2x >= 0
        bm.add_ineq(a);
        let mut b = bm.zero_row();
        b[0] = 2;
        b[1] = -1;
        b[k] = 1; // 2x + 1 - y >= 0
        bm.add_ineq(b);
        let mut c = bm.zero_row();
        c[1] = 1;
        bm.add_ineq(c);
        let mut d = bm.zero_row();
        d[1] = -1;
        d[k] = 9;
        bm.add_ineq(d);
        let mut e = bm.zero_row();
        e[0] = 1;
        bm.add_ineq(e);
        let mut f = bm.zero_row();
        f[0] = -1;
        f[k] = 4;
        bm.add_ineq(f);
        let out = eliminate_vars(bm, vec![0]).unwrap();
        for y in 0..10 {
            assert!(
                out.iter().any(|b| b.contains_point(&[y]).unwrap()),
                "y={y} missing"
            );
        }
        assert!(!out.iter().any(|b| b.contains_point(&[10]).unwrap()));
    }

    /// Projecting a variable that a div references: { [x, p] : p = x mod 8,
    /// 0 <= x < 16 } -> p in [0, 8).
    #[test]
    fn project_through_div() {
        let mut bm = BasicMap::universe(Space::set(Tuple::new("A", ["x", "p"])));
        let k = bm.konst();
        let mut lo = bm.zero_row();
        lo[0] = 1;
        bm.add_ineq(lo);
        let mut hi = bm.zero_row();
        hi[0] = -1;
        hi[k] = 15;
        bm.add_ineq(hi);
        let mut num = bm.zero_row();
        num[0] = 1;
        let d = bm.add_div(num, 8).unwrap();
        let mut eq = bm.zero_row();
        eq[1] = -1;
        eq[0] = 1;
        eq[d] = -8; // p = x - 8*floor(x/8)
        bm.add_eq(eq);
        let out = eliminate_vars(bm, vec![0]).unwrap();
        for p in 0..8 {
            assert!(
                out.iter().any(|b| b.contains_point(&[p]).unwrap()),
                "p={p} missing"
            );
        }
        assert!(!out.iter().any(|b| b.contains_point(&[8]).unwrap()));
        assert!(!out.iter().any(|b| b.contains_point(&[-1]).unwrap()));
    }
}
