//! Exact integer point counting.
//!
//! The paper computes every metric with `isl_union_map_card` /
//! Barvinok counting. This module provides the equivalent for bounded,
//! non-parametric sets (the only kind TENET's evaluation produces):
//!
//! 1. div columns are expanded into ordinary variables with their bracket
//!    constraints (`0 <= num - den*q < den`) — a bijection, so the count is
//!    unchanged;
//! 2. equalities are removed with the Omega-test equality reduction
//!    (unit-coefficient substitution plus Pugh's `sigma` reduction for
//!    non-unit coefficients) — every step is a bijection;
//! 3. the remaining pure-inequality system is counted by independent-
//!    component factoring, closed-form interval and arithmetic-series sums,
//!    and recursive enumeration with bound propagation.
//!
//! Before recursing, a system tries the closed forms: functional-window
//! drops, an axis-aligned box, and one slab counter for a box intersected
//! with `k >= 1` slab directions, which labels its `k = 1` case
//! [`FastPathKind::Slab`]. Each dispatch bumps the root counter set and
//! every attached [`crate::CounterHandle`] (see [`crate::cache`]).
//!
//! Every derived variable bound comes from one interval rule, [`tighten`]:
//! a row `a·x + rest >= 0` bounds `x` by `a·x >= -max(rest)`. [`scan_rows`]
//! applies it to single-variable rows, and [`propagate`] sweeps it over
//! wider rows for [`count_fast`] and [`Tableau::propagate_bounds`].
//! Enumeration ([`basic_points_visit`]) uses the same rule: each column
//! ranges over its propagated global interval, tightened by every row
//! whose other columns are already pinned. Its invariant: every product
//! and sum is checked, a maximum whose sum leaves i128 implies nothing,
//! and every stored bound lies within ±2^63, so a bound times an i64
//! coefficient always fits in i128. Rows are combined, evaluated, negated
//! and normalized only through the checked helpers of `crate::row`.
//!
//! Every path is exact; property tests compare against brute force.

use crate::basic::{BasicMap, Row};
use crate::cache::note_fastpath;
use crate::row::{cancel_constant, combine, div_brackets, negated, reduce, value, Reduced};
use crate::value::mod_hat;
use crate::{Error, Result};

/// Hard cap on the number of values a single variable may be enumerated
/// over before we give up with [`Error::TooComplex`].
const ENUM_LIMIT: i64 = 4_000_000;
/// Hard cap on the total recursion work of one top-level count, all of
/// it charged on the caller's thread.
const WORK_LIMIT: u64 = 400_000_000;

/// Which closed-form counting shortcut dispatched. The discriminants
/// index the per-kind counter array of a counter set in [`crate::cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FastPathKind {
    /// Functional-window projection.
    Window = 0,
    /// Axis-aligned box.
    Box = 1,
    /// Box ∩ one slab direction: the slab counter's `k = 1` case.
    Slab = 2,
    /// Box ∩ k≥2 independent slab directions.
    MultiSlab = 3,
    /// Two-variable closed form / chained two-variable value-table DP.
    PairChain = 4,
    /// Coupled slabs sharing variables, closed per shared assignment.
    CoupledSlab = 5,
}

/// Number of [`FastPathKind`] variants (length of per-kind arrays).
pub(crate) const FAST_PATH_KINDS: usize = 6;

/// Point-in-time snapshot of the closed-form dispatch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountStats {
    /// Functional-window eliminations (exact multiplicative factors; the
    /// path pure boxes and mod/floor brackets collapse through).
    pub window_counts: u64,
    /// Axis-aligned residual boxes counted by interval-width products.
    pub box_counts: u64,
    /// Box ∩ one slab direction (or halfspace): the slab counter's `k = 1`
    /// case, counted by floor-sums, plus its ±1 emptiness probes.
    pub slab_counts: u64,
    /// Box ∩ k≥2 independent slab directions counted by the split-and-
    /// floor-sum path.
    pub multi_slab_counts: u64,
    /// Two-variable projections closed by the generalized pair series,
    /// and chained two-variable components closed by the value-table DP.
    pub pair_chain_counts: u64,
    /// Coupled-slab shapes (slabs sharing variables) closed by
    /// per-assignment interval intersection with multiple kept slabs.
    pub coupled_slab_counts: u64,
}

impl CountStats {
    /// Sum of all dispatch counters.
    pub fn total(&self) -> u64 {
        self.window_counts
            + self.box_counts
            + self.slab_counts
            + self.multi_slab_counts
            + self.pair_chain_counts
            + self.coupled_slab_counts
    }
}

/// Fast-path dispatch counters since process start, read from the root
/// counter set. Tests needing exact attribution under `cargo test`
/// parallelism read a scoped [`crate::CounterHandle::fast_path_stats`].
pub fn fast_path_stats() -> CountStats {
    crate::cache::ROOT.fast_path_stats()
}

/// A free-form constraint system: `n` variables, rows of width `n + 1`
/// (constant last). Inequalities mean `row >= 0`, equalities `row == 0`.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    pub n: usize,
    pub eqs: Vec<Row>,
    pub ineqs: Vec<Row>,
}

impl Tableau {
    /// Builds a tableau from a borrowed basic map: visible dims keep their
    /// column indices; div columns become trailing variables with bracket
    /// constraints. The rows are copied once, straight into the tableau
    /// (the layout `[vis | divs | const]` is already shared).
    pub(crate) fn from_basic(bm: &BasicMap) -> Result<Tableau> {
        Self::assemble(bm, bm.eqs.to_vec(), bm.ineqs.to_vec())
    }

    /// Like [`Tableau::from_basic`] but consumes the basic map, moving its
    /// rows into the tableau without any copy. Used by the counting entry
    /// points whose callers own their (often freshly subtracted) pieces.
    pub(crate) fn from_basic_owned(mut bm: BasicMap) -> Result<Tableau> {
        let eqs = std::mem::take(&mut bm.eqs);
        let ineqs = std::mem::take(&mut bm.ineqs);
        Self::assemble(&bm, eqs, ineqs)
    }

    fn assemble(bm: &BasicMap, eqs: Vec<Row>, mut ineqs: Vec<Row>) -> Result<Tableau> {
        let n_vis = bm.div0();
        let n_div = bm.n_div();
        ineqs.reserve(2 * n_div);
        for (d, def) in bm.divs.iter().enumerate() {
            ineqs.extend(div_brackets(&def.num, def.den, n_vis + d)?);
        }
        Ok(Tableau {
            n: n_vis + n_div,
            eqs,
            ineqs,
        })
    }

    /// Projects away *functional-window* variables, returning the exact
    /// multiplicative factor the projection removes.
    ///
    /// A variable `q` whose only two constraint rows form the sandwich
    /// `-c1 <= e + m·q <= c2` (the rows cancel each other except at `q`)
    /// confines `m·q` to a window of `w = c1 + c2 + 1` consecutive
    /// integers. When `m` divides `w`, that window contains exactly `w/m`
    /// multiples of `m` regardless of `e`, so `q` has exactly `w/m`
    /// solutions for *every* assignment of the remaining variables:
    /// dropping the two rows and the column and multiplying the count by
    /// `w/m` is exact. The `w = m` case (factor 1) is the bracket shape
    /// every div acquires after equality elimination, so mod/floor-heavy
    /// dataflow relations collapse to boxes and slabs here instead of
    /// feeding the recursive enumerator. An empty window (`w <= 0`) makes
    /// the whole system infeasible — factor 0.
    fn drop_functional_vars(&mut self) -> Result<u128> {
        debug_assert!(self.eqs.is_empty());
        let mut factor: u128 = 1;
        'outer: loop {
            let n = self.n;
            for col in (0..n).rev() {
                let mut touching: [usize; 2] = [usize::MAX; 2];
                let mut count = 0;
                for (i, r) in self.ineqs.iter().enumerate() {
                    if r[col] != 0 {
                        if count == 2 {
                            count = 3;
                            break;
                        }
                        touching[count] = i;
                        count += 1;
                    }
                }
                if count != 2 {
                    continue;
                }
                let (i, j) = (touching[0], touching[1]);
                // The pair must cancel every variable, `q` included.
                let Some(c) = cancel_constant(&self.ineqs[i], &self.ineqs[j]) else {
                    continue;
                };
                let m = i128::from(self.ineqs[i][col].unsigned_abs());
                let w = c + 1;
                if w <= 0 {
                    return Ok(0); // empty window: no q exists anywhere
                }
                if w % m != 0 {
                    continue; // residue-dependent count: not projectable
                }
                factor = factor.checked_mul((w / m) as u128).ok_or(Error::Overflow)?;
                let (hi_idx, lo_idx) = if i > j { (i, j) } else { (j, i) };
                self.ineqs.swap_remove(hi_idx);
                self.ineqs.swap_remove(lo_idx);
                self.remove_col(col);
                continue 'outer;
            }
            break;
        }
        Ok(factor)
    }

    fn remove_col(&mut self, col: usize) {
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            debug_assert_eq!(r[col], 0);
            r.remove(col);
        }
        self.n -= 1;
    }

    fn add_col(&mut self) -> usize {
        let at = self.n;
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r.insert(at, 0);
        }
        self.n += 1;
        at
    }

    /// Uses `eq` (with `eq[col] == ±1`) to substitute `col` out of every
    /// row, then removes the column. Exact for inequalities because the
    /// scale factor is one.
    fn substitute_unit(&mut self, eq: &Row, col: usize) -> Result<()> {
        let eq = if eq[col] < 0 {
            negated(eq, 0)?
        } else {
            eq.clone()
        };
        debug_assert_eq!(eq[col], 1);
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            let c = r[col];
            if c != 0 {
                *r = combine(1, std::mem::take(r), c, &eq)?;
            }
        }
        self.remove_col(col);
        Ok(())
    }

    /// Removes all equalities via the Omega-test reduction.
    /// Returns `false` when the system is infeasible.
    fn eliminate_equalities(&mut self) -> Result<bool> {
        let mut guard = 0usize;
        while !self.eqs.is_empty() {
            guard += 1;
            if guard > 10_000 {
                return Err(Error::TooComplex(
                    "equality elimination did not converge".into(),
                ));
            }
            let mut eq = self.eqs.swap_remove(0);
            match reduce(&mut eq, true) {
                Reduced::Kept => {}
                Reduced::Trivial => continue,
                Reduced::Infeasible => return Ok(false),
            }
            // Unit coefficient: direct substitution.
            let k = self.n;
            if let Some(col) = (0..k).find(|&i| eq[i].unsigned_abs() == 1) {
                self.substitute_unit(&eq, col)?;
                continue;
            }
            // Pugh reduction: introduce sigma with m = |a_min| + 1.
            let col = (0..k)
                .filter(|&i| eq[i] != 0)
                .min_by_key(|&i| eq[i].unsigned_abs())
                .expect("gcd nonzero implies a nonzero coefficient");
            let m = i64::try_from(eq[col].unsigned_abs() + 1).map_err(|_| Error::Overflow)?;
            let sigma = self.add_col();
            eq.insert(sigma, 0);
            let mut eq2: Row = eq.iter().map(|&c| mod_hat(c, m)).collect();
            eq2[sigma] = -m;
            debug_assert_eq!(
                eq2[col].unsigned_abs(),
                1,
                "mod-hat of the pivot must be ±1"
            );
            // Substitute the pivot out of every row, `eq` included.
            self.eqs.push(eq);
            self.substitute_unit(&eq2, col)?;
        }
        Ok(true)
    }

    /// Drops trivial rows; returns `false` on a syntactic contradiction.
    fn normalize_ineqs(&mut self) -> bool {
        let mut ok = true;
        self.ineqs.retain_mut(|r| match reduce(r, false) {
            Reduced::Kept => true,
            Reduced::Trivial => false,
            Reduced::Infeasible => {
                ok = false;
                false
            }
        });
        self.ineqs.sort();
        self.ineqs.dedup();
        ok
    }

    /// Interval propagation: best-known integer ranges for all variables.
    ///
    /// When plain per-row propagation stalls (every row bounding a
    /// variable also contains another unbounded variable), single-variable
    /// bounds are derived by pairwise Fourier–Motzkin combination and
    /// propagation resumes — this closes systems like
    /// `0 <= o - d <= 5 and 0 <= o + 5d <= 35` that have no direct
    /// one-variable rows. An empty interval marks every variable empty.
    fn propagate_bounds(&self) -> Vec<Interval> {
        let n = self.n;
        // Derivation: for every variable, combine each (lower, upper) row
        // pair; keep combinations that mention exactly one variable.
        let mut derived: Vec<Row> = Vec::new();
        for v in 0..n {
            let lowers: Vec<&Row> = self.ineqs.iter().filter(|r| r[v] > 0).collect();
            let uppers: Vec<&Row> = self.ineqs.iter().filter(|r| r[v] < 0).collect();
            if lowers.len() * uppers.len() > 64 {
                continue;
            }
            for l in &lowers {
                for u in &uppers {
                    // A combination that leaves i64 is not derived.
                    let Ok(row) = combine(l[v], (*u).clone(), u[v], l) else {
                        continue;
                    };
                    let nonzero = (0..n).filter(|&j| row[j] != 0).count();
                    if nonzero == 1 && !self.ineqs.contains(&row) && !derived.contains(&row) {
                        derived.push(row);
                    }
                }
            }
        }
        let rows: Vec<&Row> = self.ineqs.iter().chain(&derived).collect();
        let mut bounds: Vec<Interval> = vec![(None, None); n];
        if propagate(&rows, &mut bounds, 64) {
            bounds
        } else {
            vec![(Some(1), Some(0)); n]
        }
    }

    /// Substitutes `var = val`, folding the column into the constant.
    /// Fails with [`Error::Overflow`] when the folded constant leaves i64.
    fn fix(&self, var: usize, val: i128) -> Result<Tableau> {
        let n = self.n;
        let conv = |r: &Row| -> Result<Row> {
            let mut out = Row::with_capacity(n);
            for (i, &c) in r.iter().enumerate() {
                if i == var {
                    continue;
                }
                out.push(c);
            }
            let k = out.len() - 1;
            out[k] = (r[var] as i128)
                .checked_mul(val)
                .and_then(|v| v.checked_add(out[k] as i128))
                .and_then(|v| i64::try_from(v).ok())
                .ok_or(Error::Overflow)?;
            Ok(out)
        };
        Ok(Tableau {
            n: n - 1,
            eqs: self.eqs.iter().map(conv).collect::<Result<_>>()?,
            ineqs: self.ineqs.iter().map(conv).collect::<Result<_>>()?,
        })
    }
}

/// `Σ_{x=0}^{n-1} floor((a·x + b) / m)` in `O(log)` time (the classical
/// Euclidean floor-sum recurrence), exact over `i128`. Requires `m > 0`;
/// `a` and `b` may be negative. Returns `None` when an intermediate
/// product exceeds `i128` (the caller maps this to [`Error::Overflow`]).
fn floor_sum(n: i128, m: i128, mut a: i128, mut b: i128) -> Option<i128> {
    debug_assert!(n >= 0 && m > 0);
    let tri = |n: i128| -> Option<i128> {
        // n*(n-1)/2 without overflowing the intermediate product.
        if n % 2 == 0 {
            (n / 2).checked_mul(n - 1)
        } else {
            n.checked_mul((n - 1) / 2)
        }
    };
    let mut ans: i128 = 0;
    if a < 0 {
        let a2 = a.rem_euclid(m);
        ans = ans.checked_sub(tri(n)?.checked_mul((a2 - a) / m)?)?;
        a = a2;
    }
    if b < 0 {
        let b2 = b.rem_euclid(m);
        ans = ans.checked_sub(n.checked_mul((b2 - b) / m)?)?;
        b = b2;
    }
    let (mut n, mut m, mut a, mut b) = (n, m, a, b);
    loop {
        if a >= m {
            ans = ans.checked_add(tri(n)?.checked_mul(a / m)?)?;
            a %= m;
        }
        if b >= m {
            ans = ans.checked_add(n.checked_mul(b / m)?)?;
            b %= m;
        }
        let y_max = a.checked_mul(n)?.checked_add(b)?;
        if y_max < m {
            break;
        }
        // Count lattice points under the line by swapping the axes.
        n = y_max / m;
        b = y_max % m;
        std::mem::swap(&mut m, &mut a);
    }
    Some(ans)
}

/// One variable's `(lo, hi)` bounds, `None` where a side is open. Held as
/// i128 so bounds derived from i64-extreme rows (e.g. `x >= 2^63` after
/// negating an `i64::MIN` constant) stay exact; [`tighten`] keeps each
/// stored bound within ±2^63, so interval widths and bound-times-
/// coefficient products fit in i128.
type Interval = (Option<i128>, Option<i128>);

/// Whether some interval of `bounds` is empty.
fn any_empty(bounds: &[Interval]) -> bool {
    bounds
        .iter()
        .any(|b| matches!(*b, (Some(l), Some(h)) if l > h))
}

/// The interval rule: a row `a·x + rest >= 0` (`a != 0`) implies
/// `a·x >= -rest_max`, where `rest_max` is the maximum of `rest`, its
/// constant included. Tightens `x`'s interval `b` by that bound and
/// returns whether it changed. A bound beyond ±2^63 is not stored: it is
/// implied, so leaving it out loses nothing.
fn tighten(a: i64, rest_max: i128, b: &mut Interval) -> bool {
    let Some(rhs) = rest_max.checked_neg() else {
        return false;
    };
    let a = a as i128;
    let (bound, side) = if a > 0 {
        (cd128(rhs, a), &mut b.0)
    } else {
        (fd128(rhs, a), &mut b.1)
    };
    let tighter = side.is_none_or(|cur| if a > 0 { bound > cur } else { bound < cur });
    if tighter && bound.unsigned_abs() <= 1 << 63 {
        *side = Some(bound);
        return true;
    }
    false
}

/// Maximum of row `r` over `bounds` with variable `skip` left out: its
/// constant plus each other term at the bound that maximizes it. `None`
/// when that bound is open or the checked sum leaves i128; the row then
/// implies nothing about `skip`. Each bound lies within ±2^63, so each
/// term fits in i128.
fn rest_max(r: &[i64], skip: usize, bounds: &[Interval]) -> Option<i128> {
    let n = bounds.len();
    let mut sum = r[n] as i128;
    for (i, (&a, &(lo, hi))) in r[..n].iter().zip(bounds).enumerate() {
        if i == skip || a == 0 {
            continue;
        }
        let x = if a > 0 { hi? } else { lo? };
        sum = sum.checked_add(i128::from(a) * x)?;
    }
    Some(sum)
}

/// Interval propagation: sweeps `rows` (`row >= 0`) up to `rounds` times,
/// tightening every variable a row mentions by [`tighten`] with the row's
/// [`rest_max`] over the current `bounds`, and stops once a sweep changes
/// nothing. Returns `false` as soon as a sweep leaves an interval empty.
/// Derived bounds are implied, so adopting them never changes the set.
fn propagate(rows: &[&Row], bounds: &mut [Interval], rounds: usize) -> bool {
    for _ in 0..rounds {
        let mut changed = false;
        for r in rows {
            for (j, &a) in r[..bounds.len()].iter().enumerate() {
                if a != 0 {
                    if let Some(rest) = rest_max(r, j, bounds) {
                        changed |= tighten(a, rest, &mut bounds[j]);
                    }
                }
            }
        }
        if any_empty(bounds) {
            return false;
        }
        if !changed {
            break;
        }
    }
    true
}

/// Checked `(min, max)` of the linear form `Σ a·x` over a box, given one
/// `(a, lo, hi)` per variable.
fn form_range(terms: impl Iterator<Item = (i128, i128, i128)>) -> Result<(i128, i128)> {
    let (mut min, mut max) = (0i128, 0i128);
    for (a, lo, hi) in terms {
        let (at_min, at_max) = if a > 0 { (lo, hi) } else { (hi, lo) };
        min = a
            .checked_mul(at_min)
            .and_then(|t| min.checked_add(t))
            .ok_or(Error::Overflow)?;
        max = a
            .checked_mul(at_max)
            .and_then(|t| max.checked_add(t))
            .ok_or(Error::Overflow)?;
    }
    Ok((min, max))
}

/// Per-variable interval bounds read off single-variable rows only.
/// Returns `(lo, hi)` options and the rows touching 2+ vars, or `None`
/// when a constant row is negative.
fn scan_rows(t: &Tableau) -> Option<(Vec<Interval>, Vec<&Row>)> {
    let n = t.n;
    let mut bounds: Vec<Interval> = vec![(None, None); n];
    let mut wide: Vec<&Row> = Vec::new();
    for r in &t.ineqs {
        // Always finish the scan: truncating it would hand the caller an
        // incomplete `bounds`/`wide` picture and silently drop constraints
        // from the slab analysis.
        let mut vars = (0..n).filter(|&j| r[j] != 0);
        match (vars.next(), vars.next()) {
            (Some(v), None) => {
                tighten(r[v], r[n] as i128, &mut bounds[v]);
            }
            (Some(_), Some(_)) => wide.push(r),
            (None, _) if r[n] < 0 => return None,
            (None, _) => {}
        }
    }
    Some((bounds, wide))
}

/// Counts an axis-aligned box given per-variable bounds. `limit` (the
/// emptiness-probe mode) makes one-sided/free variables saturate instead
/// of erroring.
fn count_box(bounds: &[Interval], limit: Option<u128>) -> Result<u128> {
    let mut prod: u128 = 1;
    for &(lo, hi) in bounds {
        let w = match (lo, hi) {
            (Some(l), Some(h)) => {
                if h < l {
                    return Ok(0);
                }
                (h - l + 1) as u128
            }
            _ => match limit {
                Some(l) => l.max(1),
                None => return Err(Error::Unbounded("cannot count a one-sided interval".into())),
            },
        };
        prod = match limit {
            Some(_) => prod.saturating_mul(w),
            None => prod.checked_mul(w).ok_or(Error::Overflow)?,
        };
    }
    Ok(prod)
}

/// Enumeration budget for the outer dimensions of the box∩halfspace path.
const HALFSPACE_ENUM_LIMIT: u128 = 2_000_000;

/// Counts `{ x ∈ box : Σ aᵢ·xᵢ + c ≥ 0 }` exactly. `vars` holds the
/// `(lo, hi, a)` triples of the variables the halfspace touches; the box
/// factor of untouched variables is applied by the caller. Dimensions
/// beyond the last two are enumerated (cheap offset arithmetic only); the
/// final two collapse to a closed form built on [`floor_sum`].
fn count_halfspace_rec(vars: &[(i128, i128, i128)], c: i128) -> Result<u128> {
    match vars {
        [] => Ok((c >= 0) as u128),
        [(lo, hi, a)] => {
            // a·x + c >= 0 over [lo, hi].
            let (mut lo, mut hi, a) = (*lo, *hi, *a);
            if a > 0 {
                lo = lo.max(cd128(-c, a));
            } else {
                hi = hi.min(fd128(-c, a));
            }
            Ok((hi - lo + 1).max(0) as u128)
        }
        [(x0, x1, xa), (y0, y1, ya)] => {
            // Normalize both coefficients positive by mirroring axes.
            let (mut x0, mut x1, mut a) = (*x0, *x1, *xa);
            let (mut y0, mut y1, mut b) = (*y0, *y1, *ya);
            if a < 0 {
                (x0, x1, a) = (-x1, -x0, -a);
            }
            if b < 0 {
                (y0, y1, b) = (-y1, -y0, -b);
            }
            let w = y1 - y0 + 1;
            if w <= 0 || x1 < x0 {
                return Ok(0);
            }
            // cnt(x) = clamp(y1 + 1 + floor((a x + c)/b), 0, w), increasing
            // in x. s0: first x with cnt > 0; s1: first x with cnt = w.
            let thresh = |y: i128| -> Result<i128> {
                y.checked_mul(b)
                    .and_then(|v| v.checked_neg())
                    .and_then(|v| v.checked_sub(c))
                    .ok_or(Error::Overflow)
            };
            let s0 = cd128(thresh(y1)?, a);
            let s1 = cd128(thresh(y0)?, a);
            let full_from = s1.max(x0);
            let full = (x1 - full_from + 1).max(0) as u128;
            let mid_lo = s0.max(x0);
            let mid_hi = (s1 - 1).min(x1);
            let mut total = full.checked_mul(w as u128).ok_or(Error::Overflow)?;
            if mid_lo <= mid_hi {
                let n = mid_hi - mid_lo + 1;
                let off = a
                    .checked_mul(mid_lo)
                    .and_then(|v| v.checked_add(c))
                    .ok_or(Error::Overflow)?;
                let sum_f = floor_sum(n, b, a, off).ok_or(Error::Overflow)?;
                let mid = (y1 + 1)
                    .checked_mul(n)
                    .and_then(|v| v.checked_add(sum_f))
                    .ok_or(Error::Overflow)?;
                debug_assert!(mid >= 0);
                total = total.checked_add(mid as u128).ok_or(Error::Overflow)?;
            }
            Ok(total)
        }
        [head @ .., last] => {
            // Enumerate the trailing variable; the caller sorts widest
            // ranges first so the two closed-form positions absorb the
            // bulk of the volume and enumeration stays shallow.
            let (lo, hi, a) = *last;
            let mut total: u128 = 0;
            for v in lo..=hi {
                let off = a
                    .checked_mul(v)
                    .and_then(|x| x.checked_add(c))
                    .ok_or(Error::Overflow)?;
                total = total
                    .checked_add(count_halfspace_rec(head, off)?)
                    .ok_or(Error::Overflow)?;
            }
            Ok(total)
        }
    }
}

/// Floor division over `i128`.
fn fd128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division over `i128`.
fn cd128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Union-find root of `x`, compressing the path behind it.
fn find(parent: &mut [usize], x: usize) -> usize {
    let mut r = x;
    while parent[r] != r {
        r = parent[r];
    }
    let mut c = x;
    while parent[c] != c {
        let next = parent[c];
        parent[c] = r;
        c = next;
    }
    r
}

/// Union-find over variables connected by shared constraints.
fn components(t: &Tableau) -> Vec<Vec<usize>> {
    let n = t.n;
    let mut parent: Vec<usize> = (0..n).collect();
    for r in t.ineqs.iter().chain(t.eqs.iter()) {
        let mut first: Option<usize> = None;
        for (j, &coef) in r.iter().enumerate().take(n) {
            if coef != 0 {
                match first {
                    None => first = Some(j),
                    Some(f) => {
                        let (a, b) = (find(&mut parent, f), find(&mut parent, j));
                        if a != b {
                            parent[a] = b;
                        }
                    }
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let r = find(&mut parent, j);
        groups[r].push(j);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Extracts the subsystem touching exactly the variables in `vars`.
fn subsystem(t: &Tableau, vars: &[usize]) -> Tableau {
    let conv = |r: &Row| -> Option<Row> {
        // Row belongs to this component iff all its nonzero vars are inside.
        let mut out = Row::zeros(vars.len() + 1);
        for (new_i, &old_i) in vars.iter().enumerate() {
            out[new_i] = r[old_i];
        }
        out[vars.len()] = r[t.n];
        let touches = (0..t.n).any(|j| r[j] != 0 && vars.contains(&j));
        let outside = (0..t.n).any(|j| r[j] != 0 && !vars.contains(&j));
        if touches && !outside {
            Some(out)
        } else {
            None
        }
    };
    Tableau {
        n: vars.len(),
        eqs: t.eqs.iter().filter_map(conv).collect(),
        ineqs: t.ineqs.iter().filter_map(conv).collect(),
    }
}

/// Closed form for an arbitrary two-variable projection whose inner
/// variable has (after merging parallel rows) exactly one lower and one
/// upper bound — any integer coefficients, not just ±1.
///
/// With lower row `aₗ·x + p·y + cₗ ≥ 0` (`p > 0`) and upper row
/// `aᵤ·x − q·y + cᵤ ≥ 0` (`q > 0`), the per-`x` count is
///
/// ```text
/// #y(x) = ⌊(aᵤx + cᵤ)/q⌋ − ⌈−(aₗx + cₗ)/p⌉ + 1
///       = ⌊(aᵤx + cᵤ)/q⌋ + ⌊(aₗx + cₗ)/p⌋ + 1
/// ```
///
/// which is nonnegative exactly where the *rational* interval is
/// nonempty, i.e. on the half-line `(p·aᵤ + q·aₗ)·x + (p·cᵤ + q·cₗ) ≥ 0`
/// (cross-multiplying with positive denominators). Restricting `x` to
/// that region therefore drops only zero-count values, and the sum
/// telescopes into two Euclidean [`floor_sum`]s — `O(log)` regardless of
/// range width. Returns `Ok(None)` when the structure does not match
/// (several irreducible bounds on both orientations) and
/// [`Error::Overflow`] when the total exceeds the checked-i128 range.
///
/// `ranges` is [`Tableau::propagate_bounds`] output, which already holds
/// the bounds of every x-only row.
fn count_pair_series(t: &Tableau, ranges: &[Interval]) -> Result<Option<u128>> {
    debug_assert_eq!(t.n, 2);
    if !t.eqs.is_empty() {
        return Ok(None);
    }
    // Try both orientations: either variable may be the closed-form inner.
    for (x, y) in [(0usize, 1usize), (1usize, 0usize)] {
        // Partition rows; merge parallel y-rows (same (a, b) after the
        // gcd normalization `normalize_ineqs` already applied) keeping
        // the strongest constant — smaller c is tighter for `… + c ≥ 0`.
        let mut lowers: Vec<(i128, i128, i128)> = Vec::new(); // (a_x, b_y>0, c)
        let mut uppers: Vec<(i128, i128, i128)> = Vec::new(); // (a_x, b_y<0, c)
        for r in &t.ineqs {
            let (a, b, c) = (r[x] as i128, r[y] as i128, r[2] as i128);
            if b == 0 {
                continue;
            }
            let side = if b > 0 { &mut lowers } else { &mut uppers };
            match side.iter_mut().find(|(pa, pb, _)| *pa == a && *pb == b) {
                Some(row) => row.2 = row.2.min(c),
                None => side.push((a, b, c)),
            }
        }
        if lowers.len() != 1 || uppers.len() != 1 {
            continue;
        }
        let (Some(mut xlo), Some(mut xhi)) = ranges[x] else {
            continue;
        };
        let (al, p, cl) = lowers[0];
        let (au, nq, cu) = uppers[0];
        let q = -nq;
        debug_assert!(p > 0 && q > 0);
        // Rational-feasibility region: A·x + C >= 0. i64-sourced factors
        // keep every product within i128 (|v| <= 2^63, products <= 2^126).
        let a_reg = p
            .checked_mul(au)
            .and_then(|v| v.checked_add(q.checked_mul(al)?))
            .ok_or(Error::Overflow)?;
        let c_reg = p
            .checked_mul(cu)
            .and_then(|v| v.checked_add(q.checked_mul(cl)?))
            .ok_or(Error::Overflow)?;
        if a_reg > 0 {
            xlo = xlo.max(cd128(-c_reg, a_reg));
        } else if a_reg < 0 {
            xhi = xhi.min(fd128(-c_reg, a_reg));
        } else if c_reg < 0 {
            return Ok(Some(0));
        }
        if xhi < xlo {
            return Ok(Some(0));
        }
        // Σ_{x=xlo}^{xhi} #y(x): two floor-sums plus the +1 term. Every
        // intermediate is checked — ranges near i64 width must surface as
        // Error::Overflow, not wrap.
        let n = xhi - xlo + 1;
        let off_u = au
            .checked_mul(xlo)
            .and_then(|v| v.checked_add(cu))
            .ok_or(Error::Overflow)?;
        let off_l = al
            .checked_mul(xlo)
            .and_then(|v| v.checked_add(cl))
            .ok_or(Error::Overflow)?;
        let sum_u = floor_sum(n, q, au, off_u).ok_or(Error::Overflow)?;
        let sum_l = floor_sum(n, p, al, off_l).ok_or(Error::Overflow)?;
        let total = sum_u
            .checked_add(sum_l)
            .and_then(|v| v.checked_add(n))
            .ok_or(Error::Overflow)?;
        debug_assert!(total >= 0, "per-x counts are nonnegative on the region");
        note_fastpath(FastPathKind::PairChain);
        return Ok(Some(total as u128));
    }
    Ok(None)
}

/// Total value-table cells (sum of variable range widths) the pair-chain
/// DP may allocate before deferring to the recursive counter.
const PAIR_CHAIN_CELL_LIMIT: u128 = 1 << 18;

/// Value-table DP over a tableau whose constraint graph is a forest of
/// two-variable links.
///
/// Every inequality may touch at most two variables; distinct variable
/// pairs are the edges of a graph over the variables, and when that
/// graph is acyclic each tree closes bottom-up: `f_v(x)` = number of
/// assignments to `v`'s subtree consistent with `v = x`, computed per
/// child as a *prefix-sum range query* — the rows on the `(parent,
/// child)` edge pin the child to one contiguous interval for each parent
/// value, so a child's whole table folds into its parent in
/// `O(w_parent + w_child)`. The answer is the product over trees of `Σ_x f_root(x)`
/// (times plain interval widths for edge-free variables). Total cost is
/// linear in the summed range widths, guarded by
/// [`PAIR_CHAIN_CELL_LIMIT`], where recursion would pay a tableau
/// rebuild per enumerated value.
///
/// Single-variable rows are folded into `ranges` (the caller's
/// [`Tableau::propagate_bounds`] output) already; restricting each
/// variable to its derived range is sound because derived bounds are
/// implied. Returns `Ok(None)` — fall back to recursion — on any wider
/// row, a cycle, an unbounded variable, or a too-large table.
fn count_pair_chain(t: &Tableau, ranges: &[Interval], work: &mut u64) -> Result<Option<u128>> {
    if !t.eqs.is_empty() {
        return Ok(None);
    }
    let n = t.n;
    // Edges: canonical (lo, hi) variable pairs with their row indices.
    let mut edges: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for (ri, r) in t.ineqs.iter().enumerate() {
        let mut vars = (0..n).filter(|&j| r[j] != 0);
        let (a, b) = match (vars.next(), vars.next(), vars.next()) {
            (Some(a), Some(b), None) => (a, b),
            (_, _, Some(_)) => return Ok(None), // 3+ variables: not a pair graph
            _ => continue,                      // 0/1-var rows live in `ranges`
        };
        match edges.iter_mut().find(|(ea, eb, _)| (*ea, *eb) == (a, b)) {
            Some((_, _, rows)) => rows.push(ri),
            None => edges.push((a, b, vec![ri])),
        }
    }
    if edges.is_empty() {
        return Ok(None); // pure box: count_fast owns that shape
    }
    // Acyclicity check (union-find over distinct pairs).
    let mut parent: Vec<usize> = (0..n).collect();
    for &(a, b, _) in &edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            return Ok(None); // cycle: intervals are no longer independent
        }
        parent[ra] = rb;
    }
    // Every edge variable needs a finite range within the table budget.
    let mut lo = vec![0i128; n];
    let mut width = vec![0usize; n]; // 0 = not on any edge
    let mut cells: u128 = 0;
    for &(a, b, _) in &edges {
        for v in [a, b] {
            if width[v] != 0 {
                continue;
            }
            let (Some(l), Some(h)) = ranges[v] else {
                return Ok(None);
            };
            let w = h - l + 1;
            debug_assert!(w >= 1, "caller rejected empty ranges");
            cells += w as u128;
            if cells > PAIR_CHAIN_CELL_LIMIT {
                return Ok(None);
            }
            lo[v] = l;
            width[v] = w as usize;
        }
    }
    *work = work.saturating_add(cells.min(u64::MAX as u128) as u64);
    if *work > WORK_LIMIT {
        return Err(Error::TooComplex("counting work limit exceeded".into()));
    }
    // Adjacency over the forest.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (neighbor, edge idx)
    for (ei, &(a, b, _)) in edges.iter().enumerate() {
        adj[a].push((b, ei));
        adj[b].push((a, ei));
    }
    // Interval a row pins `child` to, given `pval` for the other
    // variable; intersected into (clo, chi). `|pval| <= 2^63`, so the
    // folded constant stays far inside i128.
    let pin = |r: &Row, child: usize, other: usize, pval: i128, clo: &mut i128, chi: &mut i128| {
        let ac = r[child] as i128;
        let c = (r[other] as i128) * pval + (r[n] as i128);
        if ac > 0 {
            *clo = (*clo).max(cd128(-c, ac));
        } else {
            *chi = (*chi).min(fd128(-c, ac));
        }
    };
    let mut tables: Vec<Vec<u128>> = vec![Vec::new(); n];
    let mut prefix: Vec<u128> = Vec::new();
    let mut total: u128 = 1;
    let mut visited = vec![false; n];
    for root in 0..n {
        if width[root] == 0 || visited[root] {
            continue;
        }
        // Iterative post-order: push children first, fold on unwind.
        let mut order: Vec<(usize, usize)> = Vec::new(); // (var, parent)
        let mut stack = vec![(root, usize::MAX)];
        while let Some((v, p)) = stack.pop() {
            visited[v] = true;
            order.push((v, p));
            for &(u, _) in &adj[v] {
                if u != p {
                    stack.push((u, v));
                }
            }
        }
        for &(v, _) in order.iter().rev() {
            tables[v] = vec![1u128; width[v]];
            for &(u, ei) in &adj[v] {
                if tables[u].is_empty() {
                    continue; // u is v's parent (not yet folded)
                }
                // Fold child u into v via prefix sums over u's table.
                prefix.clear();
                prefix.reserve(width[u] + 1);
                prefix.push(0);
                for &f in &tables[u] {
                    let last = *prefix.last().unwrap();
                    prefix.push(last.checked_add(f).ok_or(Error::Overflow)?);
                }
                let rows = &edges[ei].2;
                for (i, fv) in tables[v].iter_mut().enumerate() {
                    if *fv == 0 {
                        continue;
                    }
                    let pval = lo[v] + i as i128;
                    let (mut clo, mut chi) = (lo[u], lo[u] + width[u] as i128 - 1);
                    for &ri in rows {
                        pin(&t.ineqs[ri], u, v, pval, &mut clo, &mut chi);
                    }
                    let s = if clo > chi {
                        0
                    } else {
                        let a = (clo - lo[u]) as usize;
                        let b = (chi - lo[u]) as usize;
                        prefix[b + 1] - prefix[a]
                    };
                    *fv = fv.checked_mul(s).ok_or(Error::Overflow)?;
                }
                tables[u] = Vec::new(); // release folded child storage
            }
        }
        let mut tree: u128 = 0;
        for &f in &tables[root] {
            tree = tree.checked_add(f).ok_or(Error::Overflow)?;
        }
        tables[root] = Vec::new();
        if tree == 0 {
            note_fastpath(FastPathKind::PairChain);
            return Ok(Some(0));
        }
        total = total.checked_mul(tree).ok_or(Error::Overflow)?;
    }
    // Variables on no edge contribute their plain interval width (their
    // single-variable rows are already folded into `ranges`).
    for v in 0..n {
        if width[v] != 0 {
            continue;
        }
        let (Some(l), Some(h)) = ranges[v] else {
            return Ok(None);
        };
        total = total
            .checked_mul((h - l + 1) as u128)
            .ok_or(Error::Overflow)?;
    }
    note_fastpath(FastPathKind::PairChain);
    Ok(Some(total))
}

/// Closed-form dispatch: returns `Some(count)` when the (normalized,
/// equality-free) tableau is an axis-aligned box or a box intersected with
/// `k >= 1` slab directions (see [`count_multi_slab`]), `None` when the
/// shape needs the recursive counter. `work` shares [`count_rec`]'s
/// effort budget: the halfspace enumeration charges its loop count.
fn count_fast(t: &Tableau, limit: Option<u128>, work: &mut u64) -> Result<Option<u128>> {
    if !t.eqs.is_empty() {
        return Ok(None);
    }
    let Some((mut bounds, wide)) = scan_rows(t) else {
        return Ok(Some(0));
    };
    if wide.is_empty() {
        let c = count_box(&bounds, limit)?;
        note_fastpath(FastPathKind::Box);
        return Ok(Some(c));
    }
    // Group the multi-variable rows by the linear expression they bound
    // (up to sign): each group is one slab `lo <= e <= hi` (one halfspace
    // is the degenerate slab with a side missing). A single group is the
    // classic skewed time-stamp shape of TENET dataflows (`t = p0 + p1 +
    // k` with `k` boxed); two-plus *independent* directions form the
    // zonotope-like shapes that used to fall back to the recursive
    // counter.
    let n = t.n;
    let mut groups: Vec<SlabGroup> = Vec::new();
    for r in &wide {
        let mut matched = false;
        for g in groups.iter_mut() {
            if r[..n] == g.dir[..] {
                // dir·x + c >= 0  =>  e >= -c.
                let b = -(r[n] as i128);
                if g.lo.is_none_or(|cur| b > cur) {
                    g.lo = Some(b);
                }
                matched = true;
                break;
            } else if r[..n]
                .iter()
                .zip(g.dir.iter())
                .all(|(a, d)| *a as i128 == -(*d as i128))
            {
                // -dir·x + c >= 0  =>  e <= c.
                let b = r[n] as i128;
                if g.hi.is_none_or(|cur| b < cur) {
                    g.hi = Some(b);
                }
                matched = true;
                break;
            }
        }
        if !matched {
            if groups.len() >= MAX_SLAB_GROUPS {
                return Ok(None); // too many directions: fall back
            }
            groups.push(SlabGroup {
                dir: r[..n].to_vec(),
                lo: Some(-(r[n] as i128)),
                hi: None,
            });
        }
    }
    // Derive bounds implied by the slab rows for variables the box leaves
    // open (e.g. the triangle `0 <= x, 0 <= y, x + y <= 3` bounds x and y
    // only through the wide row). Two passes propagate chains; an
    // emptied interval means no point.
    if !propagate(&wide, &mut bounds, 2) {
        return Ok(Some(0));
    }
    count_multi_slab(&bounds, &groups, limit, work)
}

/// One direction's worth of wide rows: the slab `lo <= dir·x <= hi`
/// (either side may be absent — a halfspace).
struct SlabGroup {
    dir: Vec<i64>,
    lo: Option<i128>,
    hi: Option<i128>,
}

/// Cap on distinct slab directions the fast path will analyze; beyond it
/// the recursive counter takes over.
const MAX_SLAB_GROUPS: usize = 6;

/// Exactly counts a box intersected with `k >= 1` slabs of independent
/// directions, including *coupled* slabs that share variables.
///
/// A small enumeration set `E` of variables is chosen greedily so that
/// after pinning `E`, the slabs still touching two or more free
/// variables are pairwise variable-disjoint — only *shared* variables
/// are ever pinned, so two slabs coupled through one variable cost a
/// single odometer axis instead of a whole slab's worth. Each remaining
/// multi-variable slab closes independently with Euclidean floor-sum
/// telescoping (their free-variable sets are disjoint, so the
/// per-assignment counts multiply); every other slab collapses to a
/// *single-variable interval* (or a constant feasibility check), which
/// merely tightens that variable's box bounds. Pinning proceeds by
/// odometer over `E`'s box ranges with cheap integer arithmetic only; no
/// tableau is rebuilt anywhere. A single slab (`k = 1`) pins nothing and
/// closes in one floor-sum pass.
///
/// Dispatch is recorded as [`FastPathKind::Slab`] for `k = 1`,
/// [`FastPathKind::CoupledSlab`] when two or more true slabs survive the
/// pinning (the shapes the old greedy — pin until one slab remains —
/// enumerated much more widely), and [`FastPathKind::MultiSlab`]
/// otherwise.
///
/// Emptiness probes (`limit` set) close only the `k = 1` case, and only
/// when every slab coefficient is ±1; other probes return `Ok(None)`.
/// Otherwise `Ok(None)` means the shape is unsuitable (unboxed slab
/// variables, enumeration too wide, extreme coefficients) — the caller
/// then falls back to the recursive counter.
fn count_multi_slab(
    bounds: &[Interval],
    groups: &[SlabGroup],
    limit: Option<u128>,
    work: &mut u64,
) -> Result<Option<u128>> {
    if limit.is_some() && groups.len() >= 2 {
        // k ≥ 2 emptiness probes go to the recursive counter: the exact
        // count below could be arbitrarily more work than the first-point
        // probe needs.
        return Ok(None);
    }
    let n = bounds.len();
    // Every slab variable must be boxed.
    for g in groups {
        for (v, &b) in bounds.iter().enumerate() {
            if g.dir[v] != 0 && !matches!(b, (Some(_), Some(_))) {
                return Ok(None);
            }
        }
    }
    // Attainable range of each slab expression over the box; clip the
    // stated windows to it (and detect emptiness).
    let mut windows: Vec<(i128, i128)> = Vec::with_capacity(groups.len());
    for g in groups {
        let (e_min, e_max) = form_range(
            g.dir
                .iter()
                .zip(bounds)
                .filter(|(&a, _)| a != 0)
                .map(|(&a, b)| (a as i128, b.0.unwrap(), b.1.unwrap())),
        )?;
        let lo = g.lo.unwrap_or(e_min).max(e_min);
        let hi = g.hi.unwrap_or(e_max).min(e_max);
        if hi < lo {
            return Ok(Some(0));
        }
        windows.push((lo, hi));
    }
    // Variables no slab touches contribute a constant box factor.
    let untouched: Vec<Interval> = (0..n)
        .filter(|&v| groups.iter().all(|g| g.dir[v] == 0))
        .map(|v| bounds[v])
        .collect();
    if limit.is_some() {
        // Single-slab emptiness probe. When every slab coefficient is ±1,
        // e attains every integer of [e_min, e_max] over the box (a
        // Minkowski sum of unit-step integer intervals is an integer
        // interval), so the nonempty window ⊆ [e_min, e_max] is attained
        // and the system is feasible iff the box factor is nonempty.
        // Larger coefficients can step over the window; defer those to the
        // exact machinery.
        if groups[0].dir.iter().all(|a| a.unsigned_abs() <= 1) {
            let factor = count_box(&untouched, limit)?;
            note_fastpath(FastPathKind::Slab);
            return Ok(Some(factor));
        }
        return Ok(None);
    }
    let factor = count_box(&untouched, None)?;
    if factor == 0 {
        return Ok(Some(0));
    }
    let width = |v: usize| bounds[v].1.unwrap() - bounds[v].0.unwrap() + 1;
    let free_of = |g: &SlabGroup, in_e: &[bool]| -> usize {
        (0..n).filter(|&v| g.dir[v] != 0 && !in_e[v]).count()
    };
    // Greedy enumeration set: while some variable is *shared* by two or
    // more slabs that keep >= 2 free variables, pin the variable
    // covering the most such slabs (ties: narrowest range first — it
    // costs the least to enumerate). Pinning stops as soon as the
    // multi-variable slabs are pairwise disjoint on free variables:
    // disjoint slabs close independently, so nothing more need be
    // enumerated.
    let mut in_e = vec![false; n];
    loop {
        let multi: Vec<usize> = (0..groups.len())
            .filter(|&i| free_of(&groups[i], &in_e) >= 2)
            .collect();
        if multi.len() <= 1 {
            break;
        }
        let mut best: Option<(usize, usize, i128)> = None;
        for (v, &pinned) in in_e.iter().enumerate() {
            if pinned {
                continue;
            }
            let cov = multi.iter().filter(|&&i| groups[i].dir[v] != 0).count();
            if cov < 2 {
                continue;
            }
            let w = width(v);
            if best.is_none_or(|(_, bc, bw)| cov > bc || (cov == bc && w < bw)) {
                best = Some((v, cov, w));
            }
        }
        match best {
            Some((v, _, _)) => in_e[v] = true,
            // No shared variable left: the remaining multi-variable
            // slabs are pairwise disjoint and each closes on its own.
            None => break,
        }
    }
    let enum_vars: Vec<usize> = (0..n).filter(|&v| in_e[v]).collect();
    let kept: Vec<usize> = (0..groups.len())
        .filter(|&i| free_of(&groups[i], &in_e) >= 2)
        .collect();
    // Each kept slab's free variables, widest box range first (stably).
    let kept_r: Vec<Vec<usize>> = kept
        .iter()
        .map(|&kj| {
            let mut r: Vec<usize> = (0..n)
                .filter(|&v| groups[kj].dir[v] != 0 && !in_e[v])
                .collect();
            r.sort_by_key(|&v| std::cmp::Reverse(width(v)));
            r
        })
        .collect();
    debug_assert!(
        kept_r
            .iter()
            .enumerate()
            .all(|(i, a)| kept_r[..i].iter().all(|b| a.iter().all(|v| !b.contains(v)))),
        "kept slabs must be pairwise disjoint on free variables"
    );
    // Work guard: odometer volume × each kept slab's inner enumeration
    // (its dimensions beyond the two widest, which the closed form cannot
    // absorb).
    let mut volume: u128 = 1;
    for &v in &enum_vars {
        volume = volume.saturating_mul(width(v) as u128);
    }
    let mut inner_work: u128 = 1;
    for &v in kept_r.iter().flat_map(|r| r.iter().skip(2)) {
        inner_work = inner_work.saturating_mul(width(v) as u128);
    }
    let total_work = volume.saturating_mul(inner_work);
    if total_work > HALFSPACE_ENUM_LIMIT {
        return Ok(None);
    }
    *work = work.saturating_add(total_work.min(u64::MAX as u128) as u64);
    if *work > WORK_LIMIT {
        return Err(Error::TooComplex("counting work limit exceeded".into()));
    }
    // Variables free of E and touched by some slab get per-assignment
    // tightened bounds.
    let touched: Vec<usize> = (0..n)
        .filter(|&v| !in_e[v] && groups.iter().any(|g| g.dir[v] != 0))
        .collect();
    // Per-slab E-support (coefficient per enum var) and the collapsed
    // single free variable of each non-kept slab.
    struct SlabPlan {
        e_coeffs: Vec<(usize, i128)>,    // (enum index, coefficient)
        free_var: Option<(usize, i128)>, // (var, coefficient); None = constant
    }
    let mut plans: Vec<SlabPlan> = Vec::with_capacity(groups.len());
    for (i, g) in groups.iter().enumerate() {
        let e_coeffs = enum_vars
            .iter()
            .enumerate()
            .filter(|(_, &v)| g.dir[v] != 0)
            .map(|(ei, &v)| (ei, g.dir[v] as i128))
            .collect();
        let mut free_var = None;
        if !kept.contains(&i) {
            for (v, &pinned) in in_e.iter().enumerate() {
                if g.dir[v] != 0 && !pinned {
                    debug_assert!(free_var.is_none(), "non-kept slab must have <= 1 free var");
                    free_var = Some((v, g.dir[v] as i128));
                }
            }
        }
        plans.push(SlabPlan { e_coeffs, free_var });
    }
    // Odometer over E.
    let mut point: Vec<i128> = enum_vars.iter().map(|&v| bounds[v].0.unwrap()).collect();
    let mut tb: Vec<(i128, i128)> = vec![(0, 0); n]; // tightened bounds, by var
    let mut triples: Vec<(i128, i128, i128)> = Vec::new();
    let mut kept_shifts: Vec<i128> = vec![0; kept.len()];
    let mut total: u128 = 0;
    'outer: loop {
        for &v in &touched {
            tb[v] = (bounds[v].0.unwrap(), bounds[v].1.unwrap());
        }
        let mut feasible = true;
        for (i, plan) in plans.iter().enumerate() {
            let mut c: i128 = 0;
            for &(ei, a) in &plan.e_coeffs {
                c = a
                    .checked_mul(point[ei])
                    .and_then(|t| c.checked_add(t))
                    .ok_or(Error::Overflow)?;
            }
            if let Some(ki) = kept.iter().position(|&kj| kj == i) {
                kept_shifts[ki] = c;
                continue;
            }
            let lo = windows[i].0.checked_sub(c).ok_or(Error::Overflow)?;
            let hi = windows[i].1.checked_sub(c).ok_or(Error::Overflow)?;
            match plan.free_var {
                None => {
                    // Fully pinned slab: the window must contain zero.
                    if lo > 0 || hi < 0 {
                        feasible = false;
                        break;
                    }
                }
                Some((v, a)) => {
                    // lo <= a·x_v <= hi tightens x_v's interval.
                    let (vlo, vhi) = if a > 0 {
                        (cd128(lo, a), fd128(hi, a))
                    } else {
                        (cd128(hi, a), fd128(lo, a))
                    };
                    tb[v].0 = tb[v].0.max(vlo);
                    tb[v].1 = tb[v].1.min(vhi);
                    if tb[v].0 > tb[v].1 {
                        feasible = false;
                        break;
                    }
                }
            }
        }
        if feasible {
            // Interval-collapsed variables outside every kept slab
            // multiply directly; each kept slab's residual closes with
            // floor-sums over its own (disjoint) free variables.
            let mut cnt: u128 = 1;
            for &v in &touched {
                if kept_r.iter().any(|r| r.contains(&v)) {
                    continue;
                }
                cnt = cnt
                    .checked_mul((tb[v].1 - tb[v].0 + 1) as u128)
                    .ok_or(Error::Overflow)?;
            }
            if cnt > 0 {
                for (ki, &kj) in kept.iter().enumerate() {
                    let dir = &groups[kj].dir;
                    let (r_min, r_max) = form_range(
                        kept_r[ki]
                            .iter()
                            .map(|&v| (dir[v] as i128, tb[v].0, tb[v].1)),
                    )?;
                    triples.clear();
                    triples.extend(
                        kept_r[ki]
                            .iter()
                            .map(|&v| (tb[v].0, tb[v].1, -i128::from(dir[v]))),
                    );
                    let lo = windows[kj]
                        .0
                        .checked_sub(kept_shifts[ki])
                        .ok_or(Error::Overflow)?
                        .max(r_min);
                    let hi = windows[kj]
                        .1
                        .checked_sub(kept_shifts[ki])
                        .ok_or(Error::Overflow)?
                        .min(r_max);
                    let inner = if hi < lo {
                        0
                    } else {
                        // F(T) = #{x : e(x) <= T} via the negated
                        // halfspace -e + T >= 0; the slab count is the
                        // telescoping difference. Widest ranges first,
                        // stably: positions 0 and 1 close in floor-sums,
                        // the rest are enumerated.
                        triples.sort_by_key(|&(l, h, _)| std::cmp::Reverse(h - l));
                        let upper = count_halfspace_rec(&triples, hi)?;
                        let lower = if lo > r_min {
                            count_halfspace_rec(&triples, lo - 1)?
                        } else {
                            0
                        };
                        debug_assert!(upper >= lower);
                        upper - lower
                    };
                    cnt = cnt.checked_mul(inner).ok_or(Error::Overflow)?;
                    if cnt == 0 {
                        break;
                    }
                }
                total = total.checked_add(cnt).ok_or(Error::Overflow)?;
            }
        }
        // Advance the odometer.
        for ei in 0..enum_vars.len() {
            point[ei] += 1;
            if point[ei] <= bounds[enum_vars[ei]].1.unwrap() {
                continue 'outer;
            }
            point[ei] = bounds[enum_vars[ei]].0.unwrap();
        }
        break;
    }
    note_fastpath(if kept.len() >= 2 {
        FastPathKind::CoupledSlab
    } else if groups.len() >= 2 {
        FastPathKind::MultiSlab
    } else {
        FastPathKind::Slab
    });
    Ok(Some(factor.checked_mul(total).ok_or(Error::Overflow)?))
}

/// Recursively counts a pure-inequality tableau. `limit` allows early exit
/// (used for emptiness checks). `work` guards total effort.
fn count_rec(t: &mut Tableau, limit: Option<u128>, work: &mut u64) -> Result<u128> {
    *work += 1;
    if *work > WORK_LIMIT {
        return Err(Error::TooComplex("counting work limit exceeded".into()));
    }
    if !t.normalize_ineqs() {
        return Ok(0);
    }
    if t.n == 0 {
        return Ok(1);
    }
    let mut factor: u128 = 1;
    if t.eqs.is_empty() {
        // Functional-window variables contribute an exact multiplicative
        // factor; dropping them early collapses mod/floor relations into
        // boxes and slabs.
        let n_before = t.n;
        factor = t.drop_functional_vars()?;
        if factor == 0 {
            return Ok(0);
        }
        if t.n < n_before {
            note_fastpath(FastPathKind::Window);
        }
        if t.n == 0 {
            return Ok(factor);
        }
    }
    if factor > 1 {
        let inner = count_rec(t, limit, work)?;
        return match limit {
            Some(_) => Ok(inner.saturating_mul(factor)),
            None => inner.checked_mul(factor).ok_or(Error::Overflow),
        };
    }
    // Free variables (no nonzero coefficient anywhere) make the count
    // infinite. For limited queries (emptiness checks) they can be dropped
    // soundly — any value extends a solution of the rest; for exact counts
    // they are an error.
    for col in (0..t.n).rev() {
        let free = t.eqs.iter().chain(t.ineqs.iter()).all(|r| r[col] == 0);
        if free {
            if limit.is_none() {
                return Err(Error::Unbounded(format!("variable {col} is unconstrained")));
            }
            t.remove_col(col);
        }
    }
    if t.n == 0 {
        return Ok(1);
    }
    if t.n == 1 {
        let Some((bounds, _)) = scan_rows(t) else {
            return Ok(0);
        };
        return count_box(&bounds, limit);
    }
    // Closed-form shortcuts: boxes and box ∩ slab count without recursion.
    if let Some(c) = count_fast(t, limit, work)? {
        return Ok(c);
    }
    let groups = components(t);
    if groups.len() > 1 {
        let mut prod: u128 = 1;
        for g in &groups {
            let c = count_rec(&mut subsystem(t, g), limit, work)?;
            if c == 0 {
                return Ok(0);
            }
            prod = match limit {
                // Limited counts may saturate (they only bound emptiness).
                Some(_) => prod.saturating_mul(c),
                None => prod.checked_mul(c).ok_or(Error::Overflow)?,
            };
        }
        return Ok(prod);
    }
    let ranges = t.propagate_bounds();
    if any_empty(&ranges) {
        return Ok(0);
    }
    if t.n == 2 {
        if let Some(c) = count_pair_series(t, &ranges)? {
            return Ok(c);
        }
    }
    // Chained two-variable links (and pair shapes the series above could
    // not close) fold by value-table DP instead of per-value recursion.
    // Limited probes skip it: enumeration exits at the first point, the
    // DP always pays the full table.
    if limit.is_none() {
        if let Some(c) = count_pair_chain(t, &ranges, work)? {
            return Ok(c);
        }
    }
    // Enumerate the variable with the smallest finite range.
    let mut best: Option<(usize, i128, i128)> = None;
    for (j, &(l, h)) in ranges.iter().enumerate() {
        if let (Some(l), Some(h)) = (l, h) {
            if best.is_none_or(|(_, bl, bh)| h - l < bh - bl) {
                best = Some((j, l, h));
            }
        }
    }
    let (var, lo, hi) = best
        .ok_or_else(|| Error::Unbounded("cannot count: no variable has a finite range".into()))?;
    if hi - lo >= ENUM_LIMIT as i128 {
        return Err(Error::TooComplex(format!(
            "enumeration range too large ({} values)",
            hi - lo + 1
        )));
    }
    let mut total: u128 = 0;
    for v in lo..=hi {
        let mut sub = t.fix(var, v)?;
        total = total
            .checked_add(count_rec(
                &mut sub,
                limit.map(|l| l.saturating_sub(total)),
                work,
            )?)
            .ok_or(Error::Overflow)?;
        if let Some(l) = limit {
            if total >= l {
                return Ok(total);
            }
        }
    }
    Ok(total)
}

/// Counts a borrowed basic map, stopping early once `limit` points are
/// known to exist (`limit` is only used for emptiness-style probes).
pub(crate) fn count_basic_limited(bm: &BasicMap, limit: Option<u128>) -> Result<u128> {
    count_tableau(Tableau::from_basic(bm)?, limit)
}

/// Exactly counts an owned basic map, moving its rows into the tableau
/// (no per-row copies).
pub(crate) fn count_basic_owned(bm: BasicMap) -> Result<u128> {
    count_tableau(Tableau::from_basic_owned(bm)?, None)
}

fn count_tableau(mut t: Tableau, limit: Option<u128>) -> Result<u128> {
    if !t.eliminate_equalities()? {
        return Ok(0);
    }
    let mut work = 0u64;
    count_rec(&mut t, limit, &mut work)
}

/// Whether a basic map contains no integer point.
pub(crate) fn basic_is_empty(bm: &BasicMap) -> Result<bool> {
    Ok(count_basic_limited(bm, Some(1))? == 0)
}

/// Best-known finite range of a visible variable column.
/// Fails with [`Error::Overflow`] when a bound lies outside i64.
pub(crate) fn var_range(bm: &BasicMap, col: usize) -> Result<(i64, i64)> {
    match Tableau::from_basic(bm)?.propagate_bounds()[col] {
        (Some(l), Some(h)) => Ok((to_i64(l)?, to_i64(h)?)),
        _ => Err(Error::Unbounded(format!(
            "variable {col} has no finite range"
        ))),
    }
}

fn to_i64(v: i128) -> Result<i64> {
    i64::try_from(v).map_err(|_| Error::Overflow)
}

/// Depth-first visit of every point (over the visible dims) of a basic
/// map, without materializing the point list: `sink` observes each point
/// as a borrowed slice and may abort the walk by returning an error.
/// Each visible point is visited exactly once (div columns are functions
/// of the visible variables, pinned by their bracket constraints).
pub(crate) fn basic_points_visit(
    bm: &BasicMap,
    sink: &mut dyn FnMut(&[i64]) -> Result<()>,
) -> Result<()> {
    let t = Tableau::from_basic(bm)?;
    let n = t.n;
    let global = t.propagate_bounds();
    // An equality enters as two opposite inequalities.
    let mut rows = t.ineqs;
    for e in t.eqs {
        rows.push(negated(&e, 0)?);
        rows.push(e);
    }
    // The point carries a trailing 1 so [`value`] adds each constant in.
    let mut point = vec![0; n + 1];
    point[n] = 1;
    let n_vis = bm.div0();
    enum_rec(
        &rows,
        &global,
        &mut vec![(None, None); n],
        &mut point,
        0,
        &mut |p| sink(&p[..n_vis]),
    )
}

/// Visits every point of `rows` (each `row >= 0`) that extends the pinned
/// prefix `point[..depth]`, which `pinned` holds as one-value intervals
/// (the columns from `depth` on are open there). Column `depth` ranges
/// over its propagated `global` interval, tightened by [`tighten`] with
/// the [`rest_max`] of every row whose other columns are all pinned.
fn enum_rec(
    rows: &[Row],
    global: &[Interval],
    pinned: &mut [Interval],
    point: &mut [i64],
    depth: usize,
    sink: &mut dyn FnMut(&[i64]) -> Result<()>,
) -> Result<()> {
    if depth == global.len() {
        for r in rows {
            if value(r, point)? < 0 {
                return Ok(());
            }
        }
        return sink(point);
    }
    let mut range = global[depth];
    for r in rows {
        if r[depth] != 0 {
            if let Some(rest) = rest_max(r, depth, pinned) {
                tighten(r[depth], rest, &mut range);
            }
        }
    }
    let (Some(lo), Some(hi)) = range else {
        return Err(Error::Unbounded(format!(
            "variable {depth} unbounded during enumeration"
        )));
    };
    if lo > hi {
        return Ok(());
    }
    for v in to_i64(lo)?..=to_i64(hi)? {
        point[depth] = v;
        pinned[depth] = (Some(v.into()), Some(v.into()));
        enum_rec(rows, global, pinned, point, depth + 1, sink)?;
    }
    pinned[depth] = (None, None);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Space, Tuple};

    fn boxed(bounds: &[(i64, i64)]) -> BasicMap {
        let dims: Vec<String> = (0..bounds.len()).map(|i| format!("x{i}")).collect();
        let mut bm = BasicMap::universe(Space::set(Tuple::new("B", dims)));
        for (i, &(l, h)) in bounds.iter().enumerate() {
            let mut lo = bm.zero_row();
            lo[i] = 1;
            let k = bm.konst();
            lo[k] = -l;
            bm.add_ineq(lo);
            let mut hi = bm.zero_row();
            hi[i] = -1;
            hi[bm.konst()] = h;
            bm.add_ineq(hi);
        }
        bm
    }

    #[test]
    fn count_box() {
        let bm = boxed(&[(0, 3), (0, 4)]);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 20);
    }

    #[test]
    fn count_empty_box() {
        let bm = boxed(&[(2, 1)]);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 0);
    }

    #[test]
    fn count_triangle() {
        // 0 <= x, y ; x + y <= 3 -> 10 points.
        let mut bm = boxed(&[(0, 100), (0, 100)]);
        let mut r = bm.zero_row();
        r[0] = -1;
        r[1] = -1;
        let k = bm.konst();
        r[k] = 3;
        bm.add_ineq(r);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 10);
    }

    #[test]
    fn count_with_equality() {
        // 0 <= x,y <= 9 and x = y -> 10 points.
        let mut bm = boxed(&[(0, 9), (0, 9)]);
        let mut r = bm.zero_row();
        r[0] = 1;
        r[1] = -1;
        bm.add_eq(r);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 10);
    }

    #[test]
    fn count_with_nonunit_equality() {
        // 0 <= x <= 20, 0 <= y <= 20, 2x = 3y -> y even, x = 3y/2:
        // y in {0,2,4,...,12} gives x in {0,3,...,18}: but x <= 20 -> y <= 13
        // and x = 3y/2 <= 20 -> y <= 13 -> y in {0,2,...,12}: 7 points.
        let mut bm = boxed(&[(0, 20), (0, 20)]);
        let mut r = bm.zero_row();
        r[0] = 2;
        r[1] = -3;
        bm.add_eq(r);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 7);
    }

    #[test]
    fn count_with_div() {
        // { [i] : 0 <= i < 16 and i mod 8 < 4 } -> 8 points.
        let mut bm = boxed(&[(0, 15)]);
        let num = bm.zero_row();
        let mut num = num;
        num[0] = 1;
        let d = bm.add_div(num, 8).unwrap();
        // i - 8q <= 3  ->  -i + 8q + 3 >= 0
        let mut r = bm.zero_row();
        r[0] = -1;
        r[d] = 8;
        let k = bm.konst();
        r[k] = 3;
        bm.add_ineq(r);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 8);
    }

    #[test]
    fn count_big_series() {
        // 0 <= x < 100000, 0 <= y <= x: triangular number.
        let mut bm = boxed(&[(0, 99_999), (0, 1_000_000)]);
        let mut r = bm.zero_row();
        r[0] = 1;
        r[1] = -1;
        bm.add_ineq(r); // y <= x
        let n: u128 = 100_000;
        assert_eq!(count_basic_limited(&bm, None).unwrap(), n * (n + 1) / 2);
    }

    #[test]
    fn points_enumeration() {
        let bm = boxed(&[(0, 2), (1, 2)]);
        let mut pts = Vec::new();
        basic_points_visit(&bm, &mut |p| {
            pts.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&vec![0, 1]));
        assert!(pts.contains(&vec![2, 2]));
    }

    #[test]
    fn count_many_parallel_rows_then_steeper() {
        // Regression: scan_rows used to stop scanning after collecting 7
        // multi-variable rows, so a steeper row sorted after redundant
        // parallel ones was silently dropped and the slab fast path
        // returned the full box count. 0 <= x,y <= 9 with x+y >= -k for
        // k = 1..7 (all redundant) plus x + 2y >= 3 has 96 points, not 100.
        let mut bm = boxed(&[(0, 9), (0, 9)]);
        let k = bm.konst();
        for c in 1..=7 {
            let mut r = bm.zero_row();
            r[0] = 1;
            r[1] = 1;
            r[k] = c;
            bm.add_ineq(r);
        }
        let mut r = bm.zero_row();
        r[0] = 1;
        r[1] = 2;
        r[k] = -3;
        bm.add_ineq(r);
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 96);
    }

    #[test]
    fn count_many_parallel_rows_slab() {
        // 8+ parallel wide rows where the slab form genuinely applies:
        // the tightest pair wins and the fast path stays exact.
        // 0 <= x,y <= 9 with 1 <= x + y <= 5 (stated redundantly).
        let mut bm = boxed(&[(0, 9), (0, 9)]);
        let k = bm.konst();
        for c in [-1i64, -1, -1, -1, -1] {
            let mut r = bm.zero_row();
            r[0] = 1;
            r[1] = 1;
            r[k] = c;
            bm.add_ineq(r);
        }
        for c in [5i64, 6, 7, 8] {
            let mut r = bm.zero_row();
            r[0] = -1;
            r[1] = -1;
            r[k] = c;
            bm.add_ineq(r);
        }
        // #{0<=x,y<=9 : 1 <= x+y <= 5} = Σ_{s=1}^{5} (s+1) = 20.
        assert_eq!(count_basic_limited(&bm, None).unwrap(), 20);
    }

    #[test]
    fn pair_series_overflow_is_reported() {
        // y in [0, M*x] for x in [0, H] with huge M: the arithmetic-series
        // total exceeds i128 and must surface as Error::Overflow rather
        // than wrapping to a bogus count.
        let m = 1i64 << 62;
        let h = i64::MAX / 2;
        let row = |a: i64, b: i64, c: i64| {
            let mut r = Row::zeros(3);
            r[0] = a;
            r[1] = b;
            r[2] = c;
            r
        };
        let t = Tableau {
            n: 2,
            eqs: Vec::new(),
            ineqs: vec![row(1, 0, 0), row(-1, 0, h), row(0, 1, 0), row(m, -1, 0)],
        };
        let ranges = vec![(Some(0), Some(h.into())), (Some(0), None)];
        assert!(matches!(
            count_pair_series(&t, &ranges),
            Err(Error::Overflow)
        ));
    }

    #[test]
    fn floor_sum_checked() {
        // Σ_{x=0}^{4} floor((2x+1)/3) = 0+1+1+2+3 = 7.
        assert_eq!(floor_sum(5, 3, 2, 1), Some(7));
        // Negative a/b normalization stays exact.
        assert_eq!(
            floor_sum(4, 3, -2, -1),
            Some((0..4).map(|x: i128| (-2 * x - 1).div_euclid(3)).sum())
        );
        // Quadratic blow-up past i128 reports overflow instead of wrapping.
        assert_eq!(
            floor_sum(i128::from(i64::MAX), 1, i64::MAX as i128, 0),
            None
        );
    }

    #[test]
    fn functional_window_min_coeff_does_not_cancel() {
        // ri[v] = rj[v] = i64::MIN wrap-adds to 0; the window test must
        // compare in i128 or the pair is dropped as a functional window
        // and the count comes back 80 instead of 8.
        let row = |a: i64, b: i64, c: i64| {
            let mut r = Row::zeros(3);
            r[0] = a;
            r[1] = b;
            r[2] = c;
            r
        };
        let t = Tableau {
            n: 2,
            eqs: Vec::new(),
            ineqs: vec![
                row(1, 0, 0),         // x >= 0
                row(-1, 0, 9),        // x <= 9
                row(i64::MIN, 1, 0),  // MIN·x + q >= 0
                row(i64::MIN, -1, 7), // MIN·x - q + 7 >= 0
            ],
        };
        // Only x = 0 admits any q (0 <= q <= 7): 8 points.
        assert_eq!(count_tableau(t, None).unwrap(), 8);
    }

    #[test]
    fn enumeration_width_guard_survives_extreme_bounds() {
        // Bounds spanning more than i64::MAX must trip the enumeration
        // guard (TooComplex), not wrap the i64 width computation.
        let row = |a: i64, b: i64, c: i64| {
            let mut r = Row::zeros(3);
            r[0] = a;
            r[1] = b;
            r[2] = c;
            r
        };
        let h = i64::MAX - 1;
        let t = Tableau {
            n: 2,
            eqs: Vec::new(),
            ineqs: vec![
                row(1, 0, h),   // x >= -(MAX-1)
                row(-1, 0, h),  // x <= MAX-1
                row(0, 1, h),   // y >= -(MAX-1)
                row(0, -1, h),  // y <= MAX-1
                row(1, 1, 0),   // x + y >= 0
                row(-1, -2, 9), // x + 2y <= 9
            ],
        };
        assert!(matches!(
            count_tableau(t, None),
            Err(Error::TooComplex(_) | Error::Overflow)
        ));
    }

    #[test]
    fn min_constant_rows_count_exactly() {
        // A row constant of i64::MIN means `x >= 2^63`; negating it must
        // widen to i128, not wrap back to i64::MIN and admit the full box.
        let row1 = |a: i64, c: i64| {
            let mut r = Row::zeros(2);
            r[0] = a;
            r[1] = c;
            r
        };
        // Single variable (scan_rows + count_box): x >= 2^63 and x <= 9
        // is empty.
        // The third row keeps the pair out of the functional-window drop.
        let t = Tableau {
            n: 1,
            eqs: Vec::new(),
            ineqs: vec![row1(1, i64::MIN), row1(2, i64::MIN), row1(-1, 9)],
        };
        assert_eq!(count_tableau(t, None).unwrap(), 0);
        // Box path (scan_rows): same contradiction on x, y boxed; three
        // rows per variable again defeat the window shortcut.
        let row2 = |a: i64, b: i64, c: i64| {
            let mut r = Row::zeros(3);
            r[0] = a;
            r[1] = b;
            r[2] = c;
            r
        };
        let t = Tableau {
            n: 2,
            eqs: Vec::new(),
            ineqs: vec![
                row2(1, 0, i64::MIN), // x >= 2^63
                row2(2, 0, i64::MIN), // x >= 2^62 (redundant)
                row2(-1, 0, 9),       // x <= 9
                row2(0, 1, 0),        // y >= 0
                row2(0, 1, 1),        // y >= -1 (redundant)
                row2(0, -1, 4),       // y <= 4
            ],
        };
        assert_eq!(count_tableau(t, None).unwrap(), 0);
    }

    #[test]
    fn emptiness() {
        let mut bm = boxed(&[(0, 9)]);
        let mut r = bm.zero_row();
        r[0] = 1;
        let k = bm.konst();
        r[k] = -100; // x >= 100 contradicts x <= 9
        bm.add_ineq(r);
        assert!(basic_is_empty(&bm).unwrap());
    }
}
