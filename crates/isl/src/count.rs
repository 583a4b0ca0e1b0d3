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
//! Every path is exact; property tests compare against brute force.

use crate::basic::{BasicMap, Row};
use crate::cache::note_fastpath;
use crate::value::{ceil_div, floor_div, gcd, mod_hat};
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
        Ok(Self::assemble(bm, bm.eqs.to_vec(), bm.ineqs.to_vec()))
    }

    /// Like [`Tableau::from_basic`] but consumes the basic map, moving its
    /// rows into the tableau without any copy. Used by the counting entry
    /// points whose callers own their (often freshly subtracted) pieces.
    pub(crate) fn from_basic_owned(mut bm: BasicMap) -> Result<Tableau> {
        let eqs = std::mem::take(&mut bm.eqs);
        let ineqs = std::mem::take(&mut bm.ineqs);
        Ok(Self::assemble(&bm, eqs, ineqs))
    }

    fn assemble(bm: &BasicMap, eqs: Vec<Row>, mut ineqs: Vec<Row>) -> Tableau {
        let n_vis = bm.div0();
        let n_div = bm.n_div();
        let n = n_vis + n_div;
        ineqs.reserve(2 * n_div);
        // Bracket constraints for each div: 0 <= num - den*q <= den - 1.
        for (d, def) in bm.divs.iter().enumerate() {
            let col = n_vis + d;
            let mut lo = def.num.clone();
            lo[col] -= def.den;
            let mut hi: Row = def.num.iter().map(|c| -c).collect();
            hi[col] += def.den;
            let k = hi.len() - 1;
            hi[k] += def.den - 1;
            ineqs.push(lo);
            ineqs.push(hi);
        }
        Tableau { n, eqs, ineqs }
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
                // All pair arithmetic in i128: i64::MIN coefficients must
                // not wrap into spurious cancellations or a negative `m`.
                let (a, b) = (self.ineqs[i][col] as i128, self.ineqs[j][col] as i128);
                if a != -b {
                    continue;
                }
                let m = a.abs();
                // The pair must cancel every variable except `q`.
                let (ri, rj) = (&self.ineqs[i], &self.ineqs[j]);
                let mut cancels = true;
                for v in 0..n {
                    if v != col && (ri[v] as i128) + (rj[v] as i128) != 0 {
                        cancels = false;
                        break;
                    }
                }
                if !cancels {
                    continue;
                }
                let w = (ri[n] as i128) + (rj[n] as i128) + 1;
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
    fn substitute_unit(&mut self, eq: &Row, col: usize) {
        let mut eq = eq.clone();
        if eq[col] < 0 {
            for c in eq.iter_mut() {
                *c = -*c;
            }
        }
        debug_assert_eq!(eq[col], 1);
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            let c = r[col];
            if c != 0 {
                for (ri, ei) in r.iter_mut().zip(eq.iter()) {
                    *ri -= c * ei;
                }
            }
        }
        self.remove_col(col);
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
            let k = self.n; // constant index within this row
            let g = eq[..k].iter().fold(0, |a, &c| gcd(a, c));
            if g == 0 {
                if eq[k] != 0 {
                    return Ok(false);
                }
                continue;
            }
            if eq[k] % g != 0 {
                return Ok(false);
            }
            if g > 1 {
                for c in eq.iter_mut() {
                    *c /= g;
                }
            }
            // Unit coefficient: direct substitution.
            if let Some(col) = (0..k).find(|&i| eq[i].abs() == 1) {
                self.substitute_unit(&eq, col);
                continue;
            }
            // Pugh reduction: introduce sigma with m = |a_min| + 1.
            let col = (0..k)
                .filter(|&i| eq[i] != 0)
                .min_by_key(|&i| eq[i].abs())
                .expect("gcd nonzero implies a nonzero coefficient");
            let m = eq[col].abs().checked_add(1).ok_or(Error::Overflow)?;
            let sigma = self.add_col();
            eq.insert(sigma, 0);
            let kc = self.n; // new constant index
            let mut eq2 = Row::zeros(kc + 1);
            for i in 0..kc {
                if i == sigma {
                    eq2[i] = -m;
                } else {
                    eq2[i] = mod_hat(eq[i], m);
                }
            }
            eq2[kc] = mod_hat(eq[kc], m);
            debug_assert_eq!(eq2[col].abs(), 1, "mod-hat of the pivot must be ±1");
            // Substitute the pivot out of every row (including `eq`).
            let c = eq[col];
            let s = if eq2[col] > 0 { 1 } else { -1 };
            let mut eq2n = eq2.clone();
            if s < 0 {
                for v in eq2n.iter_mut() {
                    *v = -*v;
                }
            }
            let fold = |r: &mut Row| {
                let cc = r[col];
                if cc != 0 {
                    for (ri, ei) in r.iter_mut().zip(eq2n.iter()) {
                        *ri -= cc * ei;
                    }
                }
            };
            let _ = c;
            for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
                fold(r);
            }
            fold(&mut eq);
            self.eqs.push(eq);
            self.remove_col(col);
        }
        Ok(true)
    }

    /// Drops trivial rows; returns `false` on a syntactic contradiction.
    fn normalize_ineqs(&mut self) -> bool {
        let k = self.n;
        let mut ok = true;
        self.ineqs.retain_mut(|r| {
            let g = r[..k].iter().fold(0, |a, &c| gcd(a, c));
            if g == 0 {
                if r[k] < 0 {
                    ok = false;
                }
                return false;
            }
            if g > 1 {
                for c in r[..k].iter_mut() {
                    *c /= g;
                }
                r[k] = floor_div(r[k], g);
            }
            true
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
    /// one-variable rows.
    fn propagate_bounds(&self) -> Result<Vec<(Option<i64>, Option<i64>)>> {
        let mut rows = self.ineqs.clone();
        let n = self.n;
        // Derivation: for every variable, combine each (lower, upper) row
        // pair; keep combinations that mention exactly one variable.
        let mut derived: Vec<Row> = Vec::new();
        for v in 0..n {
            let lowers: Vec<&Row> = rows.iter().filter(|r| r[v] > 0).collect();
            let uppers: Vec<&Row> = rows.iter().filter(|r| r[v] < 0).collect();
            if lowers.len() * uppers.len() > 64 {
                continue;
            }
            for l in &lowers {
                for u in &uppers {
                    let a = l[v] as i128;
                    let b = -(u[v] as i128);
                    let mut row = Row::with_capacity(n + 1);
                    let mut ok = true;
                    for (x, y) in l.iter().zip(u.iter()) {
                        let val = b * (*x as i128) + a * (*y as i128);
                        match i64::try_from(val) {
                            Ok(v) => row.push(v),
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let nonzero = (0..n).filter(|&j| row[j] != 0).count();
                    if nonzero == 1 && !rows.contains(&row) && !derived.contains(&row) {
                        derived.push(row);
                    }
                }
            }
        }
        rows.extend(derived);
        let mut lo: Vec<Option<i128>> = vec![None; n];
        let mut hi: Vec<Option<i128>> = vec![None; n];
        for _round in 0..64 {
            let mut changed = false;
            for r in &rows {
                for j in 0..n {
                    let aj = r[j];
                    if aj == 0 {
                        continue;
                    }
                    // a_j x_j >= -c - sum_{i != j} a_i x_i; a universally
                    // valid implied bound uses the *maximum* of the sum.
                    let mut rest_max: i128 = r[n] as i128;
                    let mut bounded = true;
                    for i in 0..n {
                        if i == j || r[i] == 0 {
                            continue;
                        }
                        let term = if r[i] > 0 {
                            hi[i].map(|v| r[i] as i128 * v)
                        } else {
                            lo[i].map(|v| r[i] as i128 * v)
                        };
                        match term {
                            Some(t) => rest_max += t,
                            None => {
                                bounded = false;
                                break;
                            }
                        }
                    }
                    if !bounded {
                        continue;
                    }
                    // a_j x_j >= -(c + rest_max)
                    let rhs = -rest_max;
                    if aj > 0 {
                        let b = cd128(rhs, aj as i128);
                        if lo[j].is_none_or(|cur| b > cur) {
                            lo[j] = Some(b);
                            changed = true;
                        }
                    } else {
                        let b = fd128(rhs, aj as i128);
                        if hi[j].is_none_or(|cur| b < cur) {
                            hi[j] = Some(b);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
            // Detect emptiness early.
            for j in 0..n {
                if let (Some(l), Some(h)) = (lo[j], hi[j]) {
                    if l > h {
                        return Ok(vec![(Some(1), Some(0)); n]);
                    }
                }
            }
        }
        let clamp = |v: Option<i128>| -> Result<Option<i64>> {
            match v {
                None => Ok(None),
                Some(x) => {
                    if x > i64::MAX as i128 || x < i64::MIN as i128 {
                        Ok(None)
                    } else {
                        Ok(Some(x as i64))
                    }
                }
            }
        };
        let mut out = Vec::with_capacity(n);
        for j in 0..n {
            out.push((clamp(lo[j])?, clamp(hi[j])?));
        }
        Ok(out)
    }

    /// Substitutes `var = val`, folding the column into the constant,
    /// drawing the row containers from `arena` instead of allocating
    /// fresh ones — the recursive counter's enumeration loop builds and
    /// drops one tableau per enumerated value, so the containers cycle
    /// through the pool instead of the allocator. Fails with
    /// [`Error::Overflow`] when the folded constant leaves i64.
    fn fix_with(&self, var: usize, val: i64, arena: &mut RowArena) -> Result<Tableau> {
        let n = self.n;
        let mut t = Tableau {
            n: n - 1,
            eqs: arena.take(self.eqs.len()),
            ineqs: arena.take(self.ineqs.len()),
        };
        let conv = |r: &Row| -> Result<Row> {
            let mut out = Row::with_capacity(n);
            for (i, &c) in r.iter().enumerate() {
                if i == var {
                    continue;
                }
                out.push(c);
            }
            let k = out.len() - 1;
            let folded = (out[k] as i128) + (r[var] as i128) * (val as i128);
            out[k] = i64::try_from(folded).map_err(|_| Error::Overflow)?;
            Ok(out)
        };
        for r in &self.eqs {
            match conv(r) {
                Ok(row) => t.eqs.push(row),
                Err(e) => {
                    arena.reclaim(t);
                    return Err(e);
                }
            }
        }
        for r in &self.ineqs {
            match conv(r) {
                Ok(row) => t.ineqs.push(row),
                Err(e) => {
                    arena.reclaim(t);
                    return Err(e);
                }
            }
        }
        Ok(t)
    }
}

/// Pool of `Vec<Row>` containers cycled through the recursive counter's
/// cold path.
///
/// Rows up to 16 columns wide store their coefficients inline
/// ([`crate::row`]), so the only heap traffic of a tableau clone is the
/// two `Vec<Row>` containers themselves — exactly what `fix`-per-value
/// enumeration churns. The pool keeps dropped containers (cleared, with
/// their capacity) for the next clone at the same recursion depth.
pub(crate) struct RowArena {
    pool: Vec<Vec<Row>>,
}

impl RowArena {
    /// Containers kept across [`RowArena::put`]; beyond this they drop.
    const MAX_POOLED: usize = 64;

    pub(crate) fn new() -> RowArena {
        RowArena { pool: Vec::new() }
    }

    /// An empty container with room for `cap` rows, reusing a pooled
    /// allocation when one is available.
    fn take(&mut self, cap: usize) -> Vec<Row> {
        match self.pool.pop() {
            Some(mut v) => {
                v.reserve(cap);
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Returns a container (cleared) to the pool.
    fn put(&mut self, mut v: Vec<Row>) {
        if self.pool.len() < Self::MAX_POOLED {
            v.clear();
            self.pool.push(v);
        }
    }

    /// Returns a finished tableau's containers to the pool.
    fn reclaim(&mut self, t: Tableau) {
        self.put(t.eqs);
        self.put(t.ineqs);
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

/// Per-variable `(lo, hi)` interval bounds, read off single-variable rows.
/// Held as i128 so bounds derived from i64-extreme rows (e.g. `x >= 2^63`
/// after negating an `i64::MIN` constant) stay exact; each stored bound has
/// magnitude at most `2^63`, so interval widths fit comfortably.
type VarBounds = Vec<(Option<i128>, Option<i128>)>;

/// Per-variable interval bounds read off single-variable rows only.
/// Returns `(lo, hi)` options and the indices of rows touching 2+ vars.
fn scan_rows(t: &Tableau) -> Option<(VarBounds, Vec<usize>)> {
    let n = t.n;
    let mut bounds: VarBounds = vec![(None, None); n];
    let mut wide: Vec<usize> = Vec::new();
    for (idx, r) in t.ineqs.iter().enumerate() {
        let rs = r.as_slice();
        let mut var = usize::MAX;
        let mut multi = false;
        for (j, &c) in rs[..n].iter().enumerate() {
            if c != 0 {
                if var == usize::MAX {
                    var = j;
                } else {
                    multi = true;
                    break;
                }
            }
        }
        if multi {
            // Always finish the scan: truncating here would hand the caller
            // an incomplete `bounds`/`wide` picture and silently drop
            // constraints from the slab analysis. Parallel-direction
            // checking in `count_fast` rejects unsuitable systems cheaply
            // regardless of how many wide rows there are.
            wide.push(idx);
            continue;
        }
        if var == usize::MAX {
            // Constant row: infeasible if negative.
            if rs[n] < 0 {
                return None;
            }
            continue;
        }
        let a = rs[var] as i128;
        let c = rs[n] as i128;
        if a > 0 {
            let b = cd128(-c, a);
            let cur = &mut bounds[var].0;
            if cur.is_none_or(|v| b > v) {
                *cur = Some(b);
            }
        } else {
            let b = fd128(-c, a);
            let cur = &mut bounds[var].1;
            if cur.is_none_or(|v| b < v) {
                *cur = Some(b);
            }
        }
    }
    Some((bounds, wide))
}

/// Counts an axis-aligned box given per-variable bounds. `limit` (the
/// emptiness-probe mode) makes one-sided/free variables saturate instead
/// of erroring, mirroring [`count_single`].
fn count_box(bounds: &[(Option<i128>, Option<i128>)], limit: Option<u128>) -> Result<u128> {
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
fn count_halfspace_rec(vars: &[(i128, i128, i64)], c: i128) -> Result<u128> {
    match vars {
        [] => Ok((c >= 0) as u128),
        [(lo, hi, a)] => {
            // a·x + c >= 0 over [lo, hi].
            let (mut lo, mut hi) = (*lo, *hi);
            let a = *a as i128;
            if a > 0 {
                lo = lo.max(cd128(-c, a));
            } else {
                hi = hi.min(fd128(-c, a));
            }
            Ok((hi - lo + 1).max(0) as u128)
        }
        [(x0, x1, xa), (y0, y1, ya)] => {
            // Normalize both coefficients positive by mirroring axes.
            let (mut x0, mut x1, mut a) = (*x0, *x1, *xa as i128);
            let (mut y0, mut y1, mut b) = (*y0, *y1, *ya as i128);
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
            let (lo, hi, a) = (last.0, last.1, last.2 as i128);
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

/// Union-find over variables connected by shared constraints.
fn components(t: &Tableau) -> Vec<Vec<usize>> {
    let n = t.n;
    let mut parent: Vec<usize> = (0..n).collect();
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

/// Extracts the subsystem touching exactly the variables in `vars`,
/// drawing row containers from `arena`.
fn subsystem_with(t: &Tableau, vars: &[usize], arena: &mut RowArena) -> Tableau {
    let mut sub = Tableau {
        n: vars.len(),
        eqs: arena.take(0),
        ineqs: arena.take(0),
    };
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
    sub.ineqs.extend(t.ineqs.iter().filter_map(conv));
    sub.eqs.extend(t.eqs.iter().filter_map(conv));
    sub
}

/// Counts a single variable's feasible interval directly from the rows.
/// `limit` being set means the caller only needs a lower bound (emptiness
/// checks), so unbounded-but-satisfiable intervals saturate to the limit.
fn count_single(t: &Tableau, limit: Option<u128>) -> Result<u128> {
    debug_assert_eq!(t.n, 1);
    // Bounds in i128 (no sentinels): negating an i64::MIN constant is
    // representable, and an absent side stays distinguishable from a row
    // that genuinely pins the extreme value.
    let mut lo: Option<i128> = None;
    let mut hi: Option<i128> = None;
    for r in &t.ineqs {
        let a = r[0] as i128;
        let c = r[1] as i128;
        if a > 0 {
            let b = cd128(-c, a);
            if lo.is_none_or(|v| b > v) {
                lo = Some(b);
            }
        } else if a < 0 {
            let b = fd128(-c, a);
            if hi.is_none_or(|v| b < v) {
                hi = Some(b);
            }
        } else if c < 0 {
            return Ok(0);
        }
    }
    match (lo, hi) {
        (Some(l), Some(h)) => Ok(if h < l { 0 } else { (h - l + 1) as u128 }),
        _ => match limit {
            Some(l) => Ok(l.max(1)),
            None => Err(Error::Unbounded("cannot count a one-sided interval".into())),
        },
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
fn count_pair_series(t: &Tableau, ranges: &[(Option<i64>, Option<i64>)]) -> Result<Option<u128>> {
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
        let mut x_rows = Vec::new();
        for r in &t.ineqs {
            let (a, b, c) = (r[x] as i128, r[y] as i128, r[2] as i128);
            if b == 0 {
                x_rows.push(r);
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
        let (mut xlo, mut xhi) = match ranges[x] {
            (Some(l), Some(h)) => (l as i128, h as i128),
            _ => continue,
        };
        // Tighten the x range with x-only rows (i128: `-c` must not wrap).
        for r in &x_rows {
            let a = r[x] as i128;
            let c = r[2] as i128;
            if a > 0 {
                xlo = xlo.max(cd128(-c, a));
            } else if a < 0 {
                xhi = xhi.min(fd128(-c, a));
            } else if c < 0 {
                return Ok(Some(0));
            }
        }
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
fn count_pair_chain(
    t: &Tableau,
    ranges: &[(Option<i64>, Option<i64>)],
    work: &mut u64,
) -> Result<Option<u128>> {
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
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        parent[x] = r;
        r
    }
    for &(a, b, _) in &edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            return Ok(None); // cycle: intervals are no longer independent
        }
        parent[ra] = rb;
    }
    // Every edge variable needs a finite range within the table budget.
    let mut lo = vec![0i64; n];
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
            let w = h as i128 - l as i128 + 1;
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
    // variable; intersected into (clo, chi).
    let pin = |r: &Row, child: usize, other: usize, pval: i64, clo: &mut i128, chi: &mut i128| {
        let ac = r[child] as i128;
        let c = (r[other] as i128) * (pval as i128) + (r[n] as i128);
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
                    let pval = lo[v] + i as i64;
                    let (mut clo, mut chi) = (lo[u] as i128, lo[u] as i128 + width[u] as i128 - 1);
                    for &ri in rows {
                        pin(&t.ineqs[ri], u, v, pval, &mut clo, &mut chi);
                    }
                    let s = if clo > chi {
                        0
                    } else {
                        let a = (clo - lo[u] as i128) as usize;
                        let b = (chi - lo[u] as i128) as usize;
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
            .checked_mul((h as i128 - l as i128 + 1) as u128)
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
    for &wi in &wide {
        let r = t.ineqs[wi].as_slice();
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
    // only through the wide row). Two passes propagate chains; derived
    // bounds are implied, so adding them never changes the set.
    for _ in 0..2 {
        for &wi in &wide {
            let r = t.ineqs[wi].as_slice();
            for v in 0..n {
                let av = r[v];
                if av == 0 {
                    continue;
                }
                // max over the box of (c + Σ_{i≠v} aᵢ·xᵢ).
                let mut rest_max: i128 = r[n] as i128;
                let mut bounded = true;
                for i in 0..n {
                    if i == v || r[i] == 0 {
                        continue;
                    }
                    let term = if r[i] > 0 {
                        bounds[i].1.map(|h| r[i] as i128 * h)
                    } else {
                        bounds[i].0.map(|l| r[i] as i128 * l)
                    };
                    match term {
                        Some(x) => rest_max += x,
                        None => {
                            bounded = false;
                            break;
                        }
                    }
                }
                if !bounded {
                    continue;
                }
                // The row implies av·x_v >= -rest_max for feasible points.
                // Derived bounds are optional tightenings, so only adopt
                // ones inside the i64 envelope — keeping the invariant that
                // every stored bound has magnitude <= 2^63.
                if av > 0 {
                    let b = cd128(-rest_max, av as i128);
                    if i64::try_from(b).is_ok() && bounds[v].0.is_none_or(|cur| b > cur) {
                        bounds[v].0 = Some(b);
                    }
                } else {
                    let b = fd128(-rest_max, av as i128);
                    if i64::try_from(b).is_ok() && bounds[v].1.is_none_or(|cur| b < cur) {
                        bounds[v].1 = Some(b);
                    }
                }
            }
        }
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
    bounds: &[(Option<i128>, Option<i128>)],
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
    // Every slab variable must be boxed, and every coefficient negatable.
    for g in groups {
        for (v, &b) in bounds.iter().enumerate() {
            if g.dir[v] == 0 {
                continue;
            }
            match b {
                (Some(l), Some(h)) if h < l => return Ok(Some(0)),
                (Some(_), Some(_)) if g.dir[v] != i64::MIN => {}
                _ => return Ok(None),
            }
        }
    }
    // Attainable range of each slab expression over the box; clip the
    // stated windows to it (and detect emptiness).
    let mut windows: Vec<(i128, i128)> = Vec::with_capacity(groups.len());
    for g in groups {
        let (mut e_min, mut e_max) = (0i128, 0i128);
        for (v, &b) in bounds.iter().enumerate() {
            let a = g.dir[v] as i128;
            if a == 0 {
                continue;
            }
            let (l, h) = (b.0.unwrap(), b.1.unwrap());
            let (tmin, tmax) = if a > 0 { (l, h) } else { (h, l) };
            e_min = a
                .checked_mul(tmin)
                .and_then(|t| e_min.checked_add(t))
                .ok_or(Error::Overflow)?;
            e_max = a
                .checked_mul(tmax)
                .and_then(|t| e_max.checked_add(t))
                .ok_or(Error::Overflow)?;
        }
        let lo = g.lo.unwrap_or(e_min).max(e_min);
        let hi = g.hi.unwrap_or(e_max).min(e_max);
        if hi < lo {
            return Ok(Some(0));
        }
        windows.push((lo, hi));
    }
    // Variables no slab touches contribute a constant box factor.
    let untouched: Vec<(Option<i128>, Option<i128>)> = (0..n)
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
    let mut triples: Vec<(i128, i128, i64)> = Vec::new();
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
                    let (mut r_min, mut r_max) = (0i128, 0i128);
                    triples.clear();
                    for &v in &kept_r[ki] {
                        let a = groups[kj].dir[v] as i128;
                        let (l, h) = tb[v];
                        let (tmin, tmax) = if a > 0 { (l, h) } else { (h, l) };
                        r_min = a
                            .checked_mul(tmin)
                            .and_then(|t| r_min.checked_add(t))
                            .ok_or(Error::Overflow)?;
                        r_max = a
                            .checked_mul(tmax)
                            .and_then(|t| r_max.checked_add(t))
                            .ok_or(Error::Overflow)?;
                        triples.push((l, h, -groups[kj].dir[v]));
                    }
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
/// (used for emptiness checks). `work` guards total effort. The owned
/// tableau's row containers return to `arena` when counting finishes.
fn count_rec(
    t: Tableau,
    limit: Option<u128>,
    work: &mut u64,
    arena: &mut RowArena,
) -> Result<u128> {
    let mut t = t;
    let r = count_rec_inner(&mut t, limit, work, arena);
    arena.reclaim(t);
    r
}

/// [`count_rec`] body, on a borrowed tableau.
fn count_rec_inner(
    t: &mut Tableau,
    limit: Option<u128>,
    work: &mut u64,
    arena: &mut RowArena,
) -> Result<u128> {
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
        let inner = count_rec_inner(t, limit, work, arena)?;
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
        return count_single(t, limit);
    }
    // Closed-form shortcuts: boxes and box ∩ slab count without recursion.
    if let Some(c) = count_fast(t, limit, work)? {
        return Ok(c);
    }
    let groups = components(t);
    if groups.len() > 1 {
        let mut prod: u128 = 1;
        for g in &groups {
            let sub = subsystem_with(t, g, arena);
            let c = count_rec(sub, limit, work, arena)?;
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
    let ranges = t.propagate_bounds()?;
    for (l, h) in &ranges {
        if let (Some(l), Some(h)) = (l, h) {
            if l > h {
                return Ok(0);
            }
        }
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
    // Enumerate the variable with the smallest finite range. Widths are
    // compared in i128: bounds near the i64 limits would overflow an i64
    // subtraction and wrap past the ENUM_LIMIT guard.
    let mut best: Option<(usize, i64, i64)> = None;
    for (j, (l, h)) in ranges.iter().enumerate() {
        if let (Some(l), Some(h)) = (l, h) {
            let width = *h as i128 - *l as i128;
            if best.is_none_or(|(_, bl, bh)| width < bh as i128 - bl as i128) {
                best = Some((j, *l, *h));
            }
        }
    }
    let (var, lo, hi) = best
        .ok_or_else(|| Error::Unbounded("cannot count: no variable has a finite range".into()))?;
    if hi as i128 - lo as i128 >= ENUM_LIMIT as i128 {
        return Err(Error::TooComplex(format!(
            "enumeration range too large ({} values)",
            hi as i128 - lo as i128 + 1
        )));
    }
    let mut total: u128 = 0;
    for v in lo..=hi {
        let sub = t.fix_with(var, v, arena)?;
        total = total
            .checked_add(count_rec(
                sub,
                limit.map(|l| l.saturating_sub(total)),
                work,
                arena,
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
    let mut arena = RowArena::new();
    count_rec_inner(&mut t, limit, &mut work, &mut arena)
}

/// Whether a basic map contains no integer point.
pub(crate) fn basic_is_empty(bm: &BasicMap) -> Result<bool> {
    Ok(count_basic_limited(bm, Some(1))? == 0)
}

/// Best-known finite range of a visible variable column.
pub(crate) fn var_range(bm: &BasicMap, col: usize) -> Result<(i64, i64)> {
    let t = Tableau::from_basic(bm)?;
    let ranges = t.propagate_bounds()?;
    match ranges[col] {
        (Some(l), Some(h)) => Ok((l, h)),
        _ => Err(Error::Unbounded(format!(
            "variable {col} has no finite range"
        ))),
    }
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
    let n_vis = bm.div0();
    let t = Tableau::from_basic(bm)?;
    let mut point = vec![0i64; t.n];
    let mut ranges = None;
    enum_rec(&t, 0, &mut point, sink, n_vis, &mut ranges)
}

fn enum_rec(
    t: &Tableau,
    depth: usize,
    point: &mut Vec<i64>,
    sink: &mut dyn FnMut(&[i64]) -> Result<()>,
    n_vis: usize,
    // The propagated global ranges are a function of `t` alone, but cost
    // real work; they are computed lazily at most once per enumeration
    // and shared down the whole tree (they used to be recomputed at every
    // node that needed the fallback, which dominated `points()` time).
    ranges: &mut Option<Vec<(Option<i64>, Option<i64>)>>,
) -> Result<()> {
    if depth == t.n {
        // Verify equalities and inequalities exactly.
        let eval = |r: &Row| -> i128 {
            let mut s = r[t.n] as i128;
            for j in 0..t.n {
                s += (r[j] as i128) * (point[j] as i128);
            }
            s
        };
        if t.eqs.iter().all(|r| eval(r) == 0) && t.ineqs.iter().all(|r| eval(r) >= 0) {
            sink(&point[..n_vis])?;
        }
        return Ok(());
    }
    // Partially substituted system: derive bounds for `depth` given the
    // fixed prefix, using rows whose later variables are all zero.
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    let bound = |r: &Row, is_eq: bool, lo: &mut i64, hi: &mut i64| -> Result<()> {
        let a = r[depth];
        if a == 0 || (depth + 1..t.n).any(|j| r[j] != 0) {
            return Ok(());
        }
        let mut c = r[t.n] as i128;
        for j in 0..depth {
            c += (r[j] as i128) * (point[j] as i128);
        }
        let c = i64::try_from(c).map_err(|_| Error::Overflow)?;
        if a > 0 {
            *lo = (*lo).max(ceil_div(-c, a));
            if is_eq {
                *hi = (*hi).min(floor_div(-c, a));
            }
        } else {
            *hi = (*hi).min(floor_div(-c, a));
            if is_eq {
                *lo = (*lo).max(ceil_div(-c, a));
            }
        }
        Ok(())
    };
    for r in &t.ineqs {
        bound(r, false, &mut lo, &mut hi)?;
    }
    for r in &t.eqs {
        bound(r, true, &mut lo, &mut hi)?;
    }
    // Also use the global propagated ranges as a backstop.
    if lo == i64::MIN || hi == i64::MAX {
        if ranges.is_none() {
            *ranges = Some(t.propagate_bounds()?);
        }
        if let (Some(l), Some(h)) = ranges.as_ref().expect("just filled")[depth] {
            lo = lo.max(l);
            hi = hi.min(h);
        }
    }
    if lo == i64::MIN || hi == i64::MAX {
        return Err(Error::Unbounded(format!(
            "variable {depth} unbounded during enumeration"
        )));
    }
    for v in lo..=hi {
        point[depth] = v;
        enum_rec(t, depth + 1, point, sink, n_vis, ranges)?;
    }
    point[depth] = 0;
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
        let ranges = vec![(Some(0), Some(h)), (Some(0), None)];
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
        // Single variable (count_single): x >= 2^63 and x <= 9 is empty.
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
