//! [`BasicMap`]: a conjunction of integer affine constraints over a space.
//!
//! Column layout of every constraint row:
//!
//! ```text
//! [ input dims | output dims | div variables | constant ]
//! ```
//!
//! A *div variable* is a column whose value is a function of the other
//! columns: `d = floor(num / den)`. Because divs are functions (not free
//! existential variables), they never change the cardinality of a set and
//! constraint negation remains exact in their presence.

use crate::row::{cancel_constant, combine, negated, reduce, value, Reduced};
use crate::space::{Space, Tuple};
use crate::value::gcd;
use crate::{Error, Result};
use std::sync::Arc;

pub(crate) use crate::row::Row;

/// Definition of a div column: `floor(num / den)` with `den > 0`.
///
/// `num` is a full-width row (it may reference other div columns, but the
/// reference graph must stay acyclic; its own column coefficient is zero).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DivDef {
    pub(crate) num: Row,
    pub(crate) den: i64,
}

/// A single conjunction of affine equalities and inequalities relating an
/// input tuple to an output tuple.
///
/// Inequalities are stored as `row · x + c >= 0`; equalities as
/// `row · x + c == 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BasicMap {
    /// The space is shared behind an `Arc`: operations copy disjuncts
    /// constantly (every piece of a split, subtraction or coalesce starts
    /// as one), and deep-copying the dim-name strings dominated those
    /// copies. All structural traits see through the `Arc` (hash/eq
    /// delegate to [`Space`]), so sharing is observationally identical to
    /// owning.
    pub(crate) space: Arc<Space>,
    pub(crate) divs: Vec<DivDef>,
    pub(crate) eqs: Vec<Row>,
    pub(crate) ineqs: Vec<Row>,
}

impl BasicMap {
    /// The unconstrained relation over `space`.
    pub fn universe(space: impl Into<Arc<Space>>) -> Self {
        BasicMap {
            space: space.into(),
            divs: Vec::new(),
            eqs: Vec::new(),
            ineqs: Vec::new(),
        }
    }

    /// The space of this relation.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.space.n_in()
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.space.n_out()
    }

    /// Number of div columns.
    pub fn n_div(&self) -> usize {
        self.divs.len()
    }

    /// Number of stored constraints (equalities + inequalities).
    pub fn constraint_count(&self) -> usize {
        self.eqs.len() + self.ineqs.len()
    }

    /// Index of the first div column.
    pub(crate) fn div0(&self) -> usize {
        self.n_in() + self.n_out()
    }

    /// Total number of columns (including the constant).
    pub(crate) fn n_cols(&self) -> usize {
        self.n_in() + self.n_out() + self.divs.len() + 1
    }

    /// Index of the constant column.
    pub(crate) fn konst(&self) -> usize {
        self.n_cols() - 1
    }

    /// A zero row of the current width.
    pub(crate) fn zero_row(&self) -> Row {
        Row::zeros(self.n_cols())
    }

    /// Drops the spare capacity of the row and div vectors and of every
    /// row spilled to the heap (see [`crate::Map`]'s `shrink_to_fit`).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.divs.shrink_to_fit();
        self.eqs.shrink_to_fit();
        self.ineqs.shrink_to_fit();
        for d in &mut self.divs {
            d.num.shrink_to_fit();
        }
        for r in self.eqs.iter_mut().chain(&mut self.ineqs) {
            r.shrink_to_fit();
        }
    }

    /// Adds an equality constraint `row == 0`.
    pub(crate) fn add_eq(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.n_cols());
        self.eqs.push(row);
    }

    /// Adds an inequality constraint `row >= 0`.
    pub(crate) fn add_ineq(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.n_cols());
        self.ineqs.push(row);
    }

    /// Adds the equality `x_col == val` as the row `x_col - val == 0`, or
    /// as `val - x_col == 0` when `-val` leaves i64.
    pub(crate) fn add_fix(&mut self, col: usize, val: i64) {
        let mut eq = self.zero_row();
        eq[col] = -1;
        let k = self.konst();
        eq[k] = val;
        self.add_eq(negated(&eq, 0).unwrap_or(eq));
    }

    /// Adds (or reuses) a div column `floor(num / den)` and returns its
    /// column index. `num` must have the current width; it is widened for
    /// the new column automatically.
    pub(crate) fn add_div(&mut self, mut num: Row, den: i64) -> Result<usize> {
        debug_assert_eq!(num.len(), self.n_cols());
        debug_assert!(den > 0, "div denominator must be positive");
        // Normalize num/den by their gcd.
        let mut g = den;
        for &c in num.iter() {
            g = gcd(g, c);
        }
        let (num_n, den_n): (Row, i64) = if g > 1 {
            (num.iter().map(|c| c / g).collect(), den / g)
        } else {
            (num.clone(), den)
        };
        // Widen existing definition rows for comparison purposes.
        let kpos = self.konst();
        for (i, d) in self.divs.iter().enumerate() {
            if d.den == den_n && d.num == num_n {
                return Ok(self.div0() + i);
            }
        }
        let col = self.div0() + self.divs.len();
        // Insert the new column (just before the constant) in every row.
        let insert_at = kpos;
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r.insert(insert_at, 0);
        }
        for d in self.divs.iter_mut() {
            d.num.insert(insert_at, 0);
        }
        num = num_n;
        num.insert(insert_at, 0);
        self.divs.push(DivDef { num, den: den_n });
        Ok(col)
    }

    /// Inserts `n` fresh variable columns at column position `at`
    /// (which must be `<= div0()`), without touching the space. The caller
    /// is responsible for updating `space` consistently.
    pub(crate) fn insert_var_cols(&mut self, at: usize, n: usize) {
        debug_assert!(at <= self.div0());
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            for _ in 0..n {
                r.insert(at, 0);
            }
        }
        for d in self.divs.iter_mut() {
            for _ in 0..n {
                d.num.insert(at, 0);
            }
        }
    }

    /// Removes a variable column (must be `< div0()`); every row must have a
    /// zero coefficient there. The caller updates `space`.
    pub(crate) fn remove_var_col(&mut self, at: usize) {
        debug_assert!(at < self.div0());
        debug_assert!(self.eqs.iter().chain(self.ineqs.iter()).all(|r| r[at] == 0));
        debug_assert!(self.divs.iter().all(|d| d.num[at] == 0));
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r.remove(at);
        }
        for d in self.divs.iter_mut() {
            d.num.remove(at);
        }
    }

    /// Removes div `d_idx`; its column must be unused everywhere.
    pub(crate) fn remove_div(&mut self, d_idx: usize) {
        let col = self.div0() + d_idx;
        debug_assert!(self
            .eqs
            .iter()
            .chain(self.ineqs.iter())
            .all(|r| r[col] == 0));
        debug_assert!(self
            .divs
            .iter()
            .enumerate()
            .all(|(i, d)| i == d_idx || d.num[col] == 0));
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r.remove(col);
        }
        self.divs.remove(d_idx);
        for d in self.divs.iter_mut() {
            d.num.remove(col);
        }
    }

    /// Whether div `d` (transitively) references column `col`.
    pub(crate) fn div_depends_on(&self, d_idx: usize, col: usize) -> bool {
        let div0 = self.div0();
        let mut stack = vec![d_idx];
        let mut seen = vec![false; self.divs.len()];
        while let Some(d) = stack.pop() {
            if seen[d] {
                continue;
            }
            seen[d] = true;
            let num = &self.divs[d].num;
            if num[col] != 0 {
                return true;
            }
            for (j, dd) in self.divs.iter().enumerate() {
                let _ = dd;
                if num[div0 + j] != 0 {
                    stack.push(j);
                }
            }
        }
        false
    }

    /// Topological order of divs such that each div only references divs
    /// appearing earlier in the returned order.
    pub(crate) fn div_topo_order(&self) -> Result<Vec<usize>> {
        let n = self.divs.len();
        let div0 = self.div0();
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        fn visit(
            bm: &BasicMap,
            d: usize,
            div0: usize,
            state: &mut [u8],
            order: &mut Vec<usize>,
        ) -> Result<()> {
            match state[d] {
                2 => return Ok(()),
                1 => {
                    return Err(Error::TooComplex(
                        "cyclic div definitions encountered".into(),
                    ))
                }
                _ => {}
            }
            state[d] = 1;
            for j in 0..bm.divs.len() {
                if bm.divs[d].num[div0 + j] != 0 {
                    visit(bm, j, div0, state, order)?;
                }
            }
            state[d] = 2;
            order.push(d);
            Ok(())
        }
        for d in 0..n {
            visit(self, d, div0, &mut state, &mut order)?;
        }
        Ok(order)
    }

    /// Uses the equality `eq == 0` (with `eq[col] != 0`) to eliminate `col`
    /// from every constraint and div definition. Afterwards no row besides
    /// (a copy of) `eq` itself references `col`. Inequality directions are
    /// preserved exactly; div definitions are rescaled (`floor(k·n / k·d) ==
    /// floor(n/d)` for `k > 0`).
    pub(crate) fn eliminate_using_eq(&mut self, eq: &Row, col: usize) -> Result<()> {
        debug_assert!(eq[col] != 0);
        let eq = if eq[col] < 0 {
            negated(eq, 0)?
        } else {
            eq.clone()
        };
        let a = eq[col]; // now positive
        let eliminate = |row: &mut Row| -> Result<()> {
            let c = row[col];
            if c != 0 {
                *row = combine(a, std::mem::take(row), c, &eq)?;
                debug_assert_eq!(row[col], 0);
            }
            Ok(())
        };
        for r in self.eqs.iter_mut().chain(&mut self.ineqs) {
            eliminate(r)?;
        }
        for i in 0..self.divs.len() {
            if self.divs[i].num[col] != 0 {
                let mut new_num = self.divs[i].num.clone();
                eliminate(&mut new_num)?;
                let new_den = self.divs[i].den.checked_mul(a).ok_or(Error::Overflow)?;
                let mut g = new_den;
                for &c in new_num.iter() {
                    g = gcd(g, c);
                }
                if g > 1 {
                    self.divs[i].num = new_num.iter().map(|c| c / g).collect();
                    self.divs[i].den = new_den / g;
                } else {
                    self.divs[i].num = new_num;
                    self.divs[i].den = new_den;
                }
            }
        }
        Ok(())
    }

    /// Normalizes all rows in place; returns `false` when a constraint is
    /// syntactically infeasible (e.g. `0 == 3` or `0 >= 2` after reduction).
    pub(crate) fn simplify(&mut self) -> bool {
        let kpos = self.konst();
        let mut feasible = true;
        let mut kept = |r: &mut Row, eq: bool| match reduce(r, eq) {
            Reduced::Kept => true,
            Reduced::Trivial => false,
            Reduced::Infeasible => {
                feasible = false;
                false
            }
        };
        self.eqs.retain_mut(|r| {
            if !kept(r, true) {
                return false;
            }
            // Sign-normalize: first nonzero coefficient positive (a row
            // whose negation leaves i64 stays as it is).
            if r[..kpos].iter().find(|&&c| c != 0).is_some_and(|&c| c < 0) {
                if let Ok(n) = negated(r, 0) {
                    *r = n;
                }
            }
            true
        });
        self.ineqs.retain_mut(|r| kept(r, false));
        if !feasible {
            return false;
        }
        // Deduplicate rows and drop inequalities implied by an identical
        // inequality with a weaker constant.
        self.eqs.sort();
        self.eqs.dedup();
        self.ineqs.sort();
        self.ineqs.dedup();
        let kpos = self.konst();
        let mut keep: Vec<Row> = Vec::with_capacity(self.ineqs.len());
        for r in std::mem::take(&mut self.ineqs) {
            if let Some(prev) = keep.last_mut() {
                if prev[..kpos] == r[..kpos] {
                    // Same direction: the smaller constant is tighter.
                    if r[kpos] < prev[kpos] {
                        *prev = r;
                    }
                    continue;
                }
            }
            keep.push(r);
        }
        // Directly opposite inequalities, r >= 0 and -r + c >= 0, are
        // contradictory when their constants sum below zero.
        let feasible = !(0..keep.len()).any(|i| {
            keep[i + 1..]
                .iter()
                .any(|u| cancel_constant(&keep[i], u).is_some_and(|c| c < 0))
        });
        self.ineqs = keep;
        feasible
    }

    /// Drops div columns that no constraint or other div references.
    pub(crate) fn drop_unused_divs(&mut self) {
        loop {
            let div0 = self.div0();
            let mut dropped = false;
            for d in (0..self.divs.len()).rev() {
                let col = div0 + d;
                let used = self
                    .eqs
                    .iter()
                    .chain(self.ineqs.iter())
                    .any(|r| r[col] != 0)
                    || self
                        .divs
                        .iter()
                        .enumerate()
                        .any(|(i, dd)| i != d && dd.num[col] != 0);
                if !used {
                    // Clear the (only self-referencing) definition and drop.
                    self.remove_div(d);
                    dropped = true;
                    break;
                }
            }
            if !dropped {
                break;
            }
        }
    }

    /// Evaluates the div values for a concrete assignment of the visible
    /// variables, returning the full column vector `[vars..., divs..., 1]`.
    pub(crate) fn full_point(&self, vars: &[i64]) -> Result<Vec<i64>> {
        debug_assert_eq!(vars.len(), self.div0());
        let order = self.div_topo_order()?;
        let n_cols = self.n_cols();
        let mut full = vec![0i64; n_cols];
        full[..vars.len()].copy_from_slice(vars);
        full[n_cols - 1] = 1;
        let div0 = self.div0();
        for d in order {
            // Columns of divs later in `order` are still 0 in `full`, and
            // `div_topo_order` guarantees `num` does not reference them.
            let def = &self.divs[d];
            let q = value(&def.num, &full)?.div_euclid(def.den.into());
            full[div0 + d] = i64::try_from(q).map_err(|_| Error::Overflow)?;
        }
        Ok(full)
    }

    /// Whether the concrete point (over the visible in+out dims) satisfies
    /// every constraint.
    pub fn contains_point(&self, vars: &[i64]) -> Result<bool> {
        if vars.len() != self.div0() {
            return Err(Error::SpaceMismatch(format!(
                "point has {} coordinates, space has {}",
                vars.len(),
                self.div0()
            )));
        }
        let full = self.full_point(vars)?;
        for r in &self.eqs {
            if value(r, &full)? != 0 {
                return Ok(false);
            }
        }
        for r in &self.ineqs {
            if value(r, &full)? < 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Imports `other`'s div columns into `self` (deduplicating).
    ///
    /// `var_map[i]` gives the column in `self` corresponding to `other`'s
    /// visible variable column `i`. Returns the div column mapping.
    pub(crate) fn import_divs(
        &mut self,
        other: &BasicMap,
        var_map: &[usize],
    ) -> Result<Vec<usize>> {
        debug_assert_eq!(var_map.len(), other.div0());
        let order = other.div_topo_order()?;
        let mut div_map = vec![usize::MAX; other.divs.len()];
        for d in order {
            // The topological order maps every div `num` references first.
            let def = &other.divs[d];
            let num = self.translate_row(other, var_map, &div_map, &def.num)?;
            div_map[d] = self.add_div(num, def.den)?;
        }
        Ok(div_map)
    }

    /// Translates one of `other`'s rows into `self`'s layout using the
    /// mappings produced by [`BasicMap::import_divs`]. Coefficients that
    /// land in one column add up, and fail with [`Error::Overflow`] when
    /// their sum leaves i64.
    pub(crate) fn translate_row(
        &self,
        other: &BasicMap,
        var_map: &[usize],
        div_map: &[usize],
        row: &Row,
    ) -> Result<Row> {
        debug_assert_eq!(var_map.len(), other.div0());
        let other_k = other.konst();
        let mut out = Row::zeros(self.n_cols());
        out[self.n_cols() - 1] = row[other_k];
        for (&c, &col) in row[..other_k].iter().zip(var_map.iter().chain(div_map)) {
            if c != 0 {
                out[col] = out[col].checked_add(c).ok_or(Error::Overflow)?;
            }
        }
        Ok(out)
    }

    /// Imports all of `other`'s constraints into `self`, remapping visible
    /// variables through `var_map`.
    pub(crate) fn import_constraints(&mut self, other: &BasicMap, var_map: &[usize]) -> Result<()> {
        let div_map = self.import_divs(other, var_map)?;
        for r in &other.eqs {
            let t = self.translate_row(other, var_map, &div_map, r)?;
            self.add_eq(t);
        }
        for r in &other.ineqs {
            let t = self.translate_row(other, var_map, &div_map, r)?;
            self.add_ineq(t);
        }
        Ok(())
    }

    /// Reverses the relation: swaps input and output columns.
    pub fn reverse(&self) -> BasicMap {
        let n_in = self.n_in();
        let n_out = self.n_out();
        let swap_row = |r: &Row| -> Row {
            let mut out = Row::with_capacity(r.len());
            out.extend_from_slice(&r[n_in..n_in + n_out]);
            out.extend_from_slice(&r[..n_in]);
            out.extend_from_slice(&r[n_in + n_out..]);
            out
        };
        BasicMap {
            space: Arc::new(self.space.reversed()),
            divs: self
                .divs
                .iter()
                .map(|d| DivDef {
                    num: swap_row(&d.num),
                    den: d.den,
                })
                .collect(),
            eqs: self.eqs.iter().map(swap_row).collect(),
            ineqs: self.ineqs.iter().map(swap_row).collect(),
        }
    }

    /// Builds the identity relation over `tuple` (same arity on both sides).
    pub fn identity(input: Tuple, output: Tuple) -> Result<BasicMap> {
        if input.len() != output.len() {
            return Err(Error::SpaceMismatch(
                "identity requires equal arities".into(),
            ));
        }
        let n = input.len();
        let mut bm = BasicMap::universe(Space::map(input, output));
        for i in 0..n {
            let mut row = bm.zero_row();
            row[i] = 1;
            row[n + i] = -1;
            bm.add_eq(row);
        }
        Ok(bm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2() -> Space {
        Space::map(Tuple::new("S", ["i", "j"]), Tuple::new("PE", ["p"]))
    }

    #[test]
    fn universe_and_columns() {
        let bm = BasicMap::universe(space2());
        assert_eq!(bm.n_cols(), 4);
        assert_eq!(bm.konst(), 3);
        assert_eq!(bm.div0(), 3);
    }

    #[test]
    fn add_div_dedup() {
        let mut bm = BasicMap::universe(space2());
        let num = Row::from_slice(&[1, 0, 0, 0]);
        let c1 = bm.add_div(num.clone(), 8).unwrap();
        let num2 = Row::from_slice(&[1, 0, 0, 0, 0]); // widened by one div col
        let c2 = bm.add_div(num2, 8).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(bm.n_div(), 1);
    }

    #[test]
    fn contains_point_with_div() {
        // p == i mod 8  <=>  p = i - 8*floor(i/8)
        let mut bm = BasicMap::universe(space2());
        let num = Row::from_slice(&[1, 0, 0, 0]);
        let d = bm.add_div(num, 8).unwrap();
        let mut row = bm.zero_row();
        row[2] = -1; // -p
        row[0] = 1; // +i
        row[d] = -8; // -8*floor(i/8)
        bm.add_eq(row);
        assert!(bm.contains_point(&[10, 0, 2]).unwrap());
        assert!(!bm.contains_point(&[10, 0, 3]).unwrap());
        assert!(bm.contains_point(&[-3, 0, 5]).unwrap()); // -3 mod 8 == 5
    }

    #[test]
    fn eliminate_using_eq_unit() {
        // Constraints: i + j >= 0, eq: i - 2p = 0  -> eliminate i.
        let mut bm = BasicMap::universe(space2());
        let mut ineq = bm.zero_row();
        ineq[0] = 1;
        ineq[1] = 1;
        bm.add_ineq(ineq);
        let mut eq = bm.zero_row();
        eq[0] = 1;
        eq[2] = -2;
        bm.eliminate_using_eq(&eq, 0).unwrap();
        assert_eq!(bm.ineqs[0], Row::from_slice(&[0, 1, 2, 0])); // j + 2p >= 0
    }

    #[test]
    fn simplify_detects_contradiction() {
        let mut bm = BasicMap::universe(space2());
        let mut r = bm.zero_row();
        r[bm.konst()] = -1; // 0 >= 1 is infeasible (stored as -1 >= 0)
        bm.add_ineq(r);
        assert!(!bm.simplify());
    }

    #[test]
    fn simplify_tightens_ineq_constant() {
        // 2i - 1 >= 0  ==>  i >= 1 over the integers (i - 1 >= 0).
        let mut bm = BasicMap::universe(space2());
        let mut r = bm.zero_row();
        r[0] = 2;
        r[bm.konst()] = -1;
        bm.add_ineq(r);
        assert!(bm.simplify());
        assert_eq!(bm.ineqs[0], Row::from_slice(&[1, 0, 0, -1]));
    }

    #[test]
    fn reverse_roundtrip() {
        let mut bm = BasicMap::universe(space2());
        let mut r = bm.zero_row();
        r[0] = 3;
        r[2] = -1;
        r[3] = 5;
        bm.add_ineq(r.clone());
        let rr = bm.reverse().reverse();
        assert_eq!(rr.ineqs[0], r);
        assert_eq!(rr.space(), bm.space());
    }

    #[test]
    fn identity_contains_diagonal() {
        let id =
            BasicMap::identity(Tuple::new("A", ["x", "y"]), Tuple::new("B", ["u", "v"])).unwrap();
        assert!(id.contains_point(&[1, 2, 1, 2]).unwrap());
        assert!(!id.contains_point(&[1, 2, 1, 3]).unwrap());
    }
}
