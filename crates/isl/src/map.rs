//! [`Map`]: a finite union of [`BasicMap`]s over a common space, with the
//! full suite of relational operations used by TENET's performance model.

use crate::basic::{BasicMap, Row};
use crate::cache::{self, OpKind};
use crate::count;
use crate::project::eliminate_vars;
use crate::row::negated;
use crate::set::Set;
use crate::space::{Space, Tuple};
use crate::{Error, Result};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A binary integer relation: a union of basic maps.
///
/// A `Map` is a handle on one immutable, reference-counted value, as
/// libisl's `isl_map` is: `clone()` bumps a count, and the memo
/// ([`crate::cache`]) returns, stores and pools handles, never copies.
/// Operations build a result from owned parts and never edit a shared
/// value; an edit of an existing map takes its parts, moved out of a
/// uniquely held value or copied once out of a shared one. Equal maps
/// hash equal: the hash is structural, computed once per value and
/// cached in it, and equality confirms it structurally unless both
/// handles point at one value.
///
/// ```
/// use tenet_isl::Map;
/// let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 4 and 0 <= j < 3 }")?;
/// assert_eq!(m.card()?, 12);
/// # Ok::<(), tenet_isl::Error>(())
/// ```
#[derive(Clone)]
pub struct Map {
    rel: Arc<Rel>,
}

/// The shared value behind a [`Map`] handle.
#[derive(Clone)]
struct Rel {
    /// Shared with every disjunct's `space` where possible (see
    /// [`BasicMap`]).
    space: Arc<Space>,
    basics: Vec<BasicMap>,
    /// Structural hash of `space` and `basics`, computed on first use.
    hash: OnceLock<u64>,
}

impl PartialEq for Map {
    fn eq(&self, other: &Map) -> bool {
        if Map::same_value(self, other) {
            return true;
        }
        if let (Some(a), Some(b)) = (self.rel.hash.get(), other.rel.hash.get()) {
            if a != b {
                return false;
            }
        }
        self.rel.space == other.rel.space && self.rel.basics == other.rel.basics
    }
}

impl Eq for Map {}

impl Hash for Map {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.structural_hash());
    }
}

impl std::fmt::Debug for Map {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Map")
            .field("space", &self.rel.space)
            .field("basics", &self.rel.basics)
            .finish()
    }
}

impl Map {
    /// Wraps owned parts in a fresh handle, the one constructor every
    /// operation builds its result with.
    pub(crate) fn from_parts(space: Arc<Space>, basics: Vec<BasicMap>) -> Map {
        Map {
            rel: Arc::new(Rel {
                space,
                basics,
                hash: OnceLock::new(),
            }),
        }
    }

    /// The parts of the relation, for an edit that rebuilds it with
    /// [`Map::from_parts`]: moved out of a uniquely held value, copied
    /// once out of a shared one. The cached hash goes with the old value.
    pub(crate) fn into_parts(self) -> (Arc<Space>, Vec<BasicMap>) {
        let Rel { space, basics, .. } = Arc::unwrap_or_clone(self.rel);
        (space, basics)
    }

    /// Whether both handles point at one value.
    pub(crate) fn same_value(a: &Map, b: &Map) -> bool {
        Arc::ptr_eq(&a.rel, &b.rel)
    }

    /// Structural hash of the relation, with a deterministic hasher
    /// (`DefaultHasher::new()` is seeded with fixed keys, so every thread
    /// derives the same hash for the same relation). Computed on the first
    /// call and cached in the value, so each value is walked once however
    /// many handles and lookups reach it.
    pub(crate) fn structural_hash(&self) -> u64 {
        *self.rel.hash.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.rel.space.hash(&mut h);
            self.rel.basics.hash(&mut h);
            h.finish()
        })
    }

    /// Drops the spare capacity of a uniquely held value: its disjunct
    /// vector and each disjunct's row and div vectors. A value built by
    /// pushes carries up to twice its size, so the memo calls this before
    /// it shares a fresh result. A shared value is left as it is.
    pub(crate) fn shrink_to_fit(&mut self) {
        if let Some(rel) = Arc::get_mut(&mut self.rel) {
            rel.basics.shrink_to_fit();
            for b in &mut rel.basics {
                b.shrink_to_fit();
            }
        }
    }

    /// Parses a map from the ISL-style textual notation used in the paper,
    /// e.g. `{ S[i,j,k] -> PE[i mod 8, j mod 8] : 0 <= i < 64 }`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for malformed or non-affine input.
    pub fn parse(text: &str) -> Result<Map> {
        cache::memo_parse(false, text, || crate::parse::parse_map(text))
    }

    /// A map holding a single basic map.
    pub fn from_basic(bm: BasicMap) -> Map {
        Map::from_parts(bm.space.clone(), vec![bm])
    }

    /// The unconstrained relation over `space`.
    pub fn universe(space: impl Into<Arc<Space>>) -> Map {
        let space = space.into();
        Map::from_parts(space.clone(), vec![BasicMap::universe(space)])
    }

    /// The empty relation over `space`.
    pub fn empty(space: impl Into<Arc<Space>>) -> Map {
        Map::from_parts(space.into(), Vec::new())
    }

    /// The identity relation `{ in[x] -> out[x] }`.
    pub fn identity(input: Tuple, output: Tuple) -> Result<Map> {
        Ok(Map::from_basic(BasicMap::identity(input, output)?))
    }

    /// The space of the relation.
    pub fn space(&self) -> &Space {
        &self.rel.space
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.rel.space.n_in()
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.rel.space.n_out()
    }

    /// The disjuncts of this relation.
    pub fn basics(&self) -> &[BasicMap] {
        &self.rel.basics
    }

    fn check_compatible(&self, other: &Map, op: &str) -> Result<()> {
        if !self.rel.space.is_compatible(&other.rel.space) {
            return Err(Error::SpaceMismatch(format!(
                "{op}: {} vs {}",
                self.rel.space, other.rel.space
            )));
        }
        Ok(())
    }

    /// Set-union of two relations over compatible spaces.
    pub fn union(&self, other: &Map) -> Result<Map> {
        self.check_compatible(other, "union")?;
        cache::memo(OpKind::Union, self, Some(other), 0, || {
            self.union_uncached(other)
        })
    }

    fn union_uncached(&self, other: &Map) -> Result<Map> {
        let mut basics = self.rel.basics.clone();
        let var_map: Vec<usize> = (0..self.n_in() + self.n_out()).collect();
        for b in &other.rel.basics {
            // Renormalize into self's space (names may differ).
            let mut nb = BasicMap::universe(self.rel.space.clone());
            nb.import_constraints(b, &var_map)?;
            if !basics.contains(&nb) {
                basics.push(nb);
            }
        }
        Ok(Map::from_parts(self.rel.space.clone(), basics))
    }

    /// Intersection of two relations over compatible spaces.
    pub fn intersect(&self, other: &Map) -> Result<Map> {
        self.check_compatible(other, "intersect")?;
        cache::memo(OpKind::Intersect, self, Some(other), 0, || {
            self.intersect_uncached(other)
        })
    }

    fn intersect_uncached(&self, other: &Map) -> Result<Map> {
        let var_map: Vec<usize> = (0..self.n_in() + self.n_out()).collect();
        let mut basics = Vec::new();
        for a in &self.rel.basics {
            for b in &other.rel.basics {
                let mut nb = a.clone();
                nb.import_constraints(b, &var_map)?;
                if nb.simplify() && !count::basic_is_empty(&nb)? {
                    nb.drop_unused_divs();
                    basics.push(nb);
                }
            }
        }
        Ok(crate::coalesce::coalesce_map(Map::from_parts(
            self.rel.space.clone(),
            basics,
        )))
    }

    /// Exact set difference `self \ other`.
    pub fn subtract(&self, other: &Map) -> Result<Map> {
        self.check_compatible(other, "subtract")?;
        cache::memo(OpKind::Subtract, self, Some(other), 0, || {
            self.subtract_uncached(other)
        })
    }

    fn subtract_uncached(&self, other: &Map) -> Result<Map> {
        let mut pieces = self.rel.basics.clone();
        for c in &other.rel.basics {
            let mut next = Vec::new();
            for p in &pieces {
                next.extend(basic_subtract(p, c)?);
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        Ok(Map::from_parts(self.rel.space.clone(), pieces))
    }

    /// The reversed relation (`out -> in`).
    pub fn reverse(&self) -> Map {
        cache::memo(OpKind::Reverse, self, None, 0, || {
            Ok(Map::from_parts(
                Arc::new(self.rel.space.reversed()),
                self.rel.basics.iter().map(BasicMap::reverse).collect(),
            ))
        })
        .expect("reverse cannot fail")
    }

    /// Relation composition `other ∘ self`: `{ x -> z : ∃y. self(x)=y ∧
    /// other(y)=z }` — ISL's `isl_union_map_apply_range`.
    pub fn apply_range(&self, other: &Map) -> Result<Map> {
        if self.n_out() != other.n_in() {
            return Err(Error::SpaceMismatch(format!(
                "apply_range: range {} vs domain {}",
                self.rel.space.output, other.rel.space.input
            )));
        }
        cache::memo(OpKind::ApplyRange, self, Some(other), 0, || {
            self.apply_range_uncached(other)
        })
    }

    fn apply_range_uncached(&self, other: &Map) -> Result<Map> {
        let nx = self.n_in();
        let ny = self.n_out();
        let nz = other.n_out();
        let result_space = Arc::new(Space::map(
            self.rel.space.input.clone(),
            other.rel.space.output.clone(),
        ));
        // Pairs whose left disjunct is not a function graph are composed in
        // the combined layout [X | Z | Ymid], projecting Ymid away.
        let mut comb_space: Option<Arc<Space>> = None;
        let var_map_a: Vec<usize> = (0..nx).chain(nx + nz..nx + nz + ny).collect();
        let var_map_b: Vec<usize> = (nx + nz..nx + nz + ny).chain(nx..nx + nz).collect();
        let mut basics = Vec::new();
        for a in &self.rel.basics {
            let graph = AffineGraph::of(a);
            for b in &other.rel.basics {
                if let Some(g) = &graph {
                    #[cfg(test)]
                    tests::SUBSTITUTED.with(|n| n.set(n.get() + 1));
                    basics.extend(g.compose(b, &result_space)?);
                    continue;
                }
                let space = comb_space.get_or_insert_with(|| {
                    let mut out_dims = other.rel.space.output.dims.clone();
                    out_dims.extend((0..ny).map(|i| format!("_m{i}")));
                    Arc::new(Space::map(
                        self.rel.space.input.clone(),
                        Tuple {
                            name: other.rel.space.output.name.clone(),
                            dims: out_dims,
                        },
                    ))
                });
                let mut comb = BasicMap::universe(space.clone());
                comb.import_constraints(a, &var_map_a)?;
                comb.import_constraints(b, &var_map_b)?;
                let targets: Vec<usize> = (nx + nz..nx + nz + ny).collect();
                basics.extend(eliminate_vars(comb, targets)?);
            }
        }
        for b in basics.iter_mut() {
            b.space = result_space.clone();
        }
        basics.dedup();
        // Compositions through case splits and offset unions produce many
        // adjacent disjuncts; merge them so downstream set algebra stays
        // close to linear.
        Ok(crate::coalesce::coalesce_map(Map::from_parts(
            result_space,
            basics,
        )))
    }

    /// Packs the project-op memo key: bit 0 distinguishes the in/out
    /// variants, `first` occupies bits 1..63 and `n` bits 63..125. Returns
    /// `None` when the arguments would not fit the layout — callers skip
    /// the cache then, instead of risking a key collision.
    fn pack_project_extra(out_dims: bool, first: usize, n: usize) -> Option<i128> {
        if first >= (1 << 62) || n >= (1 << 62) {
            return None;
        }
        Some((out_dims as i128) | ((first as i128) << 1) | ((n as i128) << 63))
    }

    /// Projects away output dimensions `[first, first + n)`.
    pub fn project_out_out(&self, first: usize, n: usize) -> Result<Map> {
        match Self::pack_project_extra(true, first, n) {
            Some(extra) => cache::memo(OpKind::Project, self, None, extra, || {
                self.project_out_out_uncached(first, n)
            }),
            None => self.project_out_out_uncached(first, n),
        }
    }

    fn project_out_out_uncached(&self, first: usize, n: usize) -> Result<Map> {
        let n_in = self.n_in();
        let mut space = (*self.rel.space).clone();
        space.output.dims.drain(first..first + n);
        let space = Arc::new(space);
        let mut basics = Vec::new();
        for b in &self.rel.basics {
            let targets: Vec<usize> = (n_in + first..n_in + first + n).collect();
            basics.extend(eliminate_vars(b.clone(), targets)?);
        }
        for b in basics.iter_mut() {
            b.space = space.clone();
        }
        basics.dedup();
        Ok(Map::from_parts(space, basics))
    }

    /// Projects away input dimensions `[first, first + n)`.
    pub fn project_out_in(&self, first: usize, n: usize) -> Result<Map> {
        match Self::pack_project_extra(false, first, n) {
            Some(extra) => cache::memo(OpKind::Project, self, None, extra, || {
                self.project_out_in_uncached(first, n)
            }),
            None => self.project_out_in_uncached(first, n),
        }
    }

    fn project_out_in_uncached(&self, first: usize, n: usize) -> Result<Map> {
        let mut space = (*self.rel.space).clone();
        space.input.dims.drain(first..first + n);
        let space = Arc::new(space);
        let mut basics = Vec::new();
        for b in &self.rel.basics {
            let targets: Vec<usize> = (first..first + n).collect();
            basics.extend(eliminate_vars(b.clone(), targets)?);
        }
        for b in basics.iter_mut() {
            b.space = space.clone();
        }
        basics.dedup();
        Ok(Map::from_parts(space, basics))
    }

    /// The range of the relation, as a set.
    pub fn range(&self) -> Result<Set> {
        let m = self.project_out_in(0, self.n_in())?;
        Ok(Set::from_map_unchecked(m))
    }

    /// The domain of the relation, as a set.
    pub fn domain(&self) -> Result<Set> {
        self.reverse().range()
    }

    /// Fixes input dimension `dim` to `val`.
    pub fn fix_in(&self, dim: usize, val: i64) -> Map {
        self.fix_col(dim, val)
    }

    /// Fixes output dimension `dim` to `val`.
    pub fn fix_out(&self, dim: usize, val: i64) -> Map {
        self.fix_col(self.n_in() + dim, val)
    }

    fn fix_col(&self, col: usize, val: i64) -> Map {
        let basics = self
            .rel
            .basics
            .iter()
            .map(|b| {
                let mut nb = b.clone();
                nb.add_fix(col, val);
                nb
            })
            .collect();
        Map::from_parts(self.rel.space.clone(), basics)
    }

    /// Exact number of pairs in the relation.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Unbounded`] if the relation is not bounded.
    pub fn card(&self) -> Result<u128> {
        cache::memo(OpKind::Card, self, None, 0, || self.card_uncached())
    }

    pub(crate) fn card_uncached(&self) -> Result<u128> {
        // Disjoint decomposition: b_i minus all earlier disjuncts.
        let mut total: u128 = 0;
        for (i, b) in self.rel.basics.iter().enumerate() {
            let mut pieces = vec![b.clone()];
            for prev in &self.rel.basics[..i] {
                let mut next = Vec::new();
                for p in &pieces {
                    next.extend(basic_subtract(p, prev)?);
                }
                pieces = next;
                if pieces.is_empty() {
                    break;
                }
            }
            for p in pieces {
                total = total
                    .checked_add(count::count_basic_owned(p)?)
                    .ok_or(Error::Overflow)?;
            }
        }
        Ok(total)
    }

    /// Whether the relation contains no pairs.
    pub fn is_empty(&self) -> Result<bool> {
        cache::memo(OpKind::Empty, self, None, 0, || self.is_empty_uncached())
    }

    fn is_empty_uncached(&self) -> Result<bool> {
        for b in &self.rel.basics {
            if !count::basic_is_empty(b)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Map) -> Result<bool> {
        self.subtract(other)?.is_empty()
    }

    /// Whether the two relations contain exactly the same pairs.
    pub fn is_equal(&self, other: &Map) -> Result<bool> {
        Ok(self.is_subset(other)? && other.is_subset(self)?)
    }

    /// Whether the concatenated point `in ++ out` belongs to the relation.
    pub fn contains_point(&self, point: &[i64]) -> Result<bool> {
        for b in &self.rel.basics {
            if b.contains_point(point)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Enumerates all pairs (as `in ++ out` coordinate vectors), sorted and
    /// deduplicated. Intended for small relations.
    ///
    /// # Errors
    ///
    /// Fails when the relation holds more than `limit` distinct pairs.
    pub fn points(&self, limit: usize) -> Result<Vec<Vec<i64>>> {
        let mut all = std::collections::BTreeSet::new();
        for b in &self.rel.basics {
            count::basic_points_visit(b, &mut |p| {
                if all.insert(p.to_vec()) && all.len() > limit {
                    return Err(Error::TooComplex(format!("more than {limit} points")));
                }
                Ok(())
            })?;
        }
        Ok(all.into_iter().collect())
    }

    /// Merges disjuncts when their union is exactly representable as one
    /// basic map (see the `coalesce` module's patterns). Never changes the
    /// set of pairs.
    ///
    /// Not memoized: its in-crate callers (`apply_range`, `intersect`)
    /// are memoized themselves, so a repeat rarely reaches it. When it
    /// was memoized, 60 of its 6,534 lookups on a traced run of the
    /// benchmark's `dse_conv` sweep hit, while its pre-coalesce operands,
    /// held by the memo only for those keys, made up about half of the
    /// bytes of the relations it held.
    pub fn coalesce(&self) -> Map {
        crate::coalesce::coalesce_map(self.clone())
    }

    /// Whether the relation is injective: no two inputs share an output
    /// (one MAC per PE per cycle, Section II-A of the paper).
    ///
    /// # Errors
    ///
    /// Propagates failures of the underlying composition and subset
    /// tests.
    pub fn is_injective(&self) -> Result<bool> {
        // { i1 -> i2 : exists o, (i1 -> o) in M and (i2 -> o) in M } is
        // contained in the identity.
        let pairs = self.apply_range(&self.reverse())?;
        let id = Map::identity(pairs.space().input.clone(), pairs.space().output.clone())?;
        pairs.is_subset(&id)
    }
}

#[cfg(test)]
impl Map {
    /// Length and capacity of every vector the value holds: the disjunct
    /// vector, each disjunct's div, equality and inequality vectors, and
    /// each of their rows.
    pub(crate) fn vector_sizes(&self) -> Vec<(&'static str, usize, usize)> {
        let basics = &self.rel.basics;
        let mut sizes = vec![("disjuncts", basics.len(), basics.capacity())];
        for b in basics {
            sizes.push(("divs", b.divs.len(), b.divs.capacity()));
            sizes.push(("eqs", b.eqs.len(), b.eqs.capacity()));
            sizes.push(("ineqs", b.ineqs.len(), b.ineqs.capacity()));
            let rows = b.divs.iter().map(|d| &d.num).chain(&b.eqs).chain(&b.ineqs);
            sizes.extend(rows.map(|r| ("row", r.len(), r.capacity())));
        }
        sizes
    }
}

/// A disjunct that is the graph of an integer affine function of its
/// inputs: it has no divs, each output `y_j` is pinned by exactly one
/// equality `s·y_j + f_j(x) == 0` with `s = ±1` and no other output, and
/// every other constraint mentions inputs only. Composing it with a
/// relation is a substitution `y_j := -s·f_j(x)` — isl's preimage by an
/// affine function — so no variable has to be projected away.
struct AffineGraph<'a> {
    a: &'a BasicMap,
    /// Per output: the equality pinning it and the sign `s` of its
    /// coefficient there.
    defs: Vec<(&'a Row, i64)>,
}

impl<'a> AffineGraph<'a> {
    fn of(a: &'a BasicMap) -> Option<AffineGraph<'a>> {
        if a.n_div() > 0 {
            return None;
        }
        let outs = a.n_in()..a.div0();
        let mentions_output = |r: &Row| r[outs.clone()].iter().any(|&c| c != 0);
        if a.ineqs.iter().any(mentions_output) {
            return None;
        }
        let mut defs = vec![None; a.n_out()];
        for eq in &a.eqs {
            let mut pinned = None;
            for (j, &c) in eq[outs.clone()].iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if pinned.is_some() || !matches!(c, 1 | -1) {
                    return None;
                }
                pinned = Some((j, c));
            }
            if let Some((j, s)) = pinned {
                if defs[j].replace((eq, s)).is_some() {
                    return None;
                }
            }
        }
        let defs = defs.into_iter().collect::<Option<Vec<_>>>()?;
        Some(AffineGraph { a, defs })
    }

    /// The composition `b ∘ a` over `space` (`a`'s input, `b`'s output):
    /// `b`'s div numerators and rows with every `y_j` substituted, written
    /// straight at the result width, plus `a`'s input-only constraints.
    /// `None` when the result is syntactically empty.
    fn compose(&self, b: &BasicMap, space: &Arc<Space>) -> Result<Option<BasicMap>> {
        let mut out = BasicMap::universe(space.clone());
        let mut acc = vec![0i128; self.a.n_in() + 1];
        let mut div_map = vec![usize::MAX; b.n_div()];
        for d in b.div_topo_order()? {
            let num = self.substitute(b, &b.divs[d].num, &div_map, out.n_cols(), &mut acc)?;
            div_map[d] = out.add_div(num, b.divs[d].den)?;
        }
        let width = out.n_cols();
        out.eqs.reserve(b.eqs.len() + self.a.eqs.len());
        for r in &b.eqs {
            let row = self.substitute(b, r, &div_map, width, &mut acc)?;
            out.add_eq(row);
        }
        out.ineqs.reserve(b.ineqs.len() + self.a.ineqs.len());
        for r in &b.ineqs {
            let row = self.substitute(b, r, &div_map, width, &mut acc)?;
            out.add_ineq(row);
        }
        let (nx, a_k, k) = (self.a.n_in(), self.a.konst(), out.konst());
        let widen = |r: &Row| {
            let mut w = Row::zeros(k + 1);
            w[..nx].copy_from_slice(&r[..nx]);
            w[k] = r[a_k];
            w
        };
        for eq in &self.a.eqs {
            if eq[nx..a_k].iter().all(|&c| c == 0) {
                out.add_eq(widen(eq));
            }
        }
        for r in &self.a.ineqs {
            out.add_ineq(widen(r));
        }
        if !out.simplify() {
            return Ok(None);
        }
        out.drop_unused_divs();
        Ok(Some(out))
    }

    /// Row `r` of `b` (over `[y | z | b's divs | 1]`) with `y := f(x)`, as
    /// a row of `width` columns over `[x | z | divs | 1]`; `div_map` places
    /// `b`'s div columns. The `x` coefficients and the constant accumulate
    /// in `acc` as `i128`; one outside `i64` is reported as
    /// [`Error::Overflow`], never wrapped.
    fn substitute(
        &self,
        b: &BasicMap,
        r: &Row,
        div_map: &[usize],
        width: usize,
        acc: &mut [i128],
    ) -> Result<Row> {
        let (nx, ny, nz) = (self.a.n_in(), b.n_in(), b.n_out());
        let a_k = self.a.konst();
        acc.fill(0);
        acc[nx] = r[b.konst()].into();
        // c·y_j = -s_j·c·(eq_j's input part · x + eq_j's constant).
        for (&c, &(eq, s)) in r[..ny].iter().zip(&self.defs) {
            if c == 0 {
                continue;
            }
            for (v, &e) in acc.iter_mut().zip(eq[..nx].iter().chain([&eq[a_k]])) {
                if e != 0 {
                    let term = -i128::from(s) * i128::from(c) * i128::from(e);
                    *v = v.checked_add(term).ok_or(Error::Overflow)?;
                }
            }
        }
        let narrow = |v: i128| i64::try_from(v).map_err(|_| Error::Overflow);
        let mut out = Row::zeros(width);
        for i in 0..nx {
            out[i] = narrow(acc[i])?;
        }
        out[width - 1] = narrow(acc[nx])?;
        out[nx..nx + nz].copy_from_slice(&r[ny..ny + nz]);
        for (&c, &col) in r[ny + nz..b.konst()].iter().zip(div_map) {
            if c != 0 {
                out[col] = out[col].checked_add(c).ok_or(Error::Overflow)?;
            }
        }
        Ok(out)
    }
}

/// Exact difference of two basic maps as a disjoint union of basic maps.
pub(crate) fn basic_subtract(p: &BasicMap, c: &BasicMap) -> Result<Vec<BasicMap>> {
    debug_assert_eq!(p.div0(), c.div0());
    let var_map: Vec<usize> = (0..p.div0()).collect();
    let mut base = p.clone();
    let div_map = base.import_divs(c, &var_map)?;
    // Collect c's constraints as inequality rows in base's layout.
    let mut cons: Vec<Row> = Vec::new();
    for r in &c.ineqs {
        cons.push(base.translate_row(c, &var_map, &div_map, r)?);
    }
    for r in &c.eqs {
        let row = base.translate_row(c, &var_map, &div_map, r)?;
        let neg = negated(&row, 0)?;
        cons.push(row);
        cons.push(neg);
    }
    // Progressive cut: piece_i = base ∧ c_0 ∧ ... ∧ c_{i-1} ∧ ¬c_i.
    let mut pieces = Vec::new();
    let mut cur = base;
    for t in cons {
        let mut piece = cur.clone();
        piece.add_ineq(negated(&t, -1)?);
        if piece.simplify() && !count::basic_is_empty(&piece)? {
            piece.drop_unused_divs();
            pieces.push(piece);
        }
        cur.add_ineq(t);
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Disjunct pairs `apply_range` composed by substitution on this
        /// thread.
        pub(super) static SUBSTITUTED: Cell<usize> = const { Cell::new(0) };
    }

    /// `{ ST[p.., t..] -> ST[p + o, t + Δ]; … }` over every (offset, delta)
    /// pair, in the text form `Analysis::spatial_map` and `temporal_map`
    /// parse, with the translation vectors `(o, Δ)`.
    fn translations(offsets: &[&[i64]], deltas: &[&[i64]]) -> (String, Vec<Vec<i64>>) {
        let shift = |base: &str, i: usize, v: i64| match v {
            0 => format!("{base}{i}"),
            v if v > 0 => format!("{base}{i} + {v}"),
            v => format!("{base}{i} - {}", -v),
        };
        let (ns, nt) = (offsets[0].len(), deltas[0].len());
        let dims: Vec<String> = (0..ns)
            .map(|i| format!("p{i}"))
            .chain((0..nt).map(|i| format!("t{i}")))
            .collect();
        let mut disjuncts = Vec::new();
        let mut vectors = Vec::new();
        for off in offsets {
            for delta in deltas {
                let outs: Vec<String> = (off.iter().enumerate().map(|(i, &o)| shift("p", i, o)))
                    .chain(delta.iter().enumerate().map(|(i, &d)| shift("t", i, d)))
                    .collect();
                disjuncts.push(format!(
                    "ST[{}] -> ST[{}]",
                    dims.join(", "),
                    outs.join(", ")
                ));
                vectors.push([*off, *delta].concat());
            }
        }
        (format!("{{ {} }}", disjuncts.join("; ")), vectors)
    }

    /// `M⁻¹ ∘ A` for the reversed spacetime maps of every interconnect
    /// and reuse window must take the substitution path for every
    /// disjunct pair, and give `{ (y + d, z) : (y, z) ∈ A, d ∈ M's
    /// deltas }` exactly.
    #[test]
    fn reversed_spacetime_maps_compose_by_substitution() {
        let mesh: Vec<[i64; 2]> = (-1..=1)
            .flat_map(|a| (-1..=1).map(move |b| [a, b]))
            .filter(|o| *o != [0, 0])
            .collect();
        let mesh: Vec<&[i64]> = mesh.iter().map(|o| &o[..]).collect();
        let gemm_a = "{ ST[p0, p1, t0] -> A[p0, t0 - p0 - p1] : 0 <= p0 < 2 and 0 <= p1 < 2 \
                      and 0 <= t0 - p0 - p1 < 4 }";
        let tiled_b = "{ ST[p0, p1, t0, t1] -> B[b, p1] : b = 4 t0 + (t1 mod 4) and 0 <= b < 8 \
                       and 0 <= p0 < 3 and 0 <= p1 < 3 and 0 <= t0 < 2 and 0 <= t1 < 6 \
                       and p0 <= t1 }";
        let conv_x = "{ ST[p0, t0] -> X[x, w] : x = floor(t0 / 3) + p0 and w = t0 mod 3 \
                       and 0 <= x < 7 and 0 <= w < 3 and 0 <= p0 < 4 and 0 <= t0 < 9 }";
        let cases = [
            (
                "Systolic2D, one time dim",
                translations(&[&[0, 1], &[1, 0]], &[&[1]]),
                gemm_a,
            ),
            ("Mesh, one time dim", translations(&mesh, &[&[1]]), gemm_a),
            (
                "Mesh, two time dims (mixed-radix rollover)",
                translations(&mesh, &[&[0, 1], &[1, -5]]),
                tiled_b,
            ),
            ("1-D systolic", translations(&[&[1]], &[&[1]]), conv_x),
            (
                "multicast (zero-cycle delta)",
                translations(&[&[1], &[2], &[3]], &[&[0]]),
                conv_x,
            ),
            (
                "temporal, reuse window 3 over two time dims",
                translations(
                    &[&[0, 0]],
                    &[&[0, 1], &[0, 2], &[1, -5], &[1, -4], &[1, -3]],
                ),
                tiled_b,
            ),
        ];
        for (name, (text, deltas), adf) in cases {
            let m = Map::parse(&text).unwrap();
            let adf = Map::parse(adf).unwrap();
            let rev = m.reverse();
            SUBSTITUTED.with(|n| n.set(0));
            let composed = rev.apply_range_uncached(&adf).unwrap();
            assert_eq!(
                SUBSTITUTED.with(Cell::get),
                rev.basics().len() * adf.basics().len(),
                "{name}: a disjunct pair left the substitution path"
            );
            let mut expect = std::collections::BTreeSet::new();
            let points = adf.points(10_000).unwrap_or_else(|e| panic!("{name}: {e}"));
            for p in points {
                for d in &deltas {
                    let mut q = p.clone();
                    for (c, dj) in q.iter_mut().zip(d) {
                        *c += dj;
                    }
                    expect.insert(q);
                }
            }
            let got = composed.points(100_000).unwrap();
            assert_eq!(got, expect.into_iter().collect::<Vec<_>>(), "{name}");
        }
    }

    /// A translation constant near `i64::MAX` overflows the substituted
    /// rows: the composition reports it instead of wrapping.
    #[test]
    fn substitution_overflow_is_an_error() {
        let m = Map::parse("{ ST[p0, t0] -> ST[p0 + 9223372036854775806, t0 + 1] }").unwrap();
        let adf = Map::parse("{ ST[p0, t0] -> A[p0] : -5 <= p0 <= 5 and 0 <= t0 < 4 }").unwrap();
        let rev = m.reverse();
        SUBSTITUTED.with(|n| n.set(0));
        assert_eq!(rev.apply_range_uncached(&adf), Err(Error::Overflow));
        assert_eq!(SUBSTITUTED.with(Cell::get), 1);
        assert_eq!(rev.apply_range(&adf), Err(Error::Overflow));
    }

    /// Left disjuncts that are not affine-function graphs stay on the
    /// projection path.
    #[test]
    fn near_miss_graphs_are_not_recognized() {
        for text in [
            "{ A[i] -> B[j] : 2 j = i }",
            "{ A[i] -> B[j] : j <= i }",
            "{ A[i] -> B[i mod 4] }",
            "{ A[i] -> B[j, k] : j + k = i and j = i }",
        ] {
            let m = Map::parse(text).unwrap();
            assert!(AffineGraph::of(&m.basics()[0]).is_none(), "{text}");
        }
        let m = Map::parse("{ A[i, j] -> B[j - i, 3] : 0 <= i < 4 and i = 2 j }").unwrap();
        assert!(AffineGraph::of(&m.basics()[0]).is_some());
    }

    /// A ±2 output coefficient keeps a composition on the projection
    /// ladder, which must finish exactly. The first shape needs the ladder
    /// to prefer an equality that needs no div expansion (expanding first
    /// alternates with non-unit elimination forever); in the second, the
    /// divisibility div equals an existing one, and reusing it must not
    /// widen the divisibility row.
    #[test]
    fn non_unit_graphs_project_exactly() {
        let ping_pong = (
            "{ P[x0] -> B[y0] : 2*y0 = x0 + -3 and -6 <= x0 and x0 <= 3 }",
            "{ B[x0] -> C[x1, x2, x3, w] : -2 <= x0 and x0 <= 5 and 1 <= x1 and x1 <= 3 \
             and -2 <= x2 and x2 <= 1 and -3 <= x3 and x3 <= 0 \
             and -5 <= -2*x0 + -3*x1 + 2*x2 + 3*x3 and -2*x0 + -3*x1 + 2*x2 + 3*x3 <= -5 \
             and w = (2*x0 + 3*x1) mod 2 and 0 <= w < 2 }",
        );
        let mut expect = 0;
        for y in -2i64..=0 {
            for a in 1..=3 {
                for b in -2..=1 {
                    for c in -3..=0 {
                        expect += u128::from(-2 * y - 3 * a + 2 * b + 3 * c == -5);
                    }
                }
            }
        }
        let reused_div = (
            "{ P[x] -> B[y] : -2 y = x + 2 }",
            "{ B[y] -> C[a, w] : 4 <= y <= 6 and 1 <= a <= 2 and w = (-2 y) mod 2 }",
        );
        for ((left, right), card) in [(ping_pong, expect), (reused_div, 6)] {
            let (l, r) = (Map::parse(left).unwrap(), Map::parse(right).unwrap());
            SUBSTITUTED.with(|n| n.set(0));
            let composed = l.apply_range_uncached(&r).unwrap();
            assert_eq!(SUBSTITUTED.with(Cell::get), 0, "{left}");
            assert_eq!(composed.card().unwrap(), card, "{left} . {right}");
        }
    }

    #[test]
    fn union_and_card() {
        let a = Map::parse("{ A[i] -> B[i] : 0 <= i < 4 }").unwrap();
        let b = Map::parse("{ A[i] -> B[i] : 2 <= i < 6 }").unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.card().unwrap(), 6);
    }

    #[test]
    fn subtract_removes_overlap() {
        let a = Map::parse("{ A[i] -> B[i] : 0 <= i < 10 }").unwrap();
        let b = Map::parse("{ A[i] -> B[i] : 3 <= i < 5 }").unwrap();
        let d = a.subtract(&b).unwrap();
        assert_eq!(d.card().unwrap(), 8);
        assert!(d.contains_point(&[2, 2]).unwrap());
        assert!(!d.contains_point(&[3, 3]).unwrap());
    }

    #[test]
    fn apply_range_composes() {
        let a = Map::parse("{ A[i] -> B[i + 1] : 0 <= i < 5 }").unwrap();
        let b = Map::parse("{ B[j] -> C[2 j] }").unwrap();
        let c = a.apply_range(&b).unwrap();
        // i -> 2(i+1) for i in [0,5)
        assert_eq!(c.card().unwrap(), 5);
        assert!(c.contains_point(&[0, 2]).unwrap());
        assert!(c.contains_point(&[4, 10]).unwrap());
        assert!(!c.contains_point(&[0, 3]).unwrap());
    }

    #[test]
    fn reverse_and_domain_range() {
        let a = Map::parse("{ A[i] -> B[i, i] : 0 <= i < 3 }").unwrap();
        let r = a.reverse();
        assert!(r.contains_point(&[1, 1, 1]).unwrap());
        let dom = a.domain().unwrap();
        assert_eq!(dom.card().unwrap(), 3);
        let rng = a.range().unwrap();
        assert_eq!(rng.card().unwrap(), 3);
    }

    #[test]
    fn identity_subset() {
        let id = Map::identity(Tuple::new("A", ["x"]), Tuple::new("B", ["y"])).unwrap();
        let m = Map::parse("{ A[i] -> B[i] : 0 <= i < 7 }").unwrap();
        assert!(m.is_subset(&id).unwrap());
        let m2 = Map::parse("{ A[i] -> B[i + 1] : 0 <= i < 7 }").unwrap();
        assert!(!m2.is_subset(&id).unwrap());
    }

    #[test]
    fn card_with_mod_div() {
        let m = Map::parse("{ S[i, j] -> PE[i mod 4] : 0 <= i < 16 and 0 <= j < 2 }").unwrap();
        assert_eq!(m.card().unwrap(), 32);
        let rng = m.range().unwrap();
        assert_eq!(rng.card().unwrap(), 4);
    }
}
