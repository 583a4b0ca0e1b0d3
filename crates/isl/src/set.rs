//! [`Set`]: an integer set, represented as a relation with an empty domain.

use crate::map::Map;
use crate::space::{Space, Tuple};
use crate::{Error, Result};

/// A set of integer tuples (a [`Map`] with zero input dimensions).
///
/// ```
/// use tenet_isl::Set;
/// let s = Set::parse("{ S[i, j] : 0 <= i < 4 and 0 <= j <= i }")?;
/// assert_eq!(s.card()?, 10);
/// # Ok::<(), tenet_isl::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Set {
    map: Map,
}

impl Set {
    /// Parses a set from textual notation, e.g. `{ PE[i, j] : 0 <= i, 0 <=
    /// j and i < 8 and j < 8 }`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for malformed or non-affine input.
    pub fn parse(text: &str) -> Result<Set> {
        // Sets memoize through their map representation, under a key
        // distinct from `Map::parse` (each rejects the other's texts).
        Ok(Set {
            map: crate::cache::memo_parse(true, text, || {
                crate::parse::parse_set(text).map(Set::into_map)
            })?,
        })
    }

    /// Wraps a map that already has an empty domain.
    pub(crate) fn from_map_unchecked(map: Map) -> Set {
        debug_assert_eq!(map.n_in(), 0);
        Set { map }
    }

    /// Converts a zero-input map into a set.
    pub fn try_from_map(map: Map) -> Result<Set> {
        if map.n_in() != 0 {
            return Err(Error::SpaceMismatch(
                "a set must have an empty input tuple".into(),
            ));
        }
        Ok(Set { map })
    }

    /// The unconstrained set over `tuple`.
    pub fn universe(tuple: Tuple) -> Set {
        Set {
            map: Map::universe(Space::set(tuple)),
        }
    }

    /// The empty set over `tuple`.
    pub fn empty(tuple: Tuple) -> Set {
        Set {
            map: Map::empty(Space::set(tuple)),
        }
    }

    /// The underlying map view (empty domain).
    pub fn as_map(&self) -> &Map {
        &self.map
    }

    /// Consumes the set, returning the underlying map.
    pub fn into_map(self) -> Map {
        self.map
    }

    /// The tuple this set ranges over.
    pub fn tuple(&self) -> &Tuple {
        &self.map.space().output
    }

    /// Number of dimensions.
    pub fn n_dim(&self) -> usize {
        self.map.n_out()
    }

    /// Set union.
    pub fn union(&self, other: &Set) -> Result<Set> {
        Ok(Set {
            map: self.map.union(&other.map)?,
        })
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Set) -> Result<Set> {
        Ok(Set {
            map: self.map.intersect(&other.map)?,
        })
    }

    /// Exact set difference.
    pub fn subtract(&self, other: &Set) -> Result<Set> {
        Ok(Set {
            map: self.map.subtract(&other.map)?,
        })
    }

    /// Projects away dimensions `[first, first + n)`.
    pub fn project_out(&self, first: usize, n: usize) -> Result<Set> {
        Ok(Set {
            map: self.map.project_out_out(first, n)?,
        })
    }

    /// Fixes dimension `dim` to `val`.
    pub fn fix(&self, dim: usize, val: i64) -> Set {
        Set {
            map: self.map.fix_out(dim, val),
        }
    }

    /// Exact number of points.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Unbounded`] if the set is not bounded.
    pub fn card(&self) -> Result<u128> {
        self.map.card()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> Result<bool> {
        self.map.is_empty()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Set) -> Result<bool> {
        self.map.is_subset(&other.map)
    }

    /// Whether the two sets contain exactly the same points.
    pub fn is_equal(&self, other: &Set) -> Result<bool> {
        self.map.is_equal(&other.map)
    }

    /// Whether `point` belongs to the set.
    pub fn contains_point(&self, point: &[i64]) -> Result<bool> {
        self.map.contains_point(point)
    }

    /// Enumerates all points, sorted. Intended for small sets.
    pub fn points(&self, limit: usize) -> Result<Vec<Vec<i64>>> {
        self.map.points(limit)
    }

    /// Exact maximum, over every value of the suffix dims `[split, n)`, of
    /// the number of points sharing that suffix: `max_t |{x : (x ++ t) ∈
    /// S}|`. One [`Set::points`] enumeration bucketed on the suffix — the
    /// single-pass replacement for fixing each suffix value and counting
    /// separately — and memoized, so recomputation over the same set is a
    /// table hit.
    ///
    /// ```
    /// use tenet_isl::Set;
    /// // (pe, t) activity: 2 active at t = 0, 1 at t = 1.
    /// let s = Set::parse("{ A[p, t] : 0 <= p <= 1 and 0 <= t <= 1 and p + t <= 1 }")?;
    /// assert_eq!(s.max_suffix_slice_card(1, 100)?, 2);
    /// # Ok::<(), tenet_isl::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails with [`Error::TooComplex`] when the set holds more than
    /// `enum_limit` points, and propagates enumeration failures of
    /// unbounded sets. The memoized value does not depend on
    /// `enum_limit` (it is exact whenever it exists).
    pub fn max_suffix_slice_card(&self, split: usize, enum_limit: usize) -> Result<u128> {
        if split > self.n_dim() {
            return Err(Error::SpaceMismatch(format!(
                "suffix split {split} exceeds dimensionality {}",
                self.n_dim()
            )));
        }
        crate::cache::memo_count(
            crate::cache::OpKind::SliceMax,
            self.as_map(),
            split as i128,
            || self.max_suffix_slice_card_uncached(split, enum_limit),
        )
    }

    /// Strategy dispatch for [`Set::max_suffix_slice_card`]. Both
    /// strategies are exact and agree bit-for-bit (property-tested), so
    /// the choice is purely a cost model: bucketing pays per *point*,
    /// sweeping pays per *suffix value* (each a closed-form `card`), so
    /// bucketing wins only while points-per-suffix stays small.
    fn max_suffix_slice_card_uncached(&self, split: usize, enum_limit: usize) -> Result<u128> {
        /// Above this many points per suffix value, per-suffix counting
        /// beats enumerating every point.
        const BUCKET_MAX_POINTS_PER_SUFFIX: u128 = 16;
        let total = self.card()?;
        let suffixes = self.project_out(0, split)?;
        let suffix_count = suffixes.card()?.max(1);
        if total <= enum_limit as u128
            && total <= suffix_count.saturating_mul(BUCKET_MAX_POINTS_PER_SUFFIX)
        {
            let mut buckets: std::collections::HashMap<Vec<i64>, u128> =
                std::collections::HashMap::new();
            if let [single] = self.map.basics() {
                // One disjunct: every visible point is visited exactly
                // once, so the counts can stream through the visitor with
                // no materialized point list (and a key allocation only
                // per distinct suffix).
                crate::count::basic_points_visit(single, &mut |p| {
                    match buckets.get_mut(&p[split..]) {
                        Some(c) => *c += 1,
                        None => {
                            buckets.insert(p[split..].to_vec(), 1);
                        }
                    }
                    Ok(())
                })?;
            } else {
                // Unions need cross-disjunct dedup: take the sorted,
                // deduplicated point list.
                for p in self.points(enum_limit)? {
                    match buckets.get_mut(&p[split..]) {
                        Some(c) => *c += 1,
                        None => {
                            buckets.insert(p[split..].to_vec(), 1);
                        }
                    }
                }
            }
            return Ok(buckets.values().copied().max().unwrap_or(0));
        }
        if suffix_count <= enum_limit as u128 {
            // Sweep: pin each suffix value and count the slice (each
            // count dispatches to the closed forms; with the memo on,
            // repeats replay from the table).
            let mut max = 0u128;
            for sp in suffixes.points(enum_limit)? {
                let mut slice = self.clone();
                for (i, &v) in sp.iter().enumerate() {
                    slice = slice.fix(split + i, v);
                }
                max = max.max(slice.card()?);
            }
            return Ok(max);
        }
        Err(Error::TooComplex(format!(
            "max_suffix_slice_card: {total} points and {suffix_count} suffix values both exceed the enumeration limit {enum_limit}"
        )))
    }

    /// Best-known finite bounds `[lo, hi]` of dimension `dim` across all
    /// disjuncts.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Unbounded`] when no finite bound can be derived.
    pub fn dim_bounds(&self, dim: usize) -> Result<(i64, i64)> {
        let mut bounds: Option<(i64, i64)> = None;
        for b in self.map.basics() {
            let (lo, hi) = crate::count::var_range(b, dim)?;
            bounds = Some(match bounds {
                None => (lo, hi),
                Some((l, h)) => (l.min(lo), h.max(hi)),
            });
        }
        bounds.ok_or_else(|| Error::Unbounded("empty set has no bounds".into()))
    }

    /// Interprets this set over `in ++ out` dims back as a map
    /// (inverse of [`Map::wrap`]); `n_in` leading dims become the domain.
    pub fn unwrap_map(&self, n_in: usize, space: Space) -> Result<Map> {
        if space.n_in() != n_in || space.n_in() + space.n_out() != self.n_dim() {
            return Err(Error::SpaceMismatch(
                "unwrap: space arities do not match set dimensionality".into(),
            ));
        }
        Ok(self.map.respaced(std::sync::Arc::new(space)))
    }
}

impl Set {
    /// Merges disjuncts when the union is exactly representable as one
    /// basic set (see [`Map::coalesce`]).
    pub fn coalesce(&self) -> Set {
        Set::from_map_unchecked(self.as_map().coalesce())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_card() {
        let s = Set::parse("{ PE[i, j] : 0 <= i < 2 and 0 <= j < 2 }").unwrap();
        assert_eq!(s.card().unwrap(), 4);
    }

    #[test]
    fn union_intersect_subtract() {
        let a = Set::parse("{ A[i] : 0 <= i < 8 }").unwrap();
        let b = Set::parse("{ A[i] : 4 <= i < 12 }").unwrap();
        assert_eq!(a.union(&b).unwrap().card().unwrap(), 12);
        assert_eq!(a.intersect(&b).unwrap().card().unwrap(), 4);
        assert_eq!(a.subtract(&b).unwrap().card().unwrap(), 4);
        // Inclusion-exclusion sanity.
        let lhs = a.union(&b).unwrap().card().unwrap() + a.intersect(&b).unwrap().card().unwrap();
        assert_eq!(lhs, a.card().unwrap() + b.card().unwrap());
    }

    #[test]
    fn projection() {
        let s = Set::parse("{ A[i, j] : 0 <= i < 4 and 0 <= j <= i }").unwrap();
        let p = s.project_out(1, 1).unwrap();
        assert_eq!(p.card().unwrap(), 4);
        let q = s.project_out(0, 1).unwrap();
        assert_eq!(q.card().unwrap(), 4); // j in [0, 3]
    }

    #[test]
    fn fix_slices() {
        let s = Set::parse("{ A[i, j] : 0 <= i < 4 and 0 <= j <= i }").unwrap();
        assert_eq!(s.fix(0, 2).card().unwrap(), 3);
        assert_eq!(s.fix(0, 9).card().unwrap(), 0);
    }
}
