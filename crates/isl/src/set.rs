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
    /// S}|`. This is [`Set::max_slice_card`] over every suffix value,
    /// memoized whole, so recomputation over the same set is a table hit.
    /// The max-utilization metric of `tenet_core` is this count over the
    /// activity relation, with the time-stamp as the suffix.
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
    /// Fails with [`Error::SpaceMismatch`] when `split` exceeds the
    /// dimensionality, with [`Error::TooComplex`] when the set has more
    /// than `enum_limit` distinct suffix values, and propagates counting
    /// failures of unbounded sets. The memoized value does not depend on
    /// `enum_limit` (it is exact whenever it exists).
    pub fn max_suffix_slice_card(&self, split: usize, enum_limit: usize) -> Result<u128> {
        self.suffix_width(split, &[])?;
        crate::cache::memo(
            crate::cache::OpKind::SliceMax,
            self.as_map(),
            None,
            split as i128,
            || self.max_slice_card(split, &self.project_out(0, split)?.points(enum_limit)?),
        )
    }

    /// The largest number of points that share one of `suffixes` as their
    /// values of the dims `[split, n)`. Counts each slice outside the memo
    /// and stops at the first that holds every point of the prefix
    /// projection (the suffix dims projected out): no slice holds more.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::SpaceMismatch`] when `split` exceeds the
    /// dimensionality or a suffix does not have `n - split` values, and
    /// propagates counting failures of unbounded slices.
    pub fn max_slice_card(&self, split: usize, suffixes: &[Vec<i64>]) -> Result<u128> {
        let width = self.suffix_width(split, suffixes)?;
        crate::cache::timed_compute(|| {
            let bound = self.project_out(split, width).and_then(|p| p.card()).ok();
            let mut max = 0u128;
            for suffix in suffixes {
                let slice = (split..)
                    .zip(suffix)
                    .fold(self.map.clone(), |m, (dim, &v)| m.fix_out(dim, v));
                max = max.max(slice.card_uncached()?);
                if Some(max) == bound {
                    break;
                }
            }
            Ok(max)
        })
    }

    /// The number of dims after `split`, which every suffix must have.
    fn suffix_width(&self, split: usize, suffixes: &[Vec<i64>]) -> Result<usize> {
        match self.n_dim().checked_sub(split) {
            Some(w) if suffixes.iter().all(|s| s.len() == w) => Ok(w),
            _ => Err(Error::SpaceMismatch(format!(
                "suffixes after dimension {split} do not fit {} dimensions",
                self.n_dim()
            ))),
        }
    }

    /// Best-known finite bounds `[lo, hi]` of dimension `dim` across all
    /// disjuncts.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Unbounded`] when no finite bound can be derived,
    /// and with [`Error::Overflow`] when a derived bound lies outside i64.
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
