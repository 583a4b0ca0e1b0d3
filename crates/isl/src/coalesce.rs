//! Union coalescing: merges disjuncts produced by case splits back into
//! single basic maps when the union is exactly representable, keeping
//! downstream intersections and counts small.
//!
//! Pieces are compared in *expanded inequality form* (each equality
//! contributes its two half-spaces). Two pieces merge when they share all
//! but a few rows and the differing rows bound the same expression with
//! adjacent or overlapping intervals:
//!
//! * `{e >= -c1} ∪ {e >= -c2}`            → the weaker half-space
//! * `{e >= c} ∪ {e <= c'}` with `c <= c'+1` → the row disappears
//! * `[l1, u1] ∪ [l2, u2]` adjacent        → `[min l, max u]`
//! * half-space ∪ adjacent interval        → extended half-space
//!
//! All merges are exact; a fixpoint loop applies them until no pair
//! merges.

use crate::basic::{BasicMap, Row};
use crate::map::Map;

/// One piece in expanded inequality form.
struct Expanded {
    rows: Vec<Row>,
}

fn expand(bm: &BasicMap) -> Expanded {
    let mut rows: Vec<Row> = bm.ineqs.clone();
    for e in &bm.eqs {
        rows.push(e.clone());
        rows.push(e.iter().map(|v| -v).collect());
    }
    rows.sort();
    rows.dedup();
    Expanded { rows }
}

/// Splits `x \ y` and `y \ x` row sets. Both sides are sorted and
/// deduplicated ([`expand`]), so a single merge walk suffices; the walk
/// aborts early once both differences are too large to ever merge
/// (&gt; 2 rows each) — the common case across unrelated pieces.
fn diff_rows(x: &Expanded, y: &Expanded) -> Option<(Vec<Row>, Vec<Row>)> {
    let mut x_only: Vec<Row> = Vec::new();
    let mut y_only: Vec<Row> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < x.rows.len() || j < y.rows.len() {
        if x_only.len() > 2 && y_only.len() > 2 {
            return None;
        }
        match (x.rows.get(i), y.rows.get(j)) {
            (Some(a), Some(b)) => match a.cmp(b) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    x_only.push(a.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    y_only.push(b.clone());
                    j += 1;
                }
            },
            (Some(a), None) => {
                x_only.push(a.clone());
                i += 1;
            }
            (None, Some(b)) => {
                y_only.push(b.clone());
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    Some((x_only, y_only))
}

/// Classifies a set of 1-2 rows as bounds on a common direction vector.
/// Returns (direction, lower const, upper const) where the piece satisfies
/// `lower <= dir·v <= upper` (`i64::MIN`/`MAX` mean unbounded).
fn as_interval(rows: &[Row]) -> Option<(Vec<i64>, i64, i64)> {
    let k = rows[0].len() - 1;
    let mut dir: Option<Vec<i64>> = None;
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for r in rows {
        let coeffs = &r[..k];
        if coeffs.iter().all(|&c| c == 0) {
            return None;
        }
        // Normalize direction: first nonzero coefficient positive.
        let positive = coeffs.iter().find(|&&c| c != 0).copied().unwrap() > 0;
        let d: Vec<i64> = if positive {
            coeffs.to_vec()
        } else {
            coeffs.iter().map(|c| -c).collect()
        };
        match &dir {
            None => dir = Some(d.clone()),
            Some(existing) if *existing == d => {}
            _ => return None,
        }
        if positive {
            // d·v + c >= 0  =>  d·v >= -c
            lo = lo.max(-r[k]);
        } else {
            // -d·v + c >= 0  =>  d·v <= c
            hi = hi.min(r[k]);
        }
    }
    dir.map(|d| (d, lo, hi))
}

/// Builds the rows for `lower <= dir·v <= upper`.
fn interval_rows(dir: &[i64], lo: i64, hi: i64) -> Vec<Row> {
    let mut out = Vec::new();
    if lo != i64::MIN {
        let mut r = Row::from_slice(dir);
        r.push(-lo);
        out.push(r);
    }
    if hi != i64::MAX {
        let mut r: Row = dir.iter().map(|c| -c).collect();
        r.push(hi);
        out.push(r);
    }
    out
}

/// Attempts to merge two basics (with their precomputed expansions);
/// returns the merged basic on success.
fn try_merge(x: &BasicMap, y: &BasicMap, ex: &Expanded, ey: &Expanded) -> Option<BasicMap> {
    if x.divs != y.divs {
        return None;
    }
    let (x_only, y_only) = diff_rows(ex, ey)?;
    if x_only.is_empty() {
        // y ⊆ x.
        return Some(x.clone());
    }
    if y_only.is_empty() {
        return Some(y.clone());
    }
    if x_only.len() > 2 || y_only.len() > 2 {
        return None;
    }
    let (dx, lx, ux) = as_interval(&x_only)?;
    let (dy, ly, uy) = as_interval(&y_only)?;
    if dx != dy {
        return None;
    }
    // The union of two intervals on the same direction is an interval iff
    // they overlap or are adjacent.
    let overlaps = |a_lo: i64, a_hi: i64, b_lo: i64, b_hi: i64| -> bool {
        // adjacency: a_hi + 1 >= b_lo (careful with the MIN/MAX sentinels)
        let left_ok = a_hi == i64::MAX || b_lo == i64::MIN || b_lo <= a_hi.saturating_add(1);
        let right_ok = b_hi == i64::MAX || a_lo == i64::MIN || a_lo <= b_hi.saturating_add(1);
        left_ok && right_ok
    };
    if !overlaps(lx, ux, ly, uy) {
        return None;
    }
    let lo = lx.min(ly);
    let hi = ux.max(uy);
    let mut m = x.clone();
    m.eqs.clear();
    m.ineqs = ex
        .rows
        .iter()
        .filter(|r| !x_only.contains(r))
        .cloned()
        .collect();
    m.ineqs.extend(interval_rows(&dx, lo, hi));
    Some(m)
}

/// Coalesces the disjuncts of a map (exact; fixpoint with a work cap).
///
/// Each piece's expanded inequality form is computed once and cached
/// next to it, refreshed only when the piece itself changes by a merge;
/// a pass applies every merge it finds in place (no restart from
/// scratch), and passes repeat until one finds nothing. Merges strictly
/// shrink the piece count, so at most `n` passes of cheap sorted-row
/// diffs run — the previous restart-per-merge fixpoint re-expanded
/// (sorted + deduplicated) every pair's rows from scratch after every
/// single merge, which dominated cold `apply_range` time on case-split
/// unions.
///
/// Takes the map handle by value: a map of at most one disjunct comes
/// back as the same handle. A larger one is merged on its own parts: a
/// uniquely held value's disjuncts are merged in place, and a shared
/// handle's are copied once before merging, so the value other handles
/// see never changes.
pub(crate) fn coalesce_map(map: Map) -> Map {
    if map.basics().len() <= 1 {
        return map;
    }
    let (space, mut basics) = map.into_parts();
    let mut exp: Vec<Expanded> = basics.iter().map(expand).collect();
    let mut changed = true;
    let mut guard = 0;
    while changed && guard < 1000 {
        changed = false;
        guard += 1;
        let mut i = 0;
        while i < basics.len() {
            let mut j = i + 1;
            while j < basics.len() {
                if let Some(mut m) = try_merge(&basics[i], &basics[j], &exp[i], &exp[j]) {
                    m.simplify();
                    m.drop_unused_divs();
                    exp[i] = expand(&m);
                    basics[i] = m;
                    basics.swap_remove(j);
                    exp.swap_remove(j);
                    changed = true;
                    // Do not advance `j`: the swap moved a fresh piece
                    // into this slot, and the grown `i` may absorb it.
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }
    Map::from_parts(space, basics)
}

#[cfg(test)]
mod tests {
    use crate::Set;

    #[test]
    fn adjacent_singletons_merge() {
        let s = Set::parse("{ A[i] : i = 0 or i = 1 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 1);
        assert!(c.is_equal(&s).unwrap());
    }

    #[test]
    fn split_chain_merges_fully() {
        let s = Set::parse("{ A[i] : i = 0 or i = 1 or i = 2 or i = 3 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 1);
        assert_eq!(c.card().unwrap(), 4);
        assert!(c.is_equal(&s).unwrap());
    }

    #[test]
    fn halfspace_extension() {
        let s = Set::parse("{ A[i] : 1 <= i < 8 or i = 0 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 1);
        assert!(c.is_equal(&s).unwrap());
    }

    #[test]
    fn complementary_halves_drop_constraint() {
        let s = Set::parse("{ A[i, j] : 0 <= j < 4 and i >= 2 or 0 <= j < 4 and i <= 1 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 1);
        // i is now unconstrained; j still boxed.
        assert!(c.contains_point(&[-100, 0]).unwrap());
        assert!(!c.contains_point(&[0, 4]).unwrap());
    }

    #[test]
    fn disjoint_pieces_stay_separate() {
        let s = Set::parse("{ A[i] : 0 <= i < 2 or 10 <= i < 12 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 2);
        assert!(c.is_equal(&s).unwrap());
    }

    #[test]
    fn subset_pieces_absorbed() {
        let s = Set::parse("{ A[i] : 0 <= i < 10 or 2 <= i < 5 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 1);
        assert_eq!(c.card().unwrap(), 10);
    }

    #[test]
    fn coalesce_preserves_semantics_with_divs() {
        let s = Set::parse("{ A[i] : 0 <= i < 16 and i mod 4 = 0 or 0 <= i < 16 and i mod 4 = 1 }")
            .unwrap();
        let c = s.coalesce();
        assert!(c.is_equal(&s).unwrap());
        assert_eq!(c.card().unwrap(), 8);
    }

    #[test]
    fn overlapping_intervals_merge() {
        let s = Set::parse("{ A[i] : 0 <= i < 6 or 4 <= i < 9 }").unwrap();
        let c = s.coalesce();
        assert_eq!(c.as_map().basics().len(), 1);
        assert_eq!(c.card().unwrap(), 9);
    }
}
