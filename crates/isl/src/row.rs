//! [`Row`]: the constraint-row representation — a small-vector of `i64`
//! coefficients stored inline up to [`INLINE`] columns.
//!
//! Constraint rows are the innermost data structure of the whole library:
//! every relational operation reads, combines, widens, and copies rows.
//! The original representation (`Vec<i64>`) paid one heap allocation per
//! row; TENET's relations almost always have fewer than 16 columns
//! (loop dims + spacetime dims + divs + constant), so an inline array
//! removes nearly all allocation from the hot paths and makes row copies
//! plain `memcpy`s.
//!
//! `Row` dereferences to `[i64]`, so indexing, slicing, iteration, and
//! comparisons read exactly like the `Vec` code they replaced. Ordering,
//! equality, and hashing are element-wise over the logical contents, which
//! makes rows (and the [`crate::BasicMap`]s containing them) usable as
//! structural cache keys.
//!
//! The row arithmetic the library needs lives here, once each: the
//! combination [`combine`], the value at a point [`value`], negation and
//! complement [`negated`], a div's [`div_brackets`], the constant of two
//! cancelling rows [`cancel_constant`], and gcd normalization [`reduce`].
//! Every one is checked: an entry that would leave i64, or a sum that
//! would leave i128, fails with [`Error::Overflow`] instead of wrapping.

use crate::value::{floor_div, gcd};
use crate::{Error, Result};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Number of coefficients stored inline before spilling to the heap.
pub(crate) const INLINE: usize = 16;

/// A constraint row: coefficients over `[in | out | divs | constant]`.
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [i64; INLINE] },
    Heap(Vec<i64>),
}

impl Row {
    /// The empty row.
    #[inline]
    pub fn new() -> Row {
        Row(Repr::Inline {
            len: 0,
            buf: [0; INLINE],
        })
    }

    /// A row of `n` zeros.
    #[inline]
    pub fn zeros(n: usize) -> Row {
        if n <= INLINE {
            Row(Repr::Inline {
                len: n as u8,
                buf: [0; INLINE],
            })
        } else {
            Row(Repr::Heap(vec![0; n]))
        }
    }

    /// An empty row with room for `n` coefficients.
    #[inline]
    pub fn with_capacity(n: usize) -> Row {
        if n <= INLINE {
            Row::new()
        } else {
            Row(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// A row copying `s`.
    #[inline]
    pub fn from_slice(s: &[i64]) -> Row {
        if s.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..s.len()].copy_from_slice(s);
            Row(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            Row(Repr::Heap(s.to_vec()))
        }
    }

    /// The coefficients as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The coefficients as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Appends a coefficient.
    #[inline]
    pub fn push(&mut self, v: i64) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let l = *len as usize;
                if l < INLINE {
                    buf[l] = v;
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity(INLINE * 2);
                    vec.extend_from_slice(&buf[..l]);
                    vec.push(v);
                    self.0 = Repr::Heap(vec);
                }
            }
            Repr::Heap(vec) => vec.push(v),
        }
    }

    /// Inserts a coefficient at `at`, shifting the tail right.
    pub fn insert(&mut self, at: usize, v: i64) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let l = *len as usize;
                debug_assert!(at <= l);
                if l < INLINE {
                    buf.copy_within(at..l, at + 1);
                    buf[at] = v;
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity(INLINE * 2);
                    vec.extend_from_slice(&buf[..l]);
                    vec.insert(at, v);
                    self.0 = Repr::Heap(vec);
                }
            }
            Repr::Heap(vec) => vec.insert(at, v),
        }
    }

    /// Removes and returns the coefficient at `at`, shifting the tail left.
    pub fn remove(&mut self, at: usize) -> i64 {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let l = *len as usize;
                debug_assert!(at < l);
                let v = buf[at];
                buf.copy_within(at + 1..l, at);
                buf[l - 1] = 0;
                *len -= 1;
                v
            }
            Repr::Heap(vec) => {
                let v = vec.remove(at);
                // Shrink back to inline form once small enough so later
                // clones stay allocation-free.
                if vec.len() <= INLINE {
                    let mut buf = [0; INLINE];
                    buf[..vec.len()].copy_from_slice(vec);
                    self.0 = Repr::Inline {
                        len: vec.len() as u8,
                        buf,
                    };
                }
                v
            }
        }
    }

    /// Drops the spare capacity of a row spilled to the heap.
    pub fn shrink_to_fit(&mut self) {
        if let Repr::Heap(vec) = &mut self.0 {
            vec.shrink_to_fit();
        }
    }

    /// Coefficients the row holds room for without growing: its length
    /// when inline, its heap capacity once spilled.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(vec) => vec.capacity(),
        }
    }

    /// Appends all coefficients of `s`.
    #[inline]
    pub fn extend_from_slice(&mut self, s: &[i64]) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) + s.len() <= INLINE => {
                let l = *len as usize;
                buf[l..l + s.len()].copy_from_slice(s);
                *len += s.len() as u8;
            }
            _ => {
                for &v in s {
                    self.push(v);
                }
            }
        }
    }
}

impl Default for Row {
    fn default() -> Self {
        Row::new()
    }
}

impl Deref for Row {
    type Target = [i64];
    #[inline]
    fn deref(&self) -> &[i64] {
        self.as_slice()
    }
}

impl DerefMut for Row {
    #[inline]
    fn deref_mut(&mut self) -> &mut [i64] {
        self.as_mut_slice()
    }
}

impl PartialEq for Row {
    #[inline]
    fn eq(&self, other: &Row) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Row {}

impl PartialOrd for Row {
    #[inline]
    fn partial_cmp(&self, other: &Row) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    #[inline]
    fn cmp(&self, other: &Row) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Row {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Vec<i64>> for Row {
    #[inline]
    fn from(v: Vec<i64>) -> Row {
        if v.len() <= INLINE {
            Row::from_slice(&v)
        } else {
            Row(Repr::Heap(v))
        }
    }
}

impl From<&[i64]> for Row {
    #[inline]
    fn from(s: &[i64]) -> Row {
        Row::from_slice(s)
    }
}

impl FromIterator<i64> for Row {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Row {
        let mut r = Row::new();
        for v in iter {
            r.push(v);
        }
        r
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a i64;
    type IntoIter = std::slice::Iter<'a, i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// `p·r - q·s`, entry by entry, written over `r`. With `p = s[j]` and
/// `q = r[j]` it is the combination of `r` and `s` that cancels column `j`.
/// Each entry is exact in i128 (two i64 products differ by less than
/// 2^127) and fails with [`Error::Overflow`] when it leaves i64.
#[inline]
pub(crate) fn combine(p: i64, mut r: Row, q: i64, s: &[i64]) -> Result<Row> {
    debug_assert_eq!(r.len(), s.len());
    for (a, &b) in r.iter_mut().zip(s) {
        let v = i128::from(p) * i128::from(*a) - i128::from(q) * i128::from(b);
        *a = i64::try_from(v).map_err(|_| Error::Overflow)?;
    }
    Ok(r)
}

/// The value `Σ r[i]·x[i]` of row `r` at the column vector `x`, whose last
/// entry is 1 so that `r`'s constant adds in.
#[inline]
pub(crate) fn value(r: &[i64], x: &[i64]) -> Result<i128> {
    debug_assert_eq!(r.len(), x.len());
    r.iter().zip(x).try_fold(0i128, |sum, (&a, &b)| {
        sum.checked_add(i128::from(a) * i128::from(b))
            .ok_or(Error::Overflow)
    })
}

/// `plus - r`: the row negated, with `plus` added to its constant (the
/// last entry). `negated(r, 0)` is the opposite row, and `negated(t, -1)`
/// the complement of `t >= 0`, `-t - 1 >= 0`.
#[inline]
pub(crate) fn negated(r: &[i64], plus: i64) -> Result<Row> {
    let k = r.len() - 1;
    let mut out = Row::zeros(r.len());
    for (o, &c) in out[..k].iter_mut().zip(r) {
        *o = c.checked_neg().ok_or(Error::Overflow)?;
    }
    out[k] = i64::try_from(i128::from(plus) - i128::from(r[k])).map_err(|_| Error::Overflow)?;
    Ok(out)
}

/// The bracket rows of a div `q = floor(num / den)` held in column `col`:
/// `num - den·q >= 0` and `den - 1 - (num - den·q) >= 0`.
pub(crate) fn div_brackets(num: &[i64], den: i64, col: usize) -> Result<[Row; 2]> {
    let mut lo = Row::from_slice(num);
    lo[col] = lo[col].checked_sub(den).ok_or(Error::Overflow)?;
    let hi = negated(&lo, den - 1)?;
    Ok([lo, hi])
}

/// The constant of `l + u` when the two rows cancel at every variable
/// column (the constant is last), or `None` when they do not.
#[inline]
pub(crate) fn cancel_constant(l: &[i64], u: &[i64]) -> Option<i128> {
    let k = l.len() - 1;
    let sum = |a: i64, b: i64| i128::from(a) + i128::from(b);
    let cancels = l[..k].iter().zip(&u[..k]).all(|(&a, &b)| sum(a, b) == 0);
    cancels.then(|| sum(l[k], u[k]))
}

/// What [`reduce`] left of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reduced {
    /// The row still constrains some variable.
    Kept,
    /// The row has no variable and holds everywhere.
    Trivial,
    /// The row holds nowhere.
    Infeasible,
}

/// gcd normalization of a row (the constant last), `r == 0` when `eq`,
/// else `r >= 0`: divides the variable coefficients by their gcd `g`. An
/// equality needs a constant divisible by `g`; an inequality's constant
/// rounds down, since `g·e + c >= 0` holds exactly when `e + floor(c/g)
/// >= 0` over the integers.
#[inline]
pub(crate) fn reduce(r: &mut [i64], eq: bool) -> Reduced {
    let k = r.len() - 1;
    let g = r[..k].iter().fold(0, |acc, &c| gcd(acc, c));
    if g == 0 {
        let holds = if eq { r[k] == 0 } else { r[k] >= 0 };
        return if holds {
            Reduced::Trivial
        } else {
            Reduced::Infeasible
        };
    }
    if eq && r[k] % g != 0 {
        return Reduced::Infeasible;
    }
    if g > 1 {
        for c in &mut r[..k] {
            *c /= g;
        }
        r[k] = floor_div(r[k], g);
    }
    Reduced::Kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_push_insert_remove() {
        let mut r = Row::new();
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 10);
        r.insert(3, 99);
        assert_eq!(r[3], 99);
        assert_eq!(r[4], 3);
        assert_eq!(r.remove(3), 99);
        assert_eq!(r.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn spills_to_heap_and_back() {
        let mut r = Row::zeros(INLINE);
        r.push(7); // spill
        assert_eq!(r.len(), INLINE + 1);
        assert_eq!(r[INLINE], 7);
        r.insert(0, -1);
        assert_eq!(r.len(), INLINE + 2);
        r.remove(0);
        r.remove(INLINE); // back at INLINE len -> re-inlined
        assert_eq!(r.len(), INLINE);
        let s: Vec<i64> = (0..40).collect();
        let big = Row::from_slice(&s);
        assert_eq!(big.len(), 40);
        assert_eq!(big[39], 39);
    }

    #[test]
    fn eq_ord_hash_cross_repr() {
        use std::collections::hash_map::DefaultHasher;
        let small = Row::from_slice(&[1, 2, 3]);
        let mut spilled = Row::zeros(INLINE + 4);
        while spilled.len() > 3 {
            spilled.remove(spilled.len() - 1);
        }
        spilled[0] = 1;
        spilled[1] = 2;
        spilled[2] = 3;
        assert_eq!(small, spilled);
        let h = |r: &Row| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&small), h(&spilled));
        assert!(Row::from_slice(&[1, 2]) < Row::from_slice(&[1, 3]));
    }

    #[test]
    fn arithmetic_is_checked() {
        let (m, n) = (i64::MAX, i64::MIN);
        assert_eq!(
            combine(2, Row::from_slice(&[1, 3]), 1, &[2, 6])
                .unwrap()
                .as_slice(),
            &[0, 0]
        );
        assert_eq!(
            combine(1, Row::from_slice(&[0, 1]), 1 << 32, &[1, 1 << 32]),
            Err(Error::Overflow)
        );
        assert_eq!(
            combine(-1, Row::from_slice(&[n]), 0, &[0]),
            Err(Error::Overflow)
        );
        assert_eq!(
            combine(m, Row::from_slice(&[m]), m, &[m - 1])
                .unwrap()
                .as_slice(),
            &[m]
        );
        assert_eq!(value(&[m, m, 1], &[m, -m, 1]), Ok(1));
        assert_eq!(
            value(&[m, m, m, m, 0], &[m, m, m, m, 1]),
            Err(Error::Overflow)
        );
        assert_eq!(negated(&[1, -2, 5], -1).unwrap().as_slice(), &[-1, 2, -6]);
        assert_eq!(negated(&[n, 0], 0), Err(Error::Overflow));
        assert_eq!(negated(&[1, -m], 1), Err(Error::Overflow));
        assert_eq!(negated(&[1, n], -1).unwrap().as_slice(), &[-1, m]);
        let [lo, hi] = div_brackets(&[1, 0, 3], 4, 1).unwrap();
        assert_eq!(
            (lo.as_slice(), hi.as_slice()),
            (&[1, -4, 3][..], &[-1, 4, 0][..])
        );
        assert_eq!(cancel_constant(&[n, 2, m], &[n, -2, m]), None);
        assert_eq!(
            cancel_constant(&[m, -2, m], &[-m, 2, m]),
            Some(2 * i128::from(m))
        );
        let mut r = [4, -6, 7];
        assert_eq!(reduce(&mut r, false), Reduced::Kept);
        assert_eq!(r, [2, -3, 3]);
        assert_eq!(reduce(&mut [4, -6, 7], true), Reduced::Infeasible);
        assert_eq!(reduce(&mut [0, 0, -1], false), Reduced::Infeasible);
        assert_eq!(reduce(&mut [0, 0, 0], true), Reduced::Trivial);
    }

    #[test]
    fn slicing_and_iteration() {
        let r = Row::from_slice(&[5, 6, 7, 8]);
        assert_eq!(&r[1..3], &[6, 7]);
        assert_eq!(r.iter().sum::<i64>(), 26);
        let doubled: Row = r.iter().map(|&c| c * 2).collect();
        assert_eq!(doubled.as_slice(), &[10, 12, 14, 16]);
    }
}
