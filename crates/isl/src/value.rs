//! Exact integer arithmetic helpers over the crate's `i64` coefficients:
//! the greatest common divisor, floor and ceiling division, and the floor
//! and symmetric moduli. Rust's `/` and `%` truncate toward zero; the
//! counting and projection code needs the rounded forms for either sign.

/// Greatest common divisor (always non-negative; `gcd(0, 0) == 0`).
///
/// ```
/// assert_eq!(tenet_isl::value::gcd(12, -18), 6);
/// assert_eq!(tenet_isl::value::gcd(0, 5), 5);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

/// Floor division: `floor_div(7, 2) == 3`, `floor_div(-7, 2) == -4`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division: `ceil_div(7, 2) == 4`, `ceil_div(-7, 2) == -3`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Mathematical (floor) modulus: the result has the sign of `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn mod_floor(a: i64, b: i64) -> i64 {
    a - b * floor_div(a, b)
}

/// Symmetric modulus used by the Omega-test equality reduction:
/// the representative of `a (mod m)` lying in `(-m/2, m/2]`.
///
/// # Panics
///
/// Panics if `m <= 0`.
pub fn mod_hat(a: i64, m: i64) -> i64 {
    assert!(m > 0, "mod_hat requires a positive modulus");
    let r = a.rem_euclid(m);
    if r > m - r {
        r - m
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(17, 5), 1);
    }

    #[test]
    fn floor_ceil_div() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(floor_div(-7, -2), 3);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
    }

    #[test]
    fn mod_floor_sign() {
        assert_eq!(mod_floor(-7, 3), 2);
        assert_eq!(mod_floor(7, 3), 1);
        assert_eq!(mod_floor(7, -3), -2);
    }

    #[test]
    fn mod_hat_symmetric_range() {
        for a in -20..20 {
            for m in 2..8 {
                let r = mod_hat(a, m);
                assert!(2 * r <= m && 2 * r > -m, "a={a} m={m} r={r}");
                assert_eq!(mod_floor(a - r, m), 0);
            }
        }
    }
}
