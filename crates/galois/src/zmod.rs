//! Modular arithmetic helpers over `u64`.
//!
//! The ring `Z_N` with `N = q^2 + q + 1` is the vertex namespace of the
//! Singer graph (paper §6.2); these helpers implement the handful of ring
//! operations the constructions need (inverse of 2 and 4, path-step
//! recurrences, gcd tests for Hamiltonicity).

/// Greatest common divisor. `gcd(0, n) = n`.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Extended gcd: returns `(g, x, y)` with `a*x + b*y = g` (over `i128`).
pub fn egcd(a: u64, b: u64) -> (u64, i128, i128) {
    if b == 0 {
        return (a, 1, 0);
    }
    let (g, x, y) = egcd(b, a % b);
    (g, y, x - (a / b) as i128 * y)
}

/// Modular inverse of `a` modulo `m`, if it exists.
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    let (g, x, _) = egcd(a % m, m);
    if g != 1 {
        return None;
    }
    Some((x.rem_euclid(m as i128)) as u64)
}

/// `base^exp mod m` by square-and-multiply. `m` must be nonzero.
pub fn mod_pow(base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    if m == 1 {
        return 0;
    }
    let mut acc: u128 = 1;
    let mm = m as u128;
    let mut b = (base % m) as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % mm;
        }
        b = b * b % mm;
        exp >>= 1;
    }
    acc as u64
}

/// `a - b mod m`, computed without underflow.
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    let (a, b) = (a % m, b % m);
    if a >= b {
        a - b
    } else {
        a + m - b
    }
}

/// `a * b mod m`.
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    (a as u128 * b as u128 % m as u128) as u64
}

/// The inverse of 2 in `Z_N` for odd `N`: `(N + 1) / 2` (paper Lemma 6.7).
///
/// `N = q^2 + q + 1` is always odd, so this inverse always exists for
/// Singer-graph orders.
pub fn half_mod(n: u64) -> u64 {
    assert!(n % 2 == 1, "2 is only invertible modulo an odd N (got N = {n})");
    n.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(21, 14), 7);
    }

    #[test]
    fn egcd_identity() {
        for a in 0..50u64 {
            for b in 0..50u64 {
                let (g, x, y) = egcd(a, b);
                assert_eq!(a as i128 * x + b as i128 * y, g as i128, "a={a} b={b}");
                assert_eq!(g, gcd(a, b));
            }
        }
    }

    #[test]
    fn inverses() {
        for m in [2u64, 13, 21, 57, 133, 16513] {
            for a in 1..m.min(200) {
                match mod_inverse(a, m) {
                    Some(inv) => {
                        assert_eq!(mul_mod(a, inv, m), 1 % m, "a={a} m={m}");
                    }
                    None => assert_ne!(gcd(a, m), 1),
                }
            }
        }
    }

    #[test]
    fn pow_matches_naive() {
        for m in [2u64, 3, 13, 21, 97] {
            for b in 0..m {
                let mut acc = 1 % m;
                for e in 0..12u64 {
                    assert_eq!(mod_pow(b, e, m), acc, "b={b} e={e} m={m}");
                    acc = mul_mod(acc, b, m);
                }
            }
        }
    }

    #[test]
    fn half_mod_is_inverse_of_two() {
        // N = q^2 + q + 1 for the paper's radix sweep.
        for q in [3u64, 4, 5, 7, 8, 9, 11, 13, 16, 127, 128] {
            let n = q * q + q + 1;
            let h = half_mod(n);
            assert_eq!(mul_mod(2, h, n), 1);
            assert_eq!(h, mod_inverse(2, n).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "only invertible")]
    fn half_mod_even_panics() {
        half_mod(10);
    }

    #[test]
    fn sub_mod_no_underflow() {
        assert_eq!(sub_mod(3, 8, 13), 8);
        assert_eq!(sub_mod(8, 3, 13), 5);
        assert_eq!(sub_mod(0, 1, 13), 12);
        assert_eq!(sub_mod(5, 5, 13), 0);
    }
}
