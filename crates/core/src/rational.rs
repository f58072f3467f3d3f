//! Exact rational arithmetic for the bandwidth model.
//!
//! Algorithm 1 repeatedly divides link bandwidth by congestion counts and
//! subtracts the result; with floating point, the `argmin L(e)/C(e)` step
//! can mis-tie-break and the paper's exact claims ("aggregate bandwidth is
//! exactly `q·B/2`") become approximate. A small normalized `i128` rational
//! keeps the whole model exact.
//!
//! Exact means never wrapped: every `i128` operation behind the arithmetic
//! operators and [`Rational::new_i128`] is checked, and an overflow panics
//! with the message `rational overflow` in every build profile, release
//! included.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A normalized rational number (`den > 0`, `gcd(|num|, den) = 1`).
///
/// Stored as `i128` internally: Algorithm 1 itself produces tame
/// denominators, but summing many heterogeneous bandwidths (e.g. the
/// optimal-split arithmetic over dozens of trees) can push intermediate
/// denominators past `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// The one panic of an overflowing operation.
#[cold]
#[inline(never)]
fn overflow() -> ! {
    panic!("rational overflow")
}

/// The value of a checked `i128` operation, or the overflow panic.
#[inline]
fn checked<T>(x: Option<T>) -> T {
    x.unwrap_or_else(|| overflow())
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (checked(a.checked_abs()), checked(b.checked_abs()));
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Rational {
    /// Creates `num / den`, normalizing sign and reducing. Panics on a zero
    /// denominator.
    pub fn new(num: i64, den: i64) -> Self {
        Self::new_i128(num as i128, den as i128)
    }

    /// Creates `num / den` from `i128` parts. Panics on a zero denominator,
    /// and with `rational overflow` when a part is `i128::MIN`.
    pub fn new_i128(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rational {
            num: checked(num.checked_mul(sign).and_then(|n| n.checked_div(g))),
            den: checked(den.checked_mul(sign).and_then(|d| d.checked_div(g))),
        }
    }

    /// Reduces the unreduced parts `(num, den)` of a checked operation.
    fn reduce(parts: Option<(i128, i128)>) -> Self {
        let (num, den) = checked(parts);
        Rational::new_i128(num, den)
    }

    /// The integer `n`.
    pub const fn from_int(n: i64) -> Self {
        Rational { num: n as i128, den: 1 }
    }

    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Numerator (after normalization).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (positive after normalization).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Exact equality with an integer.
    pub fn is_int(&self, n: i64) -> bool {
        self.den == 1 && self.num == n as i128
    }

    /// Conversion to `f64` (for reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Reciprocal. Panics on zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new_i128(self.den, self.num)
    }

    /// `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// `x ± y` as unreduced parts: the cross products joined by `op`
/// (`i128::checked_add` or `i128::checked_sub`) over the product of the
/// denominators; `None` on overflow.
fn cross_parts(
    x: Rational,
    y: Rational,
    op: fn(i128, i128) -> Option<i128>,
) -> Option<(i128, i128)> {
    Some((op(x.num.checked_mul(y.den)?, y.num.checked_mul(x.den)?)?, x.den.checked_mul(y.den)?))
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::reduce(cross_parts(self, rhs, i128::checked_add))
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::reduce(cross_parts(self, rhs, i128::checked_sub))
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::reduce(self.num.checked_mul(rhs.num).zip(self.den.checked_mul(rhs.den)))
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        Rational::reduce(self.num.checked_mul(rhs.den).zip(self.den.checked_mul(rhs.num)))
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiplication can overflow even i128 once denominators
        // grow (e.g. sums over many heterogeneous bandwidths), so compare
        // by the continued-fraction expansion instead: equal integer
        // parts, then the comparison of the reciprocal remainders flips.
        let (mut a, mut b, mut c, mut d) = (self.num, self.den, other.num, other.den);
        let mut flipped = false;
        loop {
            let (qa, qc) = (a.div_euclid(b), c.div_euclid(d));
            if qa != qc {
                let ord = qa.cmp(&qc);
                return if flipped { ord.reverse() } else { ord };
            }
            let (ra, rc) = (a - qa * b, c - qc * d);
            match (ra == 0, rc == 0) {
                (true, true) => return Ordering::Equal,
                // No remainder on one side: it is the smaller fraction
                // (before flipping).
                (true, false) => {
                    return if flipped { Ordering::Greater } else { Ordering::Less }
                }
                (false, true) => {
                    return if flipped { Ordering::Less } else { Ordering::Greater }
                }
                (false, false) => {
                    // a/b vs c/d with equal floors: compare b/ra vs d/rc,
                    // reversed.
                    (a, b, c, d) = (b, ra, d, rc);
                    flipped = !flipped;
                }
            }
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert_eq!(Rational::new(7, 1).numer(), 7);
        assert_eq!(Rational::new(7, 1).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(half.recip(), Rational::from_int(2));
    }

    #[test]
    fn ordering() {
        let mut v = vec![
            Rational::new(3, 4),
            Rational::new(1, 2),
            Rational::new(2, 3),
            Rational::from_int(-1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Rational::from_int(-1),
                Rational::new(1, 2),
                Rational::new(2, 3),
                Rational::new(3, 4)
            ]
        );
    }

    #[test]
    fn many_term_sums_do_not_overflow() {
        // Regression: summing 64 bandwidths i/(i+1) overflowed the old
        // i64 representation (LCM of denominators ~1e27).
        let total = (1..=64)
            .map(|i| Rational::new(i, i + 1))
            .fold(Rational::ZERO, |a, b| a + b);
        assert!(total.is_positive());
        assert!(total > Rational::from_int(59) && total < Rational::from_int(64));
        // And the optimal split over them still partitions exactly.
        let bw: Vec<Rational> = (1..=64).map(|i| Rational::new(i, i + 1)).collect();
        let sizes = crate::perf::optimal_split(1 << 20, &bw);
        assert_eq!(sizes.iter().sum::<u64>(), 1 << 20);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(1, 2).to_string(), "1/2");
        assert_eq!(Rational::from_int(5).to_string(), "5");
        assert_eq!(Rational::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn assign_ops_and_predicates() {
        let mut x = Rational::ONE;
        x += Rational::new(1, 2);
        assert_eq!(x, Rational::new(3, 2));
        x -= Rational::from_int(2);
        assert_eq!(x, Rational::new(-1, 2));
        assert!(!x.is_positive());
        assert!(Rational::new(1, 7).is_positive());
        assert!(Rational::from_int(4).is_int(4));
        assert!(!Rational::new(9, 2).is_int(4));
        assert_eq!(x.to_f64(), -0.5);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn sum_past_i128_max_panics() {
        let _ = Rational::new_i128(i128::MAX, 1) + Rational::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn difference_reaching_i128_min_panics() {
        let _ = Rational::new_i128(i128::MIN + 1, 1) - Rational::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn product_of_coprime_denominators_near_2_pow_64_panics() {
        // Consecutive odd numbers are coprime: the product's denominator
        // is about 2^128 and cannot reduce.
        let _ = Rational::new_i128(1, (1 << 64) + 1) * Rational::new_i128(1, (1 << 64) + 3);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn quotient_past_i128_max_panics() {
        let _ = Rational::new_i128(i128::MAX, 1) / Rational::new(1, 2);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn i128_min_part_panics() {
        let _ = Rational::new_i128(i128::MIN, 1);
    }

    /// `Some(f())`, or `None` when `f` panicked with the deliberate
    /// overflow message; any other panic fails the test.
    fn exact_or_overflow<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Option<T> {
        let payload = match std::panic::catch_unwind(f) {
            Ok(v) => return Some(v),
            Err(payload) => payload,
        };
        let msg = payload.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some("rational overflow"), "unexpected panic");
        None
    }

    /// `x / n` for a numerator of up to 64 bits.
    fn over(x: u64, n: i128) -> Rational {
        Rational::new_i128(i128::from(x >> 1) - i128::from(x & 1) * (1 << 62), n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rational_ops_on_large_coprime_denominators_are_exact_or_panic(
            bits in 16u32..64,
            offset in any::<u64>(),
            x in any::<u64>(),
            y in any::<u64>(),
        ) {
            // Denominators n and n + 1 (coprime) in [2^bits, 2^(bits+1)]:
            // every product of two of them either fits or overflows i128.
            let n = (1i128 << bits) + i128::from(offset) % (1i128 << bits);
            let (a, b) = (over(x, n), over(y, n + 1));
            if let Some(back) = exact_or_overflow(move || (a + b) - b) {
                prop_assert_eq!(back, a);
            }
            if let Some(back) = exact_or_overflow(move || (a - b) + b) {
                prop_assert_eq!(back, a);
            }
            if b != Rational::ZERO {
                if let Some(back) = exact_or_overflow(move || (a * b) / b) {
                    prop_assert_eq!(back, a);
                }
            }
        }

        #[test]
        fn many_term_rational_sums_are_exact_or_panic(
            terms in 64usize..257,
            den_bits in 1u32..48,
            seed in any::<u64>(),
        ) {
            // Running sums whose denominators grow toward the lcm of up to
            // 256 random ones, until the deliberate panic ends them.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut acc = Rational::ZERO;
            for _ in 0..terms {
                let den = rng.random_range(1..(1i64 << den_bits) + 1);
                let t = Rational::new(rng.random_range(-1000..1000), den);
                let Some(sum) = exact_or_overflow(move || acc + t) else { break };
                if let Some(back) = exact_or_overflow(move || sum - t) {
                    prop_assert_eq!(back, acc);
                }
                acc = sum;
            }
        }
    }
}
