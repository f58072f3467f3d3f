//! Degree-3 extension fields `GF(q^3)` over `GF(q)` and the Singer
//! difference-set exponents (paper §6.2).
//!
//! The paper's construction (after Stinson):
//!
//! 1. construct `GF(q^3)` using a degree-3 primitive polynomial `f(x)` over
//!    `F_q` with root `ζ`,
//! 2. list the `q^3 - 1` powers of `ζ`,
//! 3. reduce each power to the form `i·ζ^2 + j·ζ + k`,
//! 4. the difference set is `{0} ∪ {ℓ mod N : ζ^ℓ = ζ + k, k ∈ F_q}` where
//!    `N = q^2 + q + 1` (the exponent `0` accounts for the projective point
//!    spanned by `1`, whose scalar multiples are exactly the powers
//!    `ζ^(jN)`).
//!
//! We pick the lexicographically smallest monic primitive cubic (ordered by
//! the coefficient tuple `(c2, c1, c0)` of `x^3 + c2·x^2 + c1·x + c0`, using
//! the integer element labels of `GF(q)`), which reproduces the paper's
//! example sets `D = {0,1,3,9}` for `q = 3` and `D = {0,1,4,14,16}` for
//! `q = 4`.

use crate::gf::Gf;
use crate::prime::prime_divisors;

/// An element of `GF(q^3)`: coefficients `[c0, c1, c2]` of
/// `c0 + c1·ζ + c2·ζ^2` (labels in the base field).
pub type Elt3 = [u16; 3];

/// The zero element.
pub const ZERO: Elt3 = [0, 0, 0];
/// The one element.
pub const ONE: Elt3 = [1, 0, 0];
/// The root `ζ` of the modulus.
pub const ZETA: Elt3 = [0, 1, 0];

/// `GF(q^3)` as a cubic extension of a table-driven `GF(q)`.
#[derive(Debug, Clone)]
pub struct CubicExt {
    base: Gf,
    /// Non-leading coefficients `[m0, m1, m2]` of the monic modulus
    /// `x^3 + m2·x^2 + m1·x + m0`.
    modulus: [u16; 3],
}

impl CubicExt {
    /// Builds `GF(q^3)` over `base` using the lexicographically smallest
    /// monic **primitive** cubic polynomial.
    pub fn new(base: Gf) -> Self {
        let q = base.order() as u64;
        let group = q * q * q - 1;
        let rs = prime_divisors(group);
        for c2 in 0..base.order() {
            for c1 in 0..base.order() {
                'c0: for c0 in 0..base.order() {
                    // Degree 3: irreducible over GF(q) iff it has no root.
                    for x in base.elements() {
                        // x^3 + c2 x^2 + c1 x + c0
                        let x2 = base.mul(x, x);
                        let x3 = base.mul(x2, x);
                        let v = base.add(
                            base.add(x3, base.mul(c2, x2)),
                            base.add(base.mul(c1, x), c0),
                        );
                        if v == 0 {
                            continue 'c0;
                        }
                    }
                    let cand = CubicExt { base: base.clone(), modulus: [c0, c1, c2] };
                    // Primitivity: ζ must generate the full multiplicative group.
                    let primitive = rs
                        .iter()
                        .all(|&r| cand.pow(ZETA, group / r) != ONE);
                    if primitive {
                        return cand;
                    }
                }
            }
        }
        unreachable!("primitive cubic polynomials exist over every finite field");
    }

    /// The base field `GF(q)`.
    pub fn base(&self) -> &Gf {
        &self.base
    }

    /// Base field order `q`.
    pub fn q(&self) -> u64 {
        self.base.order() as u64
    }

    /// Extension order `q^3`.
    pub fn order(&self) -> u64 {
        self.q().pow(3)
    }

    /// Non-leading modulus coefficients `[m0, m1, m2]`.
    pub fn modulus(&self) -> [u16; 3] {
        self.modulus
    }

    /// Element addition.
    #[inline]
    pub fn add(&self, a: Elt3, b: Elt3) -> Elt3 {
        [
            self.base.add(a[0], b[0]),
            self.base.add(a[1], b[1]),
            self.base.add(a[2], b[2]),
        ]
    }

    /// Element negation.
    #[inline]
    pub fn neg(&self, a: Elt3) -> Elt3 {
        [self.base.neg(a[0]), self.base.neg(a[1]), self.base.neg(a[2])]
    }

    /// Element subtraction.
    #[inline]
    pub fn sub(&self, a: Elt3, b: Elt3) -> Elt3 {
        self.add(a, self.neg(b))
    }

    /// Multiplication by the root `ζ` (a shift followed by one reduction).
    #[inline]
    pub fn mul_zeta(&self, a: Elt3) -> Elt3 {
        let gf = &self.base;
        let [m0, m1, m2] = self.modulus;
        let carry = a[2];
        [
            gf.sub(0, gf.mul(carry, m0)),
            gf.sub(a[0], gf.mul(carry, m1)),
            gf.sub(a[1], gf.mul(carry, m2)),
        ]
    }

    /// General element multiplication (schoolbook, then reduce twice).
    pub fn mul(&self, a: Elt3, b: Elt3) -> Elt3 {
        let gf = &self.base;
        // Degree-4 product coefficients.
        let mut prod = [0u16; 5];
        for i in 0..3 {
            if a[i] == 0 {
                continue;
            }
            for j in 0..3 {
                prod[i + j] = gf.add(prod[i + j], gf.mul(a[i], b[j]));
            }
        }
        let [m0, m1, m2] = self.modulus;
        // Reduce x^4 then x^3: x^3 = -(m2 x^2 + m1 x + m0).
        for k in [4usize, 3] {
            let c = prod[k];
            if c == 0 {
                continue;
            }
            prod[k] = 0;
            prod[k - 3] = gf.sub(prod[k - 3], gf.mul(c, m0));
            prod[k - 2] = gf.sub(prod[k - 2], gf.mul(c, m1));
            prod[k - 1] = gf.sub(prod[k - 1], gf.mul(c, m2));
        }
        [prod[0], prod[1], prod[2]]
    }

    /// `a^e` by square-and-multiply.
    pub fn pow(&self, a: Elt3, mut e: u64) -> Elt3 {
        let mut acc = ONE;
        let mut base = a;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative order of a nonzero element.
    pub fn element_order(&self, a: Elt3) -> u64 {
        assert!(a != ZERO, "zero has no multiplicative order");
        let group = self.order() - 1;
        let mut ord = group;
        for r in prime_divisors(group) {
            while ord.is_multiple_of(r) && self.pow(a, ord / r) == ONE {
                ord /= r;
            }
        }
        ord
    }

    /// The Frobenius endomorphism `x ↦ x^q` (a field automorphism fixing
    /// exactly the base field).
    pub fn frobenius(&self, a: Elt3) -> Elt3 {
        self.pow(a, self.q())
    }

    /// Whether an element lies in the base field `F_q` (coefficients of
    /// `ζ` and `ζ^2` vanish).
    #[inline]
    pub fn in_base_field(&self, a: Elt3) -> bool {
        a[1] == 0 && a[2] == 0
    }

    /// The field trace `Tr(x) = x + x^q + x^{q^2}`, returned as a base
    /// field label (the trace always lands in `F_q`).
    pub fn trace(&self, a: Elt3) -> u16 {
        let f1 = self.frobenius(a);
        let f2 = self.frobenius(f1);
        let t = self.add(a, self.add(f1, f2));
        debug_assert!(self.in_base_field(t), "trace must lie in the base field");
        t[0]
    }

    /// The field norm `N(x) = x^{1 + q + q^2} = x^N` — the same
    /// `N = q^2 + q + 1` that indexes the Singer graph: the norm is why
    /// the base-field elements are exactly the powers `ζ^(jN)` and why the
    /// Singer exponents reduce modulo `N`.
    pub fn norm(&self, a: Elt3) -> u16 {
        let n = self.q() * self.q() + self.q() + 1;
        let v = self.pow(a, n);
        debug_assert!(self.in_base_field(v), "norm must lie in the base field");
        v[0]
    }

    /// The Singer difference-set exponents modulo `N = q^2 + q + 1`, sorted.
    ///
    /// ```
    /// use pf_galois::{CubicExt, Gf};
    /// let ext = CubicExt::new(Gf::new(3).unwrap());
    /// assert_eq!(ext.singer_exponents(), vec![0, 1, 3, 9]); // paper Fig. 2a
    /// ```
    ///
    /// `D = {0} ∪ {ℓ mod N : ζ^ℓ = ζ + k for some k ∈ F_q}`, which is
    /// `{ℓ ∈ [0, N) : ζ^ℓ has no ζ² coordinate}`: `ζ^N` generates
    /// `F_q^*`, so `ζ^ℓ` and `ζ^(ℓ + jN)` differ by a scalar, and scaling
    /// keeps a zero `ζ²` coordinate zero. One walk over `N` powers finds
    /// it. The set has `q + 1` elements and every nonzero residue of `Z_N`
    /// occurs exactly once as a difference (verified by `pf-topo`'s Singer
    /// module and by tests here).
    pub fn singer_exponents(&self) -> Vec<u64> {
        let q = self.q();
        let n = q * q + q + 1;
        let mut d = Vec::with_capacity(q as usize + 1);
        let mut power = ONE;
        for ell in 0..n {
            if power[2] == 0 {
                d.push(ell);
            }
            power = self.mul_zeta(power);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(q: u64) -> CubicExt {
        CubicExt::new(Gf::new(q).unwrap())
    }

    #[test]
    fn zeta_is_primitive() {
        for q in [2u64, 3, 4, 5, 7, 8, 9] {
            let e = ext(q);
            assert_eq!(e.element_order(ZETA), e.order() - 1, "q={q}");
        }
    }

    #[test]
    fn paper_modulus_q3() {
        // The smallest primitive cubic over F_3 is x^3 + 2x + 1.
        let e = ext(3);
        assert_eq!(e.modulus(), [1, 2, 0]);
    }

    #[test]
    fn singer_set_q3_matches_paper() {
        // Figure 2a: D = {0, 1, 3, 9} over Z_13.
        assert_eq!(ext(3).singer_exponents(), vec![0, 1, 3, 9]);
    }

    #[test]
    fn singer_set_q4_matches_paper() {
        // Figure 2b: D = {0, 1, 4, 14, 16} over Z_21.
        assert_eq!(ext(4).singer_exponents(), vec![0, 1, 4, 14, 16]);
    }

    /// The definition walked over all `q³ − 1` powers of `ζ`: `0` and
    /// every `ℓ mod N` with `ζ^ℓ = ζ + k`.
    fn singer_exponents_by_group_walk(e: &CubicExt) -> Vec<u64> {
        let q = e.q();
        let n = q * q + q + 1;
        let mut d = vec![0u64];
        let mut power = ONE;
        for ell in 0..e.order() - 1 {
            if power[1] == 1 && power[2] == 0 {
                d.push(ell % n);
            }
            power = e.mul_zeta(power);
        }
        d.sort_unstable();
        d.dedup();
        d
    }

    #[test]
    fn singer_set_matches_the_group_walk() {
        for q in crate::prime_powers_in(2, 32) {
            let e = ext(q);
            assert_eq!(e.singer_exponents(), singer_exponents_by_group_walk(&e), "q={q}");
        }
    }

    #[test]
    fn singer_sets_are_perfect_difference_sets() {
        for q in [2u64, 3, 4, 5, 7, 8, 9, 11, 13, 16] {
            let e = ext(q);
            let d = e.singer_exponents();
            let n = q * q + q + 1;
            assert_eq!(d.len() as u64, q + 1, "q={q}: |D| = q + 1");
            let mut seen = vec![false; n as usize];
            for &di in &d {
                for &dj in &d {
                    if di == dj {
                        continue;
                    }
                    let diff = ((di + n - dj) % n) as usize;
                    assert!(!seen[diff], "q={q}: difference {diff} repeated");
                    seen[diff] = true;
                }
            }
            assert!(seen[1..].iter().all(|&s| s), "q={q}: every residue 1..N-1 is a difference");
        }
    }

    #[test]
    fn field_axioms_spot_check() {
        let e = ext(4);
        let els: Vec<Elt3> = (0..4)
            .flat_map(|a| (0..4).flat_map(move |b| (0..4).map(move |c| [a, b, c])))
            .collect();
        for &a in &els {
            assert_eq!(e.add(a, ZERO), a);
            assert_eq!(e.mul(a, ONE), a);
            assert_eq!(e.mul(a, ZERO), ZERO);
            assert_eq!(e.add(a, e.neg(a)), ZERO);
            assert_eq!(e.mul_zeta(a), e.mul(a, ZETA));
        }
        for &a in &els {
            for &b in &els {
                assert_eq!(e.mul(a, b), e.mul(b, a));
                assert_eq!(e.add(a, b), e.add(b, a));
            }
        }
        // Associativity + distributivity on a sample.
        for (i, &a) in els.iter().enumerate().step_by(7) {
            for (j, &b) in els.iter().enumerate().step_by(5) {
                for &c in els.iter().skip((i + j) % 3).step_by(11) {
                    assert_eq!(e.mul(e.mul(a, b), c), e.mul(a, e.mul(b, c)));
                    assert_eq!(e.mul(a, e.add(b, c)), e.add(e.mul(a, b), e.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let e = ext(3);
        let x: Elt3 = [2, 1, 0];
        let mut acc = ONE;
        for k in 0..30u64 {
            assert_eq!(e.pow(x, k), acc);
            acc = e.mul(acc, x);
        }
    }

    #[test]
    fn frobenius_is_an_automorphism_fixing_the_base() {
        for q in [3u64, 4, 5] {
            let e = ext(q);
            let els: Vec<Elt3> = (0..q as u16)
                .flat_map(|a| (0..q as u16).map(move |b| [a, b, 1]))
                .collect();
            for &x in &els {
                for &y in &els {
                    assert_eq!(
                        e.frobenius(e.mul(x, y)),
                        e.mul(e.frobenius(x), e.frobenius(y))
                    );
                    assert_eq!(
                        e.frobenius(e.add(x, y)),
                        e.add(e.frobenius(x), e.frobenius(y))
                    );
                }
            }
            // Fixed points of Frobenius = base field.
            for c in 0..q as u16 {
                assert_eq!(e.frobenius([c, 0, 0]), [c, 0, 0]);
            }
            // Triple application is the identity on GF(q^3).
            let x: Elt3 = [1, 2 % q as u16, 1];
            assert_eq!(e.frobenius(e.frobenius(e.frobenius(x))), x);
        }
    }

    #[test]
    fn trace_is_linear_and_onto() {
        for q in [3u64, 4, 5] {
            let e = ext(q);
            let gf = e.base().clone();
            let mut seen = vec![false; q as usize];
            for a in 0..q as u16 {
                for b in 0..q as u16 {
                    for c in 0..q as u16 {
                        let x: Elt3 = [a, b, c];
                        seen[e.trace(x) as usize] = true;
                        // Linearity over F_q on a sample: Tr(cx) = c Tr(x).
                        let scaled = [gf.mul(2 % q as u16, a), gf.mul(2 % q as u16, b), gf.mul(2 % q as u16, c)];
                        assert_eq!(e.trace(scaled), gf.mul(2 % q as u16, e.trace(x)));
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "q={q}: trace must be surjective");
        }
    }

    #[test]
    fn norm_is_multiplicative_and_n_is_the_singer_modulus() {
        for q in [3u64, 4, 5] {
            let e = ext(q);
            let gf = e.base().clone();
            let x: Elt3 = [1, 1, 0];
            let y: Elt3 = [0, 2 % q as u16, 1];
            assert_eq!(e.norm(e.mul(x, y)), gf.mul(e.norm(x), e.norm(y)));
            assert_eq!(e.norm(ONE), 1);
            assert_eq!(e.norm(ZERO), 0);
            // norm(ζ^j) = (generator of F_q*)-power walk: ζ^N lies in F_q*
            // and generates it, which is exactly why Singer exponents
            // reduce mod N.
            let n = q * q + q + 1;
            let znorm = e.pow(ZETA, n);
            assert!(e.in_base_field(znorm));
            assert_eq!(gf.element_order(znorm[0]), q - 1, "ζ^N generates F_q*");
        }
    }

    #[test]
    fn subfield_exponents_are_multiples_of_n() {
        // F_q* inside GF(q^3)* is exactly the subgroup of index N, i.e. the
        // powers ζ^(jN) — this is what makes the mod-N reduction of the
        // Singer exponents well defined.
        for q in [3u64, 4, 5] {
            let e = ext(q);
            let n = q * q + q + 1;
            let mut power = ONE;
            for ell in 0..e.order() - 1 {
                let in_base = power[1] == 0 && power[2] == 0;
                assert_eq!(in_base, ell % n == 0, "q={q} ell={ell}");
                power = e.mul_zeta(power);
            }
        }
    }
}
