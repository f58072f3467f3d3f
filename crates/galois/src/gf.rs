//! Table-driven finite fields `GF(p^a)` of small order.
//!
//! PolarFly radixes are tiny (`q <= 128` in the paper's sweep), so the field
//! is materialized as full addition/multiplication tables plus log/antilog
//! tables over a generator. Elements are `u16` labels in `0..q`; the base-`p`
//! digits of a label are the polynomial coefficients of the element over the
//! prime subfield (digit `i` = coefficient of `x^i`), matching the integer
//! representation used by the `galois` Python package referenced in the paper.

use crate::prime::{prime_divisors, prime_power};

/// Errors from [`Gf::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfError {
    /// The requested order is not a prime power.
    NotPrimePower(u64),
    /// The requested order exceeds the table-driven size cap.
    TooLarge(u64),
}

impl std::fmt::Display for GfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GfError::NotPrimePower(q) => write!(f, "{q} is not a prime power"),
            GfError::TooLarge(q) => write!(f, "field order {q} exceeds table cap {MAX_ORDER}"),
        }
    }
}

impl std::error::Error for GfError {}

/// Largest supported field order (tables are `O(q^2)`).
pub const MAX_ORDER: u64 = 4096;

/// Checks that [`Gf::new`] builds `GF(q)`: `q` is a prime power `p^a`
/// no larger than [`MAX_ORDER`]. Returns `(p, a)`.
pub fn check_order(q: u64) -> Result<(u64, u32), GfError> {
    let (p, a) = prime_power(q).ok_or(GfError::NotPrimePower(q))?;
    if q > MAX_ORDER {
        return Err(GfError::TooLarge(q));
    }
    Ok((p, a))
}

/// A finite field `GF(p^a)` with fully materialized operation tables.
#[derive(Debug, Clone)]
pub struct Gf {
    q: u16,
    p: u16,
    a: u32,
    /// Monic irreducible modulus over `F_p`, little-endian, length `a + 1`.
    /// For prime fields this is the degree-1 polynomial `x` (i.e. `[0, 1]`).
    modulus: Vec<u16>,
    add: Vec<u16>,
    mul: Vec<u16>,
    neg: Vec<u16>,
    inv: Vec<u16>,
    /// `exp[k] = g^k` for `k in 0..q-1`, where `g` is the generator.
    exp: Vec<u16>,
    /// `log[x] = k` with `g^k = x` for `x != 0`; `log[0]` is unused.
    log: Vec<u16>,
    generator: u16,
}

impl Gf {
    /// Constructs `GF(q)` for a prime power `q`.
    ///
    /// ```
    /// use pf_galois::Gf;
    /// let gf = Gf::new(9).unwrap();            // GF(3^2)
    /// assert_eq!(gf.characteristic(), 3);
    /// let g = gf.generator();
    /// assert_eq!(gf.pow(g, 8), 1);             // g^(q-1) = 1
    /// assert!(Gf::new(6).is_err());            // 6 is not a prime power
    /// ```
    pub fn new(q: u64) -> Result<Self, GfError> {
        let (p, a) = check_order(q)?;
        let qu = q as usize;
        let p16 = p as u16;

        let modulus = if a == 1 {
            vec![0, 1]
        } else {
            smallest_irreducible(p16, a)
        };

        // Addition: digit-wise base-p addition (coefficient-wise in F_p).
        let mut add = vec![0u16; qu * qu];
        let mut neg = vec![0u16; qu];
        for x in 0..qu {
            for y in 0..qu {
                add[x * qu + y] = digit_add(x as u16, y as u16, p16, a);
            }
        }
        for x in 0..qu {
            // -x is the unique y with x + y = 0.
            let y = (0..qu as u16).find(|&y| add[x * qu + y as usize] == 0).unwrap();
            neg[x] = y;
        }

        // Multiplication: polynomial product of digit vectors, reduced mod f.
        let mut mul = vec![0u16; qu * qu];
        for x in 0..qu {
            for y in x..qu {
                let v = poly_mulmod(x as u16, y as u16, p16, a, &modulus);
                mul[x * qu + y] = v;
                mul[y * qu + x] = v;
            }
        }

        // Generator: smallest label of multiplicative order q - 1.
        let group = q - 1;
        let rs = prime_divisors(group);
        let pow = |tbl: &[u16], mut b: u16, mut e: u64| -> u16 {
            let mut acc = 1u16;
            while e > 0 {
                if e & 1 == 1 {
                    acc = tbl[acc as usize * qu + b as usize];
                }
                b = tbl[b as usize * qu + b as usize];
                e >>= 1;
            }
            acc
        };
        let generator = (1..q as u16)
            .find(|&g| group == 1 || rs.iter().all(|&r| pow(&mul, g, group / r) != 1))
            .expect("every finite field has a generator");

        let mut exp = vec![0u16; group.max(1) as usize];
        let mut log = vec![0u16; qu];
        let mut cur = 1u16;
        for (k, slot) in exp.iter_mut().enumerate() {
            *slot = cur;
            log[cur as usize] = k as u16;
            cur = mul[cur as usize * qu + generator as usize];
        }
        debug_assert_eq!(cur, 1, "generator order mismatch");

        let mut inv = vec![0u16; qu];
        for x in 1..qu {
            let k = log[x] as u64;
            inv[x] = exp[((group - k) % group) as usize];
        }

        Ok(Gf { q: q as u16, p: p16, a, modulus, add, mul, neg, inv, exp, log, generator })
    }

    /// Field order `q = p^a`.
    #[inline]
    pub fn order(&self) -> u16 {
        self.q
    }

    /// Field characteristic `p`.
    #[inline]
    pub fn characteristic(&self) -> u16 {
        self.p
    }

    /// Extension degree `a` over the prime subfield.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.a
    }

    /// The monic irreducible modulus over `F_p` (little-endian coefficients).
    pub fn modulus(&self) -> &[u16] {
        &self.modulus
    }

    /// A fixed multiplicative generator of the field.
    #[inline]
    pub fn generator(&self) -> u16 {
        self.generator
    }

    /// Iterator over all element labels `0..q`.
    pub fn elements(&self) -> impl Iterator<Item = u16> + '_ {
        0..self.q
    }

    #[inline]
    pub fn add(&self, x: u16, y: u16) -> u16 {
        self.add[x as usize * self.q as usize + y as usize]
    }

    #[inline]
    pub fn neg(&self, x: u16) -> u16 {
        self.neg[x as usize]
    }

    #[inline]
    pub fn sub(&self, x: u16, y: u16) -> u16 {
        self.add(x, self.neg(y))
    }

    #[inline]
    pub fn mul(&self, x: u16, y: u16) -> u16 {
        self.mul[x as usize * self.q as usize + y as usize]
    }

    /// Multiplicative inverse. Panics on zero.
    #[inline]
    pub fn inv(&self, x: u16) -> u16 {
        assert!(x != 0, "zero has no multiplicative inverse");
        self.inv[x as usize]
    }

    /// `x / y`. Panics if `y == 0`.
    #[inline]
    pub fn div(&self, x: u16, y: u16) -> u16 {
        self.mul(x, self.inv(y))
    }

    /// `x^e` (with `0^0 = 1`).
    pub fn pow(&self, x: u16, e: u64) -> u16 {
        if e == 0 {
            return 1;
        }
        if x == 0 {
            return 0;
        }
        let group = self.q as u64 - 1;
        let k = self.log[x as usize] as u64;
        self.exp[((k * (e % group)) % group) as usize]
    }

    /// Multiplicative order of `x` (panics on zero).
    pub fn element_order(&self, x: u16) -> u64 {
        assert!(x != 0, "zero has no multiplicative order");
        let group = self.q as u64 - 1;
        if group == 0 {
            return 1;
        }
        let k = self.log[x as usize] as u64;
        group / crate::zmod::gcd(k, group)
    }

    /// Dot product of two 3-vectors over the field — the adjacency predicate
    /// of the Erdős–Rényi polarity graph (paper §6.1).
    #[inline]
    pub fn dot3(&self, u: [u16; 3], v: [u16; 3]) -> u16 {
        let mut acc = 0u16;
        for i in 0..3 {
            acc = self.add(acc, self.mul(u[i], v[i]));
        }
        acc
    }

    /// Whether the label encodes a self-orthogonal vector is decided by the
    /// caller; this helper just squares-and-sums a 3-vector.
    #[inline]
    pub fn norm3(&self, u: [u16; 3]) -> u16 {
        self.dot3(u, u)
    }
}

/// Digit-wise base-`p` addition of labels (coefficient-wise `F_p` addition).
fn digit_add(x: u16, y: u16, p: u16, a: u32) -> u16 {
    let mut out = 0u16;
    let mut mult = 1u16;
    let (mut x, mut y) = (x, y);
    for _ in 0..a {
        let d = (x % p + y % p) % p;
        out += d * mult;
        mult = mult.saturating_mul(p);
        x /= p;
        y /= p;
    }
    out
}

/// Unpacks a label into its base-`p` digit vector of length `a`.
fn digits(x: u16, p: u16, a: u32) -> Vec<u16> {
    let mut v = Vec::with_capacity(a as usize);
    let mut x = x;
    for _ in 0..a {
        v.push(x % p);
        x /= p;
    }
    v
}

/// Packs digits back into a label.
fn pack(d: &[u16], p: u16) -> u16 {
    let mut out = 0u16;
    for &c in d.iter().rev() {
        out = out * p + c;
    }
    out
}

/// Product of two labels as polynomials over `F_p`, reduced mod the monic
/// `modulus` (little-endian, degree `a`).
fn poly_mulmod(x: u16, y: u16, p: u16, a: u32, modulus: &[u16]) -> u16 {
    let dx = digits(x, p, a);
    let dy = digits(y, p, a);
    let mut prod = vec![0u16; 2 * a as usize];
    for (i, &ci) in dx.iter().enumerate() {
        if ci == 0 {
            continue;
        }
        for (j, &cj) in dy.iter().enumerate() {
            prod[i + j] = (prod[i + j] + ci * cj) % p;
        }
    }
    // Reduce: modulus is monic of degree a.
    for k in (a as usize..prod.len()).rev() {
        let c = prod[k];
        if c == 0 {
            continue;
        }
        prod[k] = 0;
        for (j, &mj) in modulus.iter().enumerate().take(a as usize) {
            // subtract c * mj * x^(k - a + j)
            let idx = k - a as usize + j;
            let sub = (c * mj) % p;
            prod[idx] = (prod[idx] + p - sub) % p;
        }
    }
    pack(&prod[..a as usize], p)
}

/// Finds the monic irreducible polynomial of degree `a` over `F_p` with the
/// smallest label encoding (digits of the non-leading coefficients).
fn smallest_irreducible(p: u16, a: u32) -> Vec<u16> {
    let count = (p as u64).pow(a);
    for enc in 0..count {
        // Non-leading coefficients from the base-p digits of enc.
        let mut f: Vec<u16> = {
            let mut v = Vec::with_capacity(a as usize + 1);
            let mut e = enc;
            for _ in 0..a {
                v.push((e % p as u64) as u16);
                e /= p as u64;
            }
            v
        };
        f.push(1); // monic leading coefficient
        if is_irreducible_over_fp(&f, p) {
            return f;
        }
    }
    unreachable!("irreducible polynomials of every degree exist over F_p");
}

/// Irreducibility over `F_p` by trial division with all monic polynomials of
/// degree `1..=deg/2`. The degrees involved here are tiny (`a <= 12`), so
/// trial division is entirely adequate.
fn is_irreducible_over_fp(f: &[u16], p: u16) -> bool {
    let deg = f.len() - 1;
    if deg == 0 {
        return false;
    }
    if deg == 1 {
        return true;
    }
    for d in 1..=deg / 2 {
        let count = (p as u64).pow(d as u32);
        for enc in 0..count {
            let mut g: Vec<u16> = {
                let mut v = Vec::with_capacity(d + 1);
                let mut e = enc;
                for _ in 0..d {
                    v.push((e % p as u64) as u16);
                    e /= p as u64;
                }
                v
            };
            g.push(1);
            if poly_divides(&g, f, p) {
                return false;
            }
        }
    }
    true
}

/// Whether monic `g` divides `f` over `F_p`.
fn poly_divides(g: &[u16], f: &[u16], p: u16) -> bool {
    let mut r: Vec<u16> = f.to_vec();
    let dg = g.len() - 1;
    while r.len() > dg && r.len() >= g.len() {
        let lead = *r.last().unwrap();
        if lead != 0 {
            let shift = r.len() - g.len();
            for (j, &gj) in g.iter().enumerate() {
                let sub = (lead * gj) % p;
                r[shift + j] = (r[shift + j] + p - sub) % p;
            }
        }
        r.pop();
        while r.len() > 1 && *r.last().unwrap() == 0 {
            r.pop();
        }
        if r.iter().all(|&c| c == 0) {
            return true;
        }
        if r.len() <= dg {
            break;
        }
    }
    r.iter().all(|&c| c == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_axioms(gf: &Gf) {
        let q = gf.order();
        for x in 0..q {
            assert_eq!(gf.add(x, 0), x);
            assert_eq!(gf.mul(x, 1), x);
            assert_eq!(gf.mul(x, 0), 0);
            assert_eq!(gf.add(x, gf.neg(x)), 0);
            if x != 0 {
                assert_eq!(gf.mul(x, gf.inv(x)), 1);
            }
        }
        for x in 0..q {
            for y in 0..q {
                assert_eq!(gf.add(x, y), gf.add(y, x));
                assert_eq!(gf.mul(x, y), gf.mul(y, x));
                for z in 0..q.min(16) {
                    assert_eq!(gf.add(gf.add(x, y), z), gf.add(x, gf.add(y, z)));
                    assert_eq!(gf.mul(gf.mul(x, y), z), gf.mul(x, gf.mul(y, z)));
                    assert_eq!(gf.mul(x, gf.add(y, z)), gf.add(gf.mul(x, y), gf.mul(x, z)));
                }
            }
        }
    }

    #[test]
    fn axioms_prime_fields() {
        for q in [2u64, 3, 5, 7, 11, 13] {
            field_axioms(&Gf::new(q).unwrap());
        }
    }

    #[test]
    fn axioms_extension_fields() {
        for q in [4u64, 8, 9, 16, 25, 27, 32, 49] {
            field_axioms(&Gf::new(q).unwrap());
        }
    }

    #[test]
    fn rejects_non_prime_powers() {
        assert_eq!(Gf::new(6).unwrap_err(), GfError::NotPrimePower(6));
        assert_eq!(Gf::new(12).unwrap_err(), GfError::NotPrimePower(12));
        assert_eq!(Gf::new(0).unwrap_err(), GfError::NotPrimePower(0));
        assert_eq!(Gf::new(1).unwrap_err(), GfError::NotPrimePower(1));
    }

    #[test]
    fn generator_has_full_order() {
        for q in [3u64, 4, 5, 7, 8, 9, 11, 16, 27, 121, 125, 128] {
            let gf = Gf::new(q).unwrap();
            let g = gf.generator();
            assert_eq!(gf.element_order(g), q - 1, "q={q}");
            // The powers of g enumerate all nonzero elements.
            let mut seen = vec![false; q as usize];
            let mut cur = 1u16;
            for _ in 0..q - 1 {
                assert!(!seen[cur as usize]);
                seen[cur as usize] = true;
                cur = gf.mul(cur, g);
            }
            assert!(seen[1..].iter().all(|&s| s));
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for q in [5u64, 8, 9, 13] {
            let gf = Gf::new(q).unwrap();
            for x in 0..gf.order() {
                let mut acc = 1u16;
                for e in 0..2 * q {
                    assert_eq!(gf.pow(x, e), if x == 0 && e > 0 { 0 } else { acc }, "q={q} x={x} e={e}");
                    acc = gf.mul(acc, x);
                }
            }
        }
    }

    #[test]
    fn characteristic_and_frobenius() {
        for q in [4u64, 8, 9, 27, 25] {
            let gf = Gf::new(q).unwrap();
            let p = gf.characteristic();
            for x in 0..gf.order() {
                // p * x = 0 in characteristic p.
                let mut acc = 0u16;
                for _ in 0..p {
                    acc = gf.add(acc, x);
                }
                assert_eq!(acc, 0);
            }
            // Frobenius x -> x^p is additive.
            for x in 0..gf.order() {
                for y in 0..gf.order() {
                    let lhs = gf.pow(gf.add(x, y), p as u64);
                    let rhs = gf.add(gf.pow(x, p as u64), gf.pow(y, p as u64));
                    assert_eq!(lhs, rhs);
                }
            }
        }
    }

    #[test]
    fn prime_field_labels_are_residues() {
        let gf = Gf::new(7).unwrap();
        for x in 0..7u16 {
            for y in 0..7u16 {
                assert_eq!(gf.add(x, y), (x + y) % 7);
                assert_eq!(gf.mul(x, y), (x * y) % 7);
            }
        }
    }

    #[test]
    fn modulus_is_monic_irreducible() {
        for q in [4u64, 8, 9, 16, 27, 32, 64, 81, 121, 125, 128] {
            let gf = Gf::new(q).unwrap();
            let m = gf.modulus();
            assert_eq!(m.len() as u32, gf.degree() + 1);
            assert_eq!(*m.last().unwrap(), 1);
            assert!(is_irreducible_over_fp(m, gf.characteristic()));
        }
    }

    #[test]
    fn dot3_examples() {
        let gf = Gf::new(3).unwrap();
        // [1,1,1] . [1,1,1] = 3 = 0 mod 3 -> a quadric direction.
        assert_eq!(gf.norm3([1, 1, 1]), 0);
        assert_eq!(gf.dot3([1, 0, 0], [0, 1, 0]), 0);
        assert_eq!(gf.dot3([1, 2, 0], [1, 2, 0]), (1 + 4) as u16 % 3);
    }
}
