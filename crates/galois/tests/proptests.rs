//! Property-based tests for the finite-field substrate.

use pf_galois::{euler_totient, factorize, is_prime, prime_power, Gf};
use proptest::prelude::*;

/// The field orders the library targets (all prime powers ≤ 32 plus a few
/// larger ones, covering every characteristic the paper's sweep uses).
fn field_order() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![2u64, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_group_laws(q in field_order(), a in 0u64..49, b in 0u64..49, c in 0u64..49) {
        let gf = Gf::new(q).unwrap();
        let (a, b, c) = ((a % q) as u16, (b % q) as u16, (c % q) as u16);
        prop_assert_eq!(gf.add(a, b), gf.add(b, a));
        prop_assert_eq!(gf.mul(a, b), gf.mul(b, a));
        prop_assert_eq!(gf.add(gf.add(a, b), c), gf.add(a, gf.add(b, c)));
        prop_assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        prop_assert_eq!(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
        prop_assert_eq!(gf.sub(a, b), gf.add(a, gf.neg(b)));
        if b != 0 {
            prop_assert_eq!(gf.mul(gf.div(a, b), b), a);
        }
    }

    #[test]
    fn pow_is_homomorphic(q in field_order(), x in 1u64..49, e1 in 0u64..200, e2 in 0u64..200) {
        let gf = Gf::new(q).unwrap();
        let x = (x % (q - 1).max(1) + 1) as u16 % q as u16;
        prop_assume!(x != 0);
        prop_assert_eq!(
            gf.mul(gf.pow(x, e1), gf.pow(x, e2)),
            gf.pow(x, e1 + e2)
        );
        // Fermat / Lagrange: x^(q-1) = 1.
        prop_assert_eq!(gf.pow(x, q - 1), 1);
    }

    #[test]
    fn element_orders_divide_group_order(q in field_order(), x in 1u64..49) {
        let gf = Gf::new(q).unwrap();
        let x = (x % (q - 1).max(1) + 1) as u16 % q as u16;
        prop_assume!(x != 0);
        let ord = gf.element_order(x);
        prop_assert_eq!((q - 1) % ord, 0);
        prop_assert_eq!(gf.pow(x, ord), 1);
        for d in 1..ord.min(40) {
            prop_assert_ne!(gf.pow(x, d), 1);
        }
    }

    #[test]
    fn factorization_reconstructs(n in 2u64..500_000) {
        let f = factorize(n);
        let back: u64 = f.iter().map(|&(p, m)| p.pow(m)).product();
        prop_assert_eq!(back, n);
        for &(p, _) in &f {
            prop_assert!(is_prime(p));
        }
    }

    #[test]
    fn totient_multiplicative(a in 1u64..300, b in 1u64..300) {
        if pf_galois::zmod::gcd(a, b) == 1 {
            prop_assert_eq!(euler_totient(a * b), euler_totient(a) * euler_totient(b));
        }
    }

    #[test]
    fn prime_power_agrees_with_factorize(n in 2u64..100_000) {
        match prime_power(n) {
            Some((p, a)) => prop_assert_eq!(p.pow(a), n),
            None => prop_assert!(factorize(n).len() > 1),
        }
    }

    #[test]
    fn mod_inverse_works(a in 1u64..10_000, m in 2u64..10_000) {
        match pf_galois::zmod::mod_inverse(a, m) {
            Some(inv) => prop_assert_eq!(pf_galois::zmod::mul_mod(a, inv, m), 1),
            None => prop_assert_ne!(pf_galois::zmod::gcd(a % m, m), 1),
        }
    }
}
