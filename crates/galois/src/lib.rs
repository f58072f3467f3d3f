//! Finite-field arithmetic and number-theoretic utilities.
//!
//! This crate is the mathematical substrate of the PolarFly allreduce
//! reproduction. It provides:
//!
//! * primality / prime-power testing, integer factorization and Euler's
//!   totient ([`prime`]),
//! * modular arithmetic helpers over `u64` ([`zmod`]),
//! * table-driven finite fields `GF(p^a)` for small orders ([`gf::Gf`]),
//!   with the irreducible modulus of §6.1 found by trial division,
//! * degree-3 extension fields `GF(q^3)` over `GF(q)` with primitive
//!   polynomial search ([`ext3::CubicExt`]) — the machinery behind the
//!   Singer difference-set construction of the paper's §6.2.
//!
//! Field elements are represented as `u16` indices; an element's integer
//! value encodes its polynomial coefficients over the prime subfield in
//! base `p` (most-significant digit = highest-degree coefficient), matching
//! the convention of the `galois` Python package used by the paper.

pub mod ext3;
pub mod gf;
pub mod prime;
pub mod zmod;

pub use ext3::CubicExt;
pub use gf::Gf;
pub use prime::{euler_totient, factorize, is_prime, prime_power, prime_powers_in};
