//! The value pass's per-(node, element) loops, compiled twice.
//!
//! The blockwise value pass (`TreeOrder::fill_block`, the batch replay's
//! `bulk_tree` and the closed form's digests) and
//! [`Workload::concat`](crate::Workload::concat) spend nearly all their
//! time in three loops: per (node, element) one input [`mix`] and one
//! combine, and per (sink, element) one digest [`hash_entry`]. `mix` and
//! `hash_entry` are chains of two and three 64-bit multiplies, with shifts
//! and xors, and no dependence between elements, so they vectorize, but
//! only on a target with a 64-bit vector multiply. The x86-64 baseline has
//! none; AVX-512DQ has one (`vpmullq`), and AVX-512F the 64-bit lanes
//! around it. The combine is one add, and gains from the wider lanes.
//!
//! Each kernel therefore has one `#[inline(always)]` body compiled twice:
//! once as the portable function for the build's target, and once inside
//! a `#[target_feature(enable = "avx512f,avx512dq")]` wrapper that only
//! calls it. The dispatcher runs the wrapper when
//! `is_x86_feature_detected!` finds both features (std caches the
//! answer, so a call pays a load and a branch), and the portable body
//! otherwise; other targets compile only the portable body. No intrinsic
//! is written by hand: the compiler vectorizes the same scalar code for
//! each feature set.
//!
//! The two copies produce the same bits. Integer lanes run the same
//! wrapping arithmetic, and the digest is a wrapping sum, which any
//! association order leaves unchanged. For `f64` a lane performs the same
//! i64→f64 conversion, the same scaling by 2^-63 and the same addition,
//! each rounded once to nearest by IEEE 754, and Rust never contracts a
//! multiply and an add into a fused multiply-add. The combine keeps each
//! element's addition order. The tests below hold each dispatched kernel
//! to its portable body and to the scalar functions.

use crate::engine::hash_entry;
use crate::workload::{mix, mix_f64, ReduceKind};

/// Does the CPU have every feature the accelerated copies enable?
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// Defines each kernel from one body: the portable function in
/// `portable`, its AVX-512 copy in `avx512`, and the dispatcher that
/// picks between them at the top level.
macro_rules! kernels {
    ($(
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    )*) => {
        /// The kernel bodies, compiled for the build's target.
        mod portable {
            use super::*;
            $(
                #[inline(always)]
                pub(super) fn $name($($arg: $ty),*) $(-> $ret)? $body
            )*
        }

        /// The same bodies compiled with AVX-512 enabled.
        #[cfg(target_arch = "x86_64")]
        mod avx512 {
            use super::*;
            $(
                #[target_feature(enable = "avx512f,avx512dq")]
                pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                    super::portable::$name($($arg),*)
                }
            )*
        }

        $(
            $(#[$doc])*
            pub(crate) fn $name($($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                if has_avx512() {
                    // SAFETY: `has_avx512` has just found every feature
                    // the wrapper enables on this CPU.
                    return unsafe { avx512::$name($($arg),*) };
                }
                portable::$name($($arg),*)
            }
        )*
    };
}

kernels! {
    /// `out[k]` = a participant's input for element `start + k` under
    /// `kind`: [`mix`], or the bits of [`mix_f64`].
    fn fill(kind: ReduceKind, node: u32, start: u64, out: &mut [u64]) {
        match kind {
            ReduceKind::WrappingU64 => {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = mix(node, start + k as u64);
                }
            }
            ReduceKind::FloatF64 => {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = mix_f64(node, start + k as u64).to_bits();
                }
            }
        }
    }

    /// `acc[k] = combine(acc[k], xs[k])` under `kind`: a wrapping add, or
    /// an `f64` add of the bit patterns.
    fn combine(kind: ReduceKind, acc: &mut [u64], xs: &[u64]) {
        match kind {
            ReduceKind::WrappingU64 => {
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a = a.wrapping_add(x);
                }
            }
            ReduceKind::FloatF64 => {
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a = (f64::from_bits(*a) + f64::from_bits(x)).to_bits();
                }
            }
        }
    }

    /// `Σ hash_entry(node, key)` over a run of digest keys (wrapping): the
    /// delivery digest of one sink receiving the run's elements.
    fn digest(node: u64, keys: &[u64]) -> u64 {
        keys.iter().fold(0u64, |acc, &key| acc.wrapping_add(hash_entry(node, key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Says so when the CPU lacks the features: the dispatched kernels are
    /// then the portable bodies, and comparing the two checks nothing.
    fn note_if_unaccelerated() {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            return;
        }
        eprintln!("kernels: no AVX-512F/DQ on this CPU, accelerated copies not checked");
    }

    /// Nodes up to 2^20 and element starts up to 2^40, where
    /// `node << 40` overlaps the element bits inside `mix`.
    const NODES: [u32; 6] = [0, 1, 182, 993, (1 << 20) - 1, 1 << 20];
    const STARTS: [u64; 6] = [0, 1, 63, 49_974, (1 << 40) - 65, 1 << 40];

    const KINDS: [ReduceKind; 2] = [ReduceKind::WrappingU64, ReduceKind::FloatF64];

    #[test]
    fn fill_matches_its_portable_body_and_scalar_inputs() {
        note_if_unaccelerated();
        let (mut got, mut want) = ([0u64; 130], [0u64; 130]);
        for kind in KINDS {
            for &node in &NODES {
                for &start in &STARTS {
                    for len in 0..=130 {
                        fill(kind, node, start, &mut got[..len]);
                        portable::fill(kind, node, start, &mut want[..len]);
                        let at = format!("{kind:?} node {node} [{start}; {len}]");
                        assert_eq!(got[..len], want[..len], "{at}");
                        for (k, &x) in want[..len].iter().enumerate() {
                            let e = start + k as u64;
                            let scalar = match kind {
                                ReduceKind::WrappingU64 => mix(node, e),
                                ReduceKind::FloatF64 => mix_f64(node, e).to_bits(),
                            };
                            assert_eq!(x, scalar, "{at} at {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn combine_matches_its_portable_body_and_scalar_adds() {
        note_if_unaccelerated();
        for kind in KINDS {
            // Two nodes' inputs of one kind, and a row of special values.
            let mut xs = [0u64; 130];
            let mut acc0 = [0u64; 130];
            portable::fill(kind, 5, 1 << 40, &mut xs);
            portable::fill(kind, 1 << 20, 1 << 40, &mut acc0);
            let special = [0, 1, u64::MAX, 1 << 63, (-0.0f64).to_bits(), 1.0f64.to_bits()];
            acc0[..special.len()].copy_from_slice(&special);
            for len in 0..=130 {
                let (mut got, mut want) = (acc0, acc0);
                combine(kind, &mut got[..len], &xs[..len]);
                portable::combine(kind, &mut want[..len], &xs[..len]);
                assert_eq!(got, want, "{kind:?} len {len}");
                for k in 0..len {
                    let scalar = match kind {
                        ReduceKind::WrappingU64 => acc0[k].wrapping_add(xs[k]),
                        ReduceKind::FloatF64 => {
                            (f64::from_bits(acc0[k]) + f64::from_bits(xs[k])).to_bits()
                        }
                    };
                    assert_eq!(want[k], scalar, "{kind:?} len {len} at {k}");
                }
            }
        }
    }

    #[test]
    fn digest_matches_its_portable_body_and_scalar_hash() {
        note_if_unaccelerated();
        // Keys from both input kinds, plus values a reduction can reach.
        let mut keys: Vec<u64> = (0..130u64).map(|k| mix(7, k)).collect();
        keys.extend((0..130u64).map(|k| mix_f64(3, 1 << 40 | k).to_bits()));
        keys.extend([0, 1, u64::MAX, 1 << 63, f64::MIN_POSITIVE.to_bits()]);
        for node in NODES.iter().map(|&v| u64::from(v)).chain([u64::MAX]) {
            for lo in [0usize, 1, 130, 255] {
                for len in 0..=130.min(keys.len() - lo) {
                    let run = &keys[lo..lo + len];
                    let scalar =
                        run.iter().fold(0u64, |acc, &key| acc.wrapping_add(hash_entry(node, key)));
                    assert_eq!(portable::digest(node, run), scalar, "node {node} [{lo}; {len}]");
                    assert_eq!(digest(node, run), scalar, "node {node} [{lo}; {len}]");
                }
            }
        }
    }
}
