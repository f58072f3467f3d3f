//! The value pass's per-(node, element) loops, compiled twice.
//!
//! The simulator's stepper moves flits without payloads; every value a
//! run reports comes from one blockwise value pass after stepping
//! (`engine::value_pass`), which the closed form calls too. That pass and
//! [`Workload::concat`](crate::Workload::concat) spend nearly all their
//! time on per (node, element) work: one input [`mix`] and one combine.
//! `mix` is a chain of two 64-bit multiplies, with shifts and xors, and no
//! dependence between elements, so it vectorizes, but only on a target
//! with a 64-bit vector multiply. The x86-64 baseline has none;
//! AVX-512DQ has one (`vpmullq`), and AVX-512F the 64-bit lanes around
//! it. The combine is one add, and gains from the wider lanes.
//!
//! Three kernels cover that work. [`fill`] writes one node's inputs for a
//! run of elements and [`combine`] adds one row into another; `concat`
//! calls them per participant. [`reduce_tree`] is the value pass's whole
//! tree block in one call: it walks a tree children first and, per node,
//! writes its input and adds its children's rows, so a block costs one
//! dispatch per segment run instead of one per node and one per child.
//! The value pass then hashes each element once; its delivery digest is
//! linear in the sink (`engine::delivery_digest_entry`), so no sink
//! re-hashes what it received and no digest kernel is needed.
//!
//! Each kernel has one `#[inline(always)]` body compiled twice:
//! once as the portable function for the build's target, and once inside
//! a `#[target_feature(enable = "avx512f,avx512dq")]` wrapper that only
//! calls it. The dispatcher runs the wrapper when
//! `is_x86_feature_detected!` finds both features (std caches the
//! answer, so a call pays a load and a branch), and the portable body
//! otherwise; other targets compile only the portable body. No intrinsic
//! is written by hand: the compiler vectorizes the same scalar code for
//! each feature set. A body may call another body (`reduce_tree` calls
//! `fill` and `combine`); inside each copy that resolves to the same
//! copy's inlined body.
//!
//! The two copies produce the same bits. Integer lanes run the same
//! wrapping arithmetic. For `f64` a lane performs the same i64→f64
//! conversion, the same scaling by 2^-63 and the same addition, each
//! rounded once to nearest by IEEE 754, and Rust never contracts a
//! multiply and an add into a fused multiply-add. The combine keeps each
//! element's addition order. The tests below hold each dispatched kernel
//! to its portable body and to the scalar functions; the engine's tests
//! hold `reduce_tree` to the node-by-node fill it replaced.

use crate::embedding::OrderedTree;
use crate::workload::{mix, mix_f64, ReduceKind, SegmentRun};
use std::ops::Range;

/// Element block width of the value pass: one scratch row per node,
/// `VALUE_BLOCK` contiguous elements per pass, sized to keep the whole
/// working set (n rows) in cache while leaving the inner loops long
/// enough to vectorize. The row stride of [`reduce_tree`]'s matrix.
pub(crate) const VALUE_BLOCK: usize = 64;

#[cfg(test)]
thread_local! {
    /// Set inside [`portable_only`]: every dispatch takes the portable body.
    static PORTABLE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every kernel this thread calls dispatched to its portable
/// body, so a test can hold a whole value pass to the portable copies.
#[cfg(test)]
pub(crate) fn portable_only<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE_ONLY.set(true);
    let out = f();
    PORTABLE_ONLY.set(false);
    out
}

/// Does the CPU have every feature the accelerated copies enable?
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    #[cfg(test)]
    if PORTABLE_ONLY.get() {
        return false;
    }
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

    /// One block of the value pass over one segment run: for each node of
    /// `tree` in order, its row of `rows` (stride [`VALUE_BLOCK`]) at the
    /// run's columns becomes its input, or the identity when it does not
    /// participate, and then each child's row is combined into it in CSR
    /// order. Column `k` holds element `first + k`.
    fn reduce_tree(run: &SegmentRun<'_>, first: u64, tree: OrderedTree<'_>, rows: &mut [u64]) {
        let cols = run.cols.clone();
        let e = first + cols.start as u64;
        for (i, &v) in tree.nodes.iter().enumerate() {
            let at = v as usize * VALUE_BLOCK;
            let row = &mut rows[at + cols.start..at + cols.end];
            if run.member(v) {
                fill(run.kind, v, e, row);
            } else {
                row.fill(run.kind.identity());
            }
            for &c in tree.children(i) {
                let (acc, xs) = two_rows(rows, v as usize, c as usize, cols.clone());
                combine(run.kind, acc, xs);
            }
        }
    }
}

/// Rows `a` (combined into) and `b` (read) of a matrix of
/// [`VALUE_BLOCK`]-word rows, at columns `cols`. Two distinct rows, so the
/// borrows split.
#[inline(always)]
fn two_rows(rows: &mut [u64], a: usize, b: usize, cols: Range<usize>) -> (&mut [u64], &[u64]) {
    debug_assert_ne!(a, b);
    let (a0, b0) = (a * VALUE_BLOCK, b * VALUE_BLOCK);
    if a < b {
        let (lo, hi) = rows.split_at_mut(b0);
        (&mut lo[a0 + cols.start..a0 + cols.end], &hi[cols])
    } else {
        let (lo, hi) = rows.split_at_mut(a0);
        (&mut hi[cols.clone()], &lo[b0 + cols.start..b0 + cols.end])
    }
}

/// A zeroed `u64` buffer that starts on a 64-byte cache line, for the
/// arrays the kernels sweep: a buffer that starts mid-line makes every
/// AVX-512 load and store straddle two lines, and malloc only promises 16
/// bytes. It over-allocates 7 words and starts at the first aligned one,
/// found with the safe `align_offset`. A clone is aligned anew; the
/// default is empty and allocates nothing.
#[derive(Default)]
pub(crate) struct LineBuf {
    buf: Vec<u64>,
    start: usize,
    len: usize,
}

impl LineBuf {
    /// `len` zeroed words, the first one 64-byte aligned.
    pub(crate) fn zeroed(len: usize) -> Self {
        const SPARE: usize = 64 / std::mem::size_of::<u64>() - 1;
        let buf = vec![0u64; len + SPARE];
        // `align_offset` may in principle decline (`usize::MAX`); the
        // buffer then starts where malloc put it.
        let start = Some(buf.as_ptr().align_offset(64)).filter(|&s| s <= SPARE).unwrap_or(0);
        LineBuf { buf, start, len }
    }
}

impl std::ops::Deref for LineBuf {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl std::ops::DerefMut for LineBuf {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl Clone for LineBuf {
    fn clone(&self) -> Self {
        let mut copy = LineBuf::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl std::fmt::Debug for LineBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
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
}
