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
//! **One multiply per input.** The kernels take `mix`'s first multiply
//! from a table. Write an element as `e = g | j`, with `g` a multiple of
//! [`GROUP`] (64) and `j < 64`, and let `B = node << 40 ^ g ^ seed` and
//! `D = B ^ (B >> 30)`. Since `j` only touches the low six bits, and
//! `j >> 30 = 0`, `mix`'s `z ^ (z >> 30)` is `D ^ j`; and `D ^ j` is
//! `(D & !63) | ((D & 63) ^ j)`, two words with no bit in common, so
//! their sum. Multiplication distributes over a sum modulo 2^64, so
//! `(D ^ j) · M1 = (D & !63) · M1 + T[D & 63][j]` exactly, with the
//! static 64 × 64 table `T[d][j] = (d ^ j) · M1`. Per node and group that
//! is one scalar multiply and one table row; per element, one load and an
//! add in place of the first multiply, and only the second multiply
//! stays. Every input keeps its bits. The value pass and `concat` cut
//! their blocks on global groups, so a node's run of elements in a block
//! needs one row.
//!
//! Four kernels cover that work. [`fill`] writes one node's inputs for a
//! run of elements, [`add_inputs`] adds the inputs of a list of nodes into
//! a run in turn (the fused fill and combine: `concat` calls it once per
//! segment), and [`combine`] adds one row into another. [`reduce_tree`]
//! is the value pass's whole tree block in one call: it walks a tree
//! children first and keeps one row per pending subtree on a stack. A
//! leaf pushes its input; a parent adds its input into its first child's
//! row and its other children's rows after it, so only the rows of the
//! current path and their waiting siblings are live. The value pass then
//! hashes each element once; its delivery digest is linear in the sink
//! (`engine::delivery_digest_entry`), so no sink re-hashes what it
//! received and no digest kernel is needed.
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
//! `fill`, `add_inputs` and `combine`); inside each copy that resolves to
//! the same copy's inlined body.
//!
//! The two copies produce the same bits. Integer lanes run the same
//! wrapping arithmetic. For `f64` a lane performs the same i64→f64
//! conversion, the same scaling by 2^-63 and the same addition, each
//! rounded once to nearest by IEEE 754, and Rust never contracts a
//! multiply and an add into a fused multiply-add. Each element keeps the
//! order of its additions: a parent's input plus its first child's row
//! is the first child's row plus the input, as IEEE addition commutes.
//! The tests below hold the table to the multiply it replaces and each
//! dispatched kernel to its portable body and to the scalar functions;
//! the engine's tests hold `reduce_tree` to the node-by-node fill it
//! replaced.

use crate::embedding::OrderedTree;
use crate::workload::{mix_tail, unit_f64, ReduceKind, SegmentRun, MIX_M1, MIX_SEED};
use std::ops::Range;

/// Element group of the first-multiply table: a node's inputs for the
/// elements of one aligned group share one table row.
const GROUP: usize = 64;

/// Element block width of the value pass: one group, so that a block
/// aligned on a group needs one table row per node, and `n` rows of it
/// fit in cache while the inner loops stay long enough to vectorize. The
/// row stride of [`reduce_tree`]'s stack.
pub(crate) const VALUE_BLOCK: usize = GROUP;

/// `mix`'s first multiply of `d ^ j` for every `d, j < 64` (32 KB), each
/// row on its own 64-byte line.
#[repr(align(64))]
struct FirstMul([[u64; GROUP]; GROUP]);

static FIRST_MUL: FirstMul = {
    let mut t = [[0u64; GROUP]; GROUP];
    let mut d = 0;
    while d < GROUP {
        let mut j = 0;
        while j < GROUP {
            t[d][j] = ((d ^ j) as u64).wrapping_mul(MIX_M1);
            j += 1;
        }
        d += 1;
    }
    FirstMul(t)
};

/// `node`'s inputs in the group holding `elem`: the input of the group's
/// element `j` is `mix_tail(base + row[j])` (see the module doc).
#[inline(always)]
fn group(node: u32, elem: u64) -> (u64, &'static [u64; GROUP]) {
    let b = (node as u64) << 40 ^ (elem & !(GROUP as u64 - 1)) ^ MIX_SEED;
    let d = b ^ (b >> 30);
    let low = d & (GROUP as u64 - 1);
    ((d - low).wrapping_mul(MIX_M1), &FIRST_MUL.0[low as usize])
}

/// Elements `start..start + len` cut at group boundaries: per piece, its
/// offsets into the run and its first element's place in its group.
#[inline(always)]
fn groups(start: u64, len: usize) -> impl Iterator<Item = (Range<usize>, usize)> {
    let mut k = 0;
    std::iter::from_fn(move || {
        (k < len).then(|| {
            let j = ((start + k as u64) % GROUP as u64) as usize;
            let n = (GROUP - j).min(len - k);
            k += n;
            (k - n..k, j)
        })
    })
}

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
    /// `kind`: [`mix`], or the bits of [`mix_f64`]. Only the tests
    /// dispatch it; [`reduce_tree`] inlines its body.
    ///
    /// [`mix`]: crate::workload::mix
    /// [`mix_f64`]: crate::workload::mix_f64
    #[cfg_attr(not(test), allow(dead_code))]
    fn fill(kind: ReduceKind, node: u32, start: u64, out: &mut [u64]) {
        for (cols, j) in groups(start, out.len()) {
            let (base, row) = group(node, start + cols.start as u64);
            let out = &mut out[cols];
            let row = &row[j..j + out.len()];
            match kind {
                ReduceKind::WrappingU64 => {
                    for (o, &t) in out.iter_mut().zip(row) {
                        *o = mix_tail(base.wrapping_add(t));
                    }
                }
                ReduceKind::FloatF64 => {
                    for (o, &t) in out.iter_mut().zip(row) {
                        *o = unit_f64(mix_tail(base.wrapping_add(t))).to_bits();
                    }
                }
            }
        }
    }

    /// `acc[k] = combine(acc[k], input(v, start + k))` for each `v` of
    /// `nodes` in turn, under `kind`: [`fill`] and [`combine`] in one
    /// pass. It works one group at a time, every node before the next
    /// group, so a long run stays in cache.
    fn add_inputs(kind: ReduceKind, nodes: &[u32], start: u64, acc: &mut [u64]) {
        for (cols, j) in groups(start, acc.len()) {
            let e = start + cols.start as u64;
            let acc = &mut acc[cols];
            for &v in nodes {
                let (base, row) = group(v, e);
                let row = &row[j..j + acc.len()];
                match kind {
                    ReduceKind::WrappingU64 => {
                        for (a, &t) in acc.iter_mut().zip(row) {
                            *a = a.wrapping_add(mix_tail(base.wrapping_add(t)));
                        }
                    }
                    ReduceKind::FloatF64 => {
                        for (a, &t) in acc.iter_mut().zip(row) {
                            let x = unit_f64(mix_tail(base.wrapping_add(t)));
                            *a = (f64::from_bits(*a) + x).to_bits();
                        }
                    }
                }
            }
        }
    }

    /// `acc[k] = combine(acc[k], xs[k])` under `kind`: a wrapping add, or
    /// an `f64` add of the bit patterns. Only the tests dispatch it;
    /// [`reduce_tree`] inlines its body.
    #[cfg_attr(not(test), allow(dead_code))]
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

    /// One block of the value pass over one segment run: R(v), node `v`'s
    /// input (the identity when it does not participate) combined with
    /// its children's R in CSR order, for every node of `tree`, at the
    /// run's columns of a stack of rows (stride [`VALUE_BLOCK`]). Column
    /// `k` holds element `first + k`. `tree` lists its nodes children
    /// first, each subtree contiguous and a node's subtrees in CSR order,
    /// so when a node comes up its children's rows are the top of the
    /// stack, in CSR order: a leaf pushes its input, and a parent builds
    /// R(v) in its first child's row and pops the others. The root's R
    /// ends in row 0.
    fn reduce_tree(run: &SegmentRun<'_>, first: u64, tree: OrderedTree<'_>, rows: &mut [u64]) {
        let (kind, cols) = (run.kind, run.cols.clone());
        let e = first + cols.start as u64;
        let mut top = 0;
        for (i, &v) in tree.nodes.iter().enumerate() {
            let kids = tree.children(i).len();
            if kids == 0 {
                let row = &mut rows[top * VALUE_BLOCK..][cols.clone()];
                if run.member(v) {
                    fill(kind, v, e, row);
                } else {
                    row.fill(kind.identity());
                }
                top += 1;
                continue;
            }
            let at = top - kids;
            let (acc, rest) = rows[at * VALUE_BLOCK..top * VALUE_BLOCK].split_at_mut(VALUE_BLOCK);
            let acc = &mut acc[cols.clone()];
            if run.member(v) {
                add_inputs(kind, std::slice::from_ref(&v), e, acc);
            } else {
                // The identity input: x + 0 is x, except that it turns an
                // f64 -0.0 into +0.0, so it is added all the same.
                combine(kind, acc, &[kind.identity(); VALUE_BLOCK][..acc.len()]);
            }
            for row in rest.chunks_exact(VALUE_BLOCK) {
                combine(kind, acc, &row[cols.clone()]);
            }
            top = at + 1;
        }
        debug_assert_eq!(top, 1, "a tree reduces to its root's row");
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
    use crate::workload::{mix, mix_f64};

    /// Says which copies a run checks: with the features, each
    /// dispatched kernel is the AVX-512 copy and the tests hold it to the
    /// portable body; without them, the two are the same function and
    /// comparing them checks nothing.
    fn note_which_copies() {
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            eprintln!("kernels: AVX-512F/DQ present, accelerated copies checked");
            return;
        }
        eprintln!("kernels: no AVX-512F/DQ on this CPU, accelerated copies not checked");
    }

    /// Nodes up to 2^20 and element starts up to 2^40, where
    /// `node << 40` overlaps the element bits inside `mix`, and starts on
    /// either side of a 64-element group and of 2^30, where the element
    /// bits start to reach `mix`'s `z >> 30`.
    const NODES: [u32; 6] = [0, 1, 182, 993, (1 << 20) - 1, 1 << 20];
    const STARTS: [u64; 10] =
        [0, 1, 63, 64, 65, 49_974, (1 << 30) - 1, 1 << 30, (1 << 40) - 65, 1 << 40];

    const KINDS: [ReduceKind; 2] = [ReduceKind::WrappingU64, ReduceKind::FloatF64];

    /// `node`'s scalar input for element `e` under `kind`.
    fn scalar(kind: ReduceKind, node: u32, e: u64) -> u64 {
        match kind {
            ReduceKind::WrappingU64 => mix(node, e),
            ReduceKind::FloatF64 => mix_f64(node, e).to_bits(),
        }
    }

    #[test]
    fn the_table_splits_the_first_multiply_exactly() {
        // Every low part `d` with every place `j`, above no high bits and
        // above seeded pseudo-random ones.
        let highs = (0..4_096).map(|i| mix(0x5eed, i) & !63);
        for high in std::iter::once(0).chain(highs) {
            for d in 0..64u64 {
                let key = high | d;
                for j in 0..64u64 {
                    let table = (key & !63)
                        .wrapping_mul(MIX_M1)
                        .wrapping_add(FIRST_MUL.0[d as usize][j as usize]);
                    assert_eq!((key ^ j).wrapping_mul(MIX_M1), table, "D = {key:#x}, j = {j}");
                }
            }
        }
    }

    #[test]
    fn fill_matches_its_portable_body_and_scalar_inputs() {
        note_which_copies();
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
                            assert_eq!(x, scalar(kind, node, e), "{at} at {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn add_inputs_matches_its_portable_body_and_scalar_sums() {
        note_which_copies();
        // One node, and every node of the list in turn from a row of
        // special values, so `f64` sums keep their order.
        let special = [0, 1, u64::MAX, 1 << 63, (-0.0f64).to_bits(), 1.0f64.to_bits()];
        let mut acc0 = [0u64; 130];
        acc0[..special.len()].copy_from_slice(&special);
        for kind in KINDS {
            for nodes in [&NODES[2..3], &NODES[..]] {
                for &start in &STARTS {
                    for len in 0..=130 {
                        let (mut got, mut want) = (acc0, acc0);
                        add_inputs(kind, nodes, start, &mut got[..len]);
                        portable::add_inputs(kind, nodes, start, &mut want[..len]);
                        let at = format!("{kind:?} nodes {nodes:?} [{start}; {len}]");
                        assert_eq!(got, want, "{at}");
                        for k in 0..len {
                            let e = start + k as u64;
                            let sum = nodes.iter().fold(acc0[k], |a, &v| match kind {
                                ReduceKind::WrappingU64 => a.wrapping_add(mix(v, e)),
                                ReduceKind::FloatF64 => {
                                    (f64::from_bits(a) + mix_f64(v, e)).to_bits()
                                }
                            });
                            assert_eq!(want[k], sum, "{at} at {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn combine_matches_its_portable_body_and_scalar_adds() {
        note_which_copies();
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
