//! Deterministic allreduce workloads and their expected results.
//!
//! The paper's motivating workload is gradient allreduce in data-parallel
//! training; numerically we only need an associative, commutative operator
//! and per-node inputs whose global reduction we can check exactly, so the
//! simulator reduces `u64` values with wrapping addition. Inputs come from
//! a splittable hash of `(node, element)` — every element of every node is
//! distinct, so a flit the reference stepper misroutes or drops, carrying
//! its payload, is always detected (the optimized engine moves no payloads
//! and is held to the reference by the differential suite). That
//! distinctness is also what makes the *multi-tenant* workloads safe: a
//! segmented workload ([`Workload::concat`]) carves the element space into
//! per-job ranges, and because no two `(node, element)` inputs collide, a
//! flit leaking from one job's trees into another's is always caught by
//! the expected-value check.

use crate::kernels::{self, LineBuf};

/// The reduction operator carried by the flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Wrapping `u64` addition — exact, order-independent; the default
    /// validation workload (any lost or misrouted flit is detected).
    WrappingU64,
    /// IEEE `f64` addition over bit-cast payloads — the ML gradient case.
    /// Association order differs between the reference sum and the tree
    /// reduction, so validation uses a relative tolerance.
    FloatF64,
}

impl ReduceKind {
    /// The operator's identity element (as a flit bit pattern): `0` for
    /// wrapping addition and `0.0` for `f64` addition — conveniently the
    /// same all-zero bits. Nodes outside a segment's participant set
    /// contribute the identity.
    #[must_use]
    pub fn identity(self) -> u64 {
        0
    }
}

/// One segment of a segmented ([`Workload::concat`]) workload: a
/// contiguous element range owned by one tenant/job.
#[derive(Debug, Clone)]
pub struct JobSegment {
    /// Number of elements in the segment.
    pub elems: u64,
    /// Reduction operator of the segment.
    pub kind: ReduceKind,
    /// Participating nodes (`None` = the full fabric). Non-participants
    /// contribute the operator's identity, so spanning trees still relay
    /// and reduce through them, but the expected reduction sums only the
    /// participants' inputs.
    pub participants: Option<Vec<u32>>,
}

impl JobSegment {
    /// A full-fabric segment.
    #[must_use]
    pub fn full(elems: u64, kind: ReduceKind) -> Self {
        JobSegment { elems, kind, participants: None }
    }
}

/// One segment's part of a run of elements ([`Workload::runs`]).
pub(crate) struct SegmentRun<'a> {
    /// The offsets into the run that the segment covers.
    pub(crate) cols: std::ops::Range<usize>,
    /// The segment's operator.
    pub(crate) kind: ReduceKind,
    /// The segment's participant bitset words (empty = every node).
    members: &'a [u64],
}

impl SegmentRun<'_> {
    /// Does `node` contribute its input, rather than the identity?
    #[inline(always)]
    pub(crate) fn member(&self, node: u32) -> bool {
        participates(self.members, node)
    }
}

/// Is `node` in the participant bitset `members` (empty = every node)?
#[inline(always)]
fn participates(members: &[u64], node: u32) -> bool {
    members.is_empty() || members[node as usize / 64] >> (node % 64) & 1 == 1
}

/// A deterministic allreduce input: `m` elements per node, partitioned
/// into one or more segments (one per tenant in multi-job runs).
#[derive(Debug, Clone)]
pub struct Workload {
    nodes: u32,
    m: u64,
    /// Exclusive element-end of each segment (ascending; last == `m`).
    seg_end: Vec<u64>,
    seg_kind: Vec<ReduceKind>,
    /// Per-segment participant bitset words (empty = every node).
    seg_members: Vec<Vec<u64>>,
    /// The expected reduction per element, on a 64-byte line so the input
    /// kernel that builds it runs at the same speed wherever malloc puts
    /// it.
    expected: LineBuf,
}

/// The constant [`mix`] xors into every key.
pub(crate) const MIX_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// [`mix`]'s first multiplier.
pub(crate) const MIX_M1: u64 = 0xBF58_476D_1CE4_E5B9;

/// SplitMix64 finalizer — a cheap, high-quality mixing function.
#[inline]
#[must_use]
pub fn mix(node: u32, elem: u64) -> u64 {
    let z = (node as u64) << 40 ^ elem ^ MIX_SEED;
    mix_tail((z ^ (z >> 30)).wrapping_mul(MIX_M1))
}

/// [`mix`] after its first multiply: the second multiply and the last
/// shift.
#[inline(always)]
pub(crate) fn mix_tail(z: u64) -> u64 {
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pseudo-random gradient value in `[-1, 1)` for `(node, elem)`.
#[inline]
#[must_use]
pub fn mix_f64(node: u32, elem: u64) -> f64 {
    unit_f64(mix(node, elem))
}

/// A [`mix`] output as the value in `[-1, 1)` that [`mix_f64`] returns.
#[inline(always)]
pub(crate) fn unit_f64(x: u64) -> f64 {
    (x as i64 as f64) / (i64::MAX as f64 + 1.0)
}

impl Workload {
    /// Builds the exact `u64` workload and precomputes the expected global
    /// reduction for each element (wrapping sum over all nodes).
    #[must_use]
    pub fn new(nodes: u32, m: u64) -> Self {
        Self::concat(nodes, &[JobSegment::full(m, ReduceKind::WrappingU64)])
    }

    /// Builds an `f64` gradient workload: per-node values in `[-1, 1)`
    /// (bit-cast into the flit payload), expected sums in node order.
    #[must_use]
    pub fn new_float(nodes: u32, m: u64) -> Self {
        Self::concat(nodes, &[JobSegment::full(m, ReduceKind::FloatF64)])
    }

    /// Builds a segmented workload: segment `j` owns the global element
    /// range `[Σ_{i<j} elems_i, Σ_{i≤j} elems_i)` with its own operator and
    /// participant set. Because [`mix`] makes every `(node, element)` input
    /// distinct, elements of different segments can never be confused — the
    /// cross-job leakage detector of the multi-tenant scheduler.
    ///
    /// Panics when `segs` is empty or a participant list is empty /
    /// out of range.
    #[must_use]
    pub fn concat(nodes: u32, segs: &[JobSegment]) -> Self {
        assert!(!segs.is_empty(), "a workload needs at least one segment");
        let words = (nodes as usize).div_ceil(64);
        let mut seg_end = Vec::with_capacity(segs.len());
        let mut seg_kind = Vec::with_capacity(segs.len());
        let mut seg_members = Vec::with_capacity(segs.len());
        let mut end = 0u64;
        for s in segs {
            end += s.elems;
            seg_end.push(end);
            seg_kind.push(s.kind);
            let members = match &s.participants {
                None => Vec::new(),
                Some(list) => {
                    assert!(!list.is_empty(), "a segment needs at least one participant");
                    let mut bits = vec![0u64; words];
                    for &v in list {
                        assert!(v < nodes, "participant {v} out of range (nodes = {nodes})");
                        bits[v as usize / 64] |= 1u64 << (v % 64);
                    }
                    bits
                }
            };
            seg_members.push(members);
        }
        let m = end;
        let mut w =
            Workload { nodes, m, seg_end, seg_kind, seg_members, expected: LineBuf::default() };
        // Node-major per global 64-element group: one kernel call per
        // segment adds each member's inputs into a group in ascending node
        // order before it moves to the next group. Every element sees the
        // additions of a per-element sum from +0.0 in the same order, so
        // f64 sums keep their bits.
        let mut expected = LineBuf::zeroed(m as usize);
        let mut start = 0u64;
        for (seg, &end) in w.seg_end.iter().enumerate() {
            let members: Vec<u32> = (0..nodes).filter(|&v| w.member(seg, v)).collect();
            let acc = &mut expected[start as usize..end as usize];
            kernels::add_inputs(w.seg_kind[seg], &members, start, acc);
            start = end;
        }
        w.expected = expected;
        w
    }

    /// Segment owning global element `elem`.
    #[inline]
    fn seg_index(&self, elem: u64) -> usize {
        if self.seg_end.len() == 1 {
            0
        } else {
            self.seg_end.partition_point(|&end| end <= elem)
        }
    }

    /// Whether `node` participates in segment `seg`.
    #[inline]
    fn member(&self, seg: usize, node: u32) -> bool {
        participates(&self.seg_members[seg], node)
    }

    /// The reduction operator governing global element `elem`.
    #[inline]
    #[must_use]
    pub fn kind_at(&self, elem: u64) -> ReduceKind {
        self.seg_kind[self.seg_index(elem)]
    }

    /// Combines two flit payloads of global element `elem` under its
    /// segment's operator.
    #[inline]
    #[must_use]
    pub fn combine_at(&self, elem: u64, a: u64, b: u64) -> u64 {
        combine_kind(self.kind_at(elem), a, b)
    }

    /// Whether a delivered payload of global element `elem` matches an
    /// expected one under its segment's operator: exact for `u64`, relative
    /// tolerance for `f64` (tree association order differs from the
    /// reference sum's).
    #[inline]
    #[must_use]
    pub fn value_close_at(&self, elem: u64, got: u64, want: u64) -> bool {
        match self.kind_at(elem) {
            ReduceKind::WrappingU64 => got == want,
            ReduceKind::FloatF64 => {
                let (g, w) = (f64::from_bits(got), f64::from_bits(want));
                let scale = w.abs().max(self.nodes as f64 * 1e-3);
                (g - w).abs() <= 1e-9 * scale
            }
        }
    }

    /// Number of participating nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Total vector length across all nodes' shared element space — the
    /// global element count `m` (equal to the embedding's `total_len` in
    /// single-job runs), *not* a per-node quantity.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.m
    }

    /// `true` iff the workload has no elements at all (`len() == 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The input payload of `node` for global element `elem` (bit pattern
    /// under the element's operator). Nodes outside the owning segment's
    /// participant set contribute the operator's identity.
    #[inline]
    #[must_use]
    pub fn input(&self, node: u32, elem: u64) -> u64 {
        debug_assert!(node < self.nodes && elem < self.m);
        let seg = self.seg_index(elem);
        if !self.member(seg, node) {
            return self.seg_kind[seg].identity();
        }
        match self.seg_kind[seg] {
            ReduceKind::WrappingU64 => mix(node, elem),
            ReduceKind::FloatF64 => mix_f64(node, elem).to_bits(),
        }
    }

    /// The expected allreduce output for global element `elem`.
    #[inline]
    #[must_use]
    pub fn expected(&self, elem: u64) -> u64 {
        self.expected[elem as usize]
    }

    /// The segments that elements `start..start + len` fall in, in order:
    /// per segment, the offsets into the run it covers, its operator and
    /// its participants. The value pass computes a block's inputs and
    /// combines one segment run at a time, with the segment lookup and
    /// operator dispatch hoisted out of the per-element loops.
    pub(crate) fn runs(&self, start: u64, len: usize) -> impl Iterator<Item = SegmentRun<'_>> {
        let end = start + len as u64;
        debug_assert!(end <= self.m);
        let mut e = start;
        std::iter::from_fn(move || {
            (e < end).then(|| {
                let seg = self.seg_index(e);
                let stop = self.seg_end[seg].min(end);
                let cols = (e - start) as usize..(stop - start) as usize;
                e = stop;
                SegmentRun { cols, kind: self.seg_kind[seg], members: &self.seg_members[seg] }
            })
        })
    }

    /// Makes `expected(elem)` wrong under its operator, so the engines'
    /// validation must count a mismatch wherever a sink checks it.
    #[cfg(test)]
    pub(crate) fn perturb_expected(&mut self, elem: u64) {
        let kind = self.kind_at(elem);
        let x = &mut self.expected[elem as usize];
        *x = match kind {
            ReduceKind::WrappingU64 => x.wrapping_add(1),
            ReduceKind::FloatF64 => (f64::from_bits(*x) + 1.0).to_bits(),
        };
    }
}

#[inline]
fn combine_kind(kind: ReduceKind, a: u64, b: u64) -> u64 {
    match kind {
        ReduceKind::WrappingU64 => a.wrapping_add(b),
        ReduceKind::FloatF64 => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element-major sum `concat` computed before it went node-major:
    /// per element, each member's scalar input added in ascending node
    /// order from the identity.
    fn expected_by_element(w: &Workload) -> Vec<u64> {
        (0..w.m)
            .map(|k| {
                let seg = w.seg_index(k);
                let members = (0..w.nodes).filter(|&v| w.member(seg, v));
                match w.seg_kind[seg] {
                    ReduceKind::WrappingU64 => {
                        members.fold(0u64, |acc, v| acc.wrapping_add(mix(v, k)))
                    }
                    ReduceKind::FloatF64 => {
                        let mut acc = 0.0f64;
                        for v in members {
                            acc += mix_f64(v, k);
                        }
                        acc.to_bits()
                    }
                }
            })
            .collect()
    }

    #[test]
    fn node_major_expected_matches_the_element_major_sum() {
        use ReduceKind::{FloatF64, WrappingU64};
        let seg = |elems, kind, participants| JobSegment { elems, kind, participants };
        for nodes in [1u32, 7, 31, 183] {
            // A third of the nodes left out, or the last node alone.
            let thirds = |r: u32| Some((0..nodes).filter(|v| v % 3 != r).collect::<Vec<_>>());
            let last = Some(vec![nodes - 1]);
            for m in [0u64, 1, 63, 64, 65, 4_097] {
                let (a, b) = (m / 3, m - m / 3);
                let cases = [
                    vec![seg(m, WrappingU64, None)],
                    vec![seg(m, FloatF64, None)],
                    vec![seg(a, FloatF64, thirds(1)), seg(b, WrappingU64, thirds(0))],
                    vec![
                        seg(b, WrappingU64, last.clone()),
                        seg(0, FloatF64, None),
                        seg(a, FloatF64, thirds(2)),
                    ],
                ];
                for segs in cases {
                    // At one node, a third can leave nobody.
                    if segs.iter().any(|s| s.participants.as_ref().is_some_and(Vec::is_empty)) {
                        continue;
                    }
                    let w = Workload::concat(nodes, &segs);
                    assert!(*w.expected == expected_by_element(&w), "n={nodes} m={m} {segs:?}");
                }
            }
        }
    }

    #[test]
    fn concat_copies_agree_across_group_boundaries() {
        // Segments that start on either side of a 64-element group, one of
        // them over the odd nodes only, on the dispatched and the portable
        // kernel copies.
        use ReduceKind::{FloatF64, WrappingU64};
        let odd = Some((1..9).step_by(2).collect::<Vec<u32>>());
        for first in [63u64, 64, 65] {
            for kind in [WrappingU64, FloatF64] {
                let segs = [
                    JobSegment::full(first, kind),
                    JobSegment { elems: 130, kind, participants: odd.clone() },
                    JobSegment::full(1, WrappingU64),
                ];
                let w = Workload::concat(9, &segs);
                let portable = kernels::portable_only(|| Workload::concat(9, &segs));
                assert!(*w.expected == *portable.expected, "{first} {kind:?}: portable copy");
                assert!(*w.expected == expected_by_element(&w), "{first} {kind:?}: scalar sum");
            }
        }
    }

    #[test]
    fn expected_matches_manual_sum() {
        let w = Workload::new(5, 16);
        for k in 0..16u64 {
            let manual = (0..5).fold(0u64, |acc, v| acc.wrapping_add(mix(v, k)));
            assert_eq!(w.expected(k), manual);
        }
    }

    #[test]
    fn inputs_are_distinct() {
        let w = Workload::new(8, 64);
        let mut seen = std::collections::HashSet::new();
        for v in 0..8 {
            for k in 0..64 {
                assert!(seen.insert(w.input(v, k)), "collision at ({v},{k})");
            }
        }
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new(3, 0);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn float_workload_expected_and_tolerance() {
        let w = Workload::new_float(9, 32);
        for k in 0..32u64 {
            assert_eq!(w.kind_at(k), ReduceKind::FloatF64);
            let manual: f64 = (0..9).map(|v| mix_f64(v, k)).sum();
            assert!(w.value_close_at(k, manual.to_bits(), w.expected(k)));
            // A permuted-order sum is also accepted (associativity slack).
            let permuted: f64 = (0..9).rev().map(|v| mix_f64(v, k)).sum();
            assert!(w.value_close_at(k, permuted.to_bits(), w.expected(k)));
            // A grossly wrong value is not.
            assert!(!w.value_close_at(k, (manual + 1.0).to_bits(), w.expected(k)));
        }
    }

    #[test]
    fn float_inputs_bounded() {
        for v in 0..16 {
            for k in 0..64 {
                let x = mix_f64(v, k);
                assert!((-1.0..1.0).contains(&x), "({v},{k}) -> {x}");
            }
        }
    }

    #[test]
    fn combine_dispatch() {
        let wu = Workload::new(2, 1);
        assert_eq!(wu.combine_at(0, u64::MAX, 1), 0); // wrapping
        let wf = Workload::new_float(2, 1);
        let a = 1.5f64.to_bits();
        let b = 2.25f64.to_bits();
        assert_eq!(f64::from_bits(wf.combine_at(0, a, b)), 3.75);
    }

    #[test]
    fn mix_avalanche_spot_check() {
        // Neighboring inputs differ in many bits.
        let a = mix(0, 0);
        let b = mix(0, 1);
        let c = mix(1, 0);
        assert!((a ^ b).count_ones() > 10);
        assert!((a ^ c).count_ones() > 10);
    }

    #[test]
    fn concat_matches_uniform_constructors() {
        // A single full segment is exactly Workload::new / new_float.
        let u = Workload::new(6, 40);
        let cu = Workload::concat(6, &[JobSegment::full(40, ReduceKind::WrappingU64)]);
        let f = Workload::new_float(6, 40);
        let cf = Workload::concat(6, &[JobSegment::full(40, ReduceKind::FloatF64)]);
        for k in 0..40 {
            assert_eq!(u.expected(k), cu.expected(k));
            assert_eq!(f.expected(k), cf.expected(k));
            for v in 0..6 {
                assert_eq!(u.input(v, k), cu.input(v, k));
                assert_eq!(f.input(v, k), cf.input(v, k));
            }
        }
    }

    #[test]
    fn segmented_workload_dispatches_per_element() {
        let w = Workload::concat(
            4,
            &[
                JobSegment::full(10, ReduceKind::WrappingU64),
                JobSegment::full(5, ReduceKind::FloatF64),
            ],
        );
        assert_eq!(w.len(), 15);
        assert_eq!(w.kind_at(9), ReduceKind::WrappingU64);
        assert_eq!(w.kind_at(10), ReduceKind::FloatF64);
        // Segment 0 combines by wrapping addition, segment 1 by f64.
        assert_eq!(w.combine_at(0, u64::MAX, 1), 0);
        let (a, b) = (1.5f64.to_bits(), 2.25f64.to_bits());
        assert_eq!(f64::from_bits(w.combine_at(12, a, b)), 3.75);
        // Expected values match the per-segment manual reductions.
        for k in 0..10u64 {
            let manual = (0..4).fold(0u64, |acc, v| acc.wrapping_add(mix(v, k)));
            assert_eq!(w.expected(k), manual);
            assert!(w.value_close_at(k, manual, w.expected(k)));
        }
        for k in 10..15u64 {
            let manual: f64 = (0..4).map(|v| mix_f64(v, k)).sum();
            assert!(w.value_close_at(k, manual.to_bits(), w.expected(k)));
        }
    }

    #[test]
    fn participant_subsets_contribute_identity() {
        let seg = JobSegment {
            elems: 8,
            kind: ReduceKind::WrappingU64,
            participants: Some(vec![0, 2]),
        };
        let w = Workload::concat(4, &[seg]);
        for k in 0..8u64 {
            // Non-participants inject the identity...
            assert_eq!(w.input(1, k), 0);
            assert_eq!(w.input(3, k), 0);
            // ...so the expected reduction sums participants only.
            assert_eq!(w.expected(k), mix(0, k).wrapping_add(mix(2, k)));
        }
    }

    #[test]
    fn cross_segment_inputs_stay_distinct() {
        // The multi-tenant leakage detector: inputs of different segments
        // never collide (identity injections aside, which reduce checks
        // catch through the expected value, not the raw input).
        let w = Workload::concat(
            5,
            &[
                JobSegment::full(32, ReduceKind::WrappingU64),
                JobSegment::full(32, ReduceKind::WrappingU64),
            ],
        );
        let mut seen = std::collections::HashSet::new();
        for v in 0..5 {
            for k in 0..64 {
                assert!(seen.insert(w.input(v, k)), "collision at ({v},{k})");
            }
        }
    }

    #[test]
    fn expected_starts_on_a_cache_line() {
        for m in [1u64, 63, 64, 65, 49_974] {
            let w = Workload::new(7, m);
            assert_eq!(w.expected.as_ptr() as usize % 64, 0, "m={m}");
            assert_eq!(w.expected.len() as u64, m);
            let copy = w.clone();
            assert_eq!(copy.expected.as_ptr() as usize % 64, 0, "clone, m={m}");
            assert_eq!(*copy.expected, *w.expected);
        }
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn concat_rejects_empty_segment_list() {
        let _ = Workload::concat(3, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn concat_rejects_bad_participant() {
        let _ = Workload::concat(
            3,
            &[JobSegment {
                elems: 1,
                kind: ReduceKind::WrappingU64,
                participants: Some(vec![3]),
            }],
        );
    }
}
