//! Property tests for the sharded-training collectives.
//!
//! The tentpole invariant is **composition**: a reduce-scatter followed
//! by an allgather is an allreduce. The engine encodes the hand-off
//! exactly — the reduce-scatter delivers each tree's reduced slice to
//! the tree's root (the shard owner), and the allgather's roots source
//! those same reduced slices back down — so the delivery multiset of the
//! allgather equals the allreduce's, and the order-independent
//! [`pf_simnet::delivery_digest_entry`] digest proves it without storing
//! any vectors.
//!
//! Digest equality is asserted bit-exactly for wrapping-`u64` segments.
//! `f64` segments reduce in tree order, so the allreduce's delivered sums
//! may differ in low bits from the canonical expectation the allgather
//! re-injects; there the tests fall back to completion, zero mismatches,
//! and reconstruction of each collective's digest from the workload.
//!
//! A second layer pins the collectives to the Theorem 5.1 / Algorithm 1
//! phase model: the fill-before-drain prediction is an upper bound on
//! the measured cycles, and each single-phase half is strictly cheaper
//! than the two-phase allreduce.
//!
//! Quick configurations (q ∈ {3, 5}) run everywhere; the full radix
//! sweep (q ∈ {3, 5, 7, 11}) is `#[ignore]`d and runs in the nightly
//! `--include-ignored` job.

use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::{
    delivery_digest_entry, JobSegment, MultiTreeEmbedding, ReduceKind, SimConfig, SimReport,
    Simulator, Workload,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn run(plan: &AllreducePlan, w: &Workload, kind: Collective) -> SimReport {
    let sizes = plan.split(w.len());
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    Simulator::new(&plan.graph, &emb, SimConfig::default()).run_jobs_collective(w, &[], kind).report
}

/// The digest of a full broadcast-style delivery of the expected vector:
/// every node receives every element.
fn allgather_digest(n: u32, w: &Workload) -> u64 {
    let mut d = 0u64;
    for node in 0..u64::from(n) {
        for elem in 0..w.len() {
            d = d.wrapping_add(delivery_digest_entry(node, elem, w.expected(elem)));
        }
    }
    d
}

/// The digest of the reduce-scatter's delivery set: each tree's root
/// owns the slice the Algorithm 1 split assigned to that tree.
fn reduce_scatter_digest(plan: &AllreducePlan, w: &Workload) -> u64 {
    let sizes = plan.split(w.len());
    let mut d = 0u64;
    let mut off = 0u64;
    for (tree, &len) in plan.trees.iter().zip(&sizes) {
        for elem in off..off + len {
            d = d.wrapping_add(delivery_digest_entry(
                u64::from(tree.root()),
                elem,
                w.expected(elem),
            ));
        }
        off += len;
    }
    d
}

/// One random workload segment: length, operator, and an optional
/// participant subset (non-participants contribute the identity).
fn segment(n: u32) -> impl Strategy<Value = JobSegment> {
    (
        1u64..260,
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(0..n, 1..n as usize),
    )
        .prop_map(|(elems, float, full, picks)| {
            let subset: std::collections::BTreeSet<u32> = picks.into_iter().collect();
            JobSegment {
                elems,
                kind: if float { ReduceKind::FloatF64 } else { ReduceKind::WrappingU64 },
                participants: (!full).then(|| subset.into_iter().collect()),
            }
        })
}

fn composition_case(q: u64, segs: &[JobSegment]) -> Result<(), TestCaseError> {
    let plan = AllreducePlan::low_depth(q).expect("odd prime power");
    let n = plan.graph.num_vertices();
    let w = Workload::concat(n, segs);
    let exact = segs.iter().all(|s| matches!(s.kind, ReduceKind::WrappingU64));

    let rs = run(&plan, &w, Collective::ReduceScatter);
    let ag = run(&plan, &w, Collective::Allgather);
    let ar = run(&plan, &w, Collective::Allreduce);
    for (name, r) in [("reduce_scatter", &rs), ("allgather", &ag), ("allreduce", &ar)] {
        prop_assert!(r.completed, "{} did not complete", name);
        prop_assert_eq!(r.mismatches, 0, "{} mismatched", name);
    }

    // The allgather re-injects the canonical expected values (the
    // reduce-scatter's outputs), so its digest reconstructs from the
    // workload for every operator.
    prop_assert_eq!(ag.value_digest, allgather_digest(n, &w));

    if exact {
        // Wrapping addition is order-independent, so the reduce-scatter's
        // delivered roots carry exactly the expected slices, and the
        // composed pair reproduces the allreduce's delivery multiset.
        prop_assert_eq!(rs.value_digest, reduce_scatter_digest(&plan, &w));
        prop_assert_eq!(
            ag.value_digest,
            ar.value_digest,
            "rs ∘ ag must equal the allreduce per-node values"
        );
    }
    Ok(())
}

fn conformance_case(q: u64, m: u64) -> Result<(), TestCaseError> {
    let plan = AllreducePlan::low_depth(q).expect("odd prime power");
    let w = Workload::new(plan.graph.num_vertices(), m);
    let hop = SimConfig::default().link_latency as u64;

    let ar = run(&plan, &w, Collective::Allreduce);
    let rs = run(&plan, &w, Collective::ReduceScatter);
    let ag = run(&plan, &w, Collective::Allgather);
    prop_assert!(ar.completed && rs.completed && ag.completed);

    // The model charges the full pipeline fill before any drain; real
    // pipelines overlap them, so prediction bounds measurement.
    prop_assert!(ar.cycles <= plan.predicted_cycles(m, hop));
    prop_assert!(rs.cycles <= plan.predicted_reduce_scatter_cycles(m, hop));
    prop_assert!(ag.cycles <= plan.predicted_allgather_cycles(m, hop));
    // The mirrored halves cost the same, and each strictly less than the
    // two-phase allreduce.
    prop_assert_eq!(rs.cycles, ag.cycles);
    prop_assert!(rs.cycles < ar.cycles);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Quick composition sweep: q ∈ {3, 5}, random segmented workloads
    /// with mixed operators and participant subsets.
    #[test]
    fn reduce_scatter_then_allgather_is_an_allreduce(
        q in prop::sample::select(vec![3u64, 5]),
        segs in prop::collection::vec(segment(13), 1..4),
    ) {
        // Participant ids are drawn against the smallest fabric (q = 3,
        // 13 nodes) so every subset is valid at both radixes.
        composition_case(q, &segs)?;
    }

    /// Quick conformance sweep: measured cycles respect the phase model.
    #[test]
    fn collectives_respect_the_phase_model(
        q in prop::sample::select(vec![3u64, 5]),
        m in 1u64..1500,
    ) {
        conformance_case(q, m)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full composition sweep over the paper's radixes — nightly only
    /// (`cargo test -- --include-ignored`).
    #[test]
    #[ignore = "full radix sweep; run under --include-ignored"]
    fn reduce_scatter_then_allgather_is_an_allreduce_full(
        q in prop::sample::select(vec![3u64, 5, 7, 11]),
        segs in prop::collection::vec(segment(13), 1..5),
    ) {
        composition_case(q, &segs)?;
    }

    /// Full conformance sweep over the paper's radixes — nightly only.
    #[test]
    #[ignore = "full radix sweep; run under --include-ignored"]
    fn collectives_respect_the_phase_model_full(
        q in prop::sample::select(vec![3u64, 5, 7, 11]),
        m in 1u64..4000,
    ) {
        conformance_case(q, m)?;
    }
}

/// The zero-length corner deterministically: every collective completes
/// in zero cycles with an empty digest.
#[test]
fn empty_vectors_digest_to_zero() {
    let plan = AllreducePlan::low_depth(3).unwrap();
    let w = Workload::new(plan.graph.num_vertices(), 0);
    for kind in Collective::ALL {
        let r = run(&plan, &w, kind);
        assert!(r.completed, "{}", kind.name());
        assert_eq!(r.value_digest, 0, "{}", kind.name());
    }
}
