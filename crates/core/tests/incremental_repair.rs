//! Equivalence suite: `extend_degraded` must be structurally identical to
//! a full `rebuild_degraded` on the accumulated fault set.
//!
//! `extend_degraded` is a full rebuild of the union of its two fault
//! sets; the request-path benchmark still calls it. These tests walk
//! random fault sequences and compare every field of the two plans after
//! each step, router faults included.

use pf_allreduce::recovery::{extend_degraded, rebuild_degraded, DegradedPlan, FaultSet};
use pf_allreduce::AllreducePlan;
use proptest::prelude::*;

/// Field-by-field structural equality (DegradedPlan has no PartialEq; the
/// point here is to enumerate everything so a future field is noticed).
fn assert_same(a: &DegradedPlan, b: &DegradedPlan) {
    assert_eq!(a.q, b.q);
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    assert_eq!(
        a.graph.edges().collect::<Vec<_>>(),
        b.graph.edges().collect::<Vec<_>>()
    );
    assert_eq!(a.trees, b.trees);
    assert_eq!(a.origins, b.origins);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.bandwidths, b.bandwidths);
    assert_eq!(a.aggregate, b.aggregate);
    assert_eq!(a.healthy_aggregate, b.healthy_aggregate);
    assert_eq!(a.congestion_bound, b.congestion_bound);
    assert_eq!(a.edge_congestion, b.edge_congestion);
    assert_eq!(a.max_congestion, b.max_congestion);
    assert_eq!(a.depth, b.depth);
    assert_eq!(a.orig_vertex, b.orig_vertex);
    assert_eq!(a.new_vertex, b.new_vertex);
    assert_eq!(a.orig_edge, b.orig_edge);
    assert_eq!(a.new_edge, b.new_edge);
}

/// Replays `batches` of link faults one batch at a time through the
/// incremental path, asserting equivalence with the full rebuild after
/// every step. Returns how many steps took the incremental path.
fn replay(plan: &AllreducePlan, batches: &[Vec<u32>]) -> usize {
    let mut faults = FaultSet::none();
    let mut current: Option<DegradedPlan> = None;
    let mut incremental = 0;
    for batch in batches {
        let delta = FaultSet::links(batch.clone());
        let combined = faults.union(&delta);
        let full = rebuild_degraded(plan, &combined);
        if let (Some(prev), Ok(ref want)) = (&current, &full) {
            if let Some(got) = extend_degraded(plan, &faults, prev, &delta) {
                assert_same(&got, want);
                incremental += 1;
            }
        }
        // Disconnecting batch: skip it, keep the previous state, like a
        // fabric manager refusing a fault report it cannot survive.
        if let Ok(d) = full {
            current = Some(d);
            faults = combined;
        }
    }
    incremental
}

#[test]
fn single_link_steps_match_full_rebuild() {
    let plan = AllreducePlan::low_depth(7).unwrap();
    let batches: Vec<Vec<u32>> = vec![vec![0], vec![5], vec![17], vec![100], vec![33]];
    let steps = replay(&plan, &batches);
    assert!(steps >= 4, "expected most steps to take the incremental path, got {steps}");
}

#[test]
fn multi_link_batches_match_full_rebuild() {
    let plan = AllreducePlan::low_depth(7).unwrap();
    let batches: Vec<Vec<u32>> = vec![vec![3, 9, 27], vec![81, 11], vec![2, 4, 8, 16]];
    replay(&plan, &batches);
}

#[test]
fn edge_disjoint_plan_steps_match_full_rebuild() {
    let plan = AllreducePlan::edge_disjoint(7, 30, 3).unwrap();
    let batches: Vec<Vec<u32>> = vec![vec![0], vec![7, 21], vec![42]];
    replay(&plan, &batches);
}

/// Extends `prev` (the rebuild for `prior`) by `delta` and holds the
/// result to the rebuild of the union.
fn assert_extends_to_union(plan: &AllreducePlan, prior: &FaultSet, delta: &FaultSet) {
    let prev = rebuild_degraded(plan, prior).unwrap();
    let want = rebuild_degraded(plan, &prior.union(delta)).unwrap();
    let got = extend_degraded(plan, prior, &prev, delta).expect("the union rebuild succeeds");
    assert_same(&got, &want);
}

#[test]
fn router_delta_extends_to_the_union_rebuild() {
    // Every router of ER_5 lost on a healthy fabric and on one that
    // already lost a link.
    let plan = AllreducePlan::low_depth(5).unwrap();
    for r in plan.graph.vertices() {
        let delta = FaultSet { edges: vec![], routers: vec![r] };
        assert_extends_to_union(&plan, &FaultSet::none(), &delta);
        assert_extends_to_union(&plan, &FaultSet::links(vec![0]), &delta);
    }
}

#[test]
fn prior_router_faults_extend_to_the_union_rebuild() {
    // A link, a second router, and both, lost after router 3.
    let plan = AllreducePlan::low_depth(5).unwrap();
    let prior = FaultSet { edges: vec![], routers: vec![3] };
    for delta in [
        FaultSet::links(vec![0]),
        FaultSet { edges: vec![], routers: vec![10] },
        FaultSet { edges: vec![17], routers: vec![10] },
    ] {
        assert_extends_to_union(&plan, &prior, &delta);
    }
}

#[test]
fn disconnecting_delta_refuses_incremental() {
    let plan = AllreducePlan::single_tree(3).unwrap();
    let prev = rebuild_degraded(&plan, &FaultSet::none()).unwrap();
    // Kill every link of router 0: survivors stay connected but router 0
    // is cut off, so the full rebuild reports Partitioned and the
    // incremental path must decline rather than panic.
    let incident: Vec<u32> =
        plan.graph.neighbors_with_edges(0).iter().map(|&(_, e)| e).collect();
    let delta = FaultSet::links(incident);
    assert!(extend_degraded(&plan, &FaultSet::none(), &prev, &delta).is_none());
    assert!(rebuild_degraded(&plan, &delta).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_fault_sequences_match_full_rebuild(
        seed in 0u64..1000,
        steps in 1usize..6,
        batch in 1usize..4,
    ) {
        let plan = AllreducePlan::low_depth(7).unwrap();
        let m = plan.graph.num_edges() as u64;
        // SplitMix64 stream: deterministic per (seed, step, slot).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let batches: Vec<Vec<u32>> = (0..steps)
            .map(|_| (0..batch).map(|_| (next() % m) as u32).collect())
            .collect();
        replay(&plan, &batches);
    }
}
