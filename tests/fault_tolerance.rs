//! Fault-injection acceptance suite and degraded-plan conformance.
//!
//! Workspace-level counterpart of `crates/simnet/tests/fault_props.rs`:
//! where that file exercises the fault layer on toy graphs, this one runs
//! the full paper topologies (`ER_q`) through the detect → rebuild →
//! re-run loop and property-checks the degraded plans themselves.
//!
//! * Acceptance: `k ∈ {1, 2}` random link faults at a random cycle for
//!   `q ∈ {3, 7, 11}` complete the allreduce correctly, and the same seed
//!   reproduces the identical `SimReport`s, `FaultReport`s and trace
//!   bytes across independent runs.
//! * Degraded-plan properties: for random single-link and single-router
//!   faults on `q ∈ {3, 5, 7, 9, 11}`, every rebuilt tree is a valid
//!   spanning tree of the surviving subgraph, intact trees keep the
//!   Theorem 7.5 depth bound, and per-edge congestion never exceeds the
//!   healthy plan's Theorem 7.6 / 7.19 bound.
//! * Negative path: faults that partition `ER_q` surface as `Err`s —
//!   from `pf_graph` (no diameter, no spanning tree) through
//!   `rebuild_degraded` and `run_with_recovery` — never as panics.

use pf_allreduce::recovery::TreeOrigin;
use pf_allreduce::{rebuild_degraded, AllreducePlan, FaultSet, RebuildError};
use pf_graph::{bfs, subgraph, EdgeId};
use pf_simnet::{
    run_with_recovery, Collective, FaultSchedule, MultiTreeEmbedding, SimConfig, Simulator,
    TraceConfig, Workload,
};
use proptest::prelude::*;

/// Cached healthy plans, so proptest cases don't rebuild `ER_11` each
/// iteration.
fn low_plan(q: u64) -> &'static AllreducePlan {
    use std::sync::OnceLock;
    static CELLS: [OnceLock<AllreducePlan>; 5] = [const { OnceLock::new() }; 5];
    let i = match q {
        3 => 0,
        5 => 1,
        7 => 2,
        9 => 3,
        11 => 4,
        _ => panic!("uncached q={q}"),
    };
    CELLS[i].get_or_init(|| AllreducePlan::low_depth(q).expect("odd prime power"))
}

fn ham_plan(q: u64) -> &'static AllreducePlan {
    use std::sync::OnceLock;
    static CELLS: [OnceLock<AllreducePlan>; 3] = [const { OnceLock::new() }; 3];
    let i = match q {
        3 => 0,
        5 => 1,
        7 => 2,
        _ => panic!("uncached q={q}"),
    };
    CELLS[i].get_or_init(|| AllreducePlan::edge_disjoint(q, 30, 0x715 ^ q).expect("prime power"))
}

// ---------------------------------------------------------------------------
// Acceptance: the ISSUE's end-to-end criteria.
// ---------------------------------------------------------------------------

/// `k ∈ {1, 2}` random permanent link faults at a random cycle, for every
/// paper radix: the recovery loop completes the allreduce with zero
/// mismatches, and the same seed gives identical reports round by round.
#[test]
fn random_link_faults_recover_on_paper_radixes() {
    let m = 2000;
    for q in [3u64, 7, 11] {
        let plan = low_plan(q);
        for k in [1usize, 2] {
            let seed = 0xACCE97 ^ (q << 16) ^ k as u64;
            let schedule = FaultSchedule::random_links(&plan.graph, k, 20, 400, seed);
            let run = || {
                run_with_recovery(plan, m, SimConfig::default(), &schedule, Collective::Allreduce)
                    .unwrap_or_else(|e| panic!("q={q} k={k}: {e}"))
            };
            let a = run();
            let final_report = a.final_report();
            assert!(final_report.completed, "q={q} k={k}: final round must complete");
            assert_eq!(final_report.mismatches, 0, "q={q} k={k}");
            assert_eq!(final_report.total_elems, m, "q={q} k={k}");
            // k links break at most 2k of the q low-depth trees
            // (Theorem 7.6: congestion <= 2), so recovery keeps at least
            // q - 2k trees and positive bandwidth.
            if let Some(d) = &a.degraded {
                assert!(d.trees.len() >= plan.trees.len().saturating_sub(2 * k), "q={q} k={k}");
                let retention = a.bandwidth_retention().to_f64();
                assert!(retention > 0.0 && retention <= 1.0 + 1e-12, "q={q} k={k}: {retention}");
            }
            assert!(a.total_cycles >= final_report.cycles);

            // Same seed, independent second run: identical outcome.
            let b = run();
            assert_eq!(a.rounds.len(), b.rounds.len(), "q={q} k={k}");
            for (i, (ra, rb)) in a.rounds.iter().zip(&b.rounds).enumerate() {
                assert_eq!(ra.report, rb.report, "q={q} k={k} round {i}");
                assert_eq!(ra.faults, rb.faults, "q={q} k={k} round {i}");
                assert_eq!(ra.newly_detected, rb.newly_detected, "q={q} k={k} round {i}");
            }
            assert_eq!(a.fault_set, b.fault_set, "q={q} k={k}");
            assert_eq!(a.total_cycles, b.total_cycles, "q={q} k={k}");
        }
    }
}

/// Tracing a faulted run twice with the same schedule yields byte-equal
/// trace JSON — the fault table rides the deterministic trace schema.
#[test]
fn same_seed_reproduces_identical_trace_bytes() {
    let plan = low_plan(7);
    let m = 1200;
    let schedule = FaultSchedule::random_links(&plan.graph, 2, 20, 300, 0x7ACE5);
    let run = || {
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_trace(TraceConfig::counters())
            .with_faults(&plan.graph, schedule.clone())
            .run_jobs_collective(&w, &[], Collective::Allreduce)
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.faults, b.faults);
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.to_json().into_bytes(), tb.to_json().into_bytes());
    // The schedule actually fired (the random links land well before the
    // run drains), so the reproducibility above covered real fault rows.
    assert!(a.faults.injected > 0);
    assert_eq!(ta.faults, a.faults.records);
}

// ---------------------------------------------------------------------------
// Degraded-plan property suite (random faults, all paper radixes).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random single link fault on any `ER_q` low-depth plan rebuilds
    /// into valid spanning trees of the surviving subgraph, keeps the
    /// Theorem 7.5 depth bound on intact trees, and never exceeds the
    /// Theorem 7.6 congestion bound.
    #[test]
    fn degraded_plans_survive_any_single_link_fault(
        q in prop::sample::select(vec![3u64, 5, 7, 9, 11]),
        edge_pick in any::<u32>(),
    ) {
        let plan = low_plan(q);
        let e = edge_pick % plan.graph.num_edges();
        let d = rebuild_degraded(plan, &FaultSet::links(vec![e]))
            .expect("one link cannot partition ER_q");

        prop_assert_eq!(d.graph.num_edges(), plan.graph.num_edges() - 1);
        for (i, t) in d.trees.iter().enumerate() {
            prop_assert!(
                t.validate_spanning(&d.graph).is_ok(),
                "q={} tree {} is not spanning: {:?}", q, i, t.validate_spanning(&d.graph)
            );
        }
        // Theorem 7.6: congestion <= 2 breaks at most 2 trees per link.
        prop_assert!(d.trees.len() >= plan.trees.len() - 2);
        prop_assert!(d.trees.len() + d.dropped >= plan.trees.len());
        // Intact trees keep the Theorem 7.5 depth bound.
        for (t, o) in d.trees.iter().zip(&d.origins) {
            if matches!(o, TreeOrigin::Intact(_)) {
                prop_assert!(t.depth() <= 3, "q={} intact tree depth {}", q, t.depth());
            }
        }
        // Congestion on the degraded topology stays within the healthy
        // bound — edge by edge, not just the max.
        prop_assert!(d.max_congestion <= plan.max_congestion);
        prop_assert!(d.edge_congestion.iter().all(|&c| c <= plan.max_congestion));
        // Algorithm 1 on the survivors: retention in (0, 1].
        let retention = d.bandwidth_retention().to_f64();
        prop_assert!(retention > 0.0 && retention <= 1.0 + 1e-12, "retention {}", retention);
    }

    /// A random single router fault shrinks the collective to the
    /// survivors; every rebuilt tree spans the survivor graph and the
    /// congestion bound still holds.
    #[test]
    fn degraded_plans_survive_any_single_router_fault(
        q in prop::sample::select(vec![3u64, 5, 7, 9, 11]),
        vertex_pick in any::<u32>(),
    ) {
        let plan = low_plan(q);
        let v = vertex_pick % plan.graph.num_vertices();
        let d = rebuild_degraded(plan, &FaultSet { edges: vec![], routers: vec![v] })
            .expect("one router cannot partition ER_q");

        prop_assert_eq!(d.graph.num_vertices(), plan.graph.num_vertices() - 1);
        prop_assert!(d.new_vertex[v as usize].is_none());
        for t in &d.trees {
            prop_assert!(t.validate_spanning(&d.graph).is_ok());
        }
        // Losing a router breaks every spanning tree: nothing is intact,
        // but the repairs still fit under the healthy congestion bound.
        prop_assert_eq!(d.intact(), 0);
        prop_assert!(!d.trees.is_empty());
        prop_assert!(d.max_congestion <= plan.max_congestion);
        prop_assert!(d.edge_congestion.iter().all(|&c| c <= plan.max_congestion));
    }

    /// The edge-disjoint Hamiltonian plans rebuild under the stricter
    /// Theorem 7.19 bound: unit congestion even after the repair.
    #[test]
    fn edge_disjoint_rebuilds_keep_unit_congestion(
        q in prop::sample::select(vec![3u64, 5, 7]),
        edge_pick in any::<u32>(),
    ) {
        let plan = ham_plan(q);
        let e = edge_pick % plan.graph.num_edges();
        let d = rebuild_degraded(plan, &FaultSet::links(vec![e])).expect("single link");
        for t in &d.trees {
            prop_assert!(t.validate_spanning(&d.graph).is_ok());
        }
        // Theorem 7.19: the healthy trees are edge-disjoint (congestion
        // 1), and a repair is only accepted if it stays disjoint.
        prop_assert_eq!(plan.max_congestion, 1);
        prop_assert!(d.max_congestion <= 1);
        // One link touches at most one edge-disjoint tree.
        prop_assert!(d.trees.len() + d.dropped >= plan.trees.len());
        prop_assert!(d.intact() >= plan.trees.len() - 1);
    }
}

// ---------------------------------------------------------------------------
// Negative path: partitioning faults are errors, not panics.
// ---------------------------------------------------------------------------

/// Cutting every link of one router partitions `ER_q`; the graph layer
/// reports it (no diameter, no connectivity) instead of panicking.
#[test]
fn partitioned_er_q_is_an_error_in_pf_graph() {
    let plan = low_plan(3);
    let g = &plan.graph;
    let cut: Vec<EdgeId> = g.neighbors_with_edges(0).iter().map(|&(_, e)| e).collect();
    assert_eq!(cut.len() as u64, 3 + 1, "ER_3 is (q+1)-regular");

    let ed = subgraph::surviving(g, &[], &cut);
    assert!(!bfs::is_connected(&ed.graph));
    let (_, components) = bfs::connected_components(&ed.graph);
    assert_eq!(components, 2, "isolating one router splits off exactly itself");
    assert_eq!(bfs::diameter(&ed.graph), None);
    assert_eq!(bfs::eccentricity(&ed.graph, 0), None);
    assert_eq!(bfs::shortest_path(&ed.graph, 0, 1), None);

    // A healthy spanning tree no longer validates against the survivor
    // graph (vertex count changed), and against the edge-cut graph its
    // tree edges are gone — both are Errs, not panics.
    let vd = subgraph::surviving(g, &[0], &[]);
    assert!(plan.trees[0].validate_spanning(&vd.graph).is_err());
    assert!(plan.trees.iter().any(|t| t.validate_spanning(&ed.graph).is_err()));
}

/// The same partition propagates through `rebuild_degraded` as a typed
/// error.
#[test]
fn partitioning_fault_sets_fail_rebuild_with_typed_errors() {
    let plan = low_plan(3);
    let g = &plan.graph;
    let cut: Vec<EdgeId> = g.neighbors_with_edges(0).iter().map(|&(_, e)| e).collect();

    match rebuild_degraded(plan, &FaultSet::links(cut)) {
        Err(RebuildError::Partitioned { components }) => assert_eq!(components, 2),
        other => panic!("expected Partitioned, got {other:?}"),
    }

    // Killing every router is NoSurvivors, not a panic.
    let all: Vec<u32> = g.vertices().collect();
    match rebuild_degraded(plan, &FaultSet { edges: vec![], routers: all }) {
        Err(RebuildError::NoSurvivors) => {}
        other => panic!("expected NoSurvivors, got {:?}", other.map(|d| d.trees.len())),
    }
}

/// End to end: a schedule that amputates one router's every link makes
/// the recovery loop return an error once detection has isolated the
/// partition — the driver gets a diagnosis, never a panic or a hang.
#[test]
fn recovery_surfaces_partition_as_error() {
    let plan = low_plan(3);
    let cut: Vec<EdgeId> =
        plan.graph.neighbors_with_edges(0).iter().map(|&(_, e)| e).collect();
    let schedule = FaultSchedule::permanent_links(&cut, 30);
    let err = run_with_recovery(plan, 400, SimConfig::default(), &schedule, Collective::Allreduce)
        .expect_err("an isolated router can never complete the collective");
    assert!(err.to_string().contains("partition"), "unexpected recovery error: {err}");
}
