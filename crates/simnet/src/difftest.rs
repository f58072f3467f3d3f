//! Differential suite: the active-set engine versus the retained
//! reference stepper.
//!
//! Every test builds two identically-configured simulators over the same
//! embedding and workload, runs one through the optimized engine and
//! the other through [`crate::engine::reference`], and asserts the outputs
//! are *byte-identical*: `SimReport` by `PartialEq` (covers every counter
//! including floats, which must come from the same integer arithmetic),
//! traces by their serialized JSON bytes, and `FaultReport` by
//! `PartialEq` (covers the ordered `FaultTraceRow` action log, so retry
//! and detection cycle stamps must match exactly).
//!
//! The matrix spans the paper's radixes (q ∈ {3, 5, 7, 9, 11}), all five
//! collectives (allreduce, reduce, broadcast and the sharded-training
//! reduce-scatter / allgather pair), low-depth and edge-disjoint plans,
//! per-router / per-node caps, tracing on/off, and fault schedules
//! (permanent, transient-healing, degraded, router) — the cases where
//! cycle skipping, active sets and lazy budgets could plausibly diverge
//! from the per-cycle full-scan semantics.

use crate::embedding::MultiTreeEmbedding;
use crate::engine::{Collective, SimConfig, Simulator};
use crate::faults::{
    DetectionConfig, FaultEvent, FaultKind, FaultSchedule, FaultTarget,
};
use crate::trace::TraceConfig;
use crate::workload::Workload;
use pf_allreduce::AllreducePlan;

/// One prepared scenario both engines run.
struct Case {
    plan: AllreducePlan,
    m: u64,
    cfg: SimConfig,
    trace: Option<TraceConfig>,
    faults: Option<FaultSchedule>,
}

impl Case {
    fn new(plan: AllreducePlan, m: u64) -> Self {
        Case { plan, m, cfg: SimConfig::default(), trace: None, faults: None }
    }

    fn sim<'a>(&self, emb: &'a MultiTreeEmbedding) -> Simulator<'a> {
        let mut sim = Simulator::new(&self.plan.graph, emb, self.cfg);
        if let Some(tcfg) = self.trace {
            sim = sim.with_trace(tcfg);
        }
        if let Some(schedule) = &self.faults {
            sim = sim.with_faults(&self.plan.graph, schedule.clone());
        }
        sim
    }

    /// Runs the case through both engines and asserts byte identity.
    fn assert_identical(&self, kind: Collective, label: &str) {
        let sizes = self.plan.split(self.m);
        let emb = MultiTreeEmbedding::new(&self.plan.graph, &self.plan.trees, &sizes);
        let w = Workload::new(self.plan.graph.num_vertices(), self.m);
        let opt = self.sim(&emb).run_jobs_collective(&w, &[], kind);
        let refr = self.sim(&emb).run_reference(&w, kind);

        assert_eq!(opt.report, refr.report, "{label}: SimReport diverged");
        match (&opt.trace, &refr.trace) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a, b, "{label}: TraceReport diverged");
                assert_eq!(a.to_json(), b.to_json(), "{label}: trace bytes diverged");
            }
            _ => panic!("{label}: one engine produced a trace, the other did not"),
        }
        assert_eq!(opt.faults, refr.faults, "{label}: FaultReport diverged");
    }
}

/// The edge both schedules target: the first edge the plan actually uses,
/// so outages bite.
fn used_edge(plan: &AllreducePlan) -> u32 {
    plan.edge_congestion.iter().position(|&c| c > 0).expect("plan uses an edge") as u32
}

const COLLECTIVES: [Collective; 5] = Collective::ALL;

#[test]
fn low_depth_all_radixes_all_collectives() {
    for q in [3u64, 5, 7, 9, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let m = 300;
        for kind in COLLECTIVES {
            Case::new(plan.clone(), m).assert_identical(kind, &format!("low_depth q={q} {kind:?}"));
        }
    }
}

#[test]
fn edge_disjoint_plans_match() {
    for q in [3u64, 7] {
        let plan = AllreducePlan::edge_disjoint(q, 40, 0xD1FF).unwrap();
        for kind in COLLECTIVES {
            Case::new(plan.clone(), 400)
                .assert_identical(kind, &format!("edge_disjoint q={q} {kind:?}"));
        }
    }
}

#[test]
fn capped_runs_match() {
    // Per-router and per-node caps exercise the lazy epoch-stamped budget
    // refill against the reference's eager per-cycle memset, including the
    // budget-stall rearm path of the active set.
    let plan = AllreducePlan::low_depth(7).unwrap();
    for (caps, label) in [
        (SimConfig { max_reductions_per_router: Some(1), ..Default::default() }, "engine cap"),
        (SimConfig { max_injections_per_node: Some(1), ..Default::default() }, "inject cap"),
        (
            SimConfig {
                max_reductions_per_router: Some(2),
                max_injections_per_node: Some(1),
                ..Default::default()
            },
            "both caps",
        ),
    ] {
        let mut case = Case::new(plan.clone(), 400);
        case.cfg = caps;
        case.assert_identical(Collective::Allreduce, label);
        // The sharded pair splits the cap pressure: reduce-scatter leans
        // on the engine/injection budgets, allgather on neither (no
        // reductions) — both must still match cycle-for-cycle.
        case.assert_identical(Collective::ReduceScatter, &format!("{label} reduce_scatter"));
        case.assert_identical(Collective::Allgather, &format!("{label} allgather"));
    }
}

#[test]
fn tight_queue_configs_match() {
    // Small buffers produce heavy credit stalls (active channels with no
    // winner); a 1-flit VC serializes to round-trip rate and leans on the
    // skip path through the latency gaps.
    let plan = AllreducePlan::low_depth(5).unwrap();
    for (cfg, label) in [
        (SimConfig { vc_buffer: 1, ..Default::default() }, "vc=1"),
        (SimConfig { source_queue: 1, ..Default::default() }, "sq=1"),
        (SimConfig { link_latency: 9, vc_buffer: 3, ..Default::default() }, "latency>buffer"),
    ] {
        let mut case = Case::new(plan.clone(), 250);
        case.cfg = cfg;
        case.assert_identical(Collective::Allreduce, label);
    }
}

#[test]
fn traced_runs_match_to_the_byte() {
    // Tracing pins per-cycle stepping in the optimized engine; every
    // stall-attribution, occupancy and timeline sample must land on the
    // same cycle with the same value as the reference full scan.
    let plan = AllreducePlan::low_depth(5).unwrap();
    for (tcfg, label) in
        [(TraceConfig::counters(), "counters"), (TraceConfig::with_timeline(64), "timeline")]
    {
        for kind in COLLECTIVES {
            let mut case = Case::new(plan.clone(), 300);
            case.trace = Some(tcfg);
            case.assert_identical(kind, &format!("trace {label} {kind:?}"));
        }
    }
}

#[test]
fn traced_capped_runs_match() {
    // Budget stalls are the only tracer rows whose attribution depends on
    // the lazy refill: pin them against the reference.
    let plan = AllreducePlan::low_depth(7).unwrap();
    let mut case = Case::new(plan, 300);
    case.cfg = SimConfig { max_reductions_per_router: Some(1), ..Default::default() };
    case.trace = Some(TraceConfig::counters());
    case.assert_identical(Collective::Allreduce, "traced + engine cap");
}

#[test]
fn incomplete_runs_match() {
    // max_cycles exhaustion: the skip path must land on exactly the same
    // final cycle count as the reference's idle ticking.
    let plan = AllreducePlan::low_depth(5).unwrap();
    let mut case = Case::new(plan, 5_000);
    case.cfg = SimConfig { max_cycles: 700, ..Default::default() };
    case.assert_identical(Collective::Allreduce, "max_cycles backstop");
}

#[test]
fn faulted_runs_match() {
    let plan = AllreducePlan::low_depth(7).unwrap();
    let e = used_edge(&plan);
    let schedules: Vec<(FaultSchedule, &str)> = vec![
        (FaultSchedule::permanent_links(&[e], 50), "permanent link"),
        (
            FaultSchedule {
                events: vec![FaultEvent {
                    cycle: 50,
                    target: FaultTarget::Link(e),
                    kind: FaultKind::Down,
                    duration: Some(40),
                }],
                detection: DetectionConfig::default(),
            },
            "transient link",
        ),
        (
            FaultSchedule {
                events: vec![FaultEvent {
                    cycle: 1,
                    target: FaultTarget::Link(e),
                    kind: FaultKind::Degraded { period: 4 },
                    duration: None,
                }],
                detection: DetectionConfig::default(),
            },
            "degraded link",
        ),
        (
            FaultSchedule {
                events: vec![FaultEvent {
                    cycle: 30,
                    target: FaultTarget::Router(3),
                    kind: FaultKind::Down,
                    duration: None,
                }],
                detection: DetectionConfig::default(),
            },
            "router down",
        ),
        (
            FaultSchedule {
                events: vec![FaultEvent {
                    cycle: 40,
                    target: FaultTarget::Link(e),
                    kind: FaultKind::Down,
                    duration: Some(200),
                }],
                detection: DetectionConfig {
                    timeout: 16,
                    max_retries: 4,
                    abort_on_detection: false,
                },
            },
            "no-abort detection",
        ),
        (FaultSchedule::none(), "empty schedule"),
        (FaultSchedule::permanent_links(&[e], 1_000_000_000), "never fires"),
    ];
    for (schedule, label) in schedules {
        let mut case = Case::new(plan.clone(), 1_500);
        case.faults = Some(schedule);
        case.assert_identical(Collective::Allreduce, label);
    }
}

#[test]
fn faulted_sharded_collectives_match() {
    // The new collectives under fault schedules: a healing transient (the
    // frozen-wire arrival path), a permanent outage with detection, and a
    // dead router — for both halves of the sharded-training pair.
    let plan = AllreducePlan::low_depth(7).unwrap();
    let e = used_edge(&plan);
    let schedules: Vec<(FaultSchedule, &str)> = vec![
        (
            FaultSchedule {
                events: vec![FaultEvent {
                    cycle: 50,
                    target: FaultTarget::Link(e),
                    kind: FaultKind::Down,
                    duration: Some(40),
                }],
                detection: DetectionConfig::default(),
            },
            "transient link",
        ),
        (FaultSchedule::permanent_links(&[e], 50), "permanent link"),
        (
            FaultSchedule {
                events: vec![FaultEvent {
                    cycle: 30,
                    target: FaultTarget::Router(3),
                    kind: FaultKind::Down,
                    duration: None,
                }],
                detection: DetectionConfig::default(),
            },
            "router down",
        ),
    ];
    for (schedule, label) in schedules {
        for kind in [Collective::ReduceScatter, Collective::Allgather] {
            let mut case = Case::new(plan.clone(), 1_500);
            case.faults = Some(schedule.clone());
            case.assert_identical(kind, &format!("{label} {kind:?}"));
        }
    }
}

#[test]
fn traced_faulted_runs_match() {
    // The full stack: tracer rows, fault rows, and the fault table folded
    // into the trace must all serialize to the same bytes.
    let plan = AllreducePlan::low_depth(7).unwrap();
    let e = used_edge(&plan);
    let mut case = Case::new(plan, 1_000);
    case.trace = Some(TraceConfig::counters());
    case.faults = Some(FaultSchedule::permanent_links(&[e], 50));
    case.assert_identical(Collective::Allreduce, "traced + permanent fault");
    case.assert_identical(Collective::ReduceScatter, "traced + fault reduce_scatter");
    case.assert_identical(Collective::Allgather, "traced + fault allgather");
}

#[test]
fn constructed_plans_match_on_generic_substrates() {
    // Plans from the pluggable TreeConstruction backends drive the same
    // engines as the paper's PolarFly plans; the byte-identity contract
    // must hold off-PolarFly too (torus, star product, random graph).
    use pf_allreduce::substrates;
    use pf_allreduce::{
        Budget, GreedyPeel, KaryMultitree, StarProductDisjoint, TreeConstruction,
    };
    use pf_graph::{builders, shifted_product, Graph};

    let torus = pf_topo::torus::Torus::new(&[4, 4]).graph().clone();
    let er = substrates::erdos_renyi_connected(20, 30, 0xE5);
    let sp = shifted_product(&builders::cycle(4), &builders::complete(4));
    let star = sp.graph().clone();
    let cases: Vec<(&Graph, Box<dyn TreeConstruction>, &str)> = vec![
        (&torus, Box::new(KaryMultitree { k: 3 }), "kary torus-4x4"),
        (&er, Box::new(GreedyPeel { seed: 7 }), "greedy-peel er-n20"),
        (&star, Box::new(StarProductDisjoint::new(sp.clone(), 3)), "star-disjoint c4xk4"),
    ];
    for (g, backend, label) in cases {
        let plan = AllreducePlan::construct(g, backend.as_ref(), &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        for kind in COLLECTIVES {
            Case::new(plan.clone(), 300).assert_identical(kind, &format!("{label} {kind:?}"));
        }
    }
}

#[test]
fn constructed_plans_match_under_faults() {
    // A constructed plan with a mid-run permanent outage: detection,
    // retries and the fault table must serialize identically.
    use pf_allreduce::{Budget, KaryMultitree};
    let g = pf_topo::torus::Torus::new(&[4, 4]).graph().clone();
    let plan =
        AllreducePlan::construct(&g, &KaryMultitree { k: 3 }, &Budget::unlimited()).unwrap();
    let e = used_edge(&plan);
    let mut case = Case::new(plan, 800);
    case.trace = Some(TraceConfig::counters());
    case.faults = Some(FaultSchedule::permanent_links(&[e], 60));
    case.assert_identical(Collective::Allreduce, "constructed + traced + fault");
}

#[test]
fn batched_steady_state_matches_at_scale() {
    // Large m drives the run into a long saturated steady state, so the
    // batch replay (engine.rs `batch_step`) covers most of the simulated
    // cycles — and the deterministic sharded mode must merge back to the
    // same bytes. Three-way check: reference, optimized single-thread
    // (batched), optimized sharded.
    for q in [5u64, 7, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let m = 20_000;
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let kind = Collective::Allreduce;
        let ref_report =
            Simulator::new(&plan.graph, &emb, SimConfig::default()).run_reference(&w, kind).report;
        assert!(ref_report.completed && ref_report.mismatches == 0);
        for threads in [1usize, 2, 4, 8] {
            let cfg = SimConfig { threads, ..SimConfig::default() };
            let report =
                Simulator::new(&plan.graph, &emb, cfg).run_jobs_collective(&w, &[], kind).report;
            assert_eq!(
                report, ref_report,
                "batched saturated q={q} threads={threads}: SimReport diverged"
            );
        }
    }
}

#[test]
fn batched_contention_jobs_match_across_threads() {
    // Two tenants on disjoint tree halves (the perf-snapshot contention
    // regime): the job accounting path must be byte-deterministic across
    // thread counts, and the engine decisions must coincide with the
    // reference running the identical embedding as one plain collective.
    use crate::engine::JobBinding;
    use crate::workload::{JobSegment, ReduceKind};

    for q in [5u64, 7, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let m = 10_000u64;
        let half = (plan.trees.len() / 2).max(1);
        let idx_a: Vec<usize> = (0..half).collect();
        let idx_b: Vec<usize> = (half..plan.trees.len()).collect();
        let sub_a = plan.tree_subset(&idx_a);
        let sub_b = plan.tree_subset(&idx_b);
        let (m_a, m_b) = (m / 2, m - m / 2);
        let (split_a, split_b) = (sub_a.split(m_a), sub_b.split(m_b));
        let mut trees = sub_a.trees.clone();
        trees.extend(sub_b.trees.iter().cloned());
        let mut sizes = split_a.clone();
        sizes.extend_from_slice(&split_b);
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut off = 0u64;
        for &len in &split_a {
            offsets.push(off);
            off += len;
        }
        let mut off = m_a;
        for &len in &split_b {
            offsets.push(off);
            off += len;
        }
        let emb = MultiTreeEmbedding::with_offsets(&plan.graph, &trees, &sizes, &offsets);
        let w = Workload::concat(
            plan.graph.num_vertices(),
            &[
                JobSegment::full(m_a, ReduceKind::WrappingU64),
                JobSegment::full(m_b, ReduceKind::WrappingU64),
            ],
        );
        let bindings = [
            JobBinding { trees: 0..half, release: 0 },
            JobBinding { trees: half..trees.len(), release: 0 },
        ];
        let base = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .run_jobs_collective(&w, &bindings, Collective::Allreduce);
        assert!(base.report.completed && base.report.mismatches == 0);
        for threads in [2usize, 4, 8] {
            let cfg = SimConfig { threads, ..SimConfig::default() };
            let run = Simulator::new(&plan.graph, &emb, cfg)
                .run_jobs_collective(&w, &bindings, Collective::Allreduce);
            assert_eq!(
                run.report, base.report,
                "contention q={q} threads={threads}: SimReport diverged"
            );
            assert_eq!(
                run.jobs, base.jobs,
                "contention q={q} threads={threads}: job outcomes diverged"
            );
        }
        let ref_report = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .run_reference(&w, Collective::Allreduce)
            .report;
        assert_eq!(
            base.report, ref_report,
            "contention q={q}: jobs run diverged from reference collective"
        );
    }
}

#[test]
fn fault_transitions_break_batch_spans() {
    // A transient outage deep in the saturated steady state: by then the
    // batch replay is armed and fast-forwarding, so its window margin
    // must clip exactly at the fault's activation cycle (and again at the
    // heal) or detection stamps and frozen-subtree timing shift. Traced
    // variants pin per-cycle stepping on top of the same schedule.
    let plan = AllreducePlan::low_depth(7).unwrap();
    let e = used_edge(&plan);
    let schedule = FaultSchedule {
        events: vec![FaultEvent {
            cycle: 2_000,
            target: FaultTarget::Link(e),
            kind: FaultKind::Down,
            duration: Some(500),
        }],
        detection: DetectionConfig { timeout: 32, max_retries: 3, abort_on_detection: false },
    };
    let mut case = Case::new(plan.clone(), 20_000);
    case.faults = Some(schedule.clone());
    case.assert_identical(Collective::Allreduce, "mid-steady-state transient");
    let mut traced = Case::new(plan, 20_000);
    traced.trace = Some(TraceConfig::counters());
    traced.faults = Some(schedule);
    traced.assert_identical(Collective::Allreduce, "traced mid-steady-state transient");
}

#[test]
fn zero_length_and_tiny_vectors_match() {
    let plan = AllreducePlan::low_depth(3).unwrap();
    for m in [0u64, 1, 2, 13] {
        for kind in COLLECTIVES {
            Case::new(plan.clone(), m).assert_identical(kind, &format!("m={m} {kind:?}"));
        }
    }
}
