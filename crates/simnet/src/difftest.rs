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
//! from the per-cycle full-scan semantics — the closed form that reports
//! trees that never meet without stepping, with each of its fallbacks,
//! and the batch replay on the fabric's long, contended waves.

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

    /// The plan's embedding of an `m`-element vector.
    fn embedding(&self) -> MultiTreeEmbedding {
        MultiTreeEmbedding::new(&self.plan.graph, &self.plan.trees, &self.plan.split(self.m))
    }

    /// Runs the case through both engines and asserts byte identity.
    fn assert_identical(&self, kind: Collective, label: &str) {
        let w = Workload::new(self.plan.graph.num_vertices(), self.m);
        self.assert_identical_on(&self.embedding(), &w, kind, label);
    }

    /// [`Case::assert_identical`] on an explicit embedding and workload.
    fn assert_identical_on(
        &self,
        emb: &MultiTreeEmbedding,
        w: &Workload,
        kind: Collective,
        label: &str,
    ) {
        let opt = self.sim(emb).run_jobs_collective(w, &[], kind);
        let refr = self.sim(emb).run_reference(w, kind);

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
fn healed_routers_wake_their_engines() {
    // With deep buffers (10 flits at L = 3) and one-flit staging queues, a
    // reduce leaf drains its queue every cycle, so when its router goes
    // down it has nothing staged and nothing in flight toward it: no flit
    // wakes it when the router heals, yet it must fire on the first
    // cycle after the heal, as the reference does.
    let plan = AllreducePlan::low_depth(5).unwrap();
    let mut case = Case::new(plan, 600);
    case.cfg = SimConfig { link_latency: 3, vc_buffer: 10, source_queue: 1, ..Default::default() };
    case.faults = Some(FaultSchedule {
        events: vec![FaultEvent {
            cycle: 50,
            target: FaultTarget::Router(3),
            kind: FaultKind::Down,
            duration: Some(30),
        }],
        detection: DetectionConfig::default(),
    });
    for kind in COLLECTIVES {
        case.assert_identical(kind, &format!("transient router {kind:?}"));
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
    // cycles.
    for q in [5u64, 7, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let m = 20_000;
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let kind = Collective::Allreduce;
        let sim = || Simulator::new(&plan.graph, &emb, SimConfig::default());
        let ref_report = sim().run_reference(&w, kind).report;
        assert!(ref_report.completed && ref_report.mismatches == 0);
        let report = sim().run_jobs_collective(&w, &[], kind).report;
        assert_eq!(report, ref_report, "batched saturated q={q}: SimReport diverged");
    }
}

#[test]
fn batched_contention_jobs_match_across_threads() {
    // Two tenants on disjoint tree halves (the perf-snapshot contention
    // regime), both released at cycle 0: the job accounting path must step
    // exactly as the reference steps the identical embedding as one plain
    // collective, and each job must deliver every element it owns.
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
        let n = u64::from(plan.graph.num_vertices());
        assert!(base.jobs.iter().all(|j| j.mismatches == 0 && j.deliveries == j.elems * n));
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

#[test]
fn batch_replay_leaves_a_staged_tail_out_of_the_ring() {
    // Two copies of one tree contend on every channel with a one-flit
    // buffer, so the batch window is shorter than the source queue: some
    // flits staged when it opens are still staged when it closes. Their
    // values must stay in the queue and not wrap into the one-slot ring.
    let plan = AllreducePlan::low_depth(3).unwrap();
    let trees = [plan.trees[0].clone(), plan.trees[0].clone()];
    let emb = MultiTreeEmbedding::new(&plan.graph, &trees, &[16, 15]);
    let w = Workload::new(plan.graph.num_vertices(), 31);
    let mut case = Case::new(plan, 31);
    case.cfg = SimConfig { link_latency: 3, vc_buffer: 1, source_queue: 2, ..SimConfig::default() };
    for kind in COLLECTIVES {
        case.assert_identical_on(&emb, &w, kind, &format!("staged tail {kind:?}"));
    }
}

// -- closed form ----------------------------------------------------------
//
// Trees that never meet another live stream in time skip the cycle loop
// (`engine/closed_form.rs`). Edge-disjoint plans take that path whole and
// low-depth plans on short vectors, so these cases pin its timing and
// values against the reference on both, and pin every fallback back onto
// the stepper.

/// The edge-disjoint plans of the closed-form matrix.
fn edge_disjoint(q: u64) -> AllreducePlan {
    AllreducePlan::edge_disjoint(q, 40, 0xD1FF).unwrap()
}

/// Every collective at `m` and link latency 1 and 4 on `plan`: one
/// reference run each, and the optimized engine must reproduce its report
/// byte for byte.
fn closed_form_matrix(plan: &AllreducePlan, q: u64) {
    for m in [0u64, 1, 2, 13, 4_000] {
        for link_latency in [1u32, 4] {
            let mut case = Case::new(plan.clone(), m);
            let emb = case.embedding();
            let w = Workload::new(plan.graph.num_vertices(), m);
            case.cfg = SimConfig { link_latency, ..SimConfig::default() };
            for kind in COLLECTIVES {
                let refr = case.sim(&emb).run_reference(&w, kind).report;
                let opt = case.sim(&emb).run_jobs_collective(&w, &[], kind).report;
                assert_eq!(opt, refr, "closed form q={q} m={m} L={link_latency} {kind:?}");
            }
        }
    }
}

#[test]
fn closed_form_edge_disjoint_matches_reference() {
    for q in [3u64, 5, 7, 9, 11] {
        closed_form_matrix(&edge_disjoint(q), q);
    }
}

#[test]
#[ignore = "q = 13 reference runs are slow in debug builds; nightly --include-ignored"]
fn closed_form_edge_disjoint_matches_reference_q13() {
    closed_form_matrix(&edge_disjoint(13), 13);
}

#[test]
fn closed_form_float_and_participant_workloads_match() {
    // f64 sums must combine children in the engine's CSR order to stay
    // bit-exact; a participant set makes non-members contribute the
    // identity on a segment boundary inside a tree slice.
    use crate::workload::{JobSegment, ReduceKind};
    let plan = edge_disjoint(7);
    let n = plan.graph.num_vertices();
    let m = 3_000;
    let case = Case::new(plan, m);
    let emb = case.embedding();
    let float = Workload::new_float(n, m);
    let segmented = Workload::concat(
        n,
        &[
            JobSegment::full(1_100, ReduceKind::FloatF64),
            JobSegment {
                elems: m - 1_100,
                kind: ReduceKind::WrappingU64,
                participants: Some((0..n).filter(|v| v % 3 != 1).collect()),
            },
        ],
    );
    for kind in COLLECTIVES {
        case.assert_identical_on(&emb, &float, kind, &format!("closed form f64 {kind:?}"));
        let label = format!("closed form segments {kind:?}");
        case.assert_identical_on(&emb, &segmented, kind, &label);
    }
}

/// An edge-disjoint plan's trees plus copies of the trees in `dup`: each
/// copy shares every channel with its original, so those trees step and
/// the rest take the closed form.
fn mixed_embedding(plan: &AllreducePlan, dup: &[usize], m: u64) -> MultiTreeEmbedding {
    let mut trees = plan.trees.clone();
    trees.extend(dup.iter().map(|&t| plan.trees[t].clone()));
    let k = trees.len() as u64;
    let sizes: Vec<u64> = (0..k).map(|i| m / k + u64::from(i < m % k)).collect();
    MultiTreeEmbedding::new(&plan.graph, &trees, &sizes)
}

#[test]
fn closed_form_mixed_embeddings_match() {
    // One or two shared pairs step beside the closed-form trees, and the
    // two parts merge into the reference report.
    let plan = edge_disjoint(7);
    let m = 4_000;
    let w = Workload::new(plan.graph.num_vertices(), m);
    for dup in [&[0usize][..], &[0, 1]] {
        let emb = mixed_embedding(&plan, dup, m);
        let case = Case::new(plan.clone(), m);
        for kind in COLLECTIVES {
            case.assert_identical_on(&emb, &w, kind, &format!("mixed dup={dup:?} {kind:?}"));
        }
    }
}

#[test]
fn closed_form_jobs_with_releases_match_traced_stepping() {
    // The reference stepper has no job accounting and no releases; a
    // tracer pins every tree to the stepper and only observes, so the
    // traced run is the oracle for staggered bindings. The mixed
    // embedding splits jobs across the stepped and closed-form parts.
    use crate::engine::JobBinding;
    let plan = edge_disjoint(9);
    let m = 2_000;
    let w = Workload::new(plan.graph.num_vertices(), m);
    let plain = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(m));
    let mixed = mixed_embedding(&plan, &[0, 2], m);
    for (emb, label) in [(&plain, "edge-disjoint"), (&mixed, "mixed")] {
        let t = emb.num_trees();
        let bindings = [
            JobBinding { trees: 0..1, release: 0 },
            JobBinding { trees: 1..3, release: 37 },
            JobBinding { trees: 3..t - 1, release: 900 },
            JobBinding { trees: t - 1..t, release: 5 },
        ];
        for kind in COLLECTIVES {
            let traced = Simulator::new(&plan.graph, emb, SimConfig::default())
                .with_trace(TraceConfig::counters())
                .run_jobs_collective(&w, &bindings, kind);
            assert!(traced.report.completed && traced.report.mismatches == 0);
            let run = Simulator::new(&plan.graph, emb, SimConfig::default())
                .run_jobs_collective(&w, &bindings, kind);
            let at = format!("{label} {kind:?}");
            assert_eq!(run.report, traced.report, "{at}: report diverged");
            assert_eq!(run.jobs, traced.jobs, "{at}: job outcomes diverged");
        }
    }
}

/// Configurations the closed-form gate must refuse, on plans whose trees
/// it otherwise accepts (edge-disjoint at `m` = 2 000), each with the
/// collectives it refuses under. The low-depth plan at `m` = 71 is refused
/// on timing alone, and only under allreduce: its trees share channels
/// only between a reduce and a broadcast stream, and from a slice of 11
/// elements those windows overlap. Every case must keep matching the
/// reference under every collective.
fn closed_form_fallbacks() -> Vec<(Case, String, &'static [Collective])> {
    let plan = edge_disjoint(5);
    let m = 2_000;
    let base = || Case::new(plan.clone(), m);
    let mut out: Vec<(Case, String, &'static [Collective])> = Vec::new();
    for link_latency in [4u32, 9] {
        for vc_buffer in [1usize, link_latency as usize - 1] {
            let mut c = base();
            c.cfg = SimConfig { link_latency, vc_buffer, ..SimConfig::default() };
            out.push((c, format!("L={link_latency} vc={vc_buffer}"), &COLLECTIVES));
        }
    }
    let mut c = base();
    c.trace = Some(TraceConfig::counters());
    out.push((c, "tracer".into(), &COLLECTIVES));
    let mut c = base();
    c.faults = Some(FaultSchedule::none());
    out.push((c, "quiet fault layer".into(), &COLLECTIVES));
    let mut c = base();
    c.cfg.max_reductions_per_router = Some(2);
    out.push((c, "engine cap".into(), &COLLECTIVES));
    let mut c = base();
    c.cfg.max_injections_per_node = Some(2);
    out.push((c, "injection cap".into(), &COLLECTIVES));
    let mut c = base();
    // Every slice holds over 600 elements, so no tree completes by 300.
    c.cfg.max_cycles = 300;
    out.push((c, "max_cycles below completion".into(), &COLLECTIVES));
    out.push((
        Case::new(AllreducePlan::low_depth(7).unwrap(), 71),
        "low-depth windows overlap".into(),
        &[Collective::Allreduce],
    ));
    out
}

/// Plans the gate takes whole that the contention-free gate refused, each
/// with its `m`: an unbalanced low-depth tree (its shorter children stall
/// on credits, which never delays their parent), and the whole low-depth
/// plan while its slices are short enough that no two windows on a
/// channel overlap — up to 10 elements a tree at q = 7.
fn closed_form_never_meet() -> Vec<(Case, String)> {
    let low_depth = AllreducePlan::low_depth(7).unwrap();
    vec![
        (Case::new(low_depth.tree_subset(&[0]), 2_000), "unbalanced low-depth tree".into()),
        (Case::new(low_depth.clone(), 40), "low-depth m=40".into()),
        (Case::new(low_depth, 70), "low-depth m=70".into()),
    ]
}

#[test]
fn closed_form_fallbacks_match() {
    for (case, label, _) in closed_form_fallbacks() {
        for kind in COLLECTIVES {
            case.assert_identical(kind, &format!("fallback {label} {kind:?}"));
        }
    }
    for (case, label) in closed_form_never_meet() {
        for kind in COLLECTIVES {
            case.assert_identical(kind, &format!("taken {label} {kind:?}"));
        }
    }
}

/// The plans a fabric runs at radix `q`: the healthy low-depth plan and
/// its `rebuild_degraded` repairs after one and after two link faults on
/// edges it uses.
fn fabric_plans(q: u64) -> Vec<(AllreducePlan, String)> {
    use pf_allreduce::{rebuild_degraded, FaultSet};
    let plan = AllreducePlan::low_depth(q).unwrap();
    let used: Vec<u32> = (0..plan.edge_congestion.len() as u32)
        .filter(|&e| plan.edge_congestion[e as usize] > 0)
        .collect();
    let (a, b) = (used[0], used[used.len() / 2]);
    let degraded = |edges: Vec<u32>| {
        let label = format!("low_depth({q}) without links {edges:?}");
        (rebuild_degraded(&plan, &FaultSet::links(edges)).unwrap().to_plan(q), label)
    };
    vec![degraded(vec![a]), degraded(vec![a, b]), (plan.clone(), format!("low_depth({q})"))]
}

/// Every collective of every [`fabric_plans`] shape at radix `q` and each
/// length of `ms`, against the reference.
fn fabric_shapes_match_reference(q: u64, ms: impl IntoIterator<Item = u64> + Clone) {
    for (plan, label) in fabric_plans(q) {
        let n = plan.graph.num_vertices();
        for m in ms.clone() {
            let case = Case::new(plan.clone(), m);
            let emb = case.embedding();
            let w = Workload::new(n, m);
            for kind in COLLECTIVES {
                let refr = case.sim(&emb).run_reference(&w, kind).report;
                let opt = case.sim(&emb).run_jobs_collective(&w, &[], kind).report;
                assert_eq!(opt, refr, "{label} m={m} {kind:?}");
            }
        }
    }
}

#[test]
fn closed_form_fabric_shapes_match_reference() {
    // Every fabric wave runs one of these plans on a short vector, where
    // the healthy plan takes the closed form whole and a degraded plan
    // often steps (a repair may put two reduce streams on one channel). The
    // closed form and the stepper must both reproduce the reference at
    // every size the short-job stream draws.
    for q in [5u64, 7] {
        fabric_shapes_match_reference(q, 16u64..=64);
    }
}

#[test]
fn closed_form_stalled_subtrees_match_reference() {
    // Longer links and tighter buffers make shorter children wait on
    // credits, which stretches their streams' windows (the ψ bound of
    // `engine/closed_form.rs`) into cycles another tree may use. A repair
    // reshapes trees, so degraded plans meet this most: the gate must
    // widen each window by exactly the stall, or a delayed flit meets a
    // neighbour's stream unseen.
    for q in [3u64, 5] {
        for (plan, label) in fabric_plans(q) {
            let n = plan.graph.num_vertices();
            for m in [8u64, 16, 27, 42] {
                let mut case = Case::new(plan.clone(), m);
                let emb = case.embedding();
                let w = Workload::new(n, m);
                for link_latency in [3u32, 5, 7] {
                    for vc_buffer in [link_latency as usize, link_latency as usize + 2] {
                        case.cfg = SimConfig { link_latency, vc_buffer, ..SimConfig::default() };
                        for kind in COLLECTIVES {
                            let at = format!("{label} m={m} L={link_latency} vc={vc_buffer}");
                            case.assert_identical_on(&emb, &w, kind, &format!("{at} {kind:?}"));
                        }
                    }
                }
            }
        }
    }
}

/// A multi-tenant wave of `plan` at each length of `ms`: `bindings` under
/// every collective. Traced stepping is the oracle, as the reference has no
/// releases.
fn wave_matches_traced_stepping(
    plan: &AllreducePlan,
    label: &str,
    bindings: &[crate::engine::JobBinding],
    ms: &[u64],
) {
    let n = plan.graph.num_vertices();
    for &m in ms {
        let emb = Case::new(plan.clone(), m).embedding();
        let w = Workload::new(n, m);
        for kind in COLLECTIVES {
            let traced = Simulator::new(&plan.graph, &emb, SimConfig::default())
                .with_trace(TraceConfig::counters())
                .run_jobs_collective(&w, bindings, kind);
            assert!(traced.report.completed && traced.report.mismatches == 0, "{label} m={m}");
            let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
                .run_jobs_collective(&w, bindings, kind);
            let at = format!("{label} m={m} {kind:?}");
            assert_eq!(run.report, traced.report, "{at}: report diverged");
            assert_eq!(run.jobs, traced.jobs, "{at}: job outcomes diverged");
        }
    }
}

#[test]
fn closed_form_fabric_shapes_with_releases_match_traced_stepping() {
    // A multi-tenant wave: three jobs on consecutive tree ranges, released
    // at staggered cycles, so the windows of different jobs shift against
    // each other.
    use crate::engine::JobBinding;
    for q in [5u64, 7] {
        for (plan, label) in fabric_plans(q) {
            let (t, mid) = (plan.trees.len(), (plan.trees.len() / 2).max(2));
            assert!(t > mid, "{label}: {t} trees");
            let bindings = [
                JobBinding { trees: 0..1, release: 0 },
                JobBinding { trees: 1..mid, release: 7 },
                JobBinding { trees: mid..t, release: 23 },
            ];
            wave_matches_traced_stepping(&plan, &label, &bindings, &[16, 40, 64]);
        }
    }
}

#[test]
fn closed_form_gate_accepts_edge_disjoint_and_refuses_fallbacks() {
    // Every live tree of every edge-disjoint plan qualifies under the
    // default config: no two of its trees share a channel.
    for q in [3u64, 5, 7, 9, 11, 13] {
        let plan = edge_disjoint(q);
        for m in [1u64, 2, 13, 4_000] {
            let case = Case::new(plan.clone(), m);
            let emb = case.embedding();
            for kind in COLLECTIVES {
                let cf = case.sim(&emb).closed_form_trees(kind, &[]);
                for (ti, t) in emb.slices().iter().enumerate() {
                    assert_eq!(cf[ti], t.len > 0, "q={q} m={m} {kind:?} tree {ti}");
                }
            }
        }
    }
    for (case, label) in closed_form_never_meet() {
        let emb = case.embedding();
        for kind in COLLECTIVES {
            let cf = case.sim(&emb).closed_form_trees(kind, &[]);
            assert!(cf.iter().all(|&t| t), "{label} {kind:?}: {cf:?}");
        }
    }
    for (case, label, refused) in closed_form_fallbacks() {
        let emb = case.embedding();
        for kind in COLLECTIVES {
            let cf = case.sim(&emb).closed_form_trees(kind, &[]);
            assert_eq!(!cf.contains(&true), refused.contains(&kind), "{label} {kind:?}");
        }
    }
}

#[test]
fn closed_form_credit_condition_is_exact() {
    // Path 1 - 0 - 2 - 3 rooted at 0: leaf 1 sits two levels below the
    // root's height, so its reduce stream would hold min(len, 2·L) flits.
    // Below that it stalls on credits, which never delays the root while
    // vc_buffer ≥ L: the credit for element e returns when the root fires
    // e − vc_buffer, at least L cycles before the root needs element e.
    // The gate takes the tree down to vc_buffer = L, or any buffer that
    // holds the whole slice, and refuses it one flit below; both sides
    // match the reference, peak occupancy included.
    use pf_graph::{Graph, RootedTree};
    let mut g = Graph::new(4);
    for (u, v) in [(0, 1), (0, 2), (2, 3)] {
        g.add_edge(u, v);
    }
    let tree = RootedTree::from_path(&[1, 0, 2, 3], 1).unwrap();
    let link_latency = 4u32;
    for (m, vc_buffer, takes) in [
        (4_000u64, 8usize, true),
        (4_000, 7, true),
        (4_000, 4, true),
        (4_000, 3, false),
        (7, 7, true),
        (3, 3, true),
        (4, 3, false),
    ] {
        let emb = MultiTreeEmbedding::new(&g, std::slice::from_ref(&tree), &[m]);
        let w = Workload::new(4, m);
        let cfg = SimConfig { link_latency, vc_buffer, ..SimConfig::default() };
        for kind in COLLECTIVES {
            let sim = || Simulator::new(&g, &emb, cfg);
            let label = format!("m={m} vc={vc_buffer} {kind:?}");
            assert_eq!(sim().closed_form_trees(kind, &[]), [takes], "{label}");
            let opt = sim().run_jobs_collective(&w, &[], kind).report;
            assert_eq!(opt, sim().run_reference(&w, kind).report, "{label}");
        }
    }
}

#[test]
fn closed_form_overlap_condition_is_exact() {
    // Two paths on K4 share one directed channel, 1 -> 0, under reduce:
    // tree A (0-1-2-3 rooted at 0) sends on it from height 2, tree B
    // (2-0-1-3 rooted at 2) from height 1. Both are paths, so each stream
    // holds a flit exactly within [s + h·L, s + len − 1 + h·L]. The gate
    // takes both trees when the windows touch and refuses both when they
    // overlap by one cycle, where the two flits meet at the arbiter.
    use crate::engine::JobBinding;
    use pf_graph::{builders, RootedTree};
    let g = builders::complete(4);
    let a = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
    let b = RootedTree::from_path(&[2, 0, 1, 3], 0).unwrap();
    let trees = [a, b];
    let cfg = SimConfig::default();
    let l = u64::from(cfg.link_latency);
    let kind = Collective::Reduce;
    // Lengths, against the reference: A holds the channel from 1 + 2L,
    // B up to 1 + len_b − 1 + L.
    let len_a = 20u64;
    for (len_b, takes) in [(l, true), (l + 1, false)] {
        let emb = MultiTreeEmbedding::new(&g, &trees, &[len_a, len_b]);
        let w = Workload::new(4, len_a + len_b);
        let sim = || Simulator::new(&g, &emb, cfg);
        let label = format!("len_b={len_b}");
        assert_eq!(sim().closed_form_trees(kind, &[]), [takes, takes], "{label}");
        let opt = sim().run_jobs_collective(&w, &[], kind).report;
        assert_eq!(opt, sim().run_reference(&w, kind).report, "{label}");
    }
    // Releases, against traced stepping (the reference has none): B
    // released at r holds the channel from r + L, A up to len_a + 2L.
    let len_b = 20u64;
    let emb = MultiTreeEmbedding::new(&g, &trees, &[len_a, len_b]);
    let w = Workload::new(4, len_a + len_b);
    for (release, takes) in [(len_a + l + 1, true), (len_a + l, false)] {
        let bindings =
            [JobBinding { trees: 0..1, release: 0 }, JobBinding { trees: 1..2, release }];
        let label = format!("release={release}");
        let sim = || Simulator::new(&g, &emb, cfg);
        assert_eq!(sim().closed_form_trees(kind, &bindings), [takes, takes], "{label}");
        let run = sim().run_jobs_collective(&w, &bindings, kind);
        let traced =
            sim().with_trace(TraceConfig::counters()).run_jobs_collective(&w, &bindings, kind);
        assert_eq!(run.report, traced.report, "{label}");
        assert_eq!(run.jobs, traced.jobs, "{label}");
    }
}

#[test]
fn closed_form_cycle_cap_is_exact() {
    // A tree takes the closed form iff its last delivery fits inside
    // max_cycles: at the run's own length every tree does; one cycle less
    // refuses exactly the trees finishing last, which then step to the
    // same incomplete report as the reference.
    let case = Case::new(edge_disjoint(5), 4_000);
    let emb = case.embedding();
    let w = Workload::new(case.plan.graph.num_vertices(), case.m);
    for kind in COLLECTIVES {
        let full = Simulator::new(&case.plan.graph, &emb, SimConfig::default())
            .run_reference(&w, kind)
            .report;
        for max_cycles in [full.cycles, full.cycles - 1] {
            let mut capped = Case::new(case.plan.clone(), case.m);
            capped.cfg.max_cycles = max_cycles;
            let cf = capped.sim(&emb).closed_form_trees(kind, &[]);
            for (ti, &done) in full.tree_completion.iter().enumerate() {
                let at = format!("{kind:?} cap {max_cycles} tree {ti}");
                assert_eq!(cf[ti], done <= max_cycles, "{at}");
            }
            capped.assert_identical_on(&emb, &w, kind, &format!("{kind:?} cap {max_cycles}"));
        }
    }
}

#[test]
fn closed_form_window_of_a_stalled_parents_child_is_exact() {
    // Tree A on K6: a longest path 0 <- 1 <- 2 <- 3 (H = 3) and a short
    // branch 0 <- 4 <- 5. With L = vc_buffer = 4, a one-flit staging queue
    // and 20 elements, node 4 stalls on credits (slack 2·L > vc_buffer),
    // so it fires late, and leaf 5 then waits on credits too: its stream
    // on 5 -> 4 holds flits until s + len − 1 + ψ(5) = 24, not only until
    // the parent's nominal deadline s + len − 1 + (h(4) − 1)·L = 20.
    // Tree B's leaf-side stream on the same channel opens at its release
    // plus L. The gate must refuse B released at 20 (opening at 24) and
    // take both trees at 21; traced stepping is the oracle.
    use crate::engine::JobBinding;
    use pf_graph::{builders, RootedTree};
    let tree = |root: u32, edges: &[(u32, u32)]| {
        let mut parent = vec![None; 6];
        for &(c, v) in edges {
            parent[c as usize] = Some(v);
        }
        RootedTree::from_parents(root, parent).unwrap()
    };
    let a = tree(0, &[(1, 0), (2, 1), (3, 2), (4, 0), (5, 4)]);
    let b = tree(4, &[(5, 4), (0, 4), (1, 5), (2, 5), (3, 0)]);
    let g = builders::complete(6);
    let cfg = SimConfig { link_latency: 4, vc_buffer: 4, source_queue: 1, ..SimConfig::default() };
    let emb = MultiTreeEmbedding::new(&g, &[a, b], &[20, 6]);
    let w = Workload::new(6, 26);
    let kind = Collective::Reduce;
    for (release, takes) in [(20u64, false), (21, true)] {
        let bindings =
            [JobBinding { trees: 0..1, release: 0 }, JobBinding { trees: 1..2, release }];
        let sim = || Simulator::new(&g, &emb, cfg);
        let label = format!("release={release}");
        assert_eq!(sim().closed_form_trees(kind, &bindings), [takes, takes], "{label}");
        let run = sim().run_jobs_collective(&w, &bindings, kind);
        let traced =
            sim().with_trace(TraceConfig::counters()).run_jobs_collective(&w, &bindings, kind);
        assert_eq!(run.report, traced.report, "{label}");
        assert_eq!(run.jobs, traced.jobs, "{label}");
    }
}

// -- batch replay on the fabric's bulk shapes --------------------------------
//
// Long fabric jobs saturate the plans' shared channels, so their runs
// step until the batch detector (engine.rs `batch_step`) finds the shape's
// period and replays it. A repair reshapes trees, and on a degraded plan
// the fill transient outlasts one period: the detector retakes its
// snapshot at doubling windows (Brent's cycle detection) to lock on once
// the transient ends. These are the shapes the replay now covers most.

/// Lengths of the bulk cases: both ends of the fabric's 1 024..4 096
/// element job stream and one length between.
const BULK_MS: [u64; 3] = [1_024, 2_500, 4_096];

#[test]
fn batched_fabric_shapes_match_reference() {
    for q in [5u64, 7] {
        fabric_shapes_match_reference(q, BULK_MS);
    }
}

/// Two- and three-job waves on the degraded plans at radix `q`, each later
/// job released while the earlier ones stream in steady state: a replay
/// window must end before every release, and the detector must lock on
/// again after the new job's fill.
fn bulk_waves_match_traced_stepping(q: u64, ms: &[u64]) {
    use crate::engine::JobBinding;
    for (plan, label) in fabric_plans(q).into_iter().take(2) {
        let (t, mid) = (plan.trees.len(), (plan.trees.len() / 2).max(2));
        assert!(t > mid, "{label}: {t} trees");
        let two = [
            JobBinding { trees: 0..mid, release: 0 },
            JobBinding { trees: mid..t, release: 300 },
        ];
        let three = [
            JobBinding { trees: 0..1, release: 0 },
            JobBinding { trees: 1..mid, release: 150 },
            JobBinding { trees: mid..t, release: 700 },
        ];
        wave_matches_traced_stepping(&plan, &format!("{label} two jobs"), &two, ms);
        wave_matches_traced_stepping(&plan, &format!("{label} three jobs"), &three, ms);
    }
}

#[test]
fn batched_fabric_waves_with_releases_match_traced_stepping() {
    for q in [5u64, 7] {
        bulk_waves_match_traced_stepping(q, &BULK_MS[..1]);
    }
}

#[test]
#[ignore = "nightly: the bulk matrix at every length and q = 9, about two minutes in debug"]
fn batched_fabric_shapes_match_at_every_bulk_length() {
    for q in [3u64, 5, 7, 9] {
        fabric_shapes_match_reference(q, (1_000u64..=4_096).step_by(387));
    }
    for q in [5u64, 7, 9] {
        bulk_waves_match_traced_stepping(q, &BULK_MS);
    }
}

#[test]
fn batch_detector_locks_on_after_the_fill() {
    // Stepped cycles of bulk allreduces, with their cycle counts pinned.
    // A detector comparing against its first snapshot only steps 1 194 of
    // the first case's 1 396 cycles and all 692 of the second's. What the
    // doubling windows still step is the fill before the detector arms and
    // the drain after the last whole period: 120 and 104 cycles.
    let steps = |plan: &AllreducePlan, m: u64| {
        let emb = Case::new(plan.clone(), m).embedding();
        let w = Workload::new(plan.graph.num_vertices(), m);
        let (report, stepped) = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .run_counting_steps(&w, Collective::Allreduce);
        assert!(report.completed && report.mismatches == 0);
        (report.cycles, stepped)
    };
    let (plan, label) = fabric_plans(7).swap_remove(0);
    let (cycles, stepped) = steps(&plan, 4_096);
    assert_eq!(cycles, 1_396, "{label}");
    assert!(stepped * 10 <= cycles, "{label}: stepped {stepped} of {cycles} cycles");
    let (plan, label) = fabric_plans(13).swap_remove(0);
    let (cycles, stepped) = steps(&plan, 4_000);
    assert_eq!(cycles, 692, "{label}");
    assert!(stepped * 5 <= cycles, "{label}: stepped {stepped} of {cycles} cycles");
    // The healthy plan's first snapshot already recurs; it steps 68.
    let (cycles, stepped) = steps(&AllreducePlan::low_depth(7).unwrap(), 4_096);
    assert_eq!(cycles, 1_184);
    assert!(stepped <= 68, "low_depth(7): stepped {stepped} of {cycles} cycles");
}

/// Elements whose expectation the mismatch tests perturb: a stride
/// through the vector, the edges of the value pass's first block and the
/// last element.
fn perturbed_elements(m: u64) -> Vec<u64> {
    let mut es: Vec<u64> = (0..m).step_by(97).chain([63, 64, m - 1]).filter(|&e| e < m).collect();
    es.sort_unstable();
    es.dedup();
    es
}

/// Mismatches one perturbed expectation costs a collective on `n` nodes.
/// Every sink of an allreduce checks the reduction, and only the root of a
/// reduce or reduce-scatter does. A broadcast checks against the root's
/// input, and an allgather's root sources the expectation itself, so
/// neither counts one.
fn checks_of_expected(kind: Collective, n: u32) -> u64 {
    match kind {
        Collective::Allreduce => u64::from(n),
        Collective::Reduce | Collective::ReduceScatter => 1,
        Collective::Broadcast | Collective::Allgather => 0,
    }
}

/// The mismatch tests' workloads over `n` nodes and `m` elements, each
/// with the expectations of `elems` perturbed: `u64`, `f64`, and an `f64`
/// segment beside a `u64` one that a third of the nodes sit out.
fn perturbed_workloads(n: u32, m: u64, elems: &[u64]) -> Vec<(&'static str, Workload)> {
    use crate::workload::{JobSegment, ReduceKind};
    let subset = JobSegment {
        elems: m - m / 3,
        kind: ReduceKind::WrappingU64,
        participants: Some((0..n).filter(|v| v % 3 != 1).collect()),
    };
    let segments = Workload::concat(n, &[JobSegment::full(m / 3, ReduceKind::FloatF64), subset]);
    let mut out = vec![
        ("u64", Workload::new(n, m)),
        ("f64", Workload::new_float(n, m)),
        ("segments", segments),
    ];
    for (_, w) in &mut out {
        for &e in elems {
            w.perturb_expected(e);
        }
    }
    out
}

#[test]
fn fast_paths_count_perturbed_expectations() {
    // No other test produces a mismatch, so each of these mutants passed
    // them all: the closed form never adding `validations` to a tree's
    // count; the batch replay dropping its root-fire check, or charging a
    // relay's run nothing instead of `bad_before[hi] - bad_before[lo]`.
    // The healthy low-depth plan takes the closed form under the one-phase
    // collectives and the batch replay under allreduce; the degraded plan
    // steps and replays more of them.
    /// How each case must have run.
    #[derive(Clone, Copy, PartialEq)]
    enum Path {
        /// Every tree in closed form.
        ClosedForm,
        /// Allreduce steps at most a fifth of its cycles.
        BatchReplay,
        /// Every cycle stepped.
        Traced,
    }
    let low_depth = AllreducePlan::low_depth(7).unwrap();
    let (degraded, _) = fabric_plans(7).swap_remove(0);
    let cases = [
        ("closed form", Path::ClosedForm, edge_disjoint(7), 2_000),
        ("batch replay", Path::BatchReplay, low_depth.clone(), 4_096),
        ("degraded batch replay", Path::BatchReplay, degraded, 4_096),
        ("traced", Path::Traced, low_depth, 1_024),
    ];
    for (name, path, plan, m) in cases {
        let n = plan.graph.num_vertices();
        let mut case = Case::new(plan, m);
        case.trace = (path == Path::Traced).then(TraceConfig::counters);
        let emb = case.embedding();
        let elems = perturbed_elements(m);
        for (label, w) in perturbed_workloads(n, m, &elems) {
            for kind in COLLECTIVES {
                let at = format!("{name} {label} {kind:?}");
                case.assert_identical_on(&emb, &w, kind, &at);
                let (report, stepped) = case.sim(&emb).run_counting_steps(&w, kind);
                let want = checks_of_expected(kind, n) * elems.len() as u64;
                assert_eq!(report.mismatches, want, "{at}");
                match path {
                    Path::ClosedForm => {
                        assert!(case.sim(&emb).closed_form_trees(kind, &[]).iter().all(|&c| c));
                    }
                    Path::BatchReplay if kind == Collective::Allreduce => {
                        assert!(stepped * 5 <= report.cycles, "{at}: stepped {stepped}");
                    }
                    Path::BatchReplay => {}
                    Path::Traced => assert_eq!(stepped, report.cycles, "{at}"),
                }
            }
        }
    }
}

#[test]
fn job_mismatches_match_traced_stepping() {
    // Per-job counts, where the reference stepper has none: the untraced
    // run takes the closed form (edge-disjoint) or the batch replay
    // (low-depth allreduce), the traced run steps every cycle. Each job
    // counts the perturbed elements of its own trees, n per element under
    // allreduce. Catches either fast path skipping `job_mismatches`.
    use crate::engine::JobBinding;
    for (plan, m) in [(edge_disjoint(7), 2_000), (AllreducePlan::low_depth(7).unwrap(), 4_096)] {
        let n = plan.graph.num_vertices();
        let t = plan.trees.len();
        let bindings = [
            JobBinding { trees: 0..t / 2, release: 0 },
            JobBinding { trees: t / 2..t, release: 0 },
        ];
        let emb = Case::new(plan.clone(), m).embedding();
        let elems = perturbed_elements(m);
        for (label, w) in perturbed_workloads(n, m, &elems) {
            for kind in COLLECTIVES {
                let traced = Simulator::new(&plan.graph, &emb, SimConfig::default())
                    .with_trace(TraceConfig::counters())
                    .run_jobs_collective(&w, &bindings, kind);
                let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
                    .run_jobs_collective(&w, &bindings, kind);
                let at = format!("{} {label} {kind:?}", plan.solution.label());
                assert_eq!(run.report, traced.report, "{at}: report diverged");
                assert_eq!(run.jobs, traced.jobs, "{at}: job outcomes diverged");
                for (b, job) in bindings.iter().zip(&run.jobs) {
                    let (first, last) = (b.trees.start, b.trees.end - 1);
                    let own = emb.slices()[first].offset..emb.slices()[last].offset
                        + emb.slices()[last].len;
                    let hit = elems.iter().filter(|e| own.contains(e)).count() as u64;
                    assert_eq!(job.mismatches, checks_of_expected(kind, n) * hit, "{at} {b:?}");
                }
            }
        }
    }
}

mod closed_form_props {
    use super::*;
    use pf_graph::{builders, RootedTree};
    use proptest::prelude::*;

    /// A random recursive tree on `n` vertices, relabeled by `shift` so the
    /// root is not always vertex 0.
    fn random_tree(n: u32, picks: &[u32], shift: u32) -> RootedTree {
        let label = |v: u32| (v + shift) % n;
        let mut parent = vec![None; n as usize];
        for v in 1..n {
            parent[label(v) as usize] = Some(label(picks[v as usize - 1] % v));
        }
        RootedTree::from_parents(label(0), parent).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One to three random trees on a complete graph. Random shapes
        /// and roots make sibling heights differ, so shorter children stall
        /// on credits as L, the buffer and the slice lengths vary; further
        /// trees share some channels with the first, and their windows on
        /// them overlap or not. Long contended slices reach a steady state
        /// the batch replay covers. Whichever path the gate picks, the
        /// report must be the reference's. The gate ignores the source
        /// queue: a flit staged in a cycle leaves in it.
        #[test]
        fn random_trees_match_the_reference_on_both_sides_of_the_gate(
            n in 1u32..12,
            picks in prop::collection::vec(any::<u32>(), 33),
            shifts in prop::collection::vec(0u32..12, 3),
            extra in 0usize..3,
            link_latency in 1u32..6,
            vc_buffer in 1usize..16,
            source_queue in 1usize..3,
            lens in (1u64..1_500, 0u64..1_500, 0u64..1_500),
            kind in prop::sample::select(COLLECTIVES.to_vec()),
        ) {
            let lens = [lens.0, lens.1, lens.2];
            let trees: Vec<RootedTree> = (0..=extra)
                .map(|i| random_tree(n, &picks[11 * i..11 * (i + 1)], shifts[i]))
                .collect();
            let sizes = &lens[..=extra];
            let g = builders::complete(n);
            let emb = MultiTreeEmbedding::new(&g, &trees, sizes);
            let w = Workload::new(n, sizes.iter().sum());
            let cfg = SimConfig { link_latency, vc_buffer, source_queue, ..SimConfig::default() };
            let opt = Simulator::new(&g, &emb, cfg).run_jobs_collective(&w, &[], kind).report;
            let refr = Simulator::new(&g, &emb, cfg).run_reference(&w, kind).report;
            prop_assert_eq!(opt, refr);
        }
    }
}

mod segmented_props {
    use super::*;
    use crate::workload::{JobSegment, ReduceKind};
    use proptest::prelude::*;

    /// One random workload segment: length, operator, and an optional
    /// participant subset (non-participants contribute the identity).
    fn segment(n: u32) -> impl Strategy<Value = JobSegment> {
        (
            1u64..2_000,
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

    /// The low-depth plan at `q` over one to two random segments, run
    /// through both engines under `kind` (traced when `trace` is set).
    fn segmented_matches(q: u64, segs: &[JobSegment], kind: Collective, trace: bool) {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let w = Workload::concat(plan.graph.num_vertices(), segs);
        let mut case = Case::new(plan, segs.iter().map(|s| s.elems).sum());
        case.trace = trace.then(TraceConfig::counters);
        let label = format!("segmented q={q} {kind:?} {segs:?}");
        case.assert_identical_on(&case.embedding(), &w, kind, &label);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random segmented workloads (u64 and f64 segments, participant
        /// subsets) through every collective: the report must be the
        /// reference's, whichever trees take the closed form.
        #[test]
        fn segmented_workloads_match_the_reference(
            q in prop::sample::select(vec![5u64, 7, 11]),
            segs in prop::collection::vec(segment(24), 1..3),
            kind in prop::sample::select(COLLECTIVES.to_vec()),
        ) {
            segmented_matches(q, &segs, kind, false);
        }

        /// The same workloads traced: the trace's JSON bytes, every
        /// per-cycle row included, must be the reference's.
        #[test]
        fn segmented_workloads_match_the_reference_trace_bytes(
            q in prop::sample::select(vec![5u64, 7]),
            segs in prop::collection::vec(segment(24), 1..3),
            kind in prop::sample::select(COLLECTIVES.to_vec()),
        ) {
            segmented_matches(q, &segs, kind, true);
        }
    }
}
