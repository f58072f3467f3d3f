//! Property tests for the fault-injection layer.
//!
//! The tentpole invariants, mirroring `trace_props.rs`:
//!
//! 1. **Zero perturbation** — a fault layer with nothing to inject (empty
//!    schedule, or events that never fire) yields a byte-identical
//!    `SimReport` to the plain engine, for every collective and
//!    configuration.
//! 2. **Seed reproducibility** — the same schedule produces an identical
//!    `SimReport`, `FaultReport`, and trace JSON across independent runs.
//! 3. **Transients only delay** — any outage shorter than the detection
//!    horizon heals: the run completes with zero mismatches, at least as
//!    many cycles as the fault-free run.

use pf_simnet::engine::Collective;
use pf_simnet::faults::{FaultEvent, FaultSchedule, FaultTarget};
use pf_simnet::{MultiTreeEmbedding, SimConfig, Simulator, TraceConfig, Workload};
use proptest::prelude::*;

use pf_graph::{Graph, RootedTree};

fn cycle_graph(n: u32) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n);
    }
    g
}

/// Two overlapping path trees on a cycle graph — enough structure for
/// congestion, arbitration, and multi-stream channels.
fn build(n: u32, r1: u32, r2: u32, m: u64) -> (Graph, MultiTreeEmbedding, Workload) {
    let g = cycle_graph(n);
    let path: Vec<u32> = (0..n).collect();
    let t1 = RootedTree::from_path(&path, r1 as usize).unwrap();
    let t2 = RootedTree::from_path(&path, r2 as usize).unwrap();
    let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &[m / 2, m - m / 2]);
    let w = Workload::new(n, m);
    (g, emb, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With zero faults injected, the report is byte-identical to the
    /// pre-fault engine (the ISSUE's acceptance property). Covers both the
    /// empty schedule and a schedule whose events never activate.
    #[test]
    fn quiet_fault_layer_never_perturbs_the_simulation(
        n in 4u32..9,
        roots in (0u32..9, 0u32..9),
        m in 0u64..260,
        latency in 1u32..5,
        vc_buffer in 1usize..7,
        kind in prop::sample::select(Collective::ALL.to_vec()),
        never in any::<bool>(),
    ) {
        let (r1, r2) = (roots.0 % n, roots.1 % n);
        let (g, emb, w) = build(n, r1, r2, m);
        let cfg = SimConfig { link_latency: latency, vc_buffer, ..Default::default() };

        let plain = Simulator::new(&g, &emb, cfg).run_jobs_collective(&w, &[], kind).report;
        let schedule = if never {
            // Real events scheduled far past any completion cycle.
            FaultSchedule::permanent_links(&[0, g.num_edges() - 1], u64::MAX / 2)
        } else {
            FaultSchedule::none()
        };
        let faulted = Simulator::new(&g, &emb, cfg)
            .with_faults(&g, schedule)
            .run_jobs_collective(&w, &[], kind);

        prop_assert_eq!(&plain, &faulted.report);
        prop_assert_eq!(faulted.faults.injected, 0);
        prop_assert!(faulted.faults.records.is_empty());
        prop_assert!(!faulted.faults.aborted);
    }

    /// Same seedable schedule, two runs: identical report, fault report,
    /// and trace JSON bytes.
    #[test]
    fn faulted_runs_are_reproducible(
        n in 4u32..9,
        roots in (0u32..9, 0u32..9),
        m in 40u64..300,
        edge_pick in 0u32..100,
        at in 1u64..120,
        transient in any::<bool>(),
        dur in 10u64..200,
    ) {
        let duration = transient.then_some(dur);
        let (r1, r2) = (roots.0 % n, roots.1 % n);
        let (g, emb, w) = build(n, r1, r2, m);
        let cfg = SimConfig::default();
        let schedule = FaultSchedule {
            events: vec![FaultEvent {
                cycle: at,
                target: FaultTarget::Link(edge_pick % g.num_edges()),
                duration,
            }],
            abort_on_detection: true,
        };

        let run = |schedule: FaultSchedule| {
            Simulator::new(&g, &emb, cfg)
                .with_trace(TraceConfig::with_timeline(64))
                .with_faults(&g, schedule)
                .run_jobs_collective(&w, &[], Collective::Allreduce)
        };
        let a = run(schedule.clone());
        let b = run(schedule);

        prop_assert_eq!(&a.report, &b.report);
        prop_assert_eq!(&a.faults, &b.faults);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        prop_assert_eq!(ta.to_json().into_bytes(), tb.to_json().into_bytes());
    }

    /// A transient outage strictly shorter than one detection timeout can
    /// only delay the collective: it completes, correctly, in at least the
    /// fault-free cycle count, and nothing is declared dead.
    #[test]
    fn short_transients_only_delay(
        n in 4u32..9,
        roots in (0u32..9, 0u32..9),
        m in 40u64..300,
        edge_pick in 0u32..100,
        at in 1u64..200,
        duration in 1u64..30,
    ) {
        let (r1, r2) = (roots.0 % n, roots.1 % n);
        let (g, emb, w) = build(n, r1, r2, m);
        let cfg = SimConfig::default();
        let plain = Simulator::new(&g, &emb, cfg).run(&w);
        let schedule = FaultSchedule {
            events: vec![FaultEvent {
                cycle: at,
                target: FaultTarget::Link(edge_pick % g.num_edges()),
                duration: Some(duration), // < the 32-cycle detection timeout
            }],
            abort_on_detection: true,
        };
        let run = Simulator::new(&g, &emb, cfg)
            .with_faults(&g, schedule)
            .run_jobs_collective(&w, &[], Collective::Allreduce);

        prop_assert!(run.report.completed);
        prop_assert_eq!(run.report.mismatches, 0);
        prop_assert!(run.report.cycles >= plain.cycles);
        prop_assert!(run.faults.failed_edges.is_empty());
        prop_assert!(run.faults.failed_routers.is_empty());
        prop_assert!(!run.faults.aborted);
    }
}
