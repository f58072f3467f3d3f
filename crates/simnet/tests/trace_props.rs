//! Property tests for the observability layer: tracing must never perturb
//! the simulation, and the exported counters must be internally consistent
//! with the untraced report.

use pf_simnet::engine::Collective;
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

/// Two overlapping path trees on a cycle graph, rooted at the given nodes —
/// enough structure to exercise congestion, arbitration and credit stalls.
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

    /// The tentpole invariant: attaching a tracer yields a bit-identical
    /// `SimReport` for every collective and configuration.
    #[test]
    fn tracing_never_perturbs_the_simulation(
        n in 4u32..9,
        roots in (0u32..9, 0u32..9),
        m in 0u64..260,
        latency in 1u32..5,
        vc_buffer in 1usize..7,
        kind in prop::sample::select(Collective::ALL.to_vec()),
    ) {
        let (r1, r2) = (roots.0 % n, roots.1 % n);
        let (g, emb, w) = build(n, r1, r2, m);
        let cfg = SimConfig { link_latency: latency, vc_buffer, ..Default::default() };

        let plain = Simulator::new(&g, &emb, cfg).run_jobs_collective(&w, &[], kind).report;
        let traced = Simulator::new(&g, &emb, cfg)
            .with_trace(TraceConfig::with_timeline(64))
            .run_jobs_collective(&w, &[], kind);

        prop_assert_eq!(&plain, &traced.report);
        prop_assert!(plain.completed);
        prop_assert_eq!(plain.mismatches, 0);

        // The trace must agree with the untraced report wherever they
        // overlap, and be internally consistent.
        let trace = traced.trace.expect("tracer was attached");
        prop_assert_eq!(trace.cycles, plain.cycles);
        let flits: u64 = plain.channel_flits.iter().sum();
        prop_assert_eq!(trace.total_flits, flits);
        for (c, ct) in trace.channels.iter().enumerate() {
            prop_assert_eq!(ct.flits, plain.channel_flits[c]);
            prop_assert_eq!(ct.busy_cycles, ct.flits);
            prop_assert_eq!(
                ct.busy_cycles + ct.credit_stall_cycles + ct.idle_cycles,
                trace.cycles
            );
            prop_assert!(ct.active_streams <= ct.streams);
        }
        for st in &trace.streams {
            prop_assert!(st.max_vc_occupancy as usize <= vc_buffer);
            // A stream's cycles are partitioned, so its stall + arb-loss +
            // flit cycles can't exceed the run length.
            prop_assert!(
                st.flits + st.credit_stall_cycles + st.arb_loss_cycles <= trace.cycles
            );
        }
        let reductions: u64 = trace.routers.iter().map(|r| r.reductions).sum();
        let relays: u64 = trace.routers.iter().map(|r| r.relays).sum();
        // Every (tree, node) of a reducing collective reduces its slice
        // exactly once.
        if kind.reduces() {
            prop_assert_eq!(reductions, m * n as u64);
        } else {
            prop_assert_eq!(reductions, 0);
        }
        match kind {
            Collective::Reduce | Collective::ReduceScatter => prop_assert_eq!(relays, 0),
            // Non-root nodes relay each element of each tree's slice (the
            // allreduce root's turnaround is counted as a reduction).
            Collective::Allreduce => prop_assert_eq!(relays, m * (n as u64 - 1)),
            // Broadcast-down-only collectives also count the root's source
            // firings.
            Collective::Broadcast | Collective::Allgather => {
                prop_assert_eq!(relays, m * n as u64);
            }
        }
        if let Some(last) = trace.timeline.last() {
            prop_assert_eq!(last.cycle, trace.cycles);
            prop_assert_eq!(last.flits, trace.total_flits);
        }
    }

    /// The JSON export round-trips every trace the simulator produces.
    #[test]
    fn real_traces_round_trip_through_json(
        n in 4u32..8,
        m in 1u64..120,
    ) {
        let (g, emb, w) = build(n, 0, n / 2, m);
        let trace = Simulator::new(&g, &emb, SimConfig::default())
            .with_trace(TraceConfig::with_timeline(32))
            .run_jobs_collective(&w, &[], Collective::Allreduce)
            .trace
            .unwrap();
        let parsed = pf_simnet::TraceReport::from_json(&trace.to_json()).unwrap();
        prop_assert_eq!(parsed, trace);
    }
}

/// `TraceConfig::off` must not allocate a tracer at all.
#[test]
fn off_config_returns_no_trace() {
    let (g, emb, w) = build(5, 0, 2, 40);
    let run = Simulator::new(&g, &emb, SimConfig::default())
        .with_trace(TraceConfig::off())
        .run_jobs_collective(&w, &[], Collective::Allreduce);
    assert!(run.report.completed);
    assert!(run.trace.is_none());
}

/// Counter-only tracing (no timeline) leaves the timeline empty.
#[test]
fn counters_config_has_empty_timeline() {
    let (g, emb, w) = build(5, 0, 2, 40);
    let trace = Simulator::new(&g, &emb, SimConfig::default())
        .with_trace(TraceConfig::counters())
        .run_jobs_collective(&w, &[], Collective::Allreduce)
        .trace
        .unwrap();
    assert!(trace.timeline.is_empty());
    assert!(trace.total_flits > 0);
}
