//! Determinism guard for the sharded parallel mode.
//!
//! `SimConfig::threads` must be a pure performance knob: for any workload,
//! collective, and thread count the engine must produce byte-identical
//! results — the sharded mode partitions channel-disjoint tree components
//! across workers and merges per-shard reports with integer arithmetic
//! only (`engine.rs merge`), and configurations it cannot shard
//! (traces, faults, caps, single components) must fall back to the serial
//! path silently. These properties drive random segmented workloads and
//! every collective through threads ∈ {1..8} and require the `SimReport`
//! (and trace bytes, where tracing is on) to match the single-threaded
//! run exactly.

use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::{
    JobSegment, MultiTreeEmbedding, ReduceKind, SimConfig, Simulator, TraceConfig, Workload,
};
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

fn collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Thread count never changes the report: every `threads` in 1..=8
    /// reproduces the single-threaded `SimReport` bit for bit, across
    /// random segmented workloads and all five collectives.
    #[test]
    fn thread_count_is_invisible_in_the_report(
        q in prop::sample::select(vec![5u64, 7, 11]),
        segs in prop::collection::vec(segment(24), 1..3),
        kind in collective(),
    ) {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let n = plan.graph.num_vertices();
        let m: u64 = segs.iter().map(|s| s.elems).sum();
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::concat(n, &segs);
        let base = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .run_jobs_collective(&w, &[], kind).report;
        prop_assert!(base.completed, "q={} {:?} did not complete", q, kind);
        for threads in 2usize..=8 {
            let cfg = SimConfig { threads, ..SimConfig::default() };
            let r = Simulator::new(&plan.graph, &emb, cfg)
                .run_jobs_collective(&w, &[], kind)
                .report;
            prop_assert_eq!(
                &r, &base,
                "q={} {:?} threads={}: SimReport diverged", q, kind, threads
            );
        }
    }

    /// Tracing forces the serial path regardless of `threads`; the trace
    /// bytes (the full serialized JSON, covering every per-cycle row)
    /// must still be identical at every thread count.
    #[test]
    fn thread_count_is_invisible_in_trace_bytes(
        q in prop::sample::select(vec![5u64, 7]),
        segs in prop::collection::vec(segment(24), 1..3),
        kind in collective(),
    ) {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let n = plan.graph.num_vertices();
        let m: u64 = segs.iter().map(|s| s.elems).sum();
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::concat(n, &segs);
        let run_traced = |threads: usize| {
            let cfg = SimConfig { threads, ..SimConfig::default() };
            let run = Simulator::new(&plan.graph, &emb, cfg)
                .with_trace(TraceConfig::counters())
                .run_jobs_collective(&w, &[], kind);
            (run.report, run.trace.expect("trace requested").to_json())
        };
        let (base, base_bytes) = run_traced(1);
        for threads in [2usize, 5, 8] {
            let (r, bytes) = run_traced(threads);
            prop_assert_eq!(
                &r, &base,
                "q={} {:?} threads={}: traced SimReport diverged", q, kind, threads
            );
            prop_assert_eq!(
                &bytes, &base_bytes,
                "q={} {:?} threads={}: trace bytes diverged", q, kind, threads
            );
        }
    }
}

/// The deterministic floor, pinned without proptest shrinking: the exact
/// saturated configuration the perf snapshot measures, across the full
/// thread ladder.
#[test]
fn saturated_allreduce_matches_across_thread_ladder() {
    for q in [5u64, 7] {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let m = 20_000;
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let base = Simulator::new(&plan.graph, &emb, SimConfig::default()).run(&w);
        assert!(base.completed && base.mismatches == 0);
        for threads in 2usize..=8 {
            let cfg = SimConfig { threads, ..SimConfig::default() };
            let r = Simulator::new(&plan.graph, &emb, cfg).run(&w);
            assert_eq!(r, base, "q={q} threads={threads}: SimReport diverged");
        }
    }
}
