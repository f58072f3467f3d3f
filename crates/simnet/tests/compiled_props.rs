//! Slicing a compiled tree list is invisible to the engine.
//!
//! The fabric compiles a plan's trees once ([`CompiledTrees`]) and slices
//! that compiled form for every wave that runs all of them. These
//! properties hold a run on such a slice against a run on a cold
//! [`MultiTreeEmbedding::with_offsets`] build of the same trees, sizes
//! and offsets: equal `SimReport`, per-job outcomes and `FaultReport`, and
//! equal trace JSON bytes when a tracer is attached. The plans are the
//! healthy and one-link-repaired low-depth plans at q ∈ {3, 5, 7} and an
//! edge-disjoint plan; the cases draw slice sizes (0 included), one to
//! four staggered job bindings, the collective, `u64` or `f64` segments
//! and an optional link fault.
//!
//! The second property slices one compiled form wave after wave,
//! interleaved with slices of another plan's, and holds every wave to its
//! cold build: nothing carries over from one slice to the next.

use pf_allreduce::recovery::{rebuild_degraded, FaultSet};
use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::faults::{FaultEvent, FaultSchedule, FaultTarget};
use pf_simnet::{
    CompiledTrees, JobBinding, JobSegment, MultiTreeEmbedding, ReduceKind, RunReport, SimConfig,
    Simulator, TraceConfig, Workload,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::{Arc, OnceLock};

/// A plan with its trees compiled once, for every case.
struct Fixture {
    plan: AllreducePlan,
    compiled: Arc<CompiledTrees>,
}

/// Healthy and repaired `low_depth(q)` at q ∈ {3, 5, 7}, then
/// `edge_disjoint(5)` and `edge_disjoint(7)`.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut plans = Vec::new();
        for q in [3u64, 5, 7] {
            let healthy = AllreducePlan::low_depth(q).unwrap();
            // An edge the first tree uses, so the repair changes trees.
            let e = healthy.trees[0].edge_ids(&healthy.graph)[0];
            let repaired = rebuild_degraded(&healthy, &FaultSet::links(vec![e])).unwrap();
            plans.push(healthy);
            plans.push(repaired.to_plan(q));
        }
        for q in [5u64, 7] {
            plans.push(AllreducePlan::edge_disjoint(q, 40, 0xC0DE).unwrap());
        }
        plans
            .into_iter()
            .map(|plan| {
                let compiled = Arc::new(CompiledTrees::new(&plan.graph, &plan.trees));
                Fixture { plan, compiled }
            })
            .collect()
    })
}

/// One wave's slice table, bindings and workload, drawn from raw case
/// values: `sizes[i]` elements on tree `i` unless bit `i` of `zeros` is
/// set, a job boundary after tree `i` when bit `i` of `cuts` is set (at
/// most four jobs), job `j` released at `releases[j]` when bit `j` of
/// `staggered` is set and reducing `f64` when bit `j` of `floats` is. A
/// `pad`-element segment that no tree reduces sits in front, so the
/// slices start at a nonzero offset.
struct Wave {
    sizes: Vec<u64>,
    offsets: Vec<u64>,
    bindings: Vec<JobBinding>,
    w: Workload,
}

#[allow(clippy::too_many_arguments)]
fn wave(
    fx: &Fixture,
    sizes: &[u64],
    zeros: u32,
    cuts: u32,
    releases: &[u64],
    staggered: u32,
    floats: u32,
    pad: u64,
) -> Wave {
    let ntrees = fx.plan.trees.len();
    let sizes: Vec<u64> = (0..ntrees)
        .map(|i| if zeros >> i & 1 == 1 { 0 } else { sizes[i % sizes.len()] })
        .collect();
    let mut bounds: Vec<usize> = (1..ntrees).filter(|&i| cuts >> i & 1 == 1).take(3).collect();
    bounds.push(ntrees);
    let mut segs = vec![JobSegment::full(pad, ReduceKind::WrappingU64)];
    let mut bindings = Vec::new();
    let mut offsets = Vec::with_capacity(ntrees);
    let (mut start, mut off) = (0usize, pad);
    for (j, &end) in bounds.iter().enumerate() {
        let kind =
            if floats >> j & 1 == 1 { ReduceKind::FloatF64 } else { ReduceKind::WrappingU64 };
        segs.push(JobSegment::full(sizes[start..end].iter().sum(), kind));
        for &len in &sizes[start..end] {
            offsets.push(off);
            off += len;
        }
        let release = if staggered >> j & 1 == 1 { releases[j % releases.len()] } else { 0 };
        bindings.push(JobBinding { trees: start..end, release });
        start = end;
    }
    let w = Workload::concat(fx.plan.graph.num_vertices(), &segs);
    Wave { sizes, offsets, bindings, w }
}

/// `fault` 0: none; 1: a permanent outage; 2: a transient one shorter
/// than the detection timeout. The link is `edge % |E|`, down at `at`.
fn schedule(fx: &Fixture, fault: u32, edge: u32, at: u64) -> Option<FaultSchedule> {
    let duration = match fault {
        0 => return None,
        1 => None,
        _ => Some(1 + at % 20),
    };
    Some(FaultSchedule {
        events: vec![FaultEvent {
            cycle: at,
            target: FaultTarget::Link(edge % fx.plan.graph.num_edges()),
            duration,
        }],
        abort_on_detection: true,
    })
}

fn run(
    fx: &Fixture,
    emb: &MultiTreeEmbedding,
    wave: &Wave,
    kind: Collective,
    traced: bool,
    faults: &Option<FaultSchedule>,
) -> RunReport {
    let g = &fx.plan.graph;
    // A permanent outage can strand a flit with no sender left to stall
    // on it; the cap ends such a run early instead of at 50M cycles.
    let cfg = SimConfig { max_cycles: 20_000, ..SimConfig::default() };
    let mut sim = Simulator::new(g, emb, cfg);
    if traced {
        sim = sim.with_trace(TraceConfig::counters());
    }
    if let Some(s) = faults {
        sim = sim.with_faults(g, s.clone());
    }
    sim.run_jobs_collective(&wave.w, &wave.bindings, kind)
}

/// Runs `wave` on a slice of the fixture's compiled form and on a cold
/// build of the same trees, and checks the two agree byte for byte.
fn assert_slice_matches_cold(
    fx: &Fixture,
    wave: &Wave,
    kind: Collective,
    traced: bool,
    faults: &Option<FaultSchedule>,
) -> Result<(), TestCaseError> {
    let (sizes, offsets) = (&wave.sizes, &wave.offsets);
    let warm = MultiTreeEmbedding::from_compiled(Arc::clone(&fx.compiled), sizes, offsets);
    let cold = MultiTreeEmbedding::with_offsets(&fx.plan.graph, &fx.plan.trees, sizes, offsets);
    prop_assert!(Arc::ptr_eq(warm.compiled(), &fx.compiled));
    let a = run(fx, &warm, wave, kind, traced, faults);
    let b = run(fx, &cold, wave, kind, traced, faults);
    prop_assert_eq!(&a.report, &b.report);
    prop_assert_eq!(&a.jobs, &b.jobs);
    prop_assert_eq!(&a.faults, &b.faults);
    prop_assert_eq!(a.trace.map(|t| t.to_json()), b.trace.map(|t| t.to_json()));
    prop_assert_eq!(a.report.mismatches, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sliced_compiled_trees_match_cold_embeddings(
        pick in 0usize..8,
        sizes in prop::collection::vec(1u64..48, 8),
        zeros in any::<u32>(),
        cuts in any::<u32>(),
        releases in prop::collection::vec(0u64..600, 4),
        staggered in any::<u32>(),
        floats in any::<u32>(),
        pad in 0u64..20,
        kind in prop::sample::select(Collective::ALL.to_vec()),
        traced in any::<bool>(),
        fault in 0u32..3,
        edge in any::<u32>(),
        at in 1u64..200,
    ) {
        let fx = &fixtures()[pick];
        // Zero slices on about one tree in four.
        let zeros = zeros & zeros >> 8;
        let wave = wave(fx, &sizes, zeros, cuts, &releases, staggered, floats, pad);
        let faults = schedule(fx, fault, edge, at);
        assert_slice_matches_cold(fx, &wave, kind, traced, &faults)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn one_compiled_form_serves_wave_after_wave(
        pair in 0usize..3,
        waves in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0u64..40, 8), any::<u32>(), any::<u32>(),
             prop::sample::select(Collective::ALL.to_vec())),
            6,
        ),
    ) {
        // A healthy plan and its repair, slice after slice, alternating
        // as the draw says.
        let plans = [&fixtures()[2 * pair], &fixtures()[2 * pair + 1]];
        for (other, sizes, cuts, staggered, kind) in waves {
            let fx = plans[usize::from(other)];
            let wave = wave(fx, &sizes, 0, cuts, &[3, 40, 200], staggered, 0, 0);
            assert_slice_matches_cold(fx, &wave, kind, false, &None)?;
        }
    }
}
