//! Concurrent-vs-sequential equivalence: the multi-tenant engine must be
//! an *isolation* mechanism, not an approximation.
//!
//! Two jobs running concurrently on disjoint tree subsets reduce exactly
//! the elements a sequential execution would: every job's root-reduced
//! values are validated against [`pf_simnet::Workload::expected`] inside
//! the engine (`mismatches == 0`), and the order-independent per-job
//! `value_hash` must be byte-identical between a concurrent run, a
//! one-job-per-wave sequential run, and a solo engine run of the same
//! tree subset. Because `Workload::mix` gives every `(node, element)`
//! pair a distinct SplitMix64 image, a single flit leaking between jobs
//! (wrong stream id, wrong element offset, crossed channel) shows up as
//! a digest mismatch or a validation failure.

use pf_allreduce::AllreducePlan;
use pf_sched::{JobSpec, SchedConfig, Scheduler};
use pf_simnet::{
    Collective, JobBinding, MultiTreeEmbedding, ReduceKind, SimConfig, Simulator, Workload,
};
use proptest::prelude::*;

/// Runs `specs` through the scheduler at the given concurrency and
/// returns `(value_hash, finish)` per job, submission order.
fn run_sched(
    plan: &AllreducePlan,
    specs: &[JobSpec],
    max_concurrent: usize,
) -> Vec<(u64, u64)> {
    let cfg = SchedConfig { max_concurrent, ..SchedConfig::default() };
    let r = Scheduler::new(plan, cfg).run(specs).expect("valid stream");
    assert_eq!(r.mismatches, 0, "every element validated against Workload::expected");
    assert!(r.max_combined_congestion <= r.congestion_bound);
    r.jobs.iter().map(|j| (j.value_hash, j.finish)).collect()
}

/// Solo engine run of one job on an explicit tree subset, addressing the
/// same global element range it owns in the concurrent run.
fn run_solo(
    plan: &AllreducePlan,
    trees: &[usize],
    elems: u64,
    global_off: u64,
    w: &Workload,
) -> u64 {
    let sub = plan.tree_subset(trees);
    let split = sub.split(elems);
    let mut offsets = Vec::with_capacity(split.len());
    let mut off = global_off;
    for &len in &split {
        offsets.push(off);
        off += len;
    }
    let emb = MultiTreeEmbedding::with_offsets(&plan.graph, &sub.trees, &split, &offsets);
    let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
        .run_jobs_collective(
            w,
            &[JobBinding { trees: 0..sub.trees.len(), release: 0 }],
            Collective::Allreduce,
        );
    assert!(run.report.completed);
    assert_eq!(run.jobs[0].mismatches, 0);
    run.jobs[0].value_hash
}

/// The full cross-check for one two-job stream on one plan.
///
/// Byte-identical digests are asserted for the wrapping-`u64` operator,
/// which is associative and commutative, so the reduced bits are
/// independent of tree allocation and flit arrival order. A `FloatF64`
/// job legitimately produces different bits under a different tree
/// split or contention pattern (summation order changes); its guarantee
/// is the engine's per-element tolerance validation (`mismatches == 0`),
/// which still catches any cross-job flit leakage — a leaked SplitMix64
/// image is wildly outside the `1e-9` relative tolerance.
fn check_equivalence(plan: &AllreducePlan, m1: u64, m2: u64, kind2: ReduceKind) {
    let specs = [
        JobSpec::new(0, 0, m1),
        JobSpec { kind: kind2, ..JobSpec::new(1, 0, m2) },
    ];

    let conc = run_sched(plan, &specs, 2);
    let seq = run_sched(plan, &specs, 1);
    assert_eq!(
        conc[0].0, seq[0].0,
        "concurrent and sequential runs reduce identical values"
    );
    if kind2 == ReduceKind::WrappingU64 {
        assert_eq!(conc[1].0, seq[1].0);
        assert_ne!(conc[0].0, conc[1].0, "distinct jobs reduce distinct values");
    }

    // Rebuild the concurrent run's exact tree assignment and re-run each
    // job alone on the engine: same trees, same offsets, so the
    // wrapping-u64 digest must match again.
    let cfg = SchedConfig { max_concurrent: 2, ..SchedConfig::default() };
    let r = Scheduler::new(plan, cfg).run(&specs).expect("valid stream");
    let n = plan.graph.num_vertices();
    let w = Workload::concat(
        n,
        &[
            pf_simnet::JobSegment::full(m1, ReduceKind::WrappingU64),
            pf_simnet::JobSegment::full(m2, kind2),
        ],
    );
    let solo0 = run_solo(plan, &r.jobs[0].trees, m1, 0, &w);
    assert_eq!(solo0, conc[0].0, "job 0 solo == concurrent digest");
    if kind2 == ReduceKind::WrappingU64 {
        let solo1 = run_solo(plan, &r.jobs[1].trees, m2, m1, &w);
        assert_eq!(solo1, conc[1].0, "job 1 solo == concurrent digest");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Two concurrent jobs on disjoint subsets of the low-depth tree set
    /// are byte-equivalent to sequential execution, across fabric sizes,
    /// vector sizes and operators.
    #[test]
    fn concurrent_equals_sequential(
        q in prop::sample::select(vec![3u64, 7]),
        m1 in 1u64..200,
        m2 in 1u64..200,
        float2 in any::<bool>(),
    ) {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let kind2 = if float2 { ReduceKind::FloatF64 } else { ReduceKind::WrappingU64 };
        check_equivalence(&plan, m1, m2, kind2);
    }
}

/// The acceptance-scale deterministic case: q = 11 (133 routers, 11
/// trees), mixed operators, participant subsets.
#[test]
fn q11_concurrent_equals_sequential() {
    let plan = AllreducePlan::low_depth(11).expect("q=11");
    check_equivalence(&plan, 300, 171, ReduceKind::FloatF64);
}

/// Participant subsets survive concurrency too: non-participants relay
/// but contribute the operator's identity, and the per-job expected
/// values (participants only) still validate in a shared-fabric run.
#[test]
fn participant_subsets_validate_under_concurrency() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let half: Vec<u32> = (0..plan.graph.num_vertices() / 2).collect();
    let specs = [
        JobSpec { participants: Some(half), ..JobSpec::new(0, 0, 96) },
        JobSpec::new(1, 0, 80),
    ];
    let conc = run_sched(&plan, &specs, 2);
    let seq = run_sched(&plan, &specs, 1);
    assert_eq!(conc[0].0, seq[0].0);
    assert_eq!(conc[1].0, seq[1].0);
}

/// Three tenants, staggered arrivals inside one wave (deferred releases):
/// digests still match the sequential execution.
#[test]
fn staggered_releases_keep_equivalence() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let specs = [
        JobSpec::new(0, 0, 120),
        JobSpec::new(1, 40, 64),
        JobSpec::new(2, 90, 96),
    ];
    let cfg = SchedConfig { max_concurrent: 3, lookahead: 1_000, ..SchedConfig::default() };
    let conc = Scheduler::new(&plan, cfg).run(&specs).expect("valid");
    assert_eq!(conc.mismatches, 0);
    assert_eq!(conc.waves.len(), 1, "lookahead packs all three into one wave");
    let seq = run_sched(&plan, &specs, 1);
    for (cj, &(sh, _)) in conc.jobs.iter().zip(&seq) {
        assert_eq!(cj.value_hash, sh);
    }
}
