//! Checkpoint/restore: round trips are byte-identical and a restored
//! manager resumes exactly where the original left off.
//!
//! `pf-fabric-ckpt-v2` saves the clock, the aggregates, the fault set
//! and both queues; the degraded plan and the cache are re-derived /
//! cold on restore. So the contract is: `checkpoint(restore(c)) == c`
//! byte for byte, and feeding the *same remaining trace* to the original
//! and the restored manager yields reports equal in every field except
//! the cache counters.

use pf_allreduce::AllreducePlan;
use pf_fabric::{
    CacheStats, CheckpointError, FabricConfig, FabricEvent, FabricManager, PoissonJobs,
    CHECKPOINT_SCHEMA,
};
use pf_sched::JobSpec;
use pf_simnet::json::JsonError;
use proptest::prelude::*;

fn cfg() -> FabricConfig {
    FabricConfig {
        queue_capacity: 64,
        max_outstanding_elems: 2048,
        epoch_max_jobs: 8,
        ..FabricConfig::default()
    }
}

/// Builds a manager mid-stream: `n` Poisson jobs ingested, a fault burst
/// at the two-thirds mark, queues still loaded.
fn mid_stream(seed: u64, n: usize) -> (FabricManager, Vec<FabricEvent>) {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let mut m = FabricManager::new(plan, cfg());
    let stream: Vec<JobSpec> = PoissonJobs::new(seed, 120, 16, 512).take(2 * n).collect();
    for s in &stream[..n] {
        m.submit(s.clone());
    }
    // Timestamp the fault at the last *event* time — the clock itself may
    // already be past it (epochs run to completion), which is fine.
    let fault_at = stream[n - 1].arrival;
    m.inject_link_faults(fault_at, &[1, 4]).expect("non-partitioning");
    let rest: Vec<FabricEvent> =
        stream[n..].iter().cloned().map(FabricEvent::Submit).collect();
    (m, rest)
}

/// Reports equal in every field but the cache counters.
fn assert_equal_modulo_cache(
    mut a: pf_fabric::FabricReport,
    mut b: pf_fabric::FabricReport,
) {
    a.cache = CacheStats::default();
    b.cache = CacheStats::default();
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// checkpoint → restore → checkpoint is byte-identical, mid-stream,
    /// with active faults and loaded queues.
    #[test]
    fn round_trip_is_byte_identical(seed in 0u64..500, n in 4usize..20) {
        let (m, _) = mid_stream(seed, n);
        let plan = AllreducePlan::low_depth(7).expect("q=7");
        let c1 = m.checkpoint();
        let restored = FabricManager::restore(plan, cfg(), &c1).expect("restores");
        prop_assert_eq!(restored.checkpoint(), c1);
        prop_assert_eq!(restored.now(), m.now());
        prop_assert_eq!(restored.queued(), m.queued());
        prop_assert_eq!(restored.faults(), m.faults());
    }

    /// Original and restored managers fed the same remaining trace agree
    /// on everything but cache counters — including the rolling digest,
    /// so every job outcome after the restore point is byte-identical.
    #[test]
    fn restored_manager_resumes_equivalently(seed in 0u64..500, n in 4usize..16) {
        let (mut orig, rest) = mid_stream(seed, n);
        let plan = AllreducePlan::low_depth(7).expect("q=7");
        let mut restored =
            FabricManager::restore(plan, cfg(), &orig.checkpoint()).expect("restores");
        let ra = orig.play(rest.clone());
        let rb = restored.play(rest);
        assert_equal_modulo_cache(ra, rb);
    }
}

/// A restored manager keeps absorbing faults: a fault on the restored
/// degraded fabric counts as a repair of a degraded fabric, exactly like
/// the original's.
#[test]
fn restored_manager_extends_faults_incrementally() {
    let (mut orig, _) = mid_stream(11, 8);
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let mut restored =
        FabricManager::restore(plan, cfg(), &orig.checkpoint()).expect("restores");
    let at = orig.now() + 1;
    orig.inject_link_faults(at, &[9]).expect("non-partitioning");
    restored.inject_link_faults(at, &[9]).expect("non-partitioning");
    let (ra, rb) = (orig.drain(), restored.drain());
    assert_eq!(
        ra.incremental_repairs, rb.incremental_repairs,
        "the restored fabric is degraded, like the original"
    );
    assert_equal_modulo_cache(ra, rb);
}

/// Malformed checkpoints are refused with typed errors, never panics.
#[test]
fn malformed_checkpoints_are_refused() {
    let plan = || AllreducePlan::low_depth(3).expect("q=3");
    let m = FabricManager::new(plan(), cfg());
    let good = m.checkpoint();

    let refused = |text: &str| FabricManager::restore(plan(), cfg(), text).unwrap_err();

    assert!(matches!(refused("nonsense\n"), CheckpointError::Malformed(JsonError::Syntax { .. })));
    assert!(matches!(
        refused(&good[..good.len() - 5]),
        CheckpointError::Malformed(JsonError::Syntax { .. })
    ));
    assert_eq!(
        refused(&good.replace("counters", "confetti")),
        CheckpointError::Malformed(JsonError::Missing("counters".into()))
    );
    assert_eq!(
        refused(&good.replace(CHECKPOINT_SCHEMA, "pf-fabric-ckpt-v1")),
        CheckpointError::Schema("pf-fabric-ckpt-v1".into())
    );
    let empty_job = r#""ready":[{"id":7,"arrival":0,"elems":0,"kind":"u64","priority":0,"collective":"allreduce"}]"#;
    assert_eq!(refused(&good.replace(r#""ready":[]"#, empty_job)), CheckpointError::BadJob(7));

    // A fault set that does not apply to the plan (a q=7 edge id far
    // beyond the q=3 fabric's edge range).
    let mut faulted = FabricManager::new(AllreducePlan::low_depth(7).expect("q=7"), cfg());
    faulted.inject_link_faults(0, &[200]).expect("non-partitioning");
    let foreign = faulted.checkpoint();
    assert_eq!(
        FabricManager::restore(plan(), cfg(), &foreign).unwrap_err(),
        CheckpointError::FaultMismatch
    );
}
