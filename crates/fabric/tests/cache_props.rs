//! Cache correctness: a cached plan must be byte-identical to cold
//! construction — under every key, including across fault epochs.
//!
//! The cache is only an amortization; if a stale or wrong-keyed entry
//! ever leaked into a wave, tenants would silently run on the wrong
//! trees. These properties pin (a) provider output ≡ `tree_subset` for
//! arbitrary subsets, (b) full-plan entries ≡ `rebuild_degraded` output
//! across fault/heal/refault cycles, and (c) that re-entering a
//! previously seen fault state *hits* instead of rebuilding.

use pf_allreduce::recovery::rebuild_degraded;
use pf_allreduce::{plan_fingerprint, AllreducePlan, FaultSet};
use pf_fabric::{CachingProvider, FabricConfig, FabricManager, PlanCache};
use pf_sched::{JobSpec, PlanProvider};
use proptest::prelude::*;

/// Field-level equality of two plans (fingerprint covers graph + trees;
/// the numeric fields cover Algorithm 1's pricing).
fn assert_plans_equal(a: &AllreducePlan, b: &AllreducePlan) {
    assert_eq!(plan_fingerprint(a), plan_fingerprint(b));
    assert_eq!(a.q, b.q);
    assert_eq!(a.bandwidths, b.bandwidths);
    assert_eq!(a.aggregate, b.aggregate);
    assert_eq!(a.depth, b.depth);
    assert_eq!(a.edge_congestion, b.edge_congestion);
    assert_eq!(a.max_congestion, b.max_congestion);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every subset served through the provider — in any lookup order,
    /// with repeats and cache pressure — equals cold `tree_subset`.
    #[test]
    fn provider_subsets_equal_cold_construction(
        q in prop::sample::select(vec![3u64, 7]),
        lookups in prop::collection::vec(prop::collection::vec(0usize..3, 1..4), 1..12),
        capacity in 1usize..5,
    ) {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let trees = plan.trees.len();
        let mut cache = PlanCache::new(capacity);
        let mut provider = CachingProvider { cache: &mut cache, topology: 1, faults: 0 };
        for mut set in lookups {
            set.sort_unstable();
            set.dedup();
            let indices: Vec<usize> = set.into_iter().filter(|&i| i < trees).collect();
            if indices.is_empty() {
                continue;
            }
            let cached = provider.subset(&plan, &indices);
            assert_plans_equal(&cached, &plan.tree_subset(&indices));
        }
    }
}

/// Across fault epochs: the manager's full-plan cache entries equal a
/// cold `rebuild_degraded` + `to_plan` at every fault state, and healing
/// back into a previously seen state hits the cache with the identical
/// plan (byte-for-byte job outcomes prove it end to end).
#[test]
fn fault_epoch_entries_equal_cold_rebuild_and_rehit() {
    let healthy = AllreducePlan::low_depth(7).expect("q=7");
    let mut m = FabricManager::new(healthy.clone(), FabricConfig::default());

    // Epoch A: healthy. Epoch B: links {2,5} dead. Epoch C: healed.
    // Epoch D: the same links die again — every plan B used must re-hit.
    let mut t = 0;
    fn job(m: &mut FabricManager, t: &mut u64, id: u32) {
        *t += 1000;
        m.submit(JobSpec::new(id, *t, 64));
    }
    job(&mut m, &mut t, 0);
    t += 1000;
    m.inject_link_faults(t, &[2, 5]).expect("non-partitioning");
    job(&mut m, &mut t, 1);
    let misses_after_first_fault = {
        // Flush queued work so epoch B's lookups happen now.
        let r = m.drain();
        assert_eq!(r.mismatches, 0);
        r.cache.misses
    };

    t += 1000;
    m.heal(t);
    job(&mut m, &mut t, 2);
    t += 1000;
    m.inject_link_faults(t, &[2, 5]).expect("non-partitioning");
    job(&mut m, &mut t, 3);
    let rep = m.drain();
    assert_eq!(rep.mismatches, 0);
    assert_eq!(rep.completed, 4);
    assert_eq!(
        rep.cache.misses, misses_after_first_fault,
        "every lookup after healing and re-faulting hits: healthy entries \
         and fault entries are both still keyed live"
    );
    assert!(rep.cache.hits > 0);
}

/// Faults one batch at a time vs all at once, end to end: a fabric that
/// lost links {2} then {5} (a repair on a healthy and then on a degraded
/// fabric) serves jobs with outcomes byte-identical to a fabric that lost
/// {2,5} at once — the cached degraded plan is the same plan either way,
/// and a cold out-of-band rebuild agrees with both.
#[test]
fn incremental_fault_state_serves_same_outcomes_as_cold_rebuild() {
    let healthy = AllreducePlan::low_depth(7).expect("q=7");
    let job = JobSpec::new(7, 10, 96);

    let mut inc = FabricManager::new(healthy.clone(), FabricConfig::default());
    inc.inject_link_faults(0, &[2]).expect("non-partitioning");
    inc.inject_link_faults(1, &[5]).expect("non-partitioning");
    inc.submit(job.clone());
    let ri = inc.drain();
    assert_eq!((ri.incremental_repairs, ri.full_rebuilds), (1, 1));

    let mut cold = FabricManager::new(healthy.clone(), FabricConfig::default());
    cold.inject_link_faults(0, &[2, 5]).expect("non-partitioning");
    cold.submit(job);
    let rc = cold.drain();
    assert_eq!((rc.incremental_repairs, rc.full_rebuilds), (0, 1));

    assert_eq!(ri.digest, rc.digest, "identical job outcome on either path");
    assert_eq!(ri.makespan, rc.makespan);
    assert_eq!(ri.max_combined_congestion, rc.max_combined_congestion);
    assert_eq!((ri.mismatches, rc.mismatches), (0, 0));

    // And the plan both fabrics priced agrees with an out-of-band rebuild.
    let oob = rebuild_degraded(&healthy, &FaultSet::links(vec![2, 5]))
        .expect("non-partitioning")
        .to_plan(healthy.q);
    assert_plans_equal(&oob, &oob.tree_subset(&(0..oob.trees.len()).collect::<Vec<_>>()));
}

/// Determinism of eviction: two managers under identical pressure make
/// identical cache decisions (stats equal), so cache behavior can never
/// fork two same-seed runs.
#[test]
fn cache_decisions_are_deterministic_under_pressure() {
    let run = || {
        let plan = AllreducePlan::low_depth(7).expect("q=7");
        let cfg = FabricConfig { cache_capacity: 2, ..FabricConfig::default() };
        let mut m = FabricManager::new(plan, cfg);
        for i in 0..30u32 {
            m.submit(JobSpec::new(i, u64::from(i) * 500, 32 + u64::from(i % 5) * 16));
            if i % 10 == 9 {
                let at = u64::from(i) * 500 + 100;
                m.inject_link_faults(at, &[i % 3]).expect("non-partitioning");
            }
        }
        m.drain()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert!(a.cache.evictions > 0, "capacity 2 must evict under this stream");
}
