//! The plan cache: amortizing `tree_subset` / degraded-plan construction
//! across millions of jobs.
//!
//! Every wave needs a priced subset plan per admitted job, and every fault
//! epoch needs a rebuilt full plan. A streaming fabric sees the same
//! handful of subsets over and over — with `q` trees and `max_concurrent`
//! tenants the allocator can only hand out so many distinct partitions —
//! so the cache turns an Algorithm 1 re-pricing per job into a `BTreeMap`
//! lookup.
//!
//! Keys are *(topology fingerprint, fault-set fingerprint, tree subset)*:
//! the topology fingerprint pins the healthy substrate, the fault
//! fingerprint distinguishes degraded epochs (and lets entries from an
//! earlier epoch be re-hit when the fabric heals back into a previously
//! seen fault state), and the subset is the allocator's tree indices. An
//! empty subset keys the *full* current plan (the degraded rebuild
//! itself).
//!
//! Eviction is deterministic LRU: a logical tick stamps every access, and
//! when the cache exceeds capacity the smallest-stamp entry leaves. No
//! wall clock, no hasher randomness — two runs with the same stream make
//! identical cache decisions, which the byte-identical-report guarantee
//! depends on.

use pf_allreduce::AllreducePlan;
use pf_sched::PlanProvider;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cache key (see module docs). `Ord` so the map iterates
/// deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Fingerprint of the healthy topology (`pf_allreduce::fingerprint`).
    pub topology: u64,
    /// Fingerprint of the active fault set (`FaultSet::fingerprint`).
    pub faults: u64,
    /// Full-plan tree indices, sorted; empty = the full current plan.
    pub trees: Vec<u32>,
}

/// Hit/miss/eviction counters, surfaced in the fabric report next to the
/// engine's stats summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to construct.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups (1.0 for an all-hit run, 0.0 when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<AllreducePlan>,
    last_used: u64,
}

/// Deterministic-LRU plan cache (see module docs).
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    map: BTreeMap<CacheKey, Entry>,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity cache cannot serve lookups");
        PlanCache { capacity, tick: 0, map: BTreeMap::new(), stats: CacheStats::default() }
    }

    /// Returns the cached plan for `key`, constructing it with `build` on
    /// a miss. The returned `Arc` is shared — callers must treat the plan
    /// as immutable (every user does; plans are construct-once values).
    pub fn get_or_insert_with(
        &mut self,
        key: CacheKey,
        build: impl FnOnce() -> Arc<AllreducePlan>,
    ) -> Arc<AllreducePlan> {
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.last_used = self.tick;
            self.stats.hits += 1;
            return Arc::clone(&entry.plan);
        }
        self.stats.misses += 1;
        let plan = build();
        self.map.insert(key, Entry { plan: Arc::clone(&plan), last_used: self.tick });
        if self.map.len() > self.capacity {
            // Deterministic LRU: the tick is unique per access, so the
            // minimum is unique; ties cannot happen.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("map is non-empty");
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
        plan
    }

    /// True when `key` is cached. Not a lookup: the counters and the LRU
    /// order stay as they were.
    #[must_use]
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A [`PlanProvider`] that routes the scheduler's subset requests through
/// the cache under a fixed *(topology, faults)* prefix — the manager
/// rebuilds one of these per epoch with the current fault fingerprint.
pub struct CachingProvider<'c> {
    /// The shared cache.
    pub cache: &'c mut PlanCache,
    /// Healthy-topology fingerprint.
    pub topology: u64,
    /// Active fault-set fingerprint.
    pub faults: u64,
}

impl PlanProvider for CachingProvider<'_> {
    fn subset(&mut self, plan: &AllreducePlan, indices: &[usize]) -> Arc<AllreducePlan> {
        let key = CacheKey {
            topology: self.topology,
            faults: self.faults,
            trees: indices.iter().map(|&i| i as u32).collect(),
        };
        self.cache.get_or_insert_with(key, || Arc::new(plan.tree_subset(indices)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_allreduce::plan_fingerprint;

    fn key(trees: &[u32]) -> CacheKey {
        CacheKey { topology: 1, faults: 2, trees: trees.to_vec() }
    }

    #[test]
    fn hits_and_misses_count() {
        let plan = AllreducePlan::low_depth(3).unwrap();
        let mut c = PlanCache::new(4);
        assert!(!c.contains(&key(&[0])));
        let a = c.get_or_insert_with(key(&[0]), || Arc::new(plan.tree_subset(&[0])));
        assert!(c.contains(&key(&[0])));
        let b = c.get_or_insert_with(key(&[0]), || panic!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let plan = Arc::new(AllreducePlan::low_depth(3).unwrap());
        let mut c = PlanCache::new(2);
        for t in [0u32, 1, 2] {
            let p = Arc::clone(&plan);
            c.get_or_insert_with(key(&[t]), move || p);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        // [0] was stalest; [1] and [2] must still hit.
        c.get_or_insert_with(key(&[1]), || panic!("must hit"));
        c.get_or_insert_with(key(&[2]), || panic!("must hit"));
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn provider_matches_cold_construction() {
        let plan = AllreducePlan::low_depth(5).unwrap();
        let mut cache = PlanCache::new(8);
        let mut p = CachingProvider { cache: &mut cache, topology: 7, faults: 0 };
        use pf_sched::PlanProvider as _;
        let cached = p.subset(&plan, &[1, 3]);
        let cold = plan.tree_subset(&[1, 3]);
        assert_eq!(plan_fingerprint(&cached), plan_fingerprint(&cold));
        assert_eq!(cached.bandwidths, cold.bandwidths);
        assert_eq!(cached.edge_congestion, cold.edge_congestion);
    }
}
