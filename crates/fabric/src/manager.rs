//! The always-on fabric manager: a virtual-time event loop over the wave
//! scheduler.
//!
//! [`FabricManager`] owns one fabric (an [`AllreducePlan`]) for the
//! lifetime of the process and serves an open-ended job stream:
//!
//! * **Ingestion and backpressure.** [`FabricManager::submit`] is the
//!   mpsc-style front door. A job is *accepted* into the bounded ready
//!   queue, *deferred* to a parking queue when the outstanding-work cap
//!   is exceeded (re-admitted at epoch boundaries, FIFO), or *rejected*
//!   outright when the queues are full — classic admission control, all
//!   thresholds in [`FabricConfig`].
//! * **Epoch dispatch.** Time is virtual and event-driven: queued jobs
//!   are dispatched lazily, in ingestion order, as *epochs* of at most
//!   [`FabricConfig::epoch_max_jobs`] through
//!   [`Scheduler::run_epoch`] whenever the clock must pass the
//!   work (an event arrives with a later timestamp, or the stream
//!   drains). An epoch occupies the fabric until its makespan; events
//!   timestamped inside a running epoch are ingested when it completes —
//!   faults and submissions quiesce at epoch boundaries.
//! * **Cached planning.** Subset plans come from the [`PlanCache`]
//!   through a [`CachingProvider`], keyed by *(topology fingerprint,
//!   fault fingerprint, tree subset)*, so Algorithm 1 re-pricing is
//!   amortized across the stream. The current plan's trees are compiled
//!   once ([`CompiledTrees`]), at the first dispatch on that plan, and
//!   every wave that runs all of them slices that compiled form.
//! * **Fault repair.** Each link-fault event rebuilds the plan from the
//!   healthy plan and the accumulated fault set with
//!   [`rebuild_degraded`], and caches the result under the fault set's
//!   fingerprint. The manager keeps no degraded plan between events.
//! * **Flat memory.** The manager keeps aggregates only: counters, a
//!   64-bucket log2 latency histogram, and a rolling FNV digest folded
//!   with the scheduler's own [`fold_job_digest`] formula. Nothing grows
//!   with the number of jobs served, which the 10^6-job soak benchmark
//!   verifies with the counting allocator.
//!
//! Determinism: the manager holds no wall clock and no randomized
//! container. The same seed + event trace produces a byte-identical
//! [`FabricReport`] — and a stream fully ingested before its first wave
//! produces the *same digest* as handing the batch to
//! [`Scheduler::run`] directly (property-tested).

use crate::cache::{CacheKey, CacheStats, CachingProvider, PlanCache};
use crate::events::FabricEvent;
use pf_allreduce::fingerprint::FNV_OFFSET;
use pf_allreduce::recovery::{rebuild_degraded, RebuildError};
use pf_allreduce::{plan_fingerprint, AllreducePlan, FaultSet};
use pf_sched::{fold_job_digest, validate_spec, JobSpec, SchedConfig, SchedError, Scheduler};
use pf_simnet::CompiledTrees;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Fabric-manager knobs. The defaults suit the q=7..11 PolarFly fabrics
/// the benchmarks use; every limit is a hard bound on manager memory.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Scheduler knobs for every epoch.
    pub sched: SchedConfig,
    /// Ready-queue bound: submissions beyond this many queued jobs are
    /// rejected (and the deferral queue is bounded by the same value).
    pub queue_capacity: usize,
    /// Outstanding-work cap: a submission that would push the ready
    /// queue's total element count past this is deferred, not queued.
    pub max_outstanding_elems: u64,
    /// Most jobs dispatched into one scheduler epoch.
    pub epoch_max_jobs: usize,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            sched: SchedConfig::default(),
            queue_capacity: 4096,
            max_outstanding_elems: u64::MAX / 2,
            epoch_max_jobs: 64,
            cache_capacity: 128,
        }
    }
}

/// What happened to one submission at the front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Queued for dispatch.
    Accepted,
    /// Parked: the outstanding-work cap is exceeded; the job re-enters
    /// the ready queue (FIFO) at an epoch boundary with room.
    Deferred,
    /// Dropped: the queues are full. The job will never run.
    Rejected,
    /// Dropped: the spec itself is unusable (the typed scheduler error
    /// says why) — bad specs are refused here so they can never fail a
    /// whole epoch.
    Invalid(SchedError),
}

/// Aggregate observations over everything the manager has served.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// Submissions seen (accepted + deferred + rejected + invalid).
    pub submitted: u64,
    /// Jobs that entered the ready queue (directly or by promotion).
    pub accepted: u64,
    /// Deferral events (jobs parked at least once).
    pub deferred: u64,
    /// Jobs dropped by backpressure.
    pub rejected: u64,
    /// Jobs refused as invalid specs.
    pub invalid: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Elements reduced across all completed jobs.
    pub total_elems: u64,
    /// Scheduler epochs dispatched.
    pub epochs: u64,
    /// Waves executed across all epochs.
    pub waves: u64,
    /// Virtual cycle the last job finished (0 before any epoch).
    pub makespan: u64,
    /// Expected-value check failures across all jobs (must be 0).
    pub mismatches: u64,
    /// Peak combined per-edge congestion over every wave served.
    pub max_combined_congestion: u32,
    /// The healthy plan's Theorem 7.6 / 7.19 bound.
    pub congestion_bound: u32,
    /// Median arrival-to-finish latency (log2-bucket upper bound).
    pub p50_latency: u64,
    /// 99th-percentile latency (log2-bucket upper bound).
    pub p99_latency: u64,
    /// Exact maximum latency.
    pub max_latency: u64,
    /// Exact mean latency.
    pub mean_latency: f64,
    /// Mean cycles completed jobs spent queued before release.
    pub mean_queueing_delay: f64,
    /// Rolling FNV digest over per-job outcomes (same fold as
    /// [`pf_sched::SchedReport::digest`]).
    pub digest: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Link-fault events applied to an already-degraded fabric. Every
    /// repair is a full rebuild; the name is kept because checkpoints and
    /// bench files read it.
    pub incremental_repairs: u64,
    /// Link-fault events applied to a healthy fabric.
    pub full_rebuilds: u64,
    /// Heal events.
    pub heals: u64,
    /// Link-fault events applied.
    pub fault_events: u64,
}

/// Number of log2 latency buckets (bucket 0 = zero cycles, bucket `k` =
/// latencies in `[2^(k-1), 2^k)`).
pub const LATENCY_BUCKETS: usize = 64;

/// The always-on fabric manager (see module docs).
pub struct FabricManager {
    pub(crate) cfg: FabricConfig,
    /// The healthy plan; the fabric's identity.
    pub(crate) healthy: Arc<AllreducePlan>,
    pub(crate) topology_fp: u64,
    /// The plan epochs currently run on (healthy, or the degraded plan
    /// promoted via `DegradedPlan::to_plan`).
    pub(crate) current: Arc<AllreducePlan>,
    /// Accumulated permanent link faults (healthy edge ids, sorted).
    pub(crate) faults: FaultSet,
    pub(crate) fault_fp: u64,
    pub(crate) cache: PlanCache,
    /// The trees of the plan it holds, compiled at the first dispatch on
    /// that plan. It serves only while that plan is `current` (`Arc`
    /// identity), so every reassignment of `current` invalidates it.
    /// Derived state: never checkpointed.
    compiled: Option<(Arc<AllreducePlan>, Arc<CompiledTrees>)>,

    /// Virtual now: the fabric is idle at `now` between calls.
    pub(crate) now: u64,
    /// Monotone-feed guard: the latest event time seen.
    pub(crate) last_event: u64,
    pub(crate) ready: VecDeque<JobSpec>,
    pub(crate) deferred_q: VecDeque<JobSpec>,
    /// Sum of `elems` over the ready queue (the outstanding-work gauge).
    pub(crate) ready_elems: u64,
    /// Ids currently queued (ready + deferred), for duplicate refusal.
    pub(crate) queued_ids: BTreeSet<u32>,

    // Aggregates (everything FabricReport derives from).
    pub(crate) submitted: u64,
    pub(crate) accepted: u64,
    pub(crate) deferred: u64,
    pub(crate) rejected: u64,
    pub(crate) invalid: u64,
    pub(crate) completed: u64,
    pub(crate) total_elems: u64,
    pub(crate) epochs: u64,
    pub(crate) waves: u64,
    pub(crate) makespan: u64,
    pub(crate) mismatches: u64,
    pub(crate) max_comb: u32,
    pub(crate) latency_hist: [u64; LATENCY_BUCKETS],
    pub(crate) latency_sum: u64,
    pub(crate) queueing_sum: u64,
    pub(crate) max_latency: u64,
    pub(crate) digest: u64,
    pub(crate) incremental_repairs: u64,
    pub(crate) full_rebuilds: u64,
    pub(crate) heals: u64,
    pub(crate) fault_events: u64,
}

impl std::fmt::Debug for FabricManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricManager")
            .field("now", &self.now)
            .field("queued", &(self.ready.len() + self.deferred_q.len()))
            .field("faults", &self.faults.edges)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl FabricManager {
    /// A manager serving `plan`'s fabric.
    ///
    /// Panics on a configuration no epoch could run under, naming the
    /// field: a zero `epoch_max_jobs` or `sched.max_concurrent`, or a plan
    /// with no trees. A zero `cache_capacity` panics in [`PlanCache::new`].
    #[must_use]
    pub fn new(plan: AllreducePlan, cfg: FabricConfig) -> Self {
        assert!(cfg.epoch_max_jobs >= 1, "epoch_max_jobs must be at least 1");
        assert!(cfg.sched.max_concurrent >= 1, "sched.max_concurrent must be at least 1");
        assert!(!plan.trees.is_empty(), "plan.trees must not be empty");
        let healthy = Arc::new(plan);
        let topology_fp = plan_fingerprint(&healthy);
        FabricManager {
            current: Arc::clone(&healthy),
            topology_fp,
            fault_fp: FaultSet::none().fingerprint(),
            faults: FaultSet::none(),
            cache: PlanCache::new(cfg.cache_capacity),
            compiled: None,
            now: 0,
            last_event: 0,
            ready: VecDeque::new(),
            deferred_q: VecDeque::new(),
            ready_elems: 0,
            queued_ids: BTreeSet::new(),
            submitted: 0,
            accepted: 0,
            deferred: 0,
            rejected: 0,
            invalid: 0,
            completed: 0,
            total_elems: 0,
            epochs: 0,
            waves: 0,
            makespan: 0,
            mismatches: 0,
            max_comb: 0,
            latency_hist: [0; LATENCY_BUCKETS],
            latency_sum: 0,
            queueing_sum: 0,
            max_latency: 0,
            digest: FNV_OFFSET,
            incremental_repairs: 0,
            full_rebuilds: 0,
            heals: 0,
            fault_events: 0,
            healthy,
            cfg,
        }
    }

    /// The current virtual cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs currently queued (ready + deferred).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.ready.len() + self.deferred_q.len()
    }

    /// The active fault set (healthy edge ids).
    #[must_use]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The plan epochs run on now: the healthy plan, or the degraded plan
    /// for [`FabricManager::faults`].
    #[must_use]
    pub fn current_plan(&self) -> &AllreducePlan {
        &self.current
    }

    /// Submits one job at `spec.arrival`. Events must be fed in
    /// nondecreasing virtual time; the clock first advances to the
    /// arrival (dispatching any epochs that start before it), then
    /// admission control decides. A job arriving before the latest event
    /// is refused as [`SchedError::OutOfOrder`] and counted as submitted
    /// and invalid; the clock and the queues stay as they were.
    pub fn submit(&mut self, spec: JobSpec) -> Admission {
        let at = spec.arrival;
        if at < self.last_event {
            self.submitted += 1;
            self.invalid += 1;
            return Admission::Invalid(SchedError::OutOfOrder { at, last: self.last_event });
        }
        self.last_event = at;
        self.advance_to(at);
        self.submitted += 1;

        if let Err(e) = validate_spec(&spec, &self.healthy) {
            self.invalid += 1;
            return Admission::Invalid(e);
        }
        if self.queued_ids.contains(&spec.id) {
            self.invalid += 1;
            return Admission::Invalid(SchedError::DuplicateJobId(spec.id));
        }
        if self.ready.len() >= self.cfg.queue_capacity {
            self.rejected += 1;
            return Admission::Rejected;
        }
        if self.ready_elems + spec.elems > self.cfg.max_outstanding_elems {
            if self.deferred_q.len() >= self.cfg.queue_capacity {
                self.rejected += 1;
                return Admission::Rejected;
            }
            self.deferred += 1;
            self.queued_ids.insert(spec.id);
            self.deferred_q.push_back(spec);
            return Admission::Deferred;
        }
        self.accepted += 1;
        self.ready_elems += spec.elems;
        self.queued_ids.insert(spec.id);
        self.ready.push_back(spec);
        Admission::Accepted
    }

    /// Reports a batch of link outages (healthy edge ids) at virtual time
    /// `at`. The plan is rebuilt from the healthy plan and every fault so
    /// far; epochs already dispatched are unaffected (faults quiesce at
    /// epoch boundaries — an in-flight wave's transient faults are the
    /// scheduler's own fault layer's concern). Links already dead are
    /// ignored, and a batch of only those is no event.
    ///
    /// On `Err` (the combined faults would partition the fabric) the
    /// manager's state is unchanged — the event is refused, exactly like
    /// a fabric refusing to commit a plan it cannot serve.
    pub fn inject_link_faults(&mut self, at: u64, edges: &[u32]) -> Result<(), RebuildError> {
        assert!(at >= self.last_event, "events must be fed in nondecreasing virtual time");
        self.last_event = at;
        self.advance_to(at);

        let delta = FaultSet::links(
            edges
                .iter()
                .copied()
                .filter(|e| !self.faults.edges.contains(e))
                .collect(),
        );
        if delta.edges.is_empty() {
            return Ok(());
        }
        let combined = self.faults.union(&delta);
        let d = rebuild_degraded(&self.healthy, &combined)?;
        if self.faults.is_empty() {
            self.full_rebuilds += 1;
        } else {
            self.incremental_repairs += 1;
        }
        self.fault_events += 1;
        self.faults = combined;
        self.fault_fp = self.faults.fingerprint();
        // The executable plan is cached under the empty subset, so
        // re-entering a previously seen fault state re-uses its copy.
        let q = self.healthy.q;
        let key =
            CacheKey { topology: self.topology_fp, faults: self.fault_fp, trees: Vec::new() };
        self.current = self.cache.get_or_insert_with(key, || Arc::new(d.to_plan(q)));
        Ok(())
    }

    /// Restores the fabric to full health at virtual time `at` (all
    /// failed links repaired). Subsequent epochs run on the healthy plan;
    /// cache entries from earlier epochs under the same fingerprints hit
    /// again.
    pub fn heal(&mut self, at: u64) {
        assert!(at >= self.last_event, "events must be fed in nondecreasing virtual time");
        self.last_event = at;
        self.advance_to(at);
        if self.faults.is_empty() {
            return;
        }
        self.heals += 1;
        self.faults = FaultSet::none();
        self.fault_fp = self.faults.fingerprint();
        self.current = Arc::clone(&self.healthy);
    }

    /// Runs every queued job to completion and returns the report. The
    /// manager stays usable afterwards (the stream may continue).
    pub fn drain(&mut self) -> FabricReport {
        loop {
            self.promote_deferred();
            if self.ready.is_empty() {
                debug_assert!(
                    self.deferred_q.is_empty(),
                    "promotion forces progress when the fabric is idle"
                );
                break;
            }
            self.dispatch_epoch();
        }
        self.report()
    }

    /// Feeds a pre-built trace (events in nondecreasing time), drains,
    /// and reports. Convenience over [`FabricManager::submit`] /
    /// [`FabricManager::inject_link_faults`] / [`FabricManager::heal`] /
    /// [`FabricManager::drain`]; fault events the fabric refuses
    /// (partitioning) are skipped.
    pub fn play(&mut self, events: impl IntoIterator<Item = FabricEvent>) -> FabricReport {
        for ev in events {
            match ev {
                FabricEvent::Submit(spec) => {
                    self.submit(spec);
                }
                FabricEvent::LinkFaults { at, edges } => {
                    let _ = self.inject_link_faults(at, &edges);
                }
                FabricEvent::Heal { at } => self.heal(at),
            }
        }
        self.drain()
    }

    /// The aggregate report as of now (queued jobs are not in it until an
    /// epoch runs them).
    #[must_use]
    pub fn report(&self) -> FabricReport {
        let (p50, p99) = (self.latency_percentile(50), self.latency_percentile(99));
        FabricReport {
            submitted: self.submitted,
            accepted: self.accepted,
            deferred: self.deferred,
            rejected: self.rejected,
            invalid: self.invalid,
            completed: self.completed,
            total_elems: self.total_elems,
            epochs: self.epochs,
            waves: self.waves,
            makespan: self.makespan,
            mismatches: self.mismatches,
            max_combined_congestion: self.max_comb,
            congestion_bound: self.healthy.max_congestion,
            p50_latency: p50,
            p99_latency: p99,
            max_latency: self.max_latency,
            mean_latency: if self.completed == 0 {
                0.0
            } else {
                self.latency_sum as f64 / self.completed as f64
            },
            mean_queueing_delay: if self.completed == 0 {
                0.0
            } else {
                self.queueing_sum as f64 / self.completed as f64
            },
            digest: self.digest,
            cache: self.cache.stats(),
            incremental_repairs: self.incremental_repairs,
            full_rebuilds: self.full_rebuilds,
            heals: self.heals,
            fault_events: self.fault_events,
        }
    }

    /// Advances virtual time to `t`, dispatching epochs for queued work
    /// the clock would otherwise skip past.
    fn advance_to(&mut self, t: u64) {
        while self.now < t && !self.ready.is_empty() {
            self.dispatch_epoch();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Dispatches one epoch: up to `epoch_max_jobs` ready jobs, in
    /// ingestion order, through the scheduler at base `now`.
    fn dispatch_epoch(&mut self) {
        debug_assert!(!self.ready.is_empty());
        let take = self.ready.len().min(self.cfg.epoch_max_jobs);
        let specs: Vec<JobSpec> = self.ready.drain(..take).collect();
        for s in &specs {
            self.queued_ids.remove(&s.id);
            self.ready_elems -= s.elems;
        }
        let plan = Arc::clone(&self.current);
        let sched = Scheduler::new(&plan, self.cfg.sched).with_compiled(self.compiled_current());
        let mut provider = CachingProvider {
            cache: &mut self.cache,
            topology: self.topology_fp,
            faults: self.fault_fp,
        };
        let report = sched
            .run_epoch(&specs, self.now, None, &mut provider)
            .expect("specs are validated at submit time; a healthy epoch cannot fail");

        self.epochs += 1;
        self.waves += report.waves.len() as u64;
        self.completed += report.jobs.len() as u64;
        self.total_elems += report.total_elems;
        self.mismatches += report.mismatches;
        self.max_comb = self.max_comb.max(report.max_combined_congestion);
        self.makespan = self.makespan.max(report.makespan);
        for r in &report.jobs {
            let latency = r.finish - r.spec.arrival;
            self.latency_hist[Self::bucket(latency)] += 1;
            self.latency_sum += latency;
            self.queueing_sum += r.queueing_delay();
            self.max_latency = self.max_latency.max(latency);
            self.digest = fold_job_digest(self.digest, r);
        }
        self.now = self.now.max(report.makespan);
        self.promote_deferred();
    }

    /// The current plan's compiled trees: the held ones while they belong
    /// to `current`, else compiled now (and held).
    fn compiled_current(&mut self) -> Arc<CompiledTrees> {
        match &self.compiled {
            Some((plan, trees)) if Arc::ptr_eq(plan, &self.current) => Arc::clone(trees),
            _ => {
                let plan = &self.current;
                let trees = Arc::new(CompiledTrees::new(&plan.graph, &plan.trees));
                self.compiled = Some((Arc::clone(plan), Arc::clone(&trees)));
                trees
            }
        }
    }

    /// Moves deferred jobs into the ready queue while the caps allow;
    /// when the fabric is idle (empty ready queue) the front job is
    /// promoted unconditionally so an over-cap job throttles concurrency
    /// but can never starve.
    fn promote_deferred(&mut self) {
        while let Some(front) = self.deferred_q.front() {
            let fits = self.ready.len() < self.cfg.queue_capacity
                && (self.ready_elems + front.elems <= self.cfg.max_outstanding_elems
                    || self.ready.is_empty());
            if !fits {
                break;
            }
            let s = self.deferred_q.pop_front().expect("front exists");
            self.accepted += 1;
            self.ready_elems += s.elems;
            self.ready.push_back(s);
        }
    }

    /// Log2 latency bucket (see [`LATENCY_BUCKETS`]).
    fn bucket(latency: u64) -> usize {
        match latency {
            0 => 0,
            l => (l.ilog2() as usize + 1).min(LATENCY_BUCKETS - 1),
        }
    }

    /// Nearest-rank percentile over the log2 histogram: the value
    /// reported is the containing bucket's inclusive upper bound, capped
    /// at the exact max — a ≤ 2× overestimate by construction, stable and
    /// allocation-free.
    fn latency_percentile(&self, p: u64) -> u64 {
        let total: u64 = self.latency_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (p * total).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max_latency);
            }
        }
        self.max_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sched::DirectPlans;

    fn plan() -> AllreducePlan {
        AllreducePlan::low_depth(3).unwrap()
    }

    #[test]
    fn one_job_matches_the_batch_scheduler() {
        let p = plan();
        let cfg = FabricConfig::default();
        let mut m = FabricManager::new(p.clone(), cfg.clone());
        assert_eq!(m.submit(JobSpec::new(0, 0, 64)), Admission::Accepted);
        let rep = m.drain();
        assert_eq!(rep.completed, 1);
        assert_eq!(rep.mismatches, 0);
        let batch = Scheduler::new(&p, cfg.sched).run(&[JobSpec::new(0, 0, 64)]).unwrap();
        assert_eq!(rep.digest, batch.digest());
        assert_eq!(rep.makespan, batch.makespan);
    }

    #[test]
    fn virtual_time_is_lazy_until_events_force_it() {
        let mut m = FabricManager::new(plan(), FabricConfig::default());
        m.submit(JobSpec::new(0, 100, 64));
        assert_eq!(m.now(), 100, "ingestion advances the clock, not dispatch");
        assert_eq!(m.queued(), 1);
        // A much later submission forces the queued epoch to run first.
        m.submit(JobSpec::new(1, 1_000_000, 64));
        assert!(m.now() >= 1_000_000);
        assert_eq!(m.report().completed, 1);
        let rep = m.drain();
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.epochs, 2);
    }

    #[test]
    fn queue_capacity_rejects() {
        let cfg = FabricConfig { queue_capacity: 2, ..FabricConfig::default() };
        let mut m = FabricManager::new(plan(), cfg);
        assert_eq!(m.submit(JobSpec::new(0, 0, 8)), Admission::Accepted);
        assert_eq!(m.submit(JobSpec::new(1, 0, 8)), Admission::Accepted);
        assert_eq!(m.submit(JobSpec::new(2, 0, 8)), Admission::Rejected);
        let rep = m.drain();
        assert_eq!((rep.accepted, rep.rejected, rep.completed), (2, 1, 2));
    }

    #[test]
    fn outstanding_cap_defers_then_promotes() {
        let cfg = FabricConfig { max_outstanding_elems: 100, ..FabricConfig::default() };
        let mut m = FabricManager::new(plan(), cfg);
        assert_eq!(m.submit(JobSpec::new(0, 0, 80)), Admission::Accepted);
        assert_eq!(m.submit(JobSpec::new(1, 0, 80)), Admission::Deferred);
        let rep = m.drain();
        assert_eq!(rep.deferred, 1);
        assert_eq!(rep.completed, 2, "deferred jobs run at the next boundary");
        assert_eq!(rep.epochs, 2);
    }

    #[test]
    fn invalid_specs_are_refused_at_the_door() {
        let mut m = FabricManager::new(plan(), FabricConfig::default());
        assert!(matches!(
            m.submit(JobSpec::new(0, 0, 0)),
            Admission::Invalid(SchedError::EmptyVector(0))
        ));
        m.submit(JobSpec::new(1, 0, 8));
        assert!(matches!(
            m.submit(JobSpec::new(1, 0, 8)),
            Admission::Invalid(SchedError::DuplicateJobId(1))
        ));
        let rep = m.drain();
        assert_eq!((rep.invalid, rep.completed), (2, 1));
    }

    #[test]
    #[should_panic(expected = "epoch_max_jobs must be at least 1")]
    fn zero_epoch_max_jobs_is_refused() {
        let cfg = FabricConfig { epoch_max_jobs: 0, ..FabricConfig::default() };
        let _ = FabricManager::new(plan(), cfg);
    }

    #[test]
    #[should_panic(expected = "sched.max_concurrent must be at least 1")]
    fn zero_max_concurrent_is_refused() {
        let mut cfg = FabricConfig::default();
        cfg.sched.max_concurrent = 0;
        let _ = FabricManager::new(plan(), cfg);
    }

    #[test]
    #[should_panic(expected = "plan.trees must not be empty")]
    fn a_plan_without_trees_is_refused() {
        let p = plan();
        let bare = AllreducePlan::from_tree_set(p.q, p.solution, p.graph, Vec::new());
        let _ = FabricManager::new(bare, FabricConfig::default());
    }

    #[test]
    fn out_of_order_arrivals_are_refused_not_fatal() {
        let mut m = FabricManager::new(plan(), FabricConfig::default());
        assert_eq!(m.submit(JobSpec::new(0, 100, 64)), Admission::Accepted);
        let (now, queued) = (m.now(), m.queued());
        assert_eq!(
            m.submit(JobSpec::new(1, 99, 64)),
            Admission::Invalid(SchedError::OutOfOrder { at: 99, last: 100 })
        );
        assert_eq!((m.now(), m.queued()), (now, queued), "clock and queues untouched");
        // The refused job's id was never queued, so it can come again.
        assert_eq!(m.submit(JobSpec::new(1, 100, 64)), Admission::Accepted);
        let rep = m.drain();
        assert_eq!((rep.submitted, rep.accepted, rep.invalid, rep.completed), (3, 2, 1, 2));
    }

    #[test]
    fn fault_heal_cycle_repairs_and_reuses_cache() {
        let p = AllreducePlan::low_depth(7).unwrap();
        let mut m = FabricManager::new(p, FabricConfig::default());
        m.submit(JobSpec::new(0, 0, 64));
        m.inject_link_faults(10, &[3]).unwrap();
        m.submit(JobSpec::new(1, 20, 64));
        m.inject_link_faults(30, &[9]).unwrap();
        m.submit(JobSpec::new(2, 40, 64));
        m.heal(50);
        m.submit(JobSpec::new(3, 60, 64));
        let rep = m.drain();
        assert_eq!(rep.completed, 4);
        assert_eq!(rep.mismatches, 0);
        assert_eq!(rep.fault_events, 2);
        assert_eq!(rep.full_rebuilds, 1, "the first fault hits a healthy fabric");
        assert_eq!(rep.incremental_repairs, 1, "the second hits a degraded one");
        assert_eq!(rep.heals, 1);
    }

    #[test]
    fn partitioning_fault_is_refused_and_state_unchanged() {
        let p = AllreducePlan::single_tree(3).unwrap();
        let cut: Vec<u32> =
            p.graph.neighbors_with_edges(0).iter().map(|&(_, e)| e).collect();
        let mut m = FabricManager::new(p, FabricConfig::default());
        m.submit(JobSpec::new(0, 0, 32));
        assert!(m.inject_link_faults(5, &cut).is_err());
        assert!(m.faults().is_empty());
        let rep = m.drain();
        assert_eq!(rep.completed, 1);
        assert_eq!(rep.fault_events, 0);
    }

    #[test]
    fn report_digest_matches_direct_epoch_fold() {
        // Two managers fed identically agree byte for byte.
        let specs: Vec<JobSpec> = (0..10).map(|i| JobSpec::new(i, u64::from(i) * 50, 32)).collect();
        let mk = || {
            let mut m = FabricManager::new(plan(), FabricConfig::default());
            for s in &specs {
                m.submit(s.clone());
            }
            m.drain()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b);
        let _ = DirectPlans; // silence unused-import lint paranoia
    }
}
