//! The wave-based scheduler: admission, execution, accounting.
//!
//! The engine (`pf-simnet`) runs a fixed set of concurrent jobs to
//! completion — it has no preemption — so the scheduler works in *waves*:
//! admit up to `max_concurrent` jobs, partition the free trees among
//! them, run them together in one multi-job simulation, reclaim every
//! tree, repeat. Jobs that will arrive shortly after a wave starts
//! (within `lookahead` cycles) can be admitted into it with a deferred
//! release cycle, which the engine honors exactly; this keeps the fabric
//! busy without waiting a full wave for a near-miss arrival.
//!
//! Everything is a pure function of the inputs: same specs, same config,
//! same fault schedule → byte-identical [`SchedReport`].

use pf_allreduce::fingerprint::{fnv1a_u64, FNV_OFFSET};
use pf_allreduce::AllreducePlan;
use pf_simnet::{
    run_with_recovery, Collective, CompiledTrees, FaultSchedule, JobBinding, JobSegment,
    JobTraceRow, MultiTreeEmbedding, SimConfig, Simulator, Workload,
};
use std::sync::Arc;

use crate::alloc::TreeAllocator;
use crate::error::SchedError;
use crate::job::{JobRecord, JobSpec};
use crate::policy::Policy;
use crate::provider::{DirectPlans, PlanProvider};

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Admission order (see [`Policy`]).
    pub policy: Policy,
    /// Simulator knobs for every wave.
    pub sim: SimConfig,
    /// Maximum jobs running concurrently in one wave (≥ 1).
    pub max_concurrent: usize,
    /// A job arriving within `lookahead` cycles of a wave's start may be
    /// admitted into it with a deferred release (0 = only jobs that have
    /// already arrived).
    pub lookahead: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            policy: Policy::Fifo,
            sim: SimConfig::default(),
            max_concurrent: 4,
            lookahead: 2048,
        }
    }
}

/// One executed wave.
#[derive(Debug, Clone)]
pub struct WaveRecord {
    /// Wave number, from 0.
    pub index: u32,
    /// Absolute cycle the wave started.
    pub base: u64,
    /// Cycles the wave occupied the fabric (including any fault
    /// detection and recovery re-runs).
    pub cycles: u64,
    /// Ids of the jobs that ran in this wave.
    pub jobs: Vec<u32>,
    /// Peak combined per-edge congestion of the wave's tree allocation
    /// (≤ the plan's `max_congestion`, asserted by the allocator).
    pub max_combined_congestion: u32,
}

/// Cross-tenant fairness summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessStats {
    /// Jain's fairness index over per-job achieved bandwidth:
    /// `(Σx)² / (n·Σx²)` ∈ (0, 1], 1 = perfectly fair.
    pub jain_index: f64,
    /// Median arrival-to-finish latency (nearest-rank).
    pub p50_latency: u64,
    /// 99th-percentile arrival-to-finish latency (nearest-rank).
    pub p99_latency: u64,
    /// Mean cycles jobs spent queued before release.
    pub mean_queueing_delay: f64,
}

/// Everything the scheduler observed over one job stream.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
    /// The waves, in execution order.
    pub waves: Vec<WaveRecord>,
    /// Cycle the last job finished.
    pub makespan: u64,
    /// Total elements reduced across all jobs.
    pub total_elems: u64,
    /// Total expected-value check failures (must be 0).
    pub mismatches: u64,
    /// Peak combined per-edge congestion over all waves.
    pub max_combined_congestion: u32,
    /// The plan's own congestion bound (Theorem 7.6 / 7.19); the
    /// allocator guarantees `max_combined_congestion ≤ congestion_bound`.
    pub congestion_bound: u32,
    /// Cross-tenant fairness summary.
    pub fairness: FairnessStats,
}

impl SchedReport {
    /// The per-job trace rows, for a trace's `jobs` table
    /// ([`pf_simnet::TraceReport::jobs`]).
    #[must_use]
    pub fn trace_rows(&self) -> Vec<JobTraceRow> {
        self.jobs.iter().map(job_trace_row).collect()
    }

    /// Order-sensitive FNV digest over the per-job records: ids, timing,
    /// tree assignment, value hashes, recovery flags. Two runs that made
    /// the same decisions for every job digest equal; the fabric manager
    /// folds the same per-job formula incrementally across epochs, so a
    /// stream fully ingested before its first wave digests identically to
    /// the batch path (property-tested in `pf-fabric`).
    ///
    /// Wave indices are deliberately excluded — the fabric restarts wave
    /// numbering every epoch, and the digest tracks *per-job outcomes*,
    /// not how the run was chunked.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.jobs.iter().fold(FNV_OFFSET, fold_job_digest)
    }

    /// Goodput in elements per cycle: total finished work over the
    /// makespan. The single figure of merit the policy×load sweep and the
    /// capacity planner (`experiments capacity`) rank configurations by;
    /// keeping it here makes every consumer price a report identically.
    /// A zero makespan (empty job stream) prices as zero goodput.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.total_elems as f64 / self.makespan as f64
    }
}

/// Folds one finished job into a rolling report digest (see
/// [`SchedReport::digest`]).
#[must_use]
pub fn fold_job_digest(mut h: u64, r: &JobRecord) -> u64 {
    h = fnv1a_u64(h, u64::from(r.spec.id));
    h = fnv1a_u64(h, r.spec.arrival);
    h = fnv1a_u64(h, r.spec.elems);
    h = fnv1a_u64(h, r.admit);
    h = fnv1a_u64(h, r.start);
    h = fnv1a_u64(h, r.finish);
    h = fnv1a_u64(h, r.trees.len() as u64);
    for &t in &r.trees {
        h = fnv1a_u64(h, t as u64);
    }
    h = fnv1a_u64(h, r.value_hash);
    h = fnv1a_u64(h, r.mismatches);
    h = fnv1a_u64(h, u64::from(r.recovered));
    h = fnv1a_u64(h, u64::from(r.recovery_rounds));
    h
}

fn job_trace_row(r: &JobRecord) -> JobTraceRow {
    JobTraceRow {
        job: r.spec.id,
        arrival: r.spec.arrival,
        admit: r.admit,
        start: r.start,
        finish: r.finish,
        elems: r.spec.elems,
        trees: r.trees.len() as u32,
        queueing_delay: r.queueing_delay(),
        achieved_bandwidth: r.achieved_bandwidth(),
        collective: r.spec.collective.name().to_string(),
    }
}

/// The multi-tenant scheduler for one plan's fabric.
pub struct Scheduler<'a> {
    plan: &'a AllreducePlan,
    cfg: SchedConfig,
    /// The plan's trees compiled on its graph, when the caller keeps them
    /// across epochs ([`Scheduler::with_compiled`]).
    compiled: Option<Arc<CompiledTrees>>,
}

/// One admitted-but-not-yet-finished job inside a wave.
#[derive(Debug, Clone)]
struct AdmittedJob {
    /// Index into the spec slice.
    idx: usize,
    /// Full-plan tree indices it owns (sorted ascending).
    trees: Vec<usize>,
    /// Release cycle relative to the wave base.
    release: u64,
}

/// The outcome of planning one wave: who runs, on which trees, and the
/// combined congestion of the allocation.
#[derive(Debug, Clone)]
struct WaveAdmission {
    /// The admitted jobs, in admission order.
    jobs: Vec<AdmittedJob>,
    /// Peak combined per-edge congestion of this wave's allocation
    /// (≤ the plan's bound, asserted by the allocator).
    max_combined_congestion: u32,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `plan`'s fabric and trees.
    #[must_use]
    pub fn new(plan: &'a AllreducePlan, cfg: SchedConfig) -> Self {
        Scheduler { plan, cfg, compiled: None }
    }

    /// Runs every epoch on `compiled`, the plan's trees compiled on its
    /// graph (`CompiledTrees::new(&plan.graph, &plan.trees)`), instead of
    /// compiling them at the start of each epoch. A wave whose tree list
    /// is the plan's full list slices the compiled form; any other wave
    /// compiles its own list.
    ///
    /// Panics if `compiled` has another tree or node count than the plan.
    #[must_use]
    pub fn with_compiled(mut self, compiled: Arc<CompiledTrees>) -> Self {
        assert!(
            compiled.num_trees() == self.plan.trees.len()
                && compiled.num_nodes() == self.plan.graph.num_vertices(),
            "compiled trees must be the plan's"
        );
        self.compiled = Some(compiled);
        self
    }

    /// Runs the job stream to completion on a healthy fabric.
    pub fn run(&self, specs: &[JobSpec]) -> Result<SchedReport, SchedError> {
        self.run_epoch(specs, 0, None, &mut DirectPlans)
    }

    /// Runs the job stream under fault injection. Fault cycles in
    /// `schedule` are absolute; each wave sees the events translated into
    /// its own time base (already-active permanent faults re-activate at
    /// the wave's first cycle; fully-healed transients are dropped).
    /// When detection aborts a wave, the unaffected tenants re-run
    /// untouched on their original tree subsets and releases, and only
    /// the tenants whose trees use a detected link (or any tenant, on a
    /// router fault) go through [`run_with_recovery`].
    pub fn run_faulted(
        &self,
        specs: &[JobSpec],
        schedule: &FaultSchedule,
    ) -> Result<SchedReport, SchedError> {
        self.run_epoch(specs, 0, Some(schedule), &mut DirectPlans)
    }

    /// Runs one *epoch*: the full wave loop over `specs`, starting the
    /// clock at absolute cycle `base`, sourcing subset plans from
    /// `plans`. [`Scheduler::run`] is exactly `run_epoch(specs, 0, None,
    /// &mut DirectPlans)`; the fabric manager calls this directly with
    /// its dispatch cycle and caching provider, so an epoch's records
    /// carry absolute fabric time.
    ///
    /// All `specs` must have `arrival ≤ base` or arrive while the epoch
    /// runs — arrivals are honored exactly as in the batch path (idle
    /// skipping, lookahead admission); `base` only shifts where the clock
    /// starts.
    pub fn run_epoch(
        &self,
        specs: &[JobSpec],
        base: u64,
        schedule: Option<&FaultSchedule>,
        plans: &mut dyn PlanProvider,
    ) -> Result<SchedReport, SchedError> {
        let cfg = &self.cfg;
        let n = self.plan.graph.num_vertices();
        validate(specs, cfg, self.plan)?;

        // One segmented workload over every job, in submission order:
        // job i owns global elements [global_off[i], global_off[i+1]).
        let segs: Vec<JobSegment> = specs
            .iter()
            .map(|s| JobSegment {
                elems: s.elems,
                kind: s.kind,
                participants: s.participants.clone(),
            })
            .collect();
        let w = Workload::concat(n, &segs);
        let mut global_off = Vec::with_capacity(specs.len());
        let mut off = 0u64;
        for s in specs {
            global_off.push(off);
            off += s.elems;
        }

        let mut pending: Vec<usize> = (0..specs.len()).collect();
        let mut records: Vec<Option<JobRecord>> = specs.iter().map(|_| None).collect();
        let mut waves: Vec<WaveRecord> = Vec::new();
        let mut now = base;
        let mut max_comb = 0u32;
        // The plan's trees, compiled once for the epoch unless the caller
        // keeps them. The allocator charges edge ids from them, and every
        // full-list wave slices them.
        let compiled = match &self.compiled {
            Some(c) => Arc::clone(c),
            None => Arc::new(CompiledTrees::new(&self.plan.graph, &self.plan.trees)),
        };
        // One allocator for the whole epoch: `reset` reclaims everything
        // between waves.
        let mut alloc = TreeAllocator::new(self.plan, &compiled);

        while !pending.is_empty() {
            // Idle-skip to the next arrival if the queue is empty now.
            let earliest = pending.iter().map(|&i| specs[i].arrival).min().expect("non-empty");
            now = now.max(earliest);

            alloc.reset();
            let admission = self.plan_wave(specs, &mut pending, now, &mut alloc);
            max_comb = max_comb.max(admission.max_combined_congestion);
            let admitted = &admission.jobs;
            debug_assert!(!admitted.is_empty(), "a wave always admits at least one job");
            let kind = specs[admitted[0].idx].collective;
            debug_assert!(
                admitted.iter().all(|a| specs[a.idx].collective == kind),
                "waves are homogeneous in collective"
            );

            let wave_cycles = self.execute_wave(
                &w,
                &compiled,
                specs,
                &global_off,
                &admission,
                kind,
                now,
                schedule,
                plans,
                &mut records,
                &mut waves,
            )?;
            now += wave_cycles;
        }

        let jobs: Vec<JobRecord> =
            records.into_iter().map(|r| r.expect("every job ran")).collect();
        let makespan = jobs.iter().map(|r| r.finish).max().unwrap_or(0);
        let mismatches = jobs.iter().map(|r| r.mismatches).sum();
        Ok(SchedReport {
            makespan,
            total_elems: specs.iter().map(|s| s.elems).sum(),
            mismatches,
            max_combined_congestion: max_comb,
            congestion_bound: self.plan.max_congestion,
            fairness: fairness(&jobs),
            jobs,
            waves,
        })
    }

    /// Admits up to `max_concurrent` jobs at wave base `now`, allocating
    /// trees from `alloc` (reset by the caller) as it goes. Tree shares
    /// rebalance to the visible queue depth: with `k` admission slots
    /// still open and `f` free trees, the next job receives
    /// `max(1, f / k)` trees, so a lone job gets the whole fabric and a
    /// full queue splits it evenly.
    ///
    /// Waves are homogeneous in collective: the first job admitted fixes
    /// the wave's kind (one engine run executes one collective), and
    /// jobs of other kinds stay pending for a later wave.
    ///
    /// Admitted indices are removed from `pending`. Only
    /// [`Scheduler::run_epoch`] calls it, once per wave; it executes
    /// nothing.
    fn plan_wave(
        &self,
        specs: &[JobSpec],
        pending: &mut Vec<usize>,
        now: u64,
        alloc: &mut TreeAllocator,
    ) -> WaveAdmission {
        let cfg = &self.cfg;
        let mut admitted: Vec<AdmittedJob> = Vec::new();
        let horizon = now.saturating_add(cfg.lookahead);
        let mut wave_kind: Option<Collective> = None;

        while admitted.len() < cfg.max_concurrent && alloc.free_trees() > 0 {
            let wk = wave_kind;
            let fits = move |i: usize| wk.is_none_or(|k| specs[i].collective == k);
            // Prefer jobs that have arrived (policy order); otherwise pull
            // the earliest upcoming arrival within the lookahead window.
            let arrived: Vec<(usize, &JobSpec)> = pending
                .iter()
                .filter(|&&i| specs[i].arrival <= now && fits(i))
                .map(|&i| (i, &specs[i]))
                .collect();
            let chosen = if arrived.is_empty() {
                let upcoming = pending
                    .iter()
                    .copied()
                    .filter(|&i| specs[i].arrival <= horizon && fits(i))
                    .min_by_key(|&i| (specs[i].arrival, specs[i].id));
                match upcoming {
                    Some(i) => i,
                    None => break,
                }
            } else {
                arrived[cfg.policy.pick(&arrived, now)].0
            };
            wave_kind = Some(specs[chosen].collective);

            // Rebalance: split the free trees over the slots the visible
            // queue can actually fill (only same-kind jobs can fill them).
            let visible = pending
                .iter()
                .filter(|&&i| specs[i].arrival <= horizon && fits(i))
                .count();
            let slots = (cfg.max_concurrent - admitted.len()).min(visible).max(1);
            let want = (alloc.free_trees() / slots).max(1);
            let trees = alloc.allocate(want).expect("want ≤ free by construction");

            pending.retain(|&i| i != chosen);
            admitted.push(AdmittedJob {
                idx: chosen,
                trees,
                release: specs[chosen].arrival.saturating_sub(now),
            });
        }
        WaveAdmission { jobs: admitted, max_combined_congestion: alloc.max_combined() }
    }

    /// Runs one wave (with fault handling) and fills the job records.
    /// Returns the cycles the wave occupied the fabric.
    #[allow(clippy::too_many_arguments)]
    fn execute_wave(
        &self,
        w: &Workload,
        compiled: &Arc<CompiledTrees>,
        specs: &[JobSpec],
        global_off: &[u64],
        admission: &WaveAdmission,
        kind: Collective,
        base: u64,
        schedule: Option<&FaultSchedule>,
        plans: &mut dyn PlanProvider,
        records: &mut [Option<JobRecord>],
        waves: &mut Vec<WaveRecord>,
    ) -> Result<u64, SchedError> {
        let cfg = &self.cfg;
        let admitted = &admission.jobs;
        let wave_index = waves.len() as u32;
        let wsched = schedule.map(|s| rebase_schedule(s, base)).filter(|s| !s.is_empty());
        let max_comb_wave = admission.max_combined_congestion;

        // `to_run` shrinks only on fault recovery: jobs whose trees used a
        // detected link leave through `run_with_recovery`, the rest re-run
        // untouched (same trees, same releases, same time base).
        let mut to_run: Vec<&AdmittedJob> = admitted.iter().collect();
        let mut wave_cycles = 0u64;
        let mut wave_job_ids: Vec<u32> = admitted.iter().map(|a| specs[a.idx].id).collect();
        wave_job_ids.sort_unstable();

        while !to_run.is_empty() {
            let (emb, bindings) = self.wave_embedding(specs, global_off, &to_run, plans, compiled);
            let mut sim = Simulator::new(&self.plan.graph, &emb, cfg.sim);
            if let Some(ws) = &wsched {
                sim = sim.with_faults(&self.plan.graph, ws.clone());
            }
            let run = sim.run_jobs_collective(w, &bindings, kind);

            if run.report.completed {
                wave_cycles = wave_cycles.max(run.report.cycles);
                for (k, adm) in to_run.iter().enumerate() {
                    let out = &run.jobs[k];
                    records[adm.idx] = Some(JobRecord {
                        spec: specs[adm.idx].clone(),
                        admit: base,
                        start: base + adm.release,
                        finish: base + out.completion,
                        trees: adm.trees.clone(),
                        wave: wave_index,
                        value_hash: out.value_hash,
                        mismatches: out.mismatches,
                        recovered: false,
                        recovery_rounds: 0,
                    });
                }
                break;
            }

            if !run.faults.aborted {
                return Err(SchedError::WaveStalled { wave: wave_index });
            }

            // Fault detection aborted the wave. Split the tenants.
            let detected = run.faults.detected();
            let mut survivors: Vec<&AdmittedJob> = Vec::new();
            let mut hit: Vec<&AdmittedJob> = Vec::new();
            for adm in &to_run {
                let affected = !detected.routers.is_empty()
                    || adm.trees.iter().any(|&ti| {
                        compiled.tree_edges(ti).iter().any(|e| detected.edges.contains(e))
                    });
                if affected {
                    hit.push(adm);
                } else {
                    survivors.push(adm);
                }
            }
            if hit.is_empty() {
                return Err(SchedError::PhantomFault { wave: wave_index });
            }
            let ws = wsched
                .as_ref()
                .expect("detection implies an attached schedule");
            for adm in hit {
                let sub = plans.subset(self.plan, &adm.trees);
                let outcome = run_with_recovery(&sub, specs[adm.idx].elems, cfg.sim, ws, kind)
                    .map_err(|e| SchedError::Recovery { job: specs[adm.idx].id, source: e })?;
                let cost = adm.release + outcome.total_cycles;
                wave_cycles = wave_cycles.max(cost);
                records[adm.idx] = Some(JobRecord {
                    spec: specs[adm.idx].clone(),
                    admit: base,
                    start: base + adm.release,
                    finish: base + cost,
                    trees: adm.trees.clone(),
                    wave: wave_index,
                    // The recovery path validates on its own substitute
                    // workload; the digest is not comparable.
                    value_hash: 0,
                    mismatches: outcome.final_report().mismatches,
                    recovered: true,
                    recovery_rounds: outcome.rounds.len() as u32,
                });
            }
            to_run = survivors;
        }

        waves.push(WaveRecord {
            index: wave_index,
            base,
            cycles: wave_cycles,
            jobs: wave_job_ids,
            max_combined_congestion: max_comb_wave,
        });
        Ok(wave_cycles)
    }

    /// Builds the embedding of one engine run over `to_run`: each job's
    /// subset plan splits its vector across its trees, and the slices
    /// address the job's own global element range (so a job re-run solo
    /// reduces exactly the same elements). When the jobs' trees,
    /// concatenated, are the plan's full list, the run slices `compiled`
    /// (a provider's subset plan holds the plan's own trees, in index
    /// order); otherwise it compiles the wave's own list.
    fn wave_embedding(
        &self,
        specs: &[JobSpec],
        global_off: &[u64],
        to_run: &[&AdmittedJob],
        plans: &mut dyn PlanProvider,
        compiled: &Arc<CompiledTrees>,
    ) -> (MultiTreeEmbedding, Vec<JobBinding>) {
        let full = to_run.iter().flat_map(|a| &a.trees).copied().eq(0..self.plan.trees.len());
        let mut emb_trees = Vec::new();
        let mut sizes = Vec::new();
        let mut offsets = Vec::new();
        let mut bindings = Vec::new();
        let mut tstart = 0usize;
        for adm in to_run {
            let sub = plans.subset(self.plan, &adm.trees);
            let mut off = global_off[adm.idx];
            for len in sub.split(specs[adm.idx].elems) {
                sizes.push(len);
                offsets.push(off);
                off += len;
            }
            if !full {
                emb_trees.extend_from_slice(&sub.trees);
            }
            bindings.push(JobBinding {
                trees: tstart..tstart + adm.trees.len(),
                release: adm.release,
            });
            tstart += adm.trees.len();
        }
        let emb = if full {
            MultiTreeEmbedding::from_compiled(Arc::clone(compiled), &sizes, &offsets)
        } else {
            MultiTreeEmbedding::with_offsets(&self.plan.graph, &emb_trees, &sizes, &offsets)
        };
        (emb, bindings)
    }
}

/// Checks one spec against a plan's fabric, independent of any batch:
/// non-empty vector, sane participant set. This is what the fabric
/// manager runs at submit time so a bad spec is rejected at the front
/// door instead of failing a whole epoch (uniqueness of ids is a batch
/// property and stays with the batch validation).
pub fn validate_spec(spec: &JobSpec, plan: &AllreducePlan) -> Result<(), SchedError> {
    if spec.elems == 0 {
        return Err(SchedError::EmptyVector(spec.id));
    }
    if let Some(p) = &spec.participants {
        if p.is_empty() {
            return Err(SchedError::EmptyParticipants(spec.id));
        }
        let n = plan.graph.num_vertices();
        if let Some(&bad) = p.iter().find(|&&v| v >= n) {
            return Err(SchedError::ParticipantOutOfRange {
                job: spec.id,
                participant: bad,
                nodes: n,
            });
        }
    }
    Ok(())
}

fn validate(specs: &[JobSpec], cfg: &SchedConfig, plan: &AllreducePlan) -> Result<(), SchedError> {
    if specs.is_empty() {
        return Err(SchedError::NoJobs);
    }
    if cfg.max_concurrent == 0 {
        return Err(SchedError::ZeroConcurrency);
    }
    if plan.trees.is_empty() {
        return Err(SchedError::NoTrees);
    }
    let mut ids = std::collections::BTreeSet::new();
    for s in specs {
        if !ids.insert(s.id) {
            return Err(SchedError::DuplicateJobId(s.id));
        }
        validate_spec(s, plan)?;
    }
    Ok(())
}

/// Translates an absolute-cycle fault schedule into a wave's time base.
fn rebase_schedule(s: &FaultSchedule, base: u64) -> FaultSchedule {
    let events = s
        .events
        .iter()
        .filter_map(|ev| {
            if ev.cycle >= base {
                Some(pf_simnet::FaultEvent { cycle: ev.cycle - base, ..*ev })
            } else {
                match ev.duration {
                    // A permanent fault that activated in an earlier wave
                    // is still broken: re-activate at the wave's start.
                    None => Some(pf_simnet::FaultEvent { cycle: 0, ..*ev }),
                    Some(d) => {
                        let heal = ev.cycle.saturating_add(d);
                        // A transient still active at the wave boundary
                        // keeps its remaining duration; a healed one is
                        // history.
                        (heal > base).then(|| pf_simnet::FaultEvent {
                            cycle: 0,
                            duration: Some(heal - base),
                            ..*ev
                        })
                    }
                }
            }
        })
        .collect();
    FaultSchedule { events, abort_on_detection: s.abort_on_detection }
}

/// Jain's index and latency percentiles over the finished jobs.
fn fairness(jobs: &[JobRecord]) -> FairnessStats {
    let bw: Vec<f64> = jobs.iter().map(JobRecord::achieved_bandwidth).collect();
    let sum: f64 = bw.iter().sum();
    let sumsq: f64 = bw.iter().map(|x| x * x).sum();
    let n = bw.len() as f64;
    let jain = if sumsq > 0.0 { (sum * sum) / (n * sumsq) } else { 1.0 };

    let mut lat: Vec<u64> = jobs.iter().map(JobRecord::latency).collect();
    lat.sort_unstable();
    let pct = |p: u64| -> u64 {
        let idx = (p as usize * lat.len()).div_ceil(100).max(1) - 1;
        lat[idx.min(lat.len() - 1)]
    };
    let mean_q =
        jobs.iter().map(JobRecord::queueing_delay).sum::<u64>() as f64 / jobs.len() as f64;
    FairnessStats {
        jain_index: jain,
        p50_latency: pct(50),
        p99_latency: pct(99),
        mean_queueing_delay: mean_q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn plan() -> AllreducePlan {
        AllreducePlan::low_depth(3).unwrap()
    }

    #[test]
    fn single_job_gets_the_whole_fabric() {
        let p = plan();
        let s = Scheduler::new(&p, SchedConfig::default());
        let r = s.run(&[JobSpec::new(0, 0, 64)]).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].trees.len(), p.trees.len());
        assert_eq!(r.jobs[0].mismatches, 0);
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.waves.len(), 1);
        assert_eq!(r.makespan, r.jobs[0].finish);
        assert!(r.max_combined_congestion <= r.congestion_bound);
    }

    #[test]
    fn concurrent_jobs_split_the_trees() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 2, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        let r = s.run(&[JobSpec::new(0, 0, 48), JobSpec::new(1, 0, 48)]).unwrap();
        assert_eq!(r.waves.len(), 1, "both jobs fit one wave");
        assert_eq!(r.jobs[0].wave, 0);
        assert_eq!(r.jobs[1].wave, 0);
        let t0: Vec<usize> = r.jobs[0].trees.clone();
        let t1: Vec<usize> = r.jobs[1].trees.clone();
        assert!(t0.iter().all(|ti| !t1.contains(ti)), "tree subsets are disjoint");
        assert_eq!(t0.len() + t1.len(), p.trees.len());
        assert_eq!(r.mismatches, 0);
    }

    #[test]
    fn later_arrival_is_released_later() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 2, lookahead: 10_000, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        let r = s.run(&[JobSpec::new(0, 0, 64), JobSpec::new(1, 500, 64)]).unwrap();
        assert_eq!(r.waves.len(), 1, "lookahead admits the upcoming job");
        assert_eq!(r.jobs[1].start, 500);
        assert_eq!(r.jobs[1].queueing_delay(), 0);
        assert!(r.jobs[1].finish > 500);
    }

    #[test]
    fn queue_overflow_rolls_into_a_second_wave() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 2, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        let specs: Vec<JobSpec> = (0..3).map(|i| JobSpec::new(i, 0, 32)).collect();
        let r = s.run(&specs).unwrap();
        assert_eq!(r.waves.len(), 2);
        assert_eq!(r.jobs.iter().filter(|j| j.wave == 0).count(), 2);
        assert_eq!(r.jobs.iter().filter(|j| j.wave == 1).count(), 1);
        // The second wave starts when the first ends.
        assert_eq!(r.waves[1].base, r.waves[0].base + r.waves[0].cycles);
        let straggler = r.jobs.iter().find(|j| j.wave == 1).unwrap();
        assert_eq!(straggler.queueing_delay(), r.waves[1].base);
    }

    #[test]
    fn far_future_arrival_waits_out_the_lookahead() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 4, lookahead: 100, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        let r = s.run(&[JobSpec::new(0, 0, 32), JobSpec::new(1, 1_000_000, 32)]).unwrap();
        assert_eq!(r.waves.len(), 2, "a far-future job is not dragged into wave 0");
        assert_eq!(r.jobs[1].start, 1_000_000, "the fabric idles until it arrives");
    }

    #[test]
    fn sjf_reorders_the_queue() {
        let p = plan();
        let cfg = SchedConfig {
            max_concurrent: 1,
            policy: Policy::ShortestJobFirst,
            ..SchedConfig::default()
        };
        let s = Scheduler::new(&p, cfg);
        // All arrive at 0; the short job must run in the first wave.
        let specs =
            [JobSpec::new(0, 0, 512), JobSpec::new(1, 0, 16), JobSpec::new(2, 0, 256)];
        let r = s.run(&specs).unwrap();
        assert_eq!(r.jobs[1].wave, 0);
        assert_eq!(r.jobs[2].wave, 1);
        assert_eq!(r.jobs[0].wave, 2);
    }

    #[test]
    fn report_is_deterministic() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 3, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        let specs: Vec<JobSpec> =
            (0..6).map(|i| JobSpec::new(i, u64::from(i) * 37, 24 + u64::from(i) * 5)).collect();
        let a = s.run(&specs).unwrap();
        let b = s.run(&specs).unwrap();
        assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.value_hash, y.value_hash);
            assert_eq!(x.trees, y.trees);
        }
    }

    #[test]
    fn rejects_bad_streams() {
        let p = plan();
        let s = Scheduler::new(&p, SchedConfig::default());
        assert!(s.run(&[]).is_err());
        assert!(s.run(&[JobSpec::new(0, 0, 8), JobSpec::new(0, 0, 8)]).is_err());
        assert!(s.run(&[JobSpec::new(0, 0, 0)]).is_err());
        let bad = JobSpec { participants: Some(vec![10_000]), ..JobSpec::new(1, 0, 8) };
        assert!(s.run(&[bad]).is_err());
    }

    #[test]
    fn refuses_a_plan_without_trees() {
        let p = plan();
        let bare = AllreducePlan::from_tree_set(p.q, p.solution, p.graph, Vec::new());
        let s = Scheduler::new(&bare, SchedConfig::default());
        assert_eq!(s.run(&[JobSpec::new(0, 0, 8)]).unwrap_err(), SchedError::NoTrees);
    }

    #[test]
    fn rebase_translates_fault_cycles() {
        let sched = FaultSchedule {
            events: vec![
                pf_simnet::FaultEvent {
                    cycle: 100,
                    target: pf_simnet::FaultTarget::Link(3),
                    duration: None,
                },
                pf_simnet::FaultEvent {
                    cycle: 50,
                    target: pf_simnet::FaultTarget::Link(4),
                    duration: Some(30),
                },
                pf_simnet::FaultEvent {
                    cycle: 60,
                    target: pf_simnet::FaultTarget::Link(5),
                    duration: Some(500),
                },
            ],
            abort_on_detection: true,
        };
        let r = rebase_schedule(&sched, 90);
        // Future permanent: shifted. Healed transient (50+30 ≤ 90):
        // dropped. Active transient: re-based with remaining duration.
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].cycle, 10);
        assert_eq!(r.events[1].cycle, 0);
        assert_eq!(r.events[1].duration, Some(470));
    }

    #[test]
    fn mixed_collectives_run_in_homogeneous_waves() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 4, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        // Four same-time jobs, alternating collectives. With 4 slots one
        // wave could hold them all, but kinds must not mix: the admission
        // controller splits them into one wave per collective.
        let specs: Vec<JobSpec> = [
            Collective::ReduceScatter,
            Collective::Allgather,
            Collective::ReduceScatter,
            Collective::Allgather,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, c)| JobSpec { collective: c, ..JobSpec::new(i as u32, 0, 48) })
        .collect();
        let r = s.run(&specs).unwrap();

        assert_eq!(r.waves.len(), 2, "one wave per collective kind");
        for wave in &r.waves {
            let kinds: std::collections::BTreeSet<&str> = wave
                .jobs
                .iter()
                .map(|&id| {
                    r.jobs.iter().find(|j| j.spec.id == id).unwrap().spec.collective.name()
                })
                .collect();
            assert_eq!(kinds.len(), 1, "wave {} mixes collectives", wave.index);
        }
        assert_eq!(r.mismatches, 0);
        for row in r.trace_rows() {
            let spec = &specs[row.job as usize];
            assert_eq!(row.collective, spec.collective.name());
        }
    }

    #[test]
    fn collective_jobs_complete_for_every_kind() {
        let p = plan();
        let s = Scheduler::new(&p, SchedConfig::default());
        for kind in Collective::ALL {
            let spec = JobSpec { collective: kind, ..JobSpec::new(0, 0, 64) };
            let r = s.run(&[spec]).unwrap();
            assert_eq!(r.mismatches, 0, "{} job mismatched", kind.name());
            assert_eq!(r.jobs[0].spec.collective, kind);
            assert!(r.makespan > 0);
        }
    }

    #[test]
    fn fairness_stats_are_sane() {
        let p = plan();
        let cfg = SchedConfig { max_concurrent: 2, ..SchedConfig::default() };
        let s = Scheduler::new(&p, cfg);
        let specs: Vec<JobSpec> = (0..4).map(|i| JobSpec::new(i, 0, 64)).collect();
        let r = s.run(&specs).unwrap();
        assert!(r.fairness.jain_index > 0.5 && r.fairness.jain_index <= 1.0);
        assert!(r.fairness.p50_latency <= r.fairness.p99_latency);
        assert_eq!(r.fairness.p99_latency, r.jobs.iter().map(JobRecord::latency).max().unwrap());
    }
}
