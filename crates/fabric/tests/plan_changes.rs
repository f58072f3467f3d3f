//! Every change of the current plan reaches the engine.
//!
//! The manager compiles the current plan's trees at the first dispatch on
//! that plan and slices the compiled form for every wave that runs all of
//! them. Three operations replace the current plan: a link fault, a heal
//! and a checkpoint restore. These streams go through each of them, and
//! the manager's digest, makespan and wave count must equal a re-drive of
//! the same epochs through `Scheduler::run_epoch` with `DirectPlans`,
//! which compiles every epoch's plan afresh and caches nothing.

use pf_allreduce::recovery::{extend_degraded, rebuild_degraded, DegradedPlan};
use pf_allreduce::{AllreducePlan, FaultSet};
use pf_fabric::{FabricConfig, FabricEvent, FabricManager, FabricReport, PoissonJobs};
use pf_sched::{fold_job_digest, DirectPlans, JobSpec, Scheduler};
use std::collections::VecDeque;

/// The manager's dispatch loop under the default config (no deferral, no
/// rejection), one cold scheduler per epoch.
struct Redrive {
    cfg: FabricConfig,
    healthy: AllreducePlan,
    current: AllreducePlan,
    faults: FaultSet,
    degraded: Option<DegradedPlan>,
    now: u64,
    ready: VecDeque<JobSpec>,
    digest: u64,
    makespan: u64,
    waves: u64,
}

impl Redrive {
    fn new(healthy: &AllreducePlan) -> Self {
        Redrive {
            cfg: FabricConfig::default(),
            healthy: healthy.clone(),
            current: healthy.clone(),
            faults: FaultSet::none(),
            degraded: None,
            now: 0,
            ready: VecDeque::new(),
            digest: pf_allreduce::fingerprint::FNV_OFFSET,
            makespan: 0,
            waves: 0,
        }
    }

    fn dispatch(&mut self) {
        let take = self.ready.len().min(self.cfg.epoch_max_jobs);
        let specs: Vec<JobSpec> = self.ready.drain(..take).collect();
        let report = Scheduler::new(&self.current, self.cfg.sched)
            .run_epoch(&specs, self.now, None, &mut DirectPlans)
            .expect("valid specs");
        self.waves += report.waves.len() as u64;
        self.digest = report.jobs.iter().fold(self.digest, fold_job_digest);
        self.makespan = self.makespan.max(report.makespan);
        self.now = self.now.max(report.makespan);
    }

    fn advance_to(&mut self, t: u64) {
        while self.now < t && !self.ready.is_empty() {
            self.dispatch();
        }
        self.now = self.now.max(t);
    }

    fn play(&mut self, events: &[FabricEvent]) {
        for ev in events {
            self.advance_to(ev.at());
            match ev {
                FabricEvent::Submit(spec) => self.ready.push_back(spec.clone()),
                FabricEvent::LinkFaults { edges, .. } => {
                    let new: Vec<u32> =
                        edges.iter().copied().filter(|e| !self.faults.edges.contains(e)).collect();
                    if new.is_empty() {
                        continue;
                    }
                    let delta = FaultSet::links(new);
                    let combined = self.faults.union(&delta);
                    let next = self
                        .degraded
                        .as_ref()
                        .and_then(|prev| extend_degraded(&self.healthy, &self.faults, prev, &delta))
                        .unwrap_or_else(|| {
                            rebuild_degraded(&self.healthy, &combined).expect("non-partitioning")
                        });
                    self.current = next.to_plan(self.healthy.q);
                    self.degraded = Some(next);
                    self.faults = combined;
                }
                FabricEvent::Heal { .. } => {
                    self.faults = FaultSet::none();
                    self.degraded = None;
                    self.current = self.healthy.clone();
                }
            }
        }
        while !self.ready.is_empty() {
            self.dispatch();
        }
    }
}

/// `n` dense Poisson jobs with fault events spliced in after job indices
/// `at` (each event timestamped at that job's arrival).
fn stream(seed: u64, n: usize, at: &[(usize, Option<Vec<u32>>)]) -> Vec<FabricEvent> {
    let jobs: Vec<JobSpec> = PoissonJobs::new(seed, 60, 16, 256).take(n).collect();
    let mut events = Vec::with_capacity(n + at.len());
    for (i, spec) in jobs.iter().enumerate() {
        events.push(FabricEvent::Submit(spec.clone()));
        for (_, edges) in at.iter().filter(|(j, _)| *j == i) {
            events.push(match edges {
                Some(edges) => FabricEvent::LinkFaults { at: spec.arrival, edges: edges.clone() },
                None => FabricEvent::Heal { at: spec.arrival },
            });
        }
    }
    events
}

fn assert_matches_redrive(report: &FabricReport, plan: &AllreducePlan, events: &[FabricEvent]) {
    let mut redrive = Redrive::new(plan);
    redrive.play(events);
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.digest, redrive.digest, "digest");
    assert_eq!(report.makespan, redrive.makespan, "makespan");
    assert_eq!(report.waves, redrive.waves, "waves");
}

#[test]
fn a_fault_a_heal_and_the_same_fault_again_reach_the_engine() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    // Link 2 carries two trees, so its repair drops one. Link 5 carries
    // none of the healthy trees; its repair on top of link 2's keeps the
    // tree count but not the plan, which only the plan's identity tells
    // apart from the one before it.
    let events = stream(
        3,
        100,
        &[(20, Some(vec![2])), (35, Some(vec![5])), (50, None), (75, Some(vec![2]))],
    );
    let report = FabricManager::new(plan.clone(), FabricConfig::default()).play(events.clone());
    assert_eq!((report.fault_events, report.heals), (3, 1));
    assert_matches_redrive(&report, &plan, &events);
}

#[test]
fn a_restore_from_a_degraded_checkpoint_reaches_the_engine() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let events = stream(5, 80, &[(10, Some(vec![4])), (30, Some(vec![9]))]);
    let cut = events.len() / 2;
    let mut first = FabricManager::new(plan.clone(), FabricConfig::default());
    for ev in &events[..cut] {
        match ev {
            FabricEvent::Submit(spec) => {
                first.submit(spec.clone());
            }
            FabricEvent::LinkFaults { at, edges } => {
                first.inject_link_faults(*at, edges).expect("non-partitioning");
            }
            FabricEvent::Heal { at } => first.heal(*at),
        }
    }
    assert_eq!(first.faults().edges, vec![4, 9], "the checkpoint is taken degraded");
    let text = first.checkpoint();
    let mut restored =
        FabricManager::restore(plan.clone(), FabricConfig::default(), &text).expect("restores");
    let report = restored.play(events[cut..].to_vec());
    assert_matches_redrive(&report, &plan, &events);
}
