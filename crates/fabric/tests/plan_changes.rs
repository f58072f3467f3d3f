//! Every change of the current plan reaches the engine.
//!
//! The manager compiles the current plan's trees at the first dispatch on
//! that plan and slices the compiled form for every wave that runs all of
//! them. Three operations replace the current plan: a link fault, a heal
//! and a checkpoint restore. These streams go through each of them, and
//! the manager's digest, makespan and wave count must equal a re-drive of
//! the same epochs through `Scheduler::run_epoch` with `DirectPlans`,
//! which compiles every epoch's plan afresh and caches nothing.
//!
//! Every link-fault event rebuilds the plan from the healthy plan and the
//! whole fault set, so after any event the current plan is
//! `rebuild_degraded(healthy, faults)`; `full_rebuilds` counts fault
//! events on a healthy fabric and `incremental_repairs` those on an
//! already-degraded one.

use pf_allreduce::recovery::rebuild_degraded;
use pf_allreduce::{plan_fingerprint, AllreducePlan, FaultSet};
use pf_fabric::{FabricConfig, FabricEvent, FabricManager, FabricReport, PoissonJobs};
use pf_sched::{fold_job_digest, DirectPlans, JobSpec, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The manager's dispatch loop under the default config (no deferral, no
/// rejection), one cold scheduler per epoch, with its repair counters.
struct Redrive {
    cfg: FabricConfig,
    healthy: AllreducePlan,
    current: AllreducePlan,
    faults: FaultSet,
    now: u64,
    ready: VecDeque<JobSpec>,
    digest: u64,
    makespan: u64,
    waves: u64,
    /// Link-fault events applied to a healthy fabric.
    on_healthy: u64,
    /// Link-fault events applied to an already-degraded fabric.
    on_degraded: u64,
    heals: u64,
}

impl Redrive {
    fn new(healthy: &AllreducePlan) -> Self {
        Redrive {
            cfg: FabricConfig::default(),
            healthy: healthy.clone(),
            current: healthy.clone(),
            faults: FaultSet::none(),
            now: 0,
            ready: VecDeque::new(),
            digest: pf_allreduce::fingerprint::FNV_OFFSET,
            makespan: 0,
            waves: 0,
            on_healthy: 0,
            on_degraded: 0,
            heals: 0,
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

    fn apply(&mut self, ev: &FabricEvent) {
        self.advance_to(ev.at());
        match ev {
            FabricEvent::Submit(spec) => self.ready.push_back(spec.clone()),
            FabricEvent::LinkFaults { edges, .. } => {
                let new: Vec<u32> =
                    edges.iter().copied().filter(|e| !self.faults.edges.contains(e)).collect();
                if new.is_empty() {
                    return;
                }
                let combined = self.faults.union(&FaultSet::links(new));
                // A batch that would partition the fabric is refused.
                let Ok(next) = rebuild_degraded(&self.healthy, &combined) else {
                    return;
                };
                if self.faults.is_empty() {
                    self.on_healthy += 1;
                } else {
                    self.on_degraded += 1;
                }
                self.current = next.to_plan(self.healthy.q);
                self.faults = combined;
            }
            FabricEvent::Heal { .. } => {
                if !self.faults.is_empty() {
                    self.heals += 1;
                }
                self.faults = FaultSet::none();
                self.current = self.healthy.clone();
            }
        }
    }

    fn drain(&mut self) {
        while !self.ready.is_empty() {
            self.dispatch();
        }
    }

    /// `(fault_events, full_rebuilds, incremental_repairs, heals)` as the
    /// manager must report them.
    fn counters(&self) -> (u64, u64, u64, u64) {
        (self.on_healthy + self.on_degraded, self.on_healthy, self.on_degraded, self.heals)
    }
}

fn counters(r: &FabricReport) -> (u64, u64, u64, u64) {
    (r.fault_events, r.full_rebuilds, r.incremental_repairs, r.heals)
}

/// Feeds one event to the manager, as `FabricManager::play` does.
fn feed(manager: &mut FabricManager, ev: &FabricEvent) {
    match ev {
        FabricEvent::Submit(spec) => {
            manager.submit(spec.clone());
        }
        FabricEvent::LinkFaults { at, edges } => {
            let _ = manager.inject_link_faults(*at, edges);
        }
        FabricEvent::Heal { at } => manager.heal(*at),
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
    for ev in events {
        redrive.apply(ev);
    }
    redrive.drain();
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.digest, redrive.digest, "digest");
    assert_eq!(report.makespan, redrive.makespan, "makespan");
    assert_eq!(report.waves, redrive.waves, "waves");
    assert_eq!(counters(report), redrive.counters(), "repair counters");
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
    let mut manager = FabricManager::new(plan.clone(), FabricConfig::default());
    // The current plan after each fault event: re-entering link 2's state
    // runs on the copy cached at its first visit.
    let mut after_faults = Vec::new();
    for ev in &events {
        feed(&mut manager, ev);
        if let FabricEvent::LinkFaults { .. } = ev {
            after_faults.push(manager.current_plan() as *const AllreducePlan);
        }
    }
    assert_eq!(after_faults[2], after_faults[0], "the same fault again runs on the cached plan");
    assert_ne!(after_faults[1], after_faults[0]);
    let report = manager.drain();
    assert_eq!(counters(&report), (3, 2, 1, 1));
    assert_matches_redrive(&report, &plan, &events);
}

#[test]
fn a_restore_from_a_degraded_checkpoint_reaches_the_engine() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let events = stream(5, 80, &[(10, Some(vec![4])), (30, Some(vec![9]))]);
    let cut = events.len() / 2;
    let mut first = FabricManager::new(plan.clone(), FabricConfig::default());
    for ev in &events[..cut] {
        feed(&mut first, ev);
    }
    assert_eq!(first.faults().edges, vec![4, 9], "the checkpoint is taken degraded");
    let text = first.checkpoint();
    let mut restored =
        FabricManager::restore(plan.clone(), FabricConfig::default(), &text).expect("restores");
    let report = restored.play(events[cut..].to_vec());
    assert_matches_redrive(&report, &plan, &events);
}

/// `n` dense Poisson jobs, each followed, at its arrival, by an operator
/// event drawn from `seed`: a batch of one to three links drawn with
/// repetition (fresh, or mixed with links named before, or only links
/// named before), a heal, or a batch that cuts router 0 off (`cut`, its
/// links), which the fabric refuses.
fn seeded_fault_stream(seed: u64, n: usize, links: u32, cut: &[u32]) -> Vec<FabricEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Links named since the last heal: dead ones, and those of refused
    // batches.
    let mut named: Vec<u32> = Vec::new();
    let mut events = Vec::new();
    for spec in PoissonJobs::new(seed, 80, 16, 128).take(n) {
        let at = spec.arrival;
        events.push(FabricEvent::Submit(spec));
        let size = rng.random_range(1..=3usize);
        let fresh = |rng: &mut StdRng| rng.random_range(0..links);
        let old = |rng: &mut StdRng| named[rng.random_range(0..named.len())];
        let edges: Vec<u32> = match rng.random_range(0..12u32) {
            0..=2 => (0..size).map(|_| fresh(&mut rng)).collect(),
            3 | 4 if !named.is_empty() => {
                let mut edges: Vec<u32> = (0..size).map(|_| old(&mut rng)).collect();
                edges.push(fresh(&mut rng));
                edges
            }
            5 if !named.is_empty() => (0..size).map(|_| old(&mut rng)).collect(),
            6 | 7 => {
                named.clear();
                events.push(FabricEvent::Heal { at });
                continue;
            }
            8 => cut.to_vec(),
            _ => continue,
        };
        named.extend(&edges);
        events.push(FabricEvent::LinkFaults { at, edges });
    }
    events
}

/// After every event of seeded fault, heal and restore streams, the
/// manager's current plan is the full rebuild for its fault set, and it
/// has run the epochs and counted the repairs the re-drive has.
#[test]
fn every_event_leaves_the_rebuild_of_the_fault_set_current() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let cut: Vec<u32> = plan.graph.neighbors_with_edges(0).iter().map(|&(_, e)| e).collect();
    // What the streams exercised, summed over every seed.
    let (mut repeats, mut dead_only, mut refused, mut idle_heals, mut restores) = (0, 0, 0, 0, 0);
    for seed in 0..6u64 {
        let events = seeded_fault_stream(seed, 60, plan.graph.num_edges(), &cut);
        let mut manager = FabricManager::new(plan.clone(), FabricConfig::default());
        let mut redrive = Redrive::new(&plan);
        let mut restored = false;
        for (i, ev) in events.iter().enumerate() {
            match ev {
                FabricEvent::LinkFaults { edges, .. } => {
                    let mut new = edges.clone();
                    new.sort_unstable();
                    new.dedup();
                    repeats += usize::from(new.len() < edges.len());
                    new.retain(|e| !redrive.faults.edges.contains(e));
                    if new.is_empty() {
                        dead_only += 1;
                    } else if rebuild_degraded(&plan, &redrive.faults.union(&FaultSet::links(new)))
                        .is_err()
                    {
                        refused += 1;
                    }
                }
                FabricEvent::Heal { .. } => idle_heals += usize::from(redrive.faults.is_empty()),
                FabricEvent::Submit(_) => {}
            }
            feed(&mut manager, ev);
            redrive.apply(ev);
            // Restore once, from a degraded fabric, past the stream's middle.
            if !restored && i >= events.len() / 2 && !redrive.faults.is_empty() {
                let text = manager.checkpoint();
                manager = FabricManager::restore(plan.clone(), FabricConfig::default(), &text)
                    .expect("restores");
                restored = true;
                restores += 1;
            }

            let case = format!("seed {seed}, event {i}");
            assert_eq!(manager.faults(), &redrive.faults, "{case}: fault set");
            let want = rebuild_degraded(&plan, manager.faults())
                .expect("the manager holds only fault sets it survives")
                .to_plan(plan.q);
            assert_eq!(
                plan_fingerprint(manager.current_plan()),
                plan_fingerprint(&want),
                "{case}: current plan"
            );
            let r = manager.report();
            assert_eq!(counters(&r), redrive.counters(), "{case}: repair counters");
            assert_eq!(
                (r.digest, r.waves, r.makespan),
                (redrive.digest, redrive.waves, redrive.makespan),
                "{case}: epochs"
            );
        }
        let report = manager.drain();
        redrive.drain();
        assert_eq!(report.mismatches, 0, "seed {seed}");
        assert_eq!(report.digest, redrive.digest, "seed {seed}: digest");
        assert_eq!(counters(&report), redrive.counters(), "seed {seed}: repair counters");
    }
    println!(
        "{repeats} batches with a repeated link, {dead_only} of only dead links, \
         {refused} refused, {idle_heals} heals of a healthy fabric, {restores} restores"
    );
    for (what, n) in [
        ("repeated links", repeats),
        ("batches of dead links", dead_only),
        ("refused batches", refused),
        ("heals of a healthy fabric", idle_heals),
        ("restores", restores),
    ] {
        assert!(n > 0, "the streams exercised no {what}");
    }
}
