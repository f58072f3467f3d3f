//! `fabric_small` and `fabric_bulk`: a seeded Poisson job stream through
//! the always-on fabric manager on low-depth `ER_7`, with two link faults
//! and a heal mid-stream.
//!
//! The untraced run feeds a fresh `FabricManager` per repetition and times
//! every `submit` call. The traced run re-drives the same stream one layer
//! down, through public calls only: a copy of the manager's dispatch loop
//! runs `Scheduler::run_epoch` with a timing plan provider over its own
//! `PlanCache`, repairs faults with `extend_degraded` / `rebuild_degraded`
//! and `to_plan`, and re-executes every wave on the engine so engine time
//! splits from the scheduler's own. Its digest and counters must equal the
//! manager's, and every re-executed wave must take the cycles the
//! scheduler recorded.

use crate::measure::alloc_counters;
use crate::report::{LayerCounts, Outcome, Profile, Timing};
use crate::trace::{self, span, Breakdown};
use crate::Params;
use pf_allreduce::fingerprint::FNV_OFFSET;
use pf_allreduce::{extend_degraded, plan_fingerprint, rebuild_degraded, AllreducePlan};
use pf_allreduce::{DegradedPlan, FaultSet};
use pf_fabric::{
    Admission, CacheKey, FabricConfig, FabricEvent, FabricManager, FabricReport, PlanCache,
    PoissonJobs,
};
use pf_sched::{fold_job_digest, validate_spec, JobSpec, PlanProvider, SchedReport, Scheduler};
use pf_simnet::{JobBinding, JobSegment, MultiTreeEmbedding, Simulator, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One fabric workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// PolarFly radix of the low-depth plan.
    pub q: u64,
    /// Mean inter-arrival gap, cycles.
    pub mean_gap: u64,
    /// Job vector sizes, inclusive.
    pub elems: (u64, u64),
    /// Jobs per timed repetition.
    pub jobs: usize,
}

/// Short vectors, one job per wave: per-job fixed costs dominate.
pub const SMALL: Shape = Shape {
    q: 7,
    mean_gap: 200,
    elems: (16, 64),
    jobs: 2000,
};
/// Long vectors in multi-tenant waves: per-flit work dominates.
pub const BULK: Shape = Shape {
    q: 7,
    mean_gap: 1500,
    elems: (1024, 4096),
    jobs: 200,
};

/// Set-ups (plan + manager) timed before each repetition.
const SETUPS_PER_REP: usize = 5;
/// Distinguishes the fault-edge stream from the job stream of one seed.
const FAULT_SALT: u64 = 0xFA17_5EED;

/// The seed of repetition `rep`'s inputs. Each repetition draws its own,
/// so one run averages over several inputs rather than timing one.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_add((rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The job stream for `seed` with link faults on two seed-chosen edges the
/// plan uses, at the 1/3 and 1/2 marks, and a heal at 2/3: the first
/// fault takes a full rebuild, the second an incremental repair.
pub fn events(seed: u64, shape: &Shape, plan: &AllreducePlan) -> Vec<FabricEvent> {
    let n = shape.jobs;
    let mut events: Vec<FabricEvent> =
        PoissonJobs::new(seed, shape.mean_gap, shape.elems.0, shape.elems.1)
            .take(n)
            .map(FabricEvent::Submit)
            .collect();
    let [first, second] = fault_edges(seed, plan);
    let (a, b, c) = (
        events[n / 3].at(),
        events[n / 2].at(),
        events[2 * n / 3].at(),
    );
    events.insert(
        n / 3 + 1,
        FabricEvent::LinkFaults {
            at: a,
            edges: vec![first],
        },
    );
    events.insert(
        n / 2 + 2,
        FabricEvent::LinkFaults {
            at: b,
            edges: vec![second],
        },
    );
    events.insert(2 * n / 3 + 3, FabricEvent::Heal { at: c });
    events
}

/// Two distinct edges `plan` routes over, chosen by `seed`. Removing two
/// links never disconnects `ER_q` (its edge connectivity is q ≥ 3).
pub fn fault_edges(seed: u64, plan: &AllreducePlan) -> [u32; 2] {
    let used: Vec<u32> = (0..plan.edge_congestion.len() as u32)
        .filter(|&e| plan.edge_congestion[e as usize] > 0)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_SALT);
    let first = used[rng.random_range(0..used.len())];
    loop {
        let second = used[rng.random_range(0..used.len())];
        if second != first {
            return [first, second];
        }
    }
}

fn setup(q: u64) -> (AllreducePlan, FabricManager) {
    let plan = AllreducePlan::low_depth(q).expect("q is an odd prime power");
    let manager = FabricManager::new(plan.clone(), FabricConfig::default());
    (plan, manager)
}

/// Feeds `events` to `m`, timing each `submit`; returns the drained report
/// and the number of submissions not accepted.
fn play(
    m: &mut FabricManager,
    events: &[FabricEvent],
    submit_us: &mut Vec<f64>,
) -> (FabricReport, u64) {
    let mut refused = 0;
    for ev in events {
        match ev {
            FabricEvent::Submit(spec) => {
                let spec = spec.clone();
                let t0 = Instant::now();
                let admission = m.submit(spec);
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                refused += u64::from(admission != Admission::Accepted);
            }
            FabricEvent::LinkFaults { at, edges } => {
                m.inject_link_faults(*at, edges)
                    .expect("two link faults cannot partition ER_q");
            }
            FabricEvent::Heal { at } => m.heal(*at),
        }
    }
    (m.drain(), refused)
}

/// Output checks on one manager report.
fn check_report(out: &mut Outcome, r: &FabricReport, jobs: usize) {
    out.check(r.mismatches == 0, || {
        format!("{} mismatched elements", r.mismatches)
    });
    out.check(r.completed + r.rejected + r.invalid == r.submitted && r.submitted == jobs as u64, || {
        format!(
            "ledger does not balance: {} completed + {} rejected + {} invalid != {} submitted ({jobs} sent)",
            r.completed, r.rejected, r.invalid, r.submitted
        )
    });
    out.check(r.deferred == 0 && r.rejected == 0 && r.invalid == 0, || {
        format!(
            "{} deferred, {} rejected, {} invalid (expected none)",
            r.deferred, r.rejected, r.invalid
        )
    });
    out.check(r.max_combined_congestion <= r.congestion_bound, || {
        format!(
            "combined congestion {} exceeds the bound {}",
            r.max_combined_congestion, r.congestion_bound
        )
    });
    out.check(
        (r.fault_events, r.full_rebuilds, r.incremental_repairs, r.heals) == (2, 1, 1, 1),
        || {
            format!(
                "fault path: {} faults, {} rebuilds, {} incremental repairs, {} heals (expected 2, 1, 1, 1)",
                r.fault_events, r.full_rebuilds, r.incremental_repairs, r.heals
            )
        },
    );
}

/// Untraced run: the first repetition's stream once as a warm-up, then
/// repetitions in fresh state, each with its own stream, until
/// `p.seconds` have passed. Every repetition first times its set-up.
pub fn run(p: &Params, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Timing::new(shape.jobs as u64);
    let healthy = AllreducePlan::low_depth(shape.q).expect("q is an odd prime power");
    let first = events(rep_seed(p.seed, 0), shape, &healthy);
    let (reference, _) = play(&mut setup(shape.q).1, &first, &mut Vec::new());
    let deadline = Instant::now() + p.seconds;
    while t.reps() < p.min_reps || Instant::now() < deadline {
        let rep = t.reps();
        let stream = if rep == 0 {
            first.clone()
        } else {
            events(rep_seed(p.seed, rep), shape, &healthy)
        };
        let mut manager = None;
        for _ in 0..SETUPS_PER_REP {
            let t0 = Instant::now();
            manager = Some(black_box(setup(shape.q)).1);
            t.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut m = manager.expect("at least one set-up");
        let t0 = Instant::now();
        let (r, refused) = play(&mut m, &stream, &mut t.op_us);
        t.end_rep(t0.elapsed().as_secs_f64());
        out.attempted += shape.jobs as u64;
        out.failed += refused.max(r.submitted - r.completed);
        check_report(&mut out, &r, shape.jobs);
        if rep == 0 {
            out.check(r == reference, || {
                "two runs of one stream reported differently".to_string()
            });
        }
    }
    t.report(&mut out);
    out.note("latency_cycles", reference.mean_latency);
    out.note("threads", FabricConfig::default().sched.sim.threads);
    out
}

/// A plan provider that times every cache lookup (and, on a miss, the
/// Algorithm 1 re-pricing) and keeps the plans it served for the replay.
struct TimedProvider<'c> {
    cache: &'c mut PlanCache,
    topology: u64,
    faults: u64,
    request: u64,
    served: BTreeMap<Vec<usize>, Arc<AllreducePlan>>,
}

impl PlanProvider for TimedProvider<'_> {
    fn subset(&mut self, plan: &AllreducePlan, indices: &[usize]) -> Arc<AllreducePlan> {
        let key = CacheKey {
            topology: self.topology,
            faults: self.faults,
            trees: indices.iter().map(|&i| i as u32).collect(),
        };
        let req = self.request;
        let cache = &mut *self.cache;
        let sub = span("cache.lookup", req, || {
            cache.get_or_insert_with(key, || {
                span("congestion.tree_subset", req, || {
                    Arc::new(plan.tree_subset(indices))
                })
            })
        });
        self.served.insert(indices.to_vec(), Arc::clone(&sub));
        sub
    }
}

/// The manager's dispatch loop, re-driven one layer down with spans.
struct Shadow<'o> {
    cfg: FabricConfig,
    healthy: Arc<AllreducePlan>,
    topology: u64,
    current: Arc<AllreducePlan>,
    faults: FaultSet,
    degraded: Option<DegradedPlan>,
    cache: PlanCache,
    now: u64,
    ready: VecDeque<JobSpec>,
    digest: u64,
    counts: LayerCounts,
    out: &'o mut Outcome,
}

impl<'o> Shadow<'o> {
    fn new(plan: AllreducePlan, out: &'o mut Outcome) -> Self {
        let cfg = FabricConfig::default();
        let healthy = Arc::new(plan);
        Shadow {
            topology: plan_fingerprint(&healthy),
            current: Arc::clone(&healthy),
            healthy,
            faults: FaultSet::none(),
            degraded: None,
            cache: PlanCache::new(cfg.cache_capacity),
            cfg,
            now: 0,
            ready: VecDeque::new(),
            digest: FNV_OFFSET,
            counts: LayerCounts::default(),
            out,
        }
    }

    fn play(&mut self, events: &[FabricEvent]) {
        for ev in events {
            match ev {
                FabricEvent::Submit(spec) => span("fabric.submit", u64::from(spec.id), || {
                    self.advance_to(spec.arrival);
                    let ok = validate_spec(spec, &self.healthy).is_ok()
                        && self.ready.len() < self.cfg.queue_capacity;
                    self.out
                        .check(ok, || format!("job {} would not be accepted", spec.id));
                    self.ready.push_back(spec.clone());
                }),
                FabricEvent::LinkFaults { at, edges } => {
                    span("fabric.link_faults", *at, || self.link_faults(*at, edges));
                }
                FabricEvent::Heal { at } => span("fabric.heal", *at, || {
                    self.advance_to(*at);
                    self.faults = FaultSet::none();
                    self.degraded = None;
                    self.current = Arc::clone(&self.healthy);
                }),
            }
        }
        span("fabric.drain", self.now, || {
            while !self.ready.is_empty() {
                self.dispatch_epoch();
            }
        });
    }

    fn advance_to(&mut self, t: u64) {
        while self.now < t && !self.ready.is_empty() {
            self.dispatch_epoch();
        }
        self.now = self.now.max(t);
    }

    fn link_faults(&mut self, at: u64, edges: &[u32]) {
        self.advance_to(at);
        let delta = FaultSet::links(
            edges
                .iter()
                .copied()
                .filter(|e| !self.faults.edges.contains(e))
                .collect(),
        );
        if delta.edges.is_empty() {
            return;
        }
        let combined = self.faults.union(&delta);
        let extended = self.degraded.as_ref().and_then(|prev| {
            span("recovery.extend", at, || {
                extend_degraded(&self.healthy, &self.faults, prev, &delta)
            })
        });
        let next = extended.unwrap_or_else(|| {
            span("recovery.rebuild", at, || {
                rebuild_degraded(&self.healthy, &combined)
            })
            .expect("two link faults cannot partition ER_q")
        });
        self.faults = combined;
        let key = CacheKey {
            topology: self.topology,
            faults: self.faults.fingerprint(),
            trees: Vec::new(),
        };
        let q = self.healthy.q;
        let cache = &mut self.cache;
        self.current = span("cache.lookup", at, || {
            cache.get_or_insert_with(key, || {
                Arc::new(span("recovery.to_plan", at, || next.to_plan(q)))
            })
        });
        self.degraded = Some(next);
    }

    fn dispatch_epoch(&mut self) {
        let take = self.ready.len().min(self.cfg.epoch_max_jobs);
        let specs: Vec<JobSpec> = self.ready.drain(..take).collect();
        let req = u64::from(specs[0].id);
        let plan = Arc::clone(&self.current);
        let mut provider = TimedProvider {
            cache: &mut self.cache,
            topology: self.topology,
            faults: self.faults.fingerprint(),
            request: req,
            served: BTreeMap::new(),
        };
        let sched = Scheduler::new(&plan, self.cfg.sched);
        let report = span("sched.run_epoch", req, || {
            sched.run_epoch(&specs, self.now, None, &mut provider)
        })
        .expect("validated specs on a connected fabric cannot fail an epoch");
        let served = provider.served;
        self.replay(&plan, &specs, &report, &served, req);

        self.counts.epochs += 1;
        self.counts.waves += report.waves.len() as u64;
        self.counts.jobs += report.jobs.len() as u64;
        for r in &report.jobs {
            self.counts.queueing_cycles += r.queueing_delay();
            self.counts.latency_cycles += r.latency();
            self.digest = fold_job_digest(self.digest, r);
        }
        self.now = self.now.max(report.makespan);
    }

    /// Re-executes each wave of an epoch on the engine, exactly as the
    /// scheduler built it: jobs in admission order (the allocator hands
    /// out the lowest free trees first), each job's subset plan splitting
    /// its slice of the epoch's element space.
    fn replay(
        &mut self,
        plan: &AllreducePlan,
        specs: &[JobSpec],
        report: &SchedReport,
        served: &BTreeMap<Vec<usize>, Arc<AllreducePlan>>,
        req: u64,
    ) {
        let segs: Vec<JobSegment> = specs
            .iter()
            .map(|s| JobSegment {
                elems: s.elems,
                kind: s.kind,
                participants: s.participants.clone(),
            })
            .collect();
        let w = span("simnet.workload", req, || {
            Workload::concat(plan.graph.num_vertices(), &segs)
        });
        let global_off: Vec<u64> = specs
            .iter()
            .scan(0u64, |off, s| {
                let at = *off;
                *off += s.elems;
                Some(at)
            })
            .collect();
        for wave in &report.waves {
            let mut jobs: Vec<usize> = (0..report.jobs.len())
                .filter(|&i| report.jobs[i].wave == wave.index)
                .collect();
            jobs.sort_by_key(|&i| report.jobs[i].trees[0]);
            let (mut trees, mut sizes, mut offsets, mut bindings) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for &i in &jobs {
                let r = &report.jobs[i];
                let sub = &served[&r.trees];
                let mut off = global_off[i];
                for (t, len) in sub.trees.iter().zip(sub.split(r.spec.elems)) {
                    trees.push(t.clone());
                    sizes.push(len);
                    offsets.push(off);
                    off += len;
                }
                let first = bindings.last().map_or(0, |b: &JobBinding| b.trees.end);
                bindings.push(JobBinding {
                    trees: first..first + r.trees.len(),
                    release: r.start - wave.base,
                });
            }
            let kind = report.jobs[jobs[0]].spec.collective;
            let emb = span("simnet.embedding", req, || {
                MultiTreeEmbedding::with_offsets(&plan.graph, &trees, &sizes, &offsets)
            });
            let (a0, b0) = alloc_counters();
            let t0 = Instant::now();
            let run = span("simnet.run", req, || {
                Simulator::new(&plan.graph, &emb, self.cfg.sched.sim)
                    .run_jobs_collective(&w, &bindings, kind)
            });
            let c = &mut self.counts;
            c.run_ns += t0.elapsed().as_nanos() as u64;
            let (a1, b1) = alloc_counters();
            c.allocs += a1 - a0;
            c.alloc_bytes += b1 - b0;
            c.runs += 1;
            c.cycles += run.report.cycles;
            c.router_cycles += run.report.cycles * u64::from(plan.graph.num_vertices());
            self.out.check(
                run.report.completed && run.report.cycles == wave.cycles,
                || {
                    format!(
                        "replayed wave {} took {} cycles (completed {}), the scheduler recorded {}",
                        wave.index, run.report.cycles, run.report.completed, wave.cycles
                    )
                },
            );
        }
    }
}

/// Span names that re-run engine work `sched.run_epoch` already did.
const REPLAYS: [&str; 3] = ["simnet.workload", "simnet.embedding", "simnet.run"];

/// Traced run: an untraced manager repetition (the reference report and
/// the overhead baseline) alternating with the traced re-drive.
pub fn run_traced(p: &Params, shape: &Shape) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let healthy = AllreducePlan::low_depth(shape.q).expect("q is an odd prime power");
    let stream = events(rep_seed(p.seed, 0), shape, &healthy);
    let mut prof = Profile::default();
    let mut spans = Vec::new();
    play(&mut setup(shape.q).1, &stream, &mut Vec::new());
    let deadline = Instant::now() + p.seconds;
    while prof.traced_s.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        let (reference, _) = play(&mut setup(shape.q).1, &stream, &mut Vec::new());
        prof.untraced_s.push(t0.elapsed().as_secs_f64());
        check_report(&mut out, &reference, shape.jobs);

        trace::start();
        let t0 = Instant::now();
        let plan = span("construction.low_depth", 0, || {
            AllreducePlan::low_depth(shape.q)
        })
        .expect("q is an odd prime power");
        let mut shadow = span("fabric.new", 0, || Shadow::new(plan, &mut out));
        shadow.play(&stream);
        let wall = t0.elapsed().as_nanos() as u64;
        spans = trace::finish();
        let mut counts = std::mem::take(&mut shadow.counts);
        let (digest, cache) = (shadow.digest, shadow.cache.stats());
        drop(shadow);
        counts.cache = (cache.hits, cache.misses, cache.evictions);

        out.check(digest == reference.digest, || {
            "traced job digest differs from the manager's".to_string()
        });
        out.check(
            (counts.epochs, counts.waves, counts.jobs) == (reference.epochs, reference.waves, reference.completed)
                && cache == reference.cache,
            || {
                format!(
                    "traced counters (epochs {}, waves {}, jobs {}, cache {:?}) differ from the manager's \
                     (epochs {}, waves {}, jobs {}, cache {:?})",
                    counts.epochs, counts.waves, counts.jobs, cache,
                    reference.epochs, reference.waves, reference.completed, reference.cache
                )
            },
        );
        let replay_ns: u64 = REPLAYS.iter().map(|n| trace::total_ns(&spans, n)).sum();
        let path = wall - replay_ns;
        prof.layers.add(&Breakdown::of(&spans, &REPLAYS, "sched"));
        prof.path_ns += path;
        prof.traced_s.push(path as f64 / 1e9);
        prof.ops += shape.jobs as u64;
        prof.counts.add(&counts);
        out.attempted += shape.jobs as u64;
    }
    prof.report(&mut out);
    (out, spans)
}
