//! Deterministic fault injection and degraded-tree recovery.
//!
//! A [`FaultSchedule`] kills links and routers at scheduled cycles,
//! permanently or transiently. The engine models an outage as a frozen
//! channel: nothing crosses it (flits already in flight are stuck on the
//! wire and delivered only if the fault heals), and upstream streams with
//! staged data accrue *stall* cycles. Every 32 stalled cycles count as one
//! failed transmission attempt (a retry); after 3 failed attempts the
//! channel is declared dead, the owning link or router is recorded in the
//! [`FaultReport`], and (unless [`FaultSchedule::abort_on_detection`] is
//! off) the run aborts so a fabric manager can re-plan. Transient faults
//! that heal before the retry budget runs out only delay the collective.
//!
//! [`run_with_recovery`] is that fabric manager: it runs the collective
//! under a schedule, and on detection rebuilds a degraded plan on the
//! surviving subgraph (`pf_allreduce::recovery`), re-embeds it, and
//! re-runs — iterating until the collective completes. The outcome
//! quantifies the bandwidth loss (Algorithm 1 on the degraded graph) and
//! the cycles spent across all attempts.
//!
//! Everything is deterministic and seed-reproducible: the same schedule
//! (or the same [`FaultSchedule::random_links`] seed) produces the
//! identical [`SimReport`], trace, and recovery outcome. With no schedule
//! attached — or an empty one — the engine takes the exact same decisions
//! as the fault-free build (property-tested, like tracing).

use crate::embedding::{CompiledTrees, MultiTreeEmbedding};
use crate::engine::{Collective, SimConfig, SimReport, Simulator};
use crate::trace::FaultTraceRow;
use crate::workload::Workload;
use pf_allreduce::recovery::{rebuild_degraded, DegradedPlan, FaultSet, RebuildError};
use pf_allreduce::{AllreducePlan, Rational};
use pf_graph::{EdgeId, Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which physical element a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// An undirected link (both directed channels), by edge id.
    Link(EdgeId),
    /// A router: every incident channel goes down and its engines halt.
    Router(VertexId),
}

/// One scheduled fault: a full outage of its target — nothing crosses
/// the affected channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the fault activates (first affected cycle).
    pub cycle: u64,
    /// What fails.
    pub target: FaultTarget,
    /// `None` = permanent; `Some(d)` = transient, healing at `cycle + d`.
    pub duration: Option<u64>,
}

/// Stalled cycles per failed transmission attempt (see module docs).
const TIMEOUT: u64 = 32;
/// Failed attempts before a channel is declared dead.
const MAX_RETRIES: u32 = 3;

/// A full injection plan: events plus what detection does.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// The faults, in any order (the engine sorts by activation cycle).
    pub events: Vec<FaultEvent>,
    /// Abort the run on the first declared-dead channel (the fabric
    /// manager re-plans). With `false` the run keeps going until
    /// `max_cycles` — useful to observe transient faults healing.
    pub abort_on_detection: bool,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::none()
    }
}

impl FaultSchedule {
    /// No faults. Attaching this schedule is property-tested to leave the
    /// simulation bit-identical.
    pub fn none() -> Self {
        FaultSchedule { events: Vec::new(), abort_on_detection: true }
    }

    /// True when there is nothing to inject.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Permanent outage of the given links, all at `cycle`.
    pub fn permanent_links(edges: &[EdgeId], cycle: u64) -> Self {
        FaultSchedule {
            events: edges
                .iter()
                .map(|&e| FaultEvent { cycle, target: FaultTarget::Link(e), duration: None })
                .collect(),
            abort_on_detection: true,
        }
    }

    /// `k` distinct random links of `g` failing permanently at one random
    /// cycle in `[cycle_lo, cycle_hi]`. Pure function of `seed`.
    pub fn random_links(g: &Graph, k: usize, cycle_lo: u64, cycle_hi: u64, seed: u64) -> Self {
        assert!(k as u32 <= g.num_edges(), "cannot fail {k} of {} links", g.num_edges());
        assert!(cycle_lo <= cycle_hi);
        let mut rng = StdRng::seed_from_u64(seed);
        let cycle = rng.random_range(cycle_lo..=cycle_hi);
        let mut chosen: Vec<EdgeId> = Vec::with_capacity(k);
        while chosen.len() < k {
            let e = rng.random_range(0..g.num_edges());
            if !chosen.contains(&e) {
                chosen.push(e);
            }
        }
        FaultSchedule::permanent_links(&chosen, cycle)
    }

    /// One random router failing permanently at a random cycle in
    /// `[cycle_lo, cycle_hi]`. Pure function of `seed`.
    pub fn random_router(g: &Graph, cycle_lo: u64, cycle_hi: u64, seed: u64) -> Self {
        assert!(g.num_vertices() > 0);
        assert!(cycle_lo <= cycle_hi);
        let mut rng = StdRng::seed_from_u64(seed);
        let cycle = rng.random_range(cycle_lo..=cycle_hi);
        let v = rng.random_range(0..g.num_vertices());
        FaultSchedule {
            events: vec![FaultEvent { cycle, target: FaultTarget::Router(v), duration: None }],
            abort_on_detection: true,
        }
    }
}

/// What the fault layer observed during one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Events that activated before the run ended.
    pub injected: usize,
    /// Links declared dead by timeout/retry detection (edge ids, sorted).
    pub failed_edges: Vec<EdgeId>,
    /// Routers declared dead (attributed when the dead channel belongs to
    /// a router fault), sorted.
    pub failed_routers: Vec<VertexId>,
    /// Cycle of the first dead declaration.
    pub first_detection_cycle: Option<u64>,
    /// Total failed transmission attempts (retry expirations).
    pub retries: u64,
    /// True when the run was cut short by
    /// [`FaultSchedule::abort_on_detection`].
    pub aborted: bool,
    /// Every fault-layer action, in order (also exported into the trace's
    /// `faults` table).
    pub records: Vec<FaultTraceRow>,
}

impl FaultReport {
    /// An all-quiet report (no schedule attached / nothing happened).
    pub fn quiet() -> Self {
        FaultReport {
            injected: 0,
            failed_edges: Vec::new(),
            failed_routers: Vec::new(),
            first_detection_cycle: None,
            retries: 0,
            aborted: false,
            records: Vec::new(),
        }
    }

    /// The detected faults as a `pf_allreduce` fault set, ready for
    /// [`rebuild_degraded`].
    pub fn detected(&self) -> FaultSet {
        FaultSet { edges: self.failed_edges.clone(), routers: self.failed_routers.clone() }
    }
}

/// Engine-side fault state. Owned by the simulator when a schedule is
/// attached; every hook is a no-op-equivalent when it is absent.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    abort_on_detection: bool,
    /// Events sorted by activation cycle (stable, so schedule order breaks
    /// ties deterministically).
    events: Vec<FaultEvent>,
    next_event: usize,
    /// Pending heals as `(heal cycle, event index)`, kept sorted.
    heals: Vec<(u64, usize)>,
    // Static topology maps.
    channel_ends: Vec<(VertexId, VertexId)>,
    /// Router `v`'s channels, both directions of each of its links, at
    /// `router_chans[router_chan_off[v]..router_chan_off[v + 1]]`.
    router_chan_off: Vec<u32>,
    router_chans: Vec<u32>,
    /// The compiled trees, for their stream → channel map.
    trees: Arc<CompiledTrees>,
    // Live fault state.
    down: Vec<u32>,
    router_down: Vec<bool>,
    /// Activated-but-not-healed events — nonzero means per-cycle stepping
    /// is required (see [`FaultState::skip_safe`]).
    active_faults: u32,
    // Detection state.
    stalled: Vec<u64>,
    retries: Vec<u32>,
    stream_dead: Vec<bool>,
    detected_edge: Vec<bool>,
    detected_router: Vec<bool>,
    total_retries: u64,
    first_detection: Option<u64>,
    injected: usize,
    abort: bool,
    records: Vec<FaultTraceRow>,
}

impl FaultState {
    pub(crate) fn new(g: &Graph, emb: &MultiTreeEmbedding, schedule: &FaultSchedule) -> Self {
        for ev in &schedule.events {
            match ev.target {
                FaultTarget::Link(e) => {
                    assert!(e < g.num_edges(), "fault targets unknown edge {e}")
                }
                FaultTarget::Router(v) => {
                    assert!(v < g.num_vertices(), "fault targets unknown router {v}")
                }
            }
        }
        let mut events = schedule.events.clone();
        events.sort_by_key(|e| e.cycle);

        let num_channels = 2 * g.num_edges() as usize;
        let mut channel_ends = vec![(0, 0); num_channels];
        for (e, u, v) in g.edges() {
            channel_ends[2 * e as usize] = (u, v);
            channel_ends[2 * e as usize + 1] = (v, u);
        }
        // Each link's two channels listed at both its ends.
        let mut router_chan_off = Vec::with_capacity(g.num_vertices() as usize + 1);
        let mut router_chans = Vec::with_capacity(2 * num_channels);
        router_chan_off.push(0);
        for v in g.vertices() {
            for &(_, e) in g.neighbors_with_edges(v) {
                router_chans.extend([2 * e, 2 * e + 1]);
            }
            router_chan_off.push(router_chans.len() as u32);
        }

        FaultState {
            abort_on_detection: schedule.abort_on_detection,
            events,
            next_event: 0,
            heals: Vec::new(),
            channel_ends,
            router_chan_off,
            router_chans,
            trees: Arc::clone(emb.compiled()),
            down: vec![0; num_channels],
            router_down: vec![false; g.num_vertices() as usize],
            active_faults: 0,
            stalled: vec![0; emb.streams().len()],
            retries: vec![0; emb.streams().len()],
            stream_dead: vec![false; emb.streams().len()],
            detected_edge: vec![false; g.num_edges() as usize],
            detected_router: vec![false; g.num_vertices() as usize],
            total_retries: 0,
            first_detection: None,
            injected: 0,
            abort: false,
            records: Vec::new(),
        }
    }

    fn apply(&mut self, idx: usize, activate: bool) {
        let ev = self.events[idx];
        if activate {
            self.active_faults += 1;
        } else {
            self.active_faults -= 1;
        }
        match ev.target {
            FaultTarget::Link(e) => {
                for c in [2 * e as usize, 2 * e as usize + 1] {
                    if activate {
                        self.down[c] += 1;
                    } else {
                        self.down[c] -= 1;
                    }
                }
            }
            FaultTarget::Router(v) => {
                self.router_down[v as usize] = activate;
                let chans = self.router_chan_off[v as usize] as usize
                    ..self.router_chan_off[v as usize + 1] as usize;
                for &c in &self.router_chans[chans] {
                    let c = c as usize;
                    if activate {
                        self.down[c] += 1;
                    } else {
                        self.down[c] -= 1;
                    }
                }
            }
        }
    }

    /// Activates/heals everything due at `cycle`. Heals run first so a
    /// transient fault of duration `d` affects exactly cycles
    /// `[cycle, cycle + d)`.
    pub(crate) fn begin_cycle(&mut self, cycle: u64) {
        while let Some(&(at, idx)) = self.heals.first() {
            if at > cycle {
                break;
            }
            self.heals.remove(0);
            self.apply(idx, false);
            let ev = self.events[idx];
            self.records.push(FaultTraceRow {
                cycle,
                action: "heal".to_string(),
                target_kind: target_kind(ev.target).to_string(),
                target: target_id(ev.target),
                detail: 0,
            });
        }
        while self.next_event < self.events.len() && self.events[self.next_event].cycle <= cycle {
            let idx = self.next_event;
            self.next_event += 1;
            let ev = self.events[idx];
            self.apply(idx, true);
            self.injected += 1;
            if let Some(d) = ev.duration {
                let heal_at = ev.cycle + d;
                let pos = self.heals.partition_point(|&(at, _)| at <= heal_at);
                self.heals.insert(pos, (heal_at, idx));
            }
            self.records.push(FaultTraceRow {
                cycle,
                action: "fail".to_string(),
                target_kind: target_kind(ev.target).to_string(),
                target: target_id(ev.target),
                detail: ev.duration.unwrap_or(0),
            });
        }
    }

    /// True while an activated fault keeps channel `c` from transmitting.
    #[inline]
    pub(crate) fn channel_down(&self, c: usize) -> bool {
        self.down[c] > 0
    }

    /// Flits in flight on a dead channel are stuck on the wire.
    #[inline]
    pub(crate) fn arrivals_frozen(&self, stream: usize) -> bool {
        self.down[self.trees.stream_channel(stream) as usize] > 0
    }

    /// True while router `v`'s engines are halted.
    #[inline]
    pub(crate) fn router_is_down(&self, v: usize) -> bool {
        self.router_down[v]
    }

    /// Accounts one stalled cycle for every resident stream with staged
    /// data on the downed channel `c`, expiring retries and declaring the
    /// owning element dead when the budget runs out.
    pub(crate) fn observe_outage(
        &mut self,
        c: usize,
        members: &[u32],
        has_data: impl Fn(usize) -> bool,
        cycle: u64,
    ) {
        for &s in members {
            let s = s as usize;
            if self.stream_dead[s] || !has_data(s) {
                continue;
            }
            self.stalled[s] += 1;
            if self.stalled[s] < TIMEOUT {
                continue;
            }
            self.stalled[s] = 0;
            self.retries[s] += 1;
            self.total_retries += 1;
            self.records.push(FaultTraceRow {
                cycle,
                action: "retry".to_string(),
                target_kind: "stream".to_string(),
                target: s as u32,
                detail: self.retries[s] as u64,
            });
            if self.retries[s] < MAX_RETRIES {
                continue;
            }
            self.stream_dead[s] = true;
            self.declare_dead(c, cycle);
        }
    }

    /// Attributes a dead channel to its link or router fault.
    fn declare_dead(&mut self, c: usize, cycle: u64) {
        let (src, dst) = self.channel_ends[c];
        let (target_kind, target) = if self.router_down[src as usize] {
            self.detected_router[src as usize] = true;
            ("router", src)
        } else if self.router_down[dst as usize] {
            self.detected_router[dst as usize] = true;
            ("router", dst)
        } else {
            let e = (c / 2) as u32;
            self.detected_edge[e as usize] = true;
            ("link", e)
        };
        self.first_detection.get_or_insert(cycle);
        if self.abort_on_detection {
            self.abort = true;
        }
        self.records.push(FaultTraceRow {
            cycle,
            action: "detected".to_string(),
            target_kind: target_kind.to_string(),
            target,
            detail: 0,
        });
    }

    /// Resets the retry bookkeeping of a stream that transmitted.
    #[inline]
    pub(crate) fn note_progress(&mut self, stream: usize) {
        self.stalled[stream] = 0;
        self.retries[stream] = 0;
    }

    /// True once detection has declared a fault and asked for an abort.
    #[inline]
    pub(crate) fn should_abort(&self) -> bool {
        self.abort
    }

    /// True while idle cycles may be skipped as far as the fault layer is
    /// concerned: no fault is currently active. Downed channels need
    /// per-cycle stall/retry accounting, so any active fault pins the
    /// engine to per-cycle stepping until it heals.
    #[inline]
    pub(crate) fn skip_safe(&self) -> bool {
        self.active_faults == 0
    }

    /// The next cycle at which the fault layer changes state — the
    /// earliest pending activation or heal. A skipping engine must not
    /// jump past it: [`FaultState::begin_cycle`] stamps its records with
    /// the cycle it runs in, and activations change channel behavior.
    #[inline]
    pub(crate) fn next_transition(&self) -> Option<u64> {
        let activation = self.events.get(self.next_event).map(|e| e.cycle);
        let heal = self.heals.first().map(|&(at, _)| at);
        match (activation, heal) {
            (Some(a), Some(h)) => Some(a.min(h)),
            (a, h) => a.or(h),
        }
    }

    /// Folds the state into the exported report.
    pub(crate) fn finish(self, completed: bool) -> FaultReport {
        let failed_edges: Vec<EdgeId> = self
            .detected_edge
            .iter()
            .enumerate()
            .filter_map(|(e, &d)| d.then_some(e as EdgeId))
            .collect();
        let failed_routers: Vec<VertexId> = self
            .detected_router
            .iter()
            .enumerate()
            .filter_map(|(v, &d)| d.then_some(v as VertexId))
            .collect();
        FaultReport {
            injected: self.injected,
            failed_edges,
            failed_routers,
            first_detection_cycle: self.first_detection,
            retries: self.total_retries,
            aborted: self.abort && !completed,
            records: self.records,
        }
    }
}

fn target_kind(t: FaultTarget) -> &'static str {
    match t {
        FaultTarget::Link(_) => "link",
        FaultTarget::Router(_) => "router",
    }
}

fn target_id(t: FaultTarget) -> u32 {
    match t {
        FaultTarget::Link(e) => e,
        FaultTarget::Router(v) => v,
    }
}

/// One attempt of the recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryRound {
    /// The simulator's report for this attempt.
    pub report: SimReport,
    /// What the fault layer saw.
    pub faults: FaultReport,
    /// Faults newly detected this round, in the *healthy* graph's ids.
    pub newly_detected: FaultSet,
}

/// Result of [`run_with_recovery`].
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Every attempt, in order; the last one completed.
    pub rounds: Vec<RecoveryRound>,
    /// Cumulative detected faults (healthy-graph ids).
    pub fault_set: FaultSet,
    /// The degraded plan the final attempt ran on (`None` when the first
    /// attempt completed on the healthy plan).
    pub degraded: Option<DegradedPlan>,
    /// Sum of cycles over all attempts — the collective's wall-clock cost
    /// including the aborted runs.
    pub total_cycles: u64,
}

impl RecoveryOutcome {
    /// The completed attempt's report.
    pub fn final_report(&self) -> &SimReport {
        &self.rounds.last().expect("at least one round").report
    }

    /// Fraction of the healthy aggregate bandwidth the final plan retains.
    pub fn bandwidth_retention(&self) -> Rational {
        self.degraded.as_ref().map_or(Rational::ONE, |d| d.bandwidth_retention())
    }

    /// End-to-end goodput including detection and re-run time, in
    /// elements per cycle.
    pub fn achieved_bandwidth(&self) -> f64 {
        self.final_report().total_elems as f64 / self.total_cycles.max(1) as f64
    }
}

/// Maps a schedule into a degraded plan's labeling, dropping events whose
/// target no longer exists.
fn translate_schedule(schedule: &FaultSchedule, d: &DegradedPlan) -> FaultSchedule {
    FaultSchedule {
        events: schedule
            .events
            .iter()
            .filter_map(|ev| {
                let target = match ev.target {
                    FaultTarget::Link(e) => FaultTarget::Link(d.new_edge[e as usize]?),
                    FaultTarget::Router(v) => FaultTarget::Router(d.new_vertex[v as usize]?),
                };
                Some(FaultEvent { target, ..*ev })
            })
            .collect(),
        abort_on_detection: schedule.abort_on_detection,
    }
}

/// Why a recovery loop failed. `Display` text is stable — it matches the
/// strings the old `Result<_, String>` API produced, so logs and
/// downstream formatting don't churn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The final attempt completed but produced wrong values.
    Mismatches(u64),
    /// An attempt aborted without the fault layer detecting anything
    /// (typically `max_cycles` exhausted).
    Undetected,
    /// The accumulated faults left no plan to rebuild on.
    Rebuild(RebuildError),
    /// The detect→rebuild→re-run loop exceeded its attempt budget.
    NoConvergence {
        /// The attempt budget that was exhausted.
        attempts: usize,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Mismatches(n) => {
                write!(f, "completed with {n} mismatched elements")
            }
            RecoveryError::Undetected => {
                write!(f, "run aborted without detecting a fault (max_cycles exhausted?)")
            }
            RecoveryError::Rebuild(e) => write!(f, "{e}"),
            RecoveryError::NoConvergence { attempts } => {
                write!(f, "recovery did not converge within {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Rebuild(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RebuildError> for RecoveryError {
    fn from(e: RebuildError) -> Self {
        RecoveryError::Rebuild(e)
    }
}

/// Runs the collective `kind` of an `m`-element vector under `schedule`,
/// rebuilding a degraded plan and re-running on every detection, until an
/// attempt completes (see module docs). Every attempt (on the healthy and
/// each degraded plan) re-runs the same collective kind.
///
/// Router faults shrink the collective to the surviving routers: the
/// re-run reduces the survivors' contributions (the dead router's input is
/// lost with it).
///
/// Errors when the faults partition the network, when an attempt aborts
/// without detecting anything (`max_cycles` exhausted), or when the loop
/// fails to converge within `schedule.events.len() + 2` attempts.
pub fn run_with_recovery(
    plan: &AllreducePlan,
    m: u64,
    cfg: SimConfig,
    schedule: &FaultSchedule,
    kind: Collective,
) -> Result<RecoveryOutcome, RecoveryError> {
    let mut fault_set = FaultSet::none();
    let mut degraded: Option<DegradedPlan> = None;
    let mut rounds: Vec<RecoveryRound> = Vec::new();
    let mut total_cycles = 0u64;
    let max_rounds = schedule.events.len() + 2;

    for _ in 0..max_rounds {
        // This round's plan and schedule, in this round's labeling.
        let current = degraded.as_ref().map_or(plan, |d| &d.plan);
        let round_schedule =
            degraded.as_ref().map_or_else(|| schedule.clone(), |d| translate_schedule(schedule, d));
        let g = &current.graph;
        let emb = MultiTreeEmbedding::new(g, &current.trees, &current.split(m));
        let w = Workload::new(g.num_vertices(), m);
        let run = Simulator::new(g, &emb, cfg)
            .with_faults(g, round_schedule)
            .run_jobs_collective(&w, &[], kind);

        total_cycles += run.report.cycles;

        // Map this round's detections back into healthy-graph ids.
        let newly_detected = match &degraded {
            None => run.faults.detected(),
            Some(d) => FaultSet {
                edges: run
                    .faults
                    .failed_edges
                    .iter()
                    .map(|&e| d.orig_edge[e as usize])
                    .collect(),
                routers: run
                    .faults
                    .failed_routers
                    .iter()
                    .map(|&v| d.orig_vertex[v as usize])
                    .collect(),
            },
        };
        let completed = run.report.completed;
        let mismatches = run.report.mismatches;
        rounds.push(RecoveryRound { report: run.report, faults: run.faults, newly_detected });

        if completed {
            if mismatches != 0 {
                return Err(RecoveryError::Mismatches(mismatches));
            }
            return Ok(RecoveryOutcome { rounds, fault_set, degraded, total_cycles });
        }
        let newly = &rounds.last().expect("just pushed").newly_detected;
        if newly.is_empty() {
            return Err(RecoveryError::Undetected);
        }
        fault_set = fault_set.union(newly);
        degraded = Some(rebuild_degraded(plan, &fault_set)?);
    }
    Err(RecoveryError::NoConvergence { attempts: max_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;

    fn low7() -> AllreducePlan {
        AllreducePlan::low_depth(7).unwrap()
    }

    fn run_plain(plan: &AllreducePlan, m: u64) -> SimReport {
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        Simulator::new(&plan.graph, &emb, SimConfig::default()).run(&w)
    }

    #[test]
    fn empty_schedule_is_bit_identical() {
        let plan = low7();
        let m = 600;
        let plain = run_plain(&plan, m);
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let faulted = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_faults(&plan.graph, FaultSchedule::none())
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        assert_eq!(faulted.report, plain);
        assert_eq!(faulted.faults, FaultReport::quiet());
    }

    #[test]
    fn never_firing_schedule_is_bit_identical() {
        let plan = low7();
        let m = 600;
        let plain = run_plain(&plan, m);
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let schedule = FaultSchedule::permanent_links(&[0, 1], 1_000_000_000);
        let faulted = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_faults(&plan.graph, schedule)
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        assert_eq!(faulted.report, plain);
        assert_eq!(faulted.faults.injected, 0);
    }

    #[test]
    fn permanent_link_fault_is_detected_and_aborts() {
        let plan = low7();
        let m = 2000;
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        // Fail a link every low-depth tree set actually uses: pick the
        // first edge with nonzero planned congestion.
        let e = plan.edge_congestion.iter().position(|&c| c > 0).unwrap() as u32;
        let schedule = FaultSchedule::permanent_links(&[e], 50);
        let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_faults(&plan.graph, schedule.clone())
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        assert!(!run.report.completed);
        assert!(run.faults.aborted);
        assert_eq!(run.faults.failed_edges, vec![e]);
        assert!(run.faults.failed_routers.is_empty());
        let detect = run.faults.first_detection_cycle.unwrap();
        // Detection takes at least TIMEOUT * MAX_RETRIES stalled cycles.
        assert!(detect >= 50 + TIMEOUT * (MAX_RETRIES as u64 - 1));
        assert!(run.faults.retries >= MAX_RETRIES as u64);
    }

    #[test]
    fn transient_fault_heals_and_completes() {
        let plan = low7();
        let m = 2000;
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let e = plan.edge_congestion.iter().position(|&c| c > 0).unwrap() as u32;
        // Outage shorter than the detection horizon (32 * 3 = 96 cycles).
        let schedule = FaultSchedule {
            events: vec![FaultEvent {
                cycle: 50,
                target: FaultTarget::Link(e),
                duration: Some(40),
            }],
            abort_on_detection: true,
        };
        let plain = run_plain(&plan, m);
        let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_faults(&plan.graph, schedule)
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        assert!(run.report.completed, "transient fault must heal");
        assert_eq!(run.report.mismatches, 0);
        assert!(run.faults.failed_edges.is_empty());
        assert!(!run.faults.aborted);
        // The outage can only slow the run down.
        assert!(run.report.cycles >= plain.cycles);
    }

    #[test]
    fn recovery_completes_after_permanent_fault() {
        let plan = low7();
        let m = 2000;
        let e = plan.edge_congestion.iter().position(|&c| c > 0).unwrap() as u32;
        let schedule = FaultSchedule::permanent_links(&[e], 50);
        let out =
            run_with_recovery(&plan, m, SimConfig::default(), &schedule, Collective::Allreduce)
                .unwrap();
        assert_eq!(out.rounds.len(), 2, "abort then completed re-run");
        assert!(out.final_report().completed);
        assert_eq!(out.final_report().mismatches, 0);
        assert_eq!(out.fault_set.edges, vec![e]);
        let d = out.degraded.as_ref().unwrap();
        assert!(d.max_congestion <= plan.max_congestion);
        assert!(out.bandwidth_retention() <= Rational::ONE);
        assert!(out.bandwidth_retention() > Rational::ZERO);
        assert!(out.total_cycles > out.final_report().cycles);
    }

    #[test]
    fn recovery_router_fault_runs_on_survivors() {
        let plan = AllreducePlan::low_depth(5).unwrap();
        let m = 1000;
        let schedule = FaultSchedule {
            events: vec![FaultEvent { cycle: 30, target: FaultTarget::Router(7), duration: None }],
            abort_on_detection: true,
        };
        let out =
            run_with_recovery(&plan, m, SimConfig::default(), &schedule, Collective::Allreduce)
                .unwrap();
        assert!(out.final_report().completed);
        assert_eq!(out.final_report().mismatches, 0);
        assert_eq!(out.fault_set.routers, vec![7]);
        let d = out.degraded.as_ref().unwrap();
        assert_eq!(d.graph.num_vertices() + 1, plan.graph.num_vertices());
    }

    #[test]
    fn recovery_is_seed_reproducible() {
        let plan = low7();
        let m = 1500;
        for seed in [1u64, 99, 0xFA17] {
            let s1 = FaultSchedule::random_links(&plan.graph, 2, 10, 400, seed);
            let s2 = FaultSchedule::random_links(&plan.graph, 2, 10, 400, seed);
            assert_eq!(s1, s2, "schedule generation is a pure function of the seed");
            let a = run_with_recovery(&plan, m, SimConfig::default(), &s1, Collective::Allreduce)
                .unwrap();
            let b = run_with_recovery(&plan, m, SimConfig::default(), &s2, Collective::Allreduce)
                .unwrap();
            assert_eq!(a.rounds.len(), b.rounds.len());
            for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
                assert_eq!(ra.report, rb.report);
                assert_eq!(ra.faults, rb.faults);
            }
            assert_eq!(a.total_cycles, b.total_cycles);
        }
    }

    #[test]
    fn fault_events_appear_in_trace() {
        let plan = low7();
        let m = 1000;
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let e = plan.edge_congestion.iter().position(|&c| c > 0).unwrap() as u32;
        let schedule = FaultSchedule::permanent_links(&[e], 50);
        let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_trace(TraceConfig::counters())
            .with_faults(&plan.graph, schedule)
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        let trace = run.trace.expect("tracing enabled");
        assert!(!trace.faults.is_empty());
        assert_eq!(trace.faults, run.faults.records);
        assert!(trace.faults.iter().any(|r| r.action == "fail" && r.target == e));
        assert!(trace.faults.iter().any(|r| r.action == "detected"));
        // And the fault table round-trips through the JSON schema.
        let parsed = crate::trace::TraceReport::from_json(&trace.to_json()).unwrap();
        assert_eq!(parsed, trace);
    }
}
