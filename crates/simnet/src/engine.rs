//! The cycle-driven simulation engine.
//!
//! Each cycle has three sub-steps, in an order that prevents same-cycle
//! pass-through (a flit needs at least one cycle per hop):
//!
//! 1. **Arrivals** — in-flight flits whose latency elapsed enter the
//!    destination's virtual-channel buffer.
//! 2. **Compute** — every router advances each tree's reduction engine (one
//!    element per tree per cycle: combine all child heads with the local
//!    contribution, emit to the parent or, at the root, eject and fan out
//!    the broadcast) and each tree's broadcast relay.
//! 3. **Transmit** — every directed channel moves at most one flit,
//!    selected by work-conserving round-robin among its resident streams
//!    with both data and downstream credit. This is where congestion turns
//!    into bandwidth sharing.
//!
//! Credits are implicit: a stream may transmit only while
//! `receiver-buffer occupancy + in-flight < vc_buffer`, which is exactly
//! credit-based flow control with `vc_buffer` credits.
//!
//! # Timing, then values
//!
//! Congestion decides only *when* a flit moves. The value a sink receives
//! for element `e` is fixed by the tree: each node combines its input with
//! its children's partial results in CSR order, whenever that happens.
//! So the stepper is a pure timing model. A staging queue is a count, a
//! virtual-channel ring holds only the arrival stamps of the flits in
//! flight, and a fire or a relay moves no payload. Every pair delivers its
//! slice in element order, so once the run stops, one blockwise value
//! pass (`value_pass`) computes what each sink received over its
//! delivered prefix: the validation, the delivery digest and each job's
//! hash and mismatch count. It reduces each block of 64 elements of a
//! tree with one call of the tree kernel of `kernels` per segment run
//! (portable, or AVX-512 when the CPU has it; the same bits either way),
//! then validates and hashes each element once. The delivery digest is
//! linear in the sink ([`delivery_digest_entry`]), so a sink's delivered
//! prefix of a tree costs one multiply, not one hash per element.
//!
//! # Execution strategy
//!
//! The model above is what the simulator *computes*; it is not how the hot
//! loop *iterates*. A naive stepper re-scans every (tree, node) engine,
//! every stream and every directed channel on every cycle, which makes
//! large-radix sweeps compute-bound on scan overhead rather than on the
//! modeled fabric. This engine instead keeps incremental **active sets**
//! (see `docs/PERFORMANCE.md`):
//!
//! * a per-tree bitset of engines whose inputs, credits or budgets may have
//!   changed since they last stalled — only those are re-evaluated,
//! * a bitset of channels with at least one staged flit — only those
//!   arbitrate,
//! * a bitset of streams with flits on the wire — only those are polled for
//!   arrivals,
//! * and when a cycle makes no progress at all, the clock **skips** directly
//!   to the earliest in-flight arrival or fault-schedule transition instead
//!   of ticking idly (latency tails, drain phases, fault-frozen fabrics).
//!
//! Two further layers sit on top of the active sets (both introduced for
//! the saturated/contention regimes, where every cycle makes progress and
//! idle-skip never fires — see `docs/PERFORMANCE.md` for the derivations):
//!
//! * **Closed form** (`engine/closed_form.rs`) — a run whose trees never
//!   meet another live stream in time is never stepped. A run takes the
//!   closed form, whole, when every non-empty tree has
//!   `min(len, L) ≤ vc_buffer` and completes inside `max_cycles`, no two
//!   live streams on any channel have overlapping transmit windows, and
//!   no tracer, fault layer or per-node cap is attached. Each delivery's
//!   cycle is then an affine function of its element index and its
//!   sink's depth, so the report follows from that timing plus the value
//!   pass, run with every sink at its slice length. Edge-disjoint plans
//!   take this path at any length, low-depth plans while their vectors
//!   are short; any other run steps every tree as below.
//! * **Batch spans** — when the run is in steady state, consecutive cycles
//!   repeat the same fire/drain/arrival pattern exactly. The engine arms a
//!   full *shape* snapshot (queue lengths, active sets, round-robin
//!   cursors, relative in-flight arrival offsets) and finds the period `P`
//!   at which the shape recurs by Brent's cycle detection: a snapshot that
//!   has not recurred within its window is retaken with twice the window
//!   (2, 4, …, 1024 cycles), so a fill transient longer than one period
//!   delays the lock by about its own length. It then bounds the largest
//!   whole number of periods `j` containing no event boundary (no slice
//!   end, fault transition, job release or cycle cap), and replays all
//!   `j·P` cycles at once: the in-flight arrival stamps are re-based and
//!   the counters get bulk adds. With no payloads in the queues, nothing
//!   else changes. This extends idle-skip from "skip when nothing happens"
//!   to "skip when the same thing happens every cycle".
//!
//! All queue state lives in flat, pre-sized ring-buffer arenas — the steady
//! state allocates nothing. The pre-optimization stepper is retained as
//! [`mod@reference`] (behind `cfg(test)` / the `reference-engine` feature);
//! it still moves real payloads, so it is the value pass's oracle too. A
//! differential suite (`src/difftest.rs`) asserts byte-identical
//! [`SimReport`]s, trace bytes and [`FaultReport`]s across collectives,
//! radixes, caps, tracing and fault schedules. Tracing pins per-cycle
//! stepping (no closed form, skip or batch window) and a full compute scan,
//! so observed stall attribution is identical to the reference stepper's;
//! arrivals and transmit walk the active sets whether traced, faulted or
//! neither.

use crate::embedding::{CompiledTrees, MultiTreeEmbedding, OrderedTree, TreeOrder, NONE};
use crate::faults::{FaultReport, FaultSchedule, FaultState};
use crate::kernels::{self, LineBuf, VALUE_BLOCK};
use crate::trace::{EngineStall, TraceConfig, TraceReport, Tracer};
use crate::workload::Workload;
use pf_graph::Graph;

/// Which collective the engines execute over the embedded trees (defined
/// next to the plan model that prices it).
pub use pf_allreduce::Collective;

pub(crate) mod closed_form;
#[cfg(any(test, feature = "reference-engine"))]
pub mod reference;

use closed_form::ClosedForm;

/// Simulator knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Pipeline latency of every physical hop, in cycles (≥ 1).
    pub link_latency: u32,
    /// Virtual-channel buffer capacity per stream at the receiver, in
    /// flits. Full throughput needs `link_latency` or more (the
    /// latency–bandwidth product): the receiver returns a credit in the
    /// cycle it consumes a flit, and the sender may spend it that same
    /// cycle, so `link_latency` flits in flight keep the link busy.
    pub vc_buffer: usize,
    /// Sender-side staging queue per stream, in flits.
    pub source_queue: usize,
    /// Hard cycle cap: the run aborts (with `completed = false`) if
    /// exceeded — a deadlock/livelock backstop.
    pub max_cycles: u64,
    /// Local-port injection capacity per node per cycle, across all trees
    /// (`None` = unbounded — §4.1's assumption that a node drives all its
    /// links at once; multi-tree allreduce needs ~aggregate-bandwidth
    /// injection per node, which this knob makes explicit).
    pub max_injections_per_node: Option<u32>,
    /// Ignored: a run steps on the calling thread whatever this holds, and
    /// trees that never meet take the closed form instead. The field stays
    /// only so that configurations which still set it compile.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_latency: 4,
            vc_buffer: 6,
            source_queue: 2,
            max_cycles: 50_000_000,
            max_injections_per_node: None,
            threads: 1,
        }
    }
}

/// Result of one simulated collective (allreduce by default; see
/// [`Collective`] for the full set).
///
/// `PartialEq` is derived so tests can assert that enabling tracing leaves
/// the simulation bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total cycles until the last element was delivered everywhere.
    pub cycles: u64,
    /// Total vector length reduced.
    pub total_elems: u64,
    /// `true` iff every node received every element before `max_cycles`.
    pub completed: bool,
    /// Elements whose delivered value disagreed with the expected
    /// reduction (must be 0).
    pub mismatches: u64,
    /// Order-independent digest of every `(sink node, global element,
    /// delivered value)` triple — the wrapping sum of
    /// [`delivery_digest_entry`] over all deliveries,
    /// `Σ w(sink) · hash_entry(element, value)` modulo 2^64 with an odd
    /// weight `w` per sink. Two collectives delivering the same values to
    /// the same sinks produce the same digest regardless of timing, which
    /// is how the composition suite proves reduce-scatter∘allgather ≡
    /// allreduce. Being linear in the sink, it costs the value pass one
    /// multiply per sink and tree; it still changes when a value, an
    /// element or the sink of a delivery does (see
    /// [`delivery_digest_entry`]).
    pub value_digest: u64,
    /// Aggregate goodput in elements/cycle: `total_elems / cycles`.
    pub measured_bandwidth: f64,
    /// Completion cycle per tree (last delivery of its slice).
    pub tree_completion: Vec<u64>,
    /// Cycle by which every sink had received its *first* element — the
    /// collective's latency, dominated by tree depth (Figure 5b's
    /// quantity, measured on the executing system).
    pub first_element_latency: u64,
    /// Flits carried per directed channel.
    pub channel_flits: Vec<u64>,
    /// Maximum observed channel utilization (flits / cycles).
    pub max_channel_utilization: f64,
    /// High-water mark of receiver VC occupancy (buffered + in flight)
    /// over all streams — never exceeds `vc_buffer`, and saturated runs
    /// sit at the latency-bandwidth product.
    pub max_vc_occupancy: usize,
}

/// One tenant's slice of a multi-job run ([`Simulator::run_jobs_collective`]): which
/// contiguous range of the embedding's trees it owns and when it is
/// released into the fabric.
#[derive(Debug, Clone)]
pub struct JobBinding {
    /// The half-open range of embedded tree indices this job owns. The
    /// bindings of one run must partition `0..emb.num_trees()`
    /// contiguously and in order.
    pub trees: std::ops::Range<usize>,
    /// First cycle at which this job's engines may fire (`0` = from the
    /// start). Models staggered arrivals inside one scheduling wave.
    pub release: u64,
}

/// Per-job results of a multi-job run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutcome {
    /// Cycle of this job's first delivered element (0 if none).
    pub first_delivery: u64,
    /// Cycle of this job's last delivered element (0 if incomplete).
    pub completion: u64,
    /// Elements delivered to sinks for this job (`elems * n` when done).
    pub deliveries: u64,
    /// The job's vector length (sum of its trees' slice lengths).
    pub elems: u64,
    /// Order-independent digest of the root-reduced values, keyed by
    /// global element id. Two runs reducing the same elements over the
    /// same trees produce the same digest — the scheduler's
    /// concurrent-vs-sequential equivalence check.
    pub value_hash: u64,
    /// Expected-value check failures attributed to this job (must be 0).
    pub mismatches: u64,
}

/// Result of [`Simulator::run_jobs_collective`]: the fabric-wide report,
/// the trace and fault observations when those layers are attached, and
/// one [`JobOutcome`] per binding.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The ordinary fabric-wide simulation report. `completed` is `false`
    /// when fault detection aborted the run.
    pub report: SimReport,
    /// The trace, when one was enabled via [`Simulator::with_trace`].
    /// Tracing is purely observational: `report` is identical whether or
    /// not a tracer is attached.
    pub trace: Option<TraceReport>,
    /// What the fault layer injected and detected (quiet when no layer
    /// was attached via [`Simulator::with_faults`]).
    pub faults: FaultReport,
    /// Per-job outcomes, in binding order (empty for an untracked run).
    pub jobs: Vec<JobOutcome>,
}

/// The cycle-level simulator. Construct once per embedding, then
/// [`Simulator::run`].
pub struct Simulator<'a> {
    emb: &'a MultiTreeEmbedding,
    cfg: SimConfig,
    tracer: Option<Tracer>,
    faults: Option<FaultState>,
}

impl<'a> Simulator<'a> {
    /// Wires up the engines for an embedding. `g` must be the graph the
    /// embedding was built from (used only for assertions).
    pub fn new(g: &Graph, emb: &'a MultiTreeEmbedding, cfg: SimConfig) -> Self {
        assert!(cfg.link_latency >= 1, "links need at least one cycle of latency");
        assert!(cfg.vc_buffer >= 1 && cfg.source_queue >= 1, "queues must hold at least one flit");
        assert_eq!(g.num_vertices(), emb.num_nodes());
        Simulator { emb, cfg, tracer: None, faults: None }
    }

    /// Enables observability per `tcfg` (see [`crate::trace`]). With
    /// [`TraceConfig::off`] (the default) no tracer is allocated and the
    /// run is exactly the untraced one. A traced run steps every cycle
    /// (no idle-cycle skipping) so stall attribution is exact.
    pub fn with_trace(mut self, tcfg: TraceConfig) -> Self {
        self.tracer = tcfg.enabled.then(|| {
            Tracer::new(
                self.emb.streams().len(),
                self.emb.num_channels(),
                self.emb.num_nodes() as usize,
                tcfg,
            )
        });
        self
    }

    /// Attaches a fault-injection layer executing `schedule` (see
    /// [`crate::faults`]). `g` must be the graph the embedding was built
    /// from. With an empty schedule the layer stays attached but every
    /// decision is identical to a run without it (property-tested, like
    /// tracing).
    pub fn with_faults(mut self, g: &Graph, schedule: FaultSchedule) -> Self {
        assert_eq!(g.num_vertices(), self.emb.num_nodes());
        self.faults = Some(FaultState::new(g, self.emb, &schedule));
        self
    }

    /// Runs the allreduce of `w` (which must match the embedding's node
    /// count and total length) to completion and reports. Shorthand for
    /// [`Simulator::run_jobs_collective`] with no bindings.
    pub fn run(self, w: &Workload) -> SimReport {
        self.run_jobs_collective(w, &[], Collective::Allreduce).report
    }

    /// Runs the collective `kind` of `w` to completion: the one general
    /// entry point, returning the report plus whatever the attached trace
    /// and fault layers observed.
    ///
    /// With no `bindings` the whole embedding is one untracked job. With
    /// bindings, several independent jobs run concurrently on one fabric:
    /// each [`JobBinding`] owns a contiguous range of the embedding's
    /// trees (the bindings must partition `0..emb.num_trees()` in order)
    /// and an optional release cycle, and every job executes the same
    /// `kind` over its own tree range (the scheduler groups admissions so
    /// a wave is homogeneous). The jobs contend for the shared directed
    /// channels exactly like the streams of a single collective — the
    /// active-set engine arbitrates them with no scheduler in the loop —
    /// while reductions, validation and completion are tracked per job.
    /// The workload must cover every tree slice's global element range
    /// (build it with [`Workload::concat`] so each job owns a distinct
    /// segment; `w.len() >= emb.elem_end()`).
    ///
    /// A single binding released at 0 is exactly the unbound run plus
    /// per-job accounting: same `SimReport`, byte-identical engine
    /// decisions.
    pub fn run_jobs_collective(
        self,
        w: &Workload,
        bindings: &[JobBinding],
        kind: Collective,
    ) -> RunReport {
        let ntrees = self.emb.num_trees();
        let mut next = 0usize;
        for b in bindings {
            assert!(
                b.trees.start == next && b.trees.end > b.trees.start && b.trees.end <= ntrees,
                "job bindings must partition the embedding's trees contiguously"
            );
            next = b.trees.end;
        }
        assert!(
            bindings.is_empty() || next == ntrees,
            "job bindings must cover every embedded tree"
        );
        let bindings = (!bindings.is_empty()).then_some(bindings);
        self.run_inner_jobs(w, kind, bindings).0
    }

    /// One untracked run of `kind`, with the number of cycles it stepped
    /// one at a time: neither skipped idle nor replayed in a batch window
    /// (0 in closed form).
    #[cfg(test)]
    pub(crate) fn run_counting_steps(self, w: &Workload, kind: Collective) -> (RunReport, u64) {
        self.run_inner_jobs(w, kind, None)
    }

    /// Runs `w` on the retained pre-optimization stepper (see
    /// [`mod@reference`]). Kept solely so differential tests and the
    /// `experiments perf-snapshot` harness can compare the optimized
    /// engine against it — new code should call [`Simulator::run`]. The
    /// reference stepper has no job accounting, so `jobs` is empty.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_reference(self, w: &Workload, kind: Collective) -> RunReport {
        let (report, trace, faults) = reference::run(self, w, kind);
        RunReport { report, trace, faults: faults.unwrap_or_else(FaultReport::quiet), jobs: vec![] }
    }

    /// Which trees a run of `kind` under `bindings` (as for
    /// [`Simulator::run_jobs_collective`]) reports in closed form instead
    /// of stepping. The closed form takes a run whole or not at all: when
    /// no flit of any tree can ever wait for arbitration
    /// (`docs/PERFORMANCE.md`, "Trees that never meet"), every non-empty
    /// tree is `true`; otherwise every tree is `false`, as always while a
    /// tracer, fault layer or per-node cap is attached. The report is the
    /// same either way; this only says how it is computed.
    #[must_use]
    pub fn closed_form_trees(&self, kind: Collective, bindings: &[JobBinding]) -> Vec<bool> {
        let closed = ClosedForm::select(self, kind, (!bindings.is_empty()).then_some(bindings));
        self.emb.slices().iter().map(|t| closed.is_some() && t.len > 0).collect()
    }

    /// The run's report, with the number of cycles it stepped one at a
    /// time (0 in closed form).
    fn run_inner_jobs(
        self,
        w: &Workload,
        kind: Collective,
        bindings: Option<&[JobBinding]>,
    ) -> (RunReport, u64) {
        assert_eq!(w.nodes(), self.emb.num_nodes());
        assert!(
            w.len() >= self.emb.elem_end(),
            "workload must cover every tree slice's global element range"
        );

        // A run whose trees never meet another live stream takes the
        // closed form; any other steps every tree. The closed form needs
        // trees with fully independent state: anything that couples them —
        // a tracer (global timeline), a fault layer (global detector
        // clock), or an injection cap (budgets shared across trees) —
        // refuses it.
        if let Some(closed) = ClosedForm::select(&self, kind, bindings) {
            return (closed.run(self.emb, w, kind, bindings), 0);
        }
        let Simulator { emb, cfg, tracer, faults } = self;
        run_single(emb, cfg, tracer, faults, w, kind, bindings)
    }

    /// Does anything attached couple the trees' timing? A tracer keeps one
    /// global timeline, a fault layer one detector clock, and an injection
    /// cap shares each node's budget across trees.
    fn couples_trees(&self) -> bool {
        self.tracer.is_some() || self.faults.is_some() || self.cfg.max_injections_per_node.is_some()
    }
}

/// The simulation loop proper: one `RunState`, stepped to completion,
/// then the value pass over what its sinks received. Returns the report
/// with the number of cycles stepped one at a time.
fn run_single(
    emb: &MultiTreeEmbedding,
    cfg: SimConfig,
    mut tracer: Option<Tracer>,
    mut faults: Option<FaultState>,
    w: &Workload,
    kind: Collective,
    bindings: Option<&[JobBinding]>,
) -> (RunReport, u64) {
    let mut st = RunState::new(emb, cfg, kind, bindings);

    let traced = tracer.is_some();
    // Batch spans require no tracer and an uncapped injection budget (a
    // per-node budget is consumed *within* a cycle; replaying j·P cycles in
    // closed form would need per-cycle budget accounting). A quiet attached
    // fault layer is fine — spans are bounded by its next transition.
    let batchable = !traced && cfg.max_injections_per_node.is_none();
    let mut cycle = 0u64;
    let mut stepped = 0u64;
    while st.deliveries < st.total_deliveries
        && cycle < cfg.max_cycles
        && !faults.as_ref().is_some_and(|f| f.should_abort())
    {
        cycle += 1;
        stepped += 1;
        if let Some(fs) = faults.as_mut() {
            fs.begin_cycle(cycle);
        }
        st.progress = st.pending_arrivals;
        st.pending_arrivals = false;

        if cycle > st.arrivals_done {
            // Catch-up after a skip, on the first cycle, or at a fault
            // transition: arrivals due by `cycle` that the fused pass
            // could not complete yet.
            st.step_arrivals(cycle, false, &faults);
        }
        st.step_compute(cycle, &mut tracer, &faults);
        st.step_transmit(cycle, &mut tracer, &mut faults);
        // Fused wire advancement: complete next cycle's arrivals now, so
        // the next iteration starts with zero wire-scan work. Not across
        // a fault transition: a link that fails or heals at `cycle + 1`
        // freezes or releases its wires there, which the catch-up sees
        // after `begin_cycle`.
        if faults.as_ref().is_none_or(|f| f.next_transition() != Some(cycle + 1)) {
            st.step_arrivals(cycle + 1, true, &faults);
            st.arrivals_done = cycle + 1;
        }

        if let Some(tr) = tracer.as_mut() {
            if tr.timeline_due(cycle) {
                tr.sample_timeline(cycle, st.deliveries);
            }
        }

        if batchable && st.deliveries < st.total_deliveries {
            st.batch_step(&mut cycle, &mut faults);
        }

        // Time skip: if this cycle made no progress at all, nothing can
        // change until the next in-flight arrival (or the next fault
        // activation / heal). Jump there instead of ticking idly.
        // Tracing pins per-cycle stepping; an actively faulted fabric
        // (downed channels) needs per-cycle stall accounting, so skipping
        // pauses until it is quiet again.
        if !st.progress
            && !st.pending_arrivals
            && !traced
            && st.deliveries < st.total_deliveries
        {
            let fault_ok = faults.as_ref().is_none_or(|f| f.skip_safe());
            if fault_ok {
                let mut target = cfg.max_cycles;
                if let Some(next) = st.next_arrival() {
                    target = target.min(next - 1);
                }
                if let Some(next) = faults.as_ref().and_then(|f| f.next_transition()) {
                    target = target.min(next - 1);
                }
                if let Some(next) = st.next_release(cycle) {
                    target = target.min(next - 1);
                }
                cycle = cycle.max(target.min(cfg.max_cycles));
            }
        }
    }

    let completed = st.deliveries == st.total_deliveries;
    let max_util = st
        .channel_flits
        .iter()
        .map(|&f| f as f64 / cycle.max(1) as f64)
        .fold(0.0, f64::max);
    let faults = faults.map_or_else(FaultReport::quiet, |f| f.finish(completed));
    let trace = tracer.map(|mut tr| {
        tr.sample_timeline(cycle, st.deliveries); // final sample (timeline runs only)
        let mut t = tr.finish(emb, cycle);
        t.collective = kind.name().to_string();
        t.faults = faults.records.clone();
        t
    });
    let mut jobs: Vec<JobOutcome> = (0..st.njobs)
        .map(|j| JobOutcome {
            first_delivery: st.job_first[j],
            completion: st.job_completion[j],
            deliveries: st.job_deliveries[j],
            elems: st.job_elems[j],
            ..JobOutcome::default()
        })
        .collect();
    let n = st.n;
    let (mismatches, value_digest) =
        value_pass(emb, w, kind, bindings, |ti, v| st.delivered[ti * n + v], &mut jobs);
    let report = SimReport {
        cycles: cycle,
        total_elems: emb.total_len(),
        completed,
        mismatches,
        value_digest,
        measured_bandwidth: emb.total_len() as f64 / cycle.max(1) as f64,
        tree_completion: st.tree_completion,
        first_element_latency: st.first_element_latency,
        channel_flits: st.channel_flits,
        max_channel_utilization: max_util,
        max_vc_occupancy: st.max_vc_occupancy,
    };
    (RunReport { report, trace, faults, jobs }, stepped)
}

/// Order-independent digest entry for one root-reduced element: a
/// SplitMix64-style finalizer over `(global element id, reduced value)`.
/// Job digests are the wrapping sum of these entries, so arbitrary
/// interleaving of element completions leaves the digest unchanged.
#[inline]
pub(crate) fn hash_entry(elem: u64, val: u64) -> u64 {
    let mut z = elem.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ val;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sink `node`'s weight in [`SimReport::value_digest`]: `hash_entry(node,
/// 0)` with its low bit set. Odd, so multiplying by it is one-to-one
/// modulo 2^64.
#[inline]
pub(crate) fn sink_weight(node: u64) -> u64 {
    hash_entry(node, 0) | 1
}

/// The digest entry one delivery contributes to
/// [`SimReport::value_digest`]: `w(node) · hash_entry(elem, val)`, a
/// wrapping multiply of the sink's odd weight `w` (a hash of the node id)
/// by the hash of the global element id and the delivered value (raw
/// `u64` payload — float workloads contribute their bit patterns).
///
/// The entry is linear in the sink: a sink's entries over the elements it
/// received sum to `w(node)` times the sum of their element hashes, which
/// is how the value pass digests a sink's whole prefix with one multiply.
/// It still tells deliveries apart. A changed value or element changes
/// the element hash. An odd weight is invertible modulo 2^64, so a sink's
/// term is zero only when its hash sum is. The same delivery at another
/// sink differs by `(w(a) − w(b)) · hash_entry(elem, val)`, which is zero
/// only when the trailing zero bits of the two factors add up to 64 (the
/// weights of node ids below 2^16 are distinct, so the first factor is
/// never zero).
///
/// Exposed so tests can reconstruct the digest a collective *should*
/// produce (e.g. a reduce-scatter delivers `(root(t), offset+e,
/// expected(offset+e))` for every tree `t` and slice element `e`) and
/// compare it against the engine's.
#[inline]
#[must_use]
pub fn delivery_digest_entry(node: u64, elem: u64, val: u64) -> u64 {
    sink_weight(node).wrapping_mul(hash_entry(elem, val))
}

/// Largest window of the batch detector, and so the longest shape period
/// it finds: its windows double from 2 up to this, and a snapshot that has
/// not recurred within it is dropped (re-arming then backs off). Periods
/// are LCMs of the round-robin rotation lengths of the congested channels,
/// so they grow fast with member-count diversity; 1024 covers every period
/// observed across the bench regimes with room to spare while bounding
/// the worst-case compare cost.
const BATCH_PMAX: u64 = 1024;
/// Consecutive progress cycles required before arming a snapshot. Runs
/// that never saturate (latency tails, fault-frozen stretches) never pay
/// for the detector at all.
const BATCH_STREAK: u32 = 32;
/// Re-arm backoff after a failed match/window (doubles up to the cap): a
/// run that is *not* periodic stops paying the snapshot cost quickly.
const BATCH_BACKOFF0: u64 = 64;
const BATCH_BACKOFF_MAX: u64 = 8192;

/// Controller for the batch-span fast-forward: arms a full shape snapshot
/// after a streak of progress cycles, compares every subsequent cycle
/// against it, retakes it at doubling windows until it recurs (Brent's
/// cycle detection), and on a recurrence replays `j` whole periods in
/// closed form (see `docs/PERFORMANCE.md` for the invariance argument).
struct BatchCtl {
    /// A snapshot is armed and being compared against.
    armed: bool,
    /// Cycle the armed snapshot was taken at.
    c0: u64,
    /// Cycles the armed snapshot waits for a recurrence before it is
    /// retaken: 2, 4, …, `BATCH_PMAX` (Brent's cycle detection).
    window: u64,
    /// Earliest cycle at which a new snapshot may be armed (backoff).
    next_try: u64,
    backoff: u64,
    /// Consecutive progress cycles ending at the current one.
    streak: u32,
    snap: BatchSnap,
}

/// Everything that must recur for two cycles to be *shape-equal* — i.e.
/// for the fire/drain/arrival pattern between them to replay verbatim —
/// plus the progress counters whose per-period deltas become the bulk
/// rates.
#[derive(Default)]
struct BatchSnap {
    sendq_len: Vec<u32>,
    vc_arrived: Vec<u32>,
    vc_inflight: Vec<u32>,
    rr: Vec<u32>,
    pair_active: Vec<u64>,
    chan_active: Vec<u64>,
    wire_active: Vec<u64>,
    /// Per in-flight slot: arrival stamp minus the snapshot cycle, in FIFO
    /// order per stream (`stream << vc_shift | position`). Occupancy alone
    /// does not pin the arrival pattern; the relative stamps must recur.
    inflight_off: Vec<u64>,
    pending_arrivals: bool,
    // Progress counters (not part of the shape): their deltas over one
    // period are the per-pair fire/delivery rates of the bulk replay.
    reduced: Vec<u64>,
    delivered: Vec<u64>,
    deliveries: u64,
    tree_deliveries: Vec<u64>,
    job_deliveries: Vec<u64>,
    channel_flits: Vec<u64>,
}

impl BatchSnap {
    fn new(pairs: usize, nstreams: usize, nchans: usize, ntrees: usize, njobs: usize, vc_shift: u32, words_per_tree: usize) -> Self {
        BatchSnap {
            sendq_len: vec![0; nstreams],
            vc_arrived: vec![0; nstreams],
            vc_inflight: vec![0; nstreams],
            rr: vec![0; nchans],
            pair_active: vec![0; ntrees * words_per_tree],
            chan_active: vec![0; nchans.div_ceil(64)],
            wire_active: vec![0; nstreams.div_ceil(64)],
            inflight_off: vec![0; nstreams << vc_shift],
            pending_arrivals: false,
            reduced: vec![0; pairs],
            delivered: vec![0; pairs],
            deliveries: 0,
            tree_deliveries: vec![0; ntrees],
            job_deliveries: vec![0; njobs],
            channel_flits: vec![0; nchans],
        }
    }
}

impl TreeOrder {
    /// One block of the value pass: global elements `ge..ge + bw` of tree
    /// `ti`. Returns, from row 0 of the scratch `rows` (stride
    /// `VALUE_BLOCK`), the value every sink of the tree receives. When the
    /// collective reduces, that is R(root), where R(v), the value node `v`
    /// pushes up, is its input combined with each child's R in CSR order,
    /// bit-identical to the reference stepper, which combines the same
    /// inputs in the same order. A broadcast's value is the root's own
    /// input, an allgather's the expected reduction. The tree kernel runs
    /// once per segment run of the block: once, unless the block crosses a
    /// job boundary.
    fn fill_block<'r>(
        &self,
        ti: usize,
        w: &Workload,
        kind: Collective,
        ge: u64,
        bw: usize,
        rows: &'r mut [u64],
    ) -> &'r [u64] {
        let tree = self.tree(ti);
        if kind.reduces() || kind == Collective::Broadcast {
            let root = tree.nodes.last().expect("a tree has a root");
            let tree = if kind.reduces() { tree } else { OrderedTree::lone(root) };
            for run in w.runs(ge, bw) {
                kernels::reduce_tree(&run, ge, tree, rows);
            }
        } else {
            for (k, x) in rows[..bw].iter_mut().enumerate() {
                *x = w.expected(ge + k as u64);
            }
        }
        &rows[..bw]
    }
}

/// The value pass: everything a run reports about the values it
/// delivered, from the workload and each sink's delivered prefix alone.
/// `delivered(ti, v)` is how many elements of tree `ti`'s slice node `v`
/// received (for a sink; other nodes are not asked), always a prefix, as a
/// pair delivers its slice in element order. Adds each job's `value_hash`
/// and `mismatches` into `jobs` and returns the run's mismatch count and
/// value digest.
///
/// Per block of [`TreeOrder::fill_block`], every element is validated and
/// hashed once: `bad_before[k]` counts the failures among a block's first
/// `k` elements, and `prefix[k]` sums their digest keys `hash_entry(e,
/// root value)`. Each sink is charged once per tree, in the block where
/// its delivered prefix ends: with `keys` and `fails` the digest keys and
/// failures of the tree's earlier blocks, a sink that received `k` of the
/// block's elements adds `fails + bad_before[k]` mismatches and, since
/// [`delivery_digest_entry`] is linear in the sink, `w(v) · (keys +
/// prefix[k])` to the digest: one multiply per sink and tree. The root's
/// prefix sum is its job's hash. Every sink validates what it receives
/// except a root that sources the broadcast, and all of them check the
/// same value against the same expectation: the root's input for a
/// broadcast, the reduction otherwise.
fn value_pass(
    emb: &MultiTreeEmbedding,
    w: &Workload,
    kind: Collective,
    bindings: Option<&[JobBinding]>,
    delivered: impl Fn(usize, usize) -> u64,
    jobs: &mut [JobOutcome],
) -> (u64, u64) {
    let n = emb.num_nodes() as usize;
    // A tree block's stack of rows: at most one per node, each of
    // `VALUE_BLOCK` words starting on a 64-byte line.
    let mut rows = LineBuf::zeroed(n * VALUE_BLOCK);
    let mut bad_before = [0u32; VALUE_BLOCK + 1];
    let mut prefix = [0u64; VALUE_BLOCK + 1];
    let (mut mismatches, mut digest) = (0u64, 0u64);
    for (ti, t) in emb.slices().iter().enumerate() {
        let root = emb.root(ti) as usize;
        let sinks = if kind.broadcasts() { 0..n } else { root..root + 1 };
        let (lo, hi) = sinks
            .clone()
            .map(|v| delivered(ti, v))
            .fold((u64::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
        let (mut keys, mut fails, mut bad, mut hash) = (0u64, 0u64, 0u64, 0u64);
        let mut blk = 0u64;
        while blk < hi {
            // Blocks end on global groups of `VALUE_BLOCK` elements, so a
            // node's inputs in a block share one table row (see
            // `kernels`); a slice's first block may be short.
            let ge = t.offset + blk;
            let bw = ((hi - blk) as usize).min(VALUE_BLOCK - (ge % VALUE_BLOCK as u64) as usize);
            let end = blk + bw as u64;
            let vals = emb.order.fill_block(ti, w, kind, ge, bw, &mut rows);
            for (k, &val) in vals.iter().enumerate() {
                let g = ge + k as u64;
                let expect = match kind {
                    Collective::Broadcast => w.input(root as u32, g),
                    _ => w.expected(g),
                };
                bad_before[k + 1] = bad_before[k] + u32::from(!w.value_close_at(g, val, expect));
                prefix[k + 1] = prefix[k].wrapping_add(hash_entry(g, val));
            }
            // No sink's prefix ends before `lo`.
            if end >= lo {
                for v in sinks.clone() {
                    let d = delivered(ti, v);
                    if d <= blk || d > end {
                        continue;
                    }
                    let k = (d - blk) as usize;
                    let sum = keys.wrapping_add(prefix[k]);
                    digest = digest.wrapping_add(sink_weight(v as u64).wrapping_mul(sum));
                    if v == root {
                        hash = sum;
                    }
                    if v != root || kind.reduces() {
                        bad += fails + u64::from(bad_before[k]);
                    }
                }
            }
            keys = keys.wrapping_add(prefix[bw]);
            fails += u64::from(bad_before[bw]);
            blk = end;
        }
        mismatches += bad;
        if let Some(j) = bindings.and_then(|bs| bs.iter().position(|b| b.trees.contains(&ti))) {
            jobs[j].value_hash = jobs[j].value_hash.wrapping_add(hash);
            jobs[j].mismatches += bad;
        }
    }
    (mismatches, digest)
}

/// The compiled arrays a run reads (see [`CompiledTrees`]), borrowed as
/// slices held by value in the run state. The hot loops then load each
/// base from the state they already hold exclusively, so it stays hoisted
/// across their stores, as with the run state's own arrays.
#[derive(Clone, Copy)]
struct Wiring<'a> {
    roots: &'a [u32],
    stream_chan: &'a [u32],
    reduce_in_off: &'a [u32],
    in_ids: &'a [u32],
    bcast_out_off: &'a [u32],
    out_ids: &'a [u32],
    reduce_out: &'a [u32],
    bcast_in: &'a [u32],
    stream_src_pair: &'a [u32],
    stream_dst_pair: &'a [u32],
    wake_src_word: &'a [u32],
    wake_src_mask: &'a [u64],
    wake_dst_word: &'a [u32],
    wake_dst_mask: &'a [u64],
    ready_slot: &'a [u32],
    chan_off: &'a [u32],
    chan_members: &'a [u32],
}

impl<'a> Wiring<'a> {
    fn new(c: &'a CompiledTrees) -> Self {
        Wiring {
            roots: &c.roots,
            stream_chan: &c.stream_chan,
            reduce_in_off: &c.reduce_in_off,
            in_ids: &c.in_ids,
            bcast_out_off: &c.bcast_out_off,
            out_ids: &c.out_ids,
            reduce_out: &c.reduce_out,
            bcast_in: &c.bcast_in,
            stream_src_pair: &c.stream_src_pair,
            stream_dst_pair: &c.stream_dst_pair,
            wake_src_word: &c.wake_src_word,
            wake_src_mask: &c.wake_src_mask,
            wake_dst_word: &c.wake_dst_word,
            wake_dst_mask: &c.wake_dst_mask,
            ready_slot: &c.ready_slot,
            chan_off: &c.chan_off,
            chan_members: &c.chan_members,
        }
    }
}

/// All mutable state of one optimized run: queue counts, active sets, and
/// the progress counters folded into the final [`SimReport`].
///
/// Engines are addressed by *pair* index `p = tree * n + node`. A stream's
/// staging queue at the sender is a count; at the receiver it has a count
/// of arrived flits and a pre-sized ring of the arrival stamps of the
/// flits still on the wire. No payload is stored anywhere (see the module
/// doc). The dataflow wiring is borrowed from the compiled form. The
/// steady-state loop performs no heap allocation.
struct RunState<'a> {
    cfg: SimConfig,
    kind: Collective,
    n: usize,
    ntrees: usize,
    /// The compiled trees' wiring.
    c: Wiring<'a>,

    // Per-tree slice lengths (0 for a tree the closed form reports).
    tree_len: Vec<u64>,

    // Multi-job bookkeeping (all-zero / inert for single-job runs).
    track_jobs: bool,
    njobs: usize,
    tree_release: Vec<u64>,
    tree_job: Vec<u32>,
    job_first: Vec<u64>,
    job_completion: Vec<u64>,
    job_deliveries: Vec<u64>,
    job_total: Vec<u64>,
    job_elems: Vec<u64>,

    // Per-pair progress.
    reduced: Vec<u64>,
    delivered: Vec<u64>,

    // Stream queues: flits staged at the sender, flits arrived in the VC
    // buffer, and flits on the wire with their arrival stamps, oldest at
    // `wire_head`. The stamp rings are strided at the next power of two so
    // slot arithmetic is a mask and a shift, never a division; the logical
    // capacities stay the configured values (enforced by the credit/space
    // comparisons).
    sq_cap: u32,
    vc_cap: u32,
    vc_mask: u32,
    vc_shift: u32,
    sendq_len: Vec<u32>,
    vc_arr: Vec<u64>,
    wire_head: Vec<u32>,
    vc_arrived: Vec<u32>,
    vc_inflight: Vec<u32>,

    // Reduction-input readiness: per-pair count of reduce-input streams
    // with at least one arrived flit (each stream feeds the count of its
    // compiled `ready_slot`). Makes `inputs_ready` O(1) instead of a CSR
    // gather per engine evaluation.
    ready_in: Vec<u32>,

    // Per-channel round-robin cursors.
    rr: Vec<u32>,

    // Active sets (bitset words).
    words_per_tree: usize,
    pair_active: Vec<u64>,
    chan_active: Vec<u64>,
    wire_active: Vec<u64>,

    // Lazily refilled per-node injection budgets (epoch-stamped; see docs).
    inject_budget: Vec<u32>,
    inject_epoch: Vec<u64>,

    // Progress bookkeeping.
    per_tree_sinks: u64,
    total_deliveries: u64,
    live_pairs: u64,
    first_done_pairs: u64,
    first_element_latency: u64,
    deliveries: u64,
    tree_completion: Vec<u64>,
    tree_deliveries: Vec<u64>,
    channel_flits: Vec<u64>,
    max_vc_occupancy: usize,
    progress: bool,

    // Fused transmit/arrival bookkeeping: arrivals have been completed
    // through this cycle, and the fused pass advanced at least one flit
    // into the arrived state for the *next* cycle.
    arrivals_done: u64,
    pending_arrivals: bool,

    // Batch-span machinery (see the module doc and `BatchCtl`). The
    // snapshot is sized at the run's first capture: a run that never
    // saturates never allocates it.
    bat: BatchCtl,
}

impl<'a> RunState<'a> {
    fn new(
        emb: &'a MultiTreeEmbedding,
        cfg: SimConfig,
        kind: Collective,
        bindings: Option<&[JobBinding]>,
    ) -> Self {
        let c = emb.compiled();
        let n = c.num_nodes() as usize;
        let ntrees = c.num_trees();
        let pairs = ntrees * n;
        let nstreams = c.streams().len();
        let nchans = c.num_channels();

        let tree_len: Vec<u64> = emb.slices().iter().map(|t| t.len).collect();

        let per_tree_sinks = kind.sinks_per_tree(n as u64);
        let total_deliveries: u64 = tree_len.iter().map(|&l| l * per_tree_sinks).sum();
        let live_pairs: u64 =
            tree_len.iter().map(|&l| if l > 0 { per_tree_sinks } else { 0 }).sum();

        let words_per_tree = n.div_ceil(64);
        let vc_shift = (cfg.vc_buffer as u32).next_power_of_two().trailing_zeros();

        // Per-job wiring: which job each tree belongs to, when it is
        // released, and how many deliveries complete each job.
        let njobs = bindings.map_or(0, <[JobBinding]>::len);
        let mut tree_release = vec![0u64; ntrees];
        let mut tree_job = vec![0u32; ntrees];
        let mut job_total = vec![0u64; njobs];
        let mut job_elems = vec![0u64; njobs];
        if let Some(bs) = bindings {
            for (j, b) in bs.iter().enumerate() {
                for ti in b.trees.clone() {
                    tree_release[ti] = b.release;
                    tree_job[ti] = j as u32;
                    job_total[j] += tree_len[ti] * per_tree_sinks;
                    job_elems[j] += tree_len[ti];
                }
            }
        }

        // Every engine of a non-empty tree starts active: leaves can fire
        // on cycle 1, everything else stalls once and deactivates.
        let mut pair_active = vec![0u64; ntrees * words_per_tree];
        for (ti, &len) in tree_len.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let base = ti * words_per_tree;
            for wi in 0..words_per_tree {
                let lo = wi * 64;
                let bits = (n - lo).min(64);
                pair_active[base + wi] = if bits == 64 { !0u64 } else { (1u64 << bits) - 1 };
            }
        }

        RunState {
            cfg,
            kind,
            n,
            ntrees,
            c: Wiring::new(c),
            tree_len,
            track_jobs: bindings.is_some(),
            njobs,
            tree_release,
            tree_job,
            job_first: vec![0; njobs],
            job_completion: vec![0; njobs],
            job_deliveries: vec![0; njobs],
            job_total,
            job_elems,
            reduced: vec![0; pairs],
            delivered: vec![0; pairs],
            sq_cap: cfg.source_queue as u32,
            vc_cap: cfg.vc_buffer as u32,
            vc_mask: (1u32 << vc_shift) - 1,
            vc_shift,
            sendq_len: vec![0; nstreams],
            vc_arr: vec![0; nstreams << vc_shift],
            wire_head: vec![0; nstreams],
            vc_arrived: vec![0; nstreams],
            vc_inflight: vec![0; nstreams],
            ready_in: vec![0; pairs],
            rr: vec![0; nchans],
            words_per_tree,
            pair_active,
            chan_active: vec![0u64; nchans.div_ceil(64)],
            wire_active: vec![0u64; nstreams.div_ceil(64)],
            inject_budget: vec![0; n],
            inject_epoch: vec![0; n],
            per_tree_sinks,
            total_deliveries,
            live_pairs,
            first_done_pairs: 0,
            first_element_latency: 0,
            deliveries: 0,
            tree_completion: vec![0; ntrees],
            tree_deliveries: vec![0; ntrees],
            channel_flits: vec![0; nchans],
            max_vc_occupancy: 0,
            progress: false,
            arrivals_done: 0,
            pending_arrivals: false,
            bat: BatchCtl {
                armed: false,
                c0: 0,
                window: 2,
                next_try: 0,
                backoff: BATCH_BACKOFF0,
                streak: 0,
                snap: BatchSnap::default(),
            },
        }
    }

    // -- queue primitives ---------------------------------------------------

    #[inline]
    fn sendq_push(&mut self, s: usize) {
        self.sendq_len[s] += 1;
        let c = self.c.stream_chan[s] as usize;
        self.chan_active[c / 64] |= 1u64 << (c % 64);
    }

    /// Pair `p`'s broadcast-out streams, as a range of `out_ids`.
    #[inline]
    fn bcast_outs(&self, p: usize) -> std::ops::Range<usize> {
        self.c.bcast_out_off[p] as usize..self.c.bcast_out_off[p + 1] as usize
    }

    /// Has every broadcast-out stream of pair `p` room to stage a flit?
    #[inline]
    fn bcast_room(&self, p: usize) -> bool {
        self.bcast_outs(p).all(|i| self.sendq_len[self.c.out_ids[i] as usize] < self.sq_cap)
    }

    /// Stages one flit on each broadcast-out stream of pair `p`.
    #[inline]
    fn bcast_push(&mut self, p: usize) {
        for i in self.bcast_outs(p) {
            self.sendq_push(self.c.out_ids[i] as usize);
        }
    }

    #[inline]
    fn recvq_pop(&mut self, s: usize) {
        self.vc_arrived[s] -= 1;
        if self.vc_arrived[s] == 0 {
            let slot = self.c.ready_slot[s];
            if slot != NONE {
                self.ready_in[slot as usize] -= 1;
            }
        }
    }

    #[inline]
    fn wire_push(&mut self, s: usize, arrival: u64) {
        let slot = (self.wire_head[s] + self.vc_inflight[s]) & self.vc_mask;
        self.vc_arr[(s << self.vc_shift) + slot as usize] = arrival;
        self.vc_inflight[s] += 1;
        self.wire_active[s / 64] |= 1u64 << (s % 64);
    }

    #[inline]
    fn occupancy(&self, s: usize) -> u32 {
        self.vc_arrived[s] + self.vc_inflight[s]
    }

    // -- cycle sub-steps ----------------------------------------------------

    /// Step 1: deliver in-flight flits whose latency elapsed by `cycle`.
    /// Flits on a dead channel are stuck on the wire: they arrive only
    /// after the fault heals (transient outages delay, they never drop
    /// data). With `pending` the call is the fused end-of-cycle pass
    /// completing *next* cycle's arrivals: advancement is recorded in
    /// `pending_arrivals` (consumed as next cycle's initial progress)
    /// instead of `progress`.
    fn step_arrivals(&mut self, cycle: u64, pending: bool, faults: &Option<FaultState>) {
        for wi in 0..self.wire_active.len() {
            let mut word = self.wire_active[wi];
            if word == 0 {
                continue;
            }
            let mut keep = word;
            while word != 0 {
                let s = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if faults.as_ref().is_some_and(|f| f.arrivals_frozen(s)) {
                    continue;
                }
                let base = s << self.vc_shift;
                let was_empty = self.vc_arrived[s] == 0;
                let mut advanced = false;
                while self.vc_inflight[s] > 0 {
                    let head = self.wire_head[s];
                    if self.vc_arr[base + head as usize] > cycle {
                        break;
                    }
                    self.wire_head[s] = (head + 1) & self.vc_mask;
                    self.vc_arrived[s] += 1;
                    self.vc_inflight[s] -= 1;
                    advanced = true;
                }
                if advanced {
                    if pending {
                        self.pending_arrivals = true;
                    } else {
                        self.progress = true;
                    }
                    self.pair_active[self.c.wake_dst_word[s] as usize] |= self.c.wake_dst_mask[s];
                    if was_empty {
                        let slot = self.c.ready_slot[s];
                        if slot != NONE {
                            self.ready_in[slot as usize] += 1;
                        }
                    }
                }
                if self.vc_inflight[s] == 0 {
                    keep &= !(1u64 << (s % 64));
                }
            }
            self.wire_active[wi] = keep;
        }
    }

    /// Step 2: advance reduction engines and broadcast relays. Trees are
    /// visited in an order rotated per cycle so shared per-node injection
    /// budgets are served max-min fairly instead of starving high-index
    /// trees; within a tree, nodes ascend.
    fn step_compute(
        &mut self,
        cycle: u64,
        tracer: &mut Option<Tracer>,
        faults: &Option<FaultState>,
    ) {
        let ntrees = self.ntrees;
        for ti in (0..ntrees).map(|i| (i + cycle as usize) % ntrees.max(1)) {
            // An unreleased tree keeps its engines armed but dormant: its
            // active bits survive untouched, so it wakes whole at release.
            if self.tree_len[ti] == 0 || cycle < self.tree_release[ti] {
                continue;
            }
            if tracer.is_some() {
                // Tracing pins full scans: every engine with work remaining
                // is observed every cycle, exactly like the reference
                // stepper, so stall attribution is identical.
                for v in 0..self.n {
                    self.process_pair(ti, v, cycle, tracer, faults);
                }
            } else {
                let base = ti * self.words_per_tree;
                for wi in 0..self.words_per_tree {
                    let mut word = self.pair_active[base + wi];
                    if word == 0 {
                        continue;
                    }
                    self.pair_active[base + wi] = 0;
                    // Rearms accumulate in a register; nothing else writes
                    // this word while its members are being evaluated
                    // (wakes only happen in the arrival/transmit steps).
                    let mut rearmed = 0u64;
                    while word != 0 {
                        let v = wi * 64 + word.trailing_zeros() as usize;
                        let bit = word & word.wrapping_neg();
                        word &= word - 1;
                        if self.process_pair(ti, v, cycle, tracer, faults) {
                            rearmed |= bit;
                        }
                    }
                    self.pair_active[base + wi] |= rearmed;
                }
            }
        }
    }

    /// Evaluates one (tree, node) engine exactly as the reference stepper
    /// does, moving flits without their payloads. Returns `true` when the
    /// pair must be re-examined next cycle even without an external wake
    /// (it fired, or it stalled on a per-node budget that refills next
    /// cycle).
    fn process_pair(
        &mut self,
        ti: usize,
        v: usize,
        cycle: u64,
        tracer: &mut Option<Tracer>,
        faults: &Option<FaultState>,
    ) -> bool {
        // A dead router's engines and relays are halted. They stay armed:
        // one with nothing staged and nothing in flight toward it (a
        // reduce leaf between injections) gets no flit to wake it when
        // the router heals.
        if faults.as_ref().is_some_and(|f| f.router_is_down(v)) {
            return true;
        }
        let p = ti * self.n + v;
        let len = self.tree_len[ti];
        let is_root = self.c.roots[ti] as usize == v;
        let kind = self.kind;
        let mut rearm = false;

        // -- Reduction engine (allreduce / reduce / reduce-scatter) --
        if kind.reduces() && self.reduced[p] < len {
            let inject_free = match self.cfg.max_injections_per_node {
                None => true,
                Some(cap) => {
                    if self.inject_epoch[v] != cycle {
                        self.inject_epoch[v] = cycle;
                        self.inject_budget[v] = cap;
                    }
                    self.inject_budget[v] > 0
                }
            };
            let in_lo = self.c.reduce_in_off[p] as usize;
            let in_hi = self.c.reduce_in_off[p + 1] as usize;
            let inputs_ready = self.ready_in[p] as usize == in_hi - in_lo;
            let out_ok = match self.c.reduce_out[p] {
                NONE => true,
                s => self.sendq_len[s as usize] < self.sq_cap,
            };
            // An allreduce root turns the result straight into the
            // broadcast, so it needs space on every down stream.
            let bcast_ok = !(is_root && kind == Collective::Allreduce) || self.bcast_room(p);
            let fires = inject_free && inputs_ready && out_ok && bcast_ok;
            if let Some(tr) = tracer.as_mut() {
                if !fires {
                    // Attribute the stall: missing inputs first (most
                    // fundamental), then budget, then a blocked output path.
                    let why = if !inputs_ready {
                        EngineStall::InputStarved
                    } else if !inject_free {
                        EngineStall::Budget
                    } else {
                        EngineStall::OutputBlocked
                    };
                    tr.engine_stalled(v, why);
                } else {
                    tr.reduction_fired(v);
                }
            }
            if fires {
                if self.cfg.max_injections_per_node.is_some() {
                    self.inject_budget[v] -= 1;
                }
                self.reduced[p] += 1;
                for i in in_lo..in_hi {
                    self.recvq_pop(self.c.in_ids[i] as usize);
                }
                if is_root {
                    if kind == Collective::Allreduce {
                        self.bcast_push(p);
                    }
                    self.deliver(ti, p, cycle);
                } else {
                    self.sendq_push(self.c.reduce_out[p] as usize);
                }
                self.progress = true;
                rearm = true;
            } else if !inject_free {
                // Budgets refill next cycle without any queue event.
                rearm = true;
            }
        }

        // -- Broadcast source (broadcast / allgather root) --
        if kind.root_sources_broadcast() && is_root && self.delivered[p] < len {
            let space = self.bcast_room(p);
            if let Some(tr) = tracer.as_mut() {
                if space {
                    tr.relay_fired(v);
                } else {
                    tr.engine_stalled(v, EngineStall::OutputBlocked);
                }
            }
            if space {
                self.bcast_push(p);
                self.deliver(ti, p, cycle);
                self.progress = true;
                rearm = true;
            }
        }

        // -- Broadcast relay (allreduce / broadcast / allgather) --
        if kind.broadcasts() {
            let bin = self.c.bcast_in[p];
            if bin != NONE {
                let bin = bin as usize;
                let input_ready = self.vc_arrived[bin] > 0;
                let out_ok = self.bcast_room(p);
                if self.delivered[p] < len {
                    if let Some(tr) = tracer.as_mut() {
                        if input_ready && out_ok {
                            tr.relay_fired(v);
                        } else {
                            tr.engine_stalled(
                                v,
                                if !input_ready {
                                    EngineStall::InputStarved
                                } else {
                                    EngineStall::OutputBlocked
                                },
                            );
                        }
                    }
                }
                if self.delivered[p] < len && input_ready && out_ok {
                    self.recvq_pop(bin);
                    self.bcast_push(p);
                    self.deliver(ti, p, cycle);
                    self.progress = true;
                    rearm = true;
                }
            }
        }

        rearm
    }

    /// Records one element delivered at pair `p` of tree `ti`.
    #[inline]
    fn deliver(&mut self, ti: usize, p: usize, cycle: u64) {
        self.delivered[p] += 1;
        if self.delivered[p] == 1 {
            self.first_done_pairs += 1;
            if self.first_done_pairs == self.live_pairs {
                self.first_element_latency = cycle;
            }
        }
        self.deliveries += 1;
        self.tree_deliveries[ti] += 1;
        if self.tree_deliveries[ti] == self.tree_len[ti] * self.per_tree_sinks {
            self.tree_completion[ti] = cycle;
        }
        if self.track_jobs {
            let j = self.tree_job[ti] as usize;
            self.job_deliveries[j] += 1;
            if self.job_deliveries[j] == 1 {
                self.job_first[j] = cycle;
            }
            if self.job_deliveries[j] == self.job_total[j] {
                self.job_completion[j] = cycle;
            }
        }
    }

    /// Step 3: one flit per directed channel per cycle. The winner — first
    /// resident stream in round-robin order with both data and downstream
    /// credit — is found first and the flit moved after, so the tracer can
    /// observe every member without changing arbitration (with tracing off
    /// the scan stops at the winner, which is the identical decision).
    fn step_transmit(
        &mut self,
        cycle: u64,
        tracer: &mut Option<Tracer>,
        faults: &mut Option<FaultState>,
    ) {
        for wi in 0..self.chan_active.len() {
            let mut word = self.chan_active[wi];
            if word == 0 {
                continue;
            }
            let mut keep = word;
            while word != 0 {
                let c = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if !self.process_channel(c, cycle, tracer, faults) {
                    keep &= !(1u64 << (c % 64));
                }
            }
            self.chan_active[wi] = keep;
        }
    }

    /// Arbitrates one channel. Returns `true` while the channel must stay
    /// in the active set (a resident stream still has staged data, or a
    /// fault is holding the channel and its state cannot be inspected).
    fn process_channel(
        &mut self,
        c: usize,
        cycle: u64,
        tracer: &mut Option<Tracer>,
        faults: &mut Option<FaultState>,
    ) -> bool {
        let lo = self.c.chan_off[c] as usize;
        let hi = self.c.chan_off[c + 1] as usize;
        let k = hi - lo;
        if k == 0 {
            return false;
        }
        // A downed channel transmits nothing this cycle, and charges a
        // stall to every resident stream with staged data — the
        // timeout/retry detector. (Tracer channel/stream hooks are skipped:
        // the channel is physically dead, not arbitrating.)
        if let Some(fs) = faults.as_mut() {
            if fs.channel_down(c) {
                let members = &self.c.chan_members[lo..hi];
                let sendq_len = &self.sendq_len;
                fs.observe_outage(c, members, |s| sendq_len[s] > 0, cycle);
                return true;
            }
        }
        let start = self.rr[c] as usize;
        let mut winner: Option<(usize, usize)> = None; // (member offset, stream)
        let mut any_data = false;
        if let Some(tr) = tracer.as_mut() {
            let mut idx = start;
            for _ in 0..k {
                let s = self.c.chan_members[lo + idx] as usize;
                let occupancy = self.occupancy(s) as usize;
                let has_data = self.sendq_len[s] > 0;
                let has_credit = occupancy < self.cfg.vc_buffer;
                if winner.is_none() && has_data && has_credit {
                    winner = Some((idx, s));
                }
                any_data |= has_data;
                let won = winner.is_some_and(|(_, w)| w == s);
                tr.observe_stream(
                    s,
                    self.sendq_len[s] as u64,
                    (occupancy + won as usize) as u64,
                    has_data,
                    has_credit,
                    won,
                );
                idx += 1;
                if idx == k {
                    idx = 0;
                }
            }
            tr.observe_channel(c, winner.is_some(), any_data);
        } else {
            let mut idx = start;
            for _ in 0..k {
                let s = self.c.chan_members[lo + idx] as usize;
                let has_data = self.sendq_len[s] > 0;
                any_data |= has_data;
                if has_data && self.occupancy(s) < self.vc_cap {
                    winner = Some((idx, s));
                    break;
                }
                idx += 1;
                if idx == k {
                    idx = 0;
                }
            }
        }
        if let Some((idx, s)) = winner {
            let occupancy = self.occupancy(s) as usize;
            self.sendq_len[s] -= 1;
            self.wire_push(s, cycle + self.cfg.link_latency as u64);
            self.channel_flits[c] += 1;
            self.max_vc_occupancy = self.max_vc_occupancy.max(occupancy + 1);
            self.rr[c] = (if idx + 1 == k { 0 } else { idx + 1 }) as u32;
            if let Some(fs) = faults.as_mut() {
                fs.note_progress(s);
            }
            self.pair_active[self.c.wake_src_word[s] as usize] |= self.c.wake_src_mask[s];
            self.progress = true;
            // The popped stream may still hold data, and arbitration losers
            // keep theirs: stay active, re-check next cycle.
            return true;
        }
        any_data
    }

    /// Earliest in-flight arrival cycle across all streams, if any.
    fn next_arrival(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        for wi in 0..self.wire_active.len() {
            let mut word = self.wire_active[wi];
            while word != 0 {
                let s = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.vc_inflight[s] == 0 {
                    continue;
                }
                let arr = self.vc_arr[(s << self.vc_shift) + self.wire_head[s] as usize];
                next = Some(next.map_or(arr, |n| n.min(arr)));
            }
        }
        next
    }

    /// Earliest tree-release cycle still in the future, if any.
    fn next_release(&self, cycle: u64) -> Option<u64> {
        self.tree_release.iter().copied().filter(|&r| r > cycle).min()
    }

    // -- batch-span fast-forward --------------------------------------------
    //
    // The saturated counterpart of the idle skip: once the run makes
    // progress every cycle, consecutive cycles tend to repeat the same
    // fire/drain/arrival pattern with some short period P (the LCM of the
    // congested channels' round-robin rotations). The controller snapshots
    // the *shape* of the run (everything arbitration depends on), waits for
    // it to recur — retaking the snapshot at doubling windows, since a
    // shape from the fill transient never recurs — and then replays as
    // many whole periods as provably contain no event boundary in closed
    // form. The queues hold counts and arrival stamps only, so a replay is
    // counter arithmetic and a re-based stamp per flit in flight.

    /// Per-cycle driver: maintains the progress streak, arms/compares the
    /// snapshot, and on a match fast-forwards `cycle`.
    fn batch_step(&mut self, cycle: &mut u64, faults: &mut Option<FaultState>) {
        // Only a saturated steady state can recur; a cycle without
        // progress (or with a fault actively shaping behavior) resets the
        // streak and drops any armed snapshot.
        let quiet = faults.as_ref().is_none_or(FaultState::skip_safe);
        if !self.progress || !quiet {
            self.bat.streak = 0;
            self.bat.armed = false;
            return;
        }
        self.bat.streak = self.bat.streak.saturating_add(1);
        if self.bat.armed {
            if self.shape_matches(*cycle) {
                let period = *cycle - self.bat.c0;
                self.bat.armed = false;
                match self.bulk_apply(*cycle, period, faults) {
                    Some(c_end) => {
                        *cycle = c_end;
                        self.progress = true;
                        self.bat.next_try = c_end;
                        self.bat.backoff = BATCH_BACKOFF0;
                    }
                    None => {
                        self.bat.next_try = *cycle + self.bat.backoff;
                        self.bat.backoff = (self.bat.backoff * 2).min(BATCH_BACKOFF_MAX);
                    }
                }
            } else if *cycle - self.bat.c0 >= self.bat.window {
                if self.bat.window >= BATCH_PMAX {
                    // No recurrence within the largest window: stop
                    // paying the per-cycle compare for a while.
                    self.bat.armed = false;
                    self.bat.next_try = *cycle + self.bat.backoff;
                    self.bat.backoff = (self.bat.backoff * 2).min(BATCH_BACKOFF_MAX);
                } else {
                    // Brent: the fill transient may outlast the window, so
                    // the old snapshot may never recur. Snapshot again here
                    // and wait twice as long.
                    self.capture_shape(*cycle);
                    self.bat.window *= 2;
                }
            }
            return;
        }
        // Arm only once every live pair has delivered its first element:
        // the replay must not need to set any `first_*` latch.
        if self.bat.streak >= BATCH_STREAK
            && *cycle >= self.bat.next_try
            && self.first_done_pairs == self.live_pairs
        {
            self.capture_shape(*cycle);
            self.bat.window = 2;
            self.bat.armed = true;
        }
    }

    /// Copies everything shape-relevant (and the progress counters whose
    /// deltas become rates) into the armed snapshot, taken at `cycle`.
    fn capture_shape(&mut self, cycle: u64) {
        if self.bat.snap.sendq_len.is_empty() {
            self.bat.snap = BatchSnap::new(
                self.reduced.len(),
                self.sendq_len.len(),
                self.rr.len(),
                self.ntrees,
                self.njobs,
                self.vc_shift,
                self.words_per_tree,
            );
        }
        self.bat.c0 = cycle;
        let snap = &mut self.bat.snap;
        snap.sendq_len.copy_from_slice(&self.sendq_len);
        snap.vc_arrived.copy_from_slice(&self.vc_arrived);
        snap.vc_inflight.copy_from_slice(&self.vc_inflight);
        snap.rr.copy_from_slice(&self.rr);
        snap.pair_active.copy_from_slice(&self.pair_active);
        snap.chan_active.copy_from_slice(&self.chan_active);
        snap.wire_active.copy_from_slice(&self.wire_active);
        snap.pending_arrivals = self.pending_arrivals;
        snap.reduced.copy_from_slice(&self.reduced);
        snap.delivered.copy_from_slice(&self.delivered);
        snap.deliveries = self.deliveries;
        snap.tree_deliveries.copy_from_slice(&self.tree_deliveries);
        snap.job_deliveries.copy_from_slice(&self.job_deliveries);
        snap.channel_flits.copy_from_slice(&self.channel_flits);
        for wi in 0..self.wire_active.len() {
            let mut word = self.wire_active[wi];
            while word != 0 {
                let s = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let base = s << self.vc_shift;
                for idx in 0..self.vc_inflight[s] {
                    let slot = ((self.wire_head[s] + idx) & self.vc_mask) as usize;
                    snap.inflight_off[base + idx as usize] = self.vc_arr[base + slot] - cycle;
                }
            }
        }
    }

    /// Does the current cycle's shape equal the armed snapshot? Cheapest
    /// comparisons first; the in-flight offset walk runs only when every
    /// aggregate vector already matches.
    fn shape_matches(&self, cycle: u64) -> bool {
        let snap = &self.bat.snap;
        if self.pending_arrivals != snap.pending_arrivals
            || self.wire_active != snap.wire_active
            || self.chan_active != snap.chan_active
            || self.pair_active != snap.pair_active
            || self.sendq_len != snap.sendq_len
            || self.vc_arrived != snap.vc_arrived
            || self.vc_inflight != snap.vc_inflight
            || self.rr != snap.rr
        {
            return false;
        }
        for wi in 0..self.wire_active.len() {
            let mut word = self.wire_active[wi];
            while word != 0 {
                let s = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let base = s << self.vc_shift;
                for idx in 0..self.vc_inflight[s] {
                    let slot = ((self.wire_head[s] + idx) & self.vc_mask) as usize;
                    if self.vc_arr[base + slot] - cycle != snap.inflight_off[base + idx as usize] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The shape at `c1` recurred with period `period`: replay the largest
    /// safe number of whole periods in closed form. Returns the new cycle,
    /// or `None` when not even one period fits inside every margin.
    fn bulk_apply(&mut self, c1: u64, period: u64, faults: &mut Option<FaultState>) -> Option<u64> {
        debug_assert!(period >= 1);
        if self.deliveries == self.bat.snap.deliveries {
            // A period that delivers nothing can recur forever (pure
            // in-flight rotation); fast-forwarding it would never
            // terminate the run. Leave it to the ordinary stepper.
            return None;
        }
        // Largest j such that cycles (c1, c1 + j·period] contain no event
        // boundary: no cycle-cap crossing, no fault transition, no job
        // release, and no pair reaching its slice end (so no completion
        // latch, gate flip or root-turnaround change can occur inside the
        // window — the margins keep every counter strictly below its
        // terminal value).
        let mut j = (self.cfg.max_cycles - c1) / period;
        if let Some(t) = faults.as_ref().and_then(|f| f.next_transition()) {
            // The fused arrival pass has already completed the cycle
            // after the window, so that cycle must precede the transition
            // too.
            debug_assert!(t > c1);
            j = j.min(t.saturating_sub(c1 + 2) / period);
        }
        if let Some(r) = self.next_release(c1) {
            j = j.min((r - 1 - c1) / period);
        }
        for ti in 0..self.ntrees {
            let len = self.tree_len[ti];
            if len == 0 {
                continue;
            }
            for v in 0..self.n {
                let p = ti * self.n + v;
                let fr = self.reduced[p] - self.bat.snap.reduced[p];
                if let Some(head) = (len - 1).saturating_sub(self.reduced[p]).checked_div(fr) {
                    j = j.min(head);
                }
                let dl = self.delivered[p] - self.bat.snap.delivered[p];
                if let Some(head) = (len - 1).saturating_sub(self.delivered[p]).checked_div(dl) {
                    j = j.min(head);
                }
            }
        }
        if j == 0 {
            return None;
        }
        let c_end = c1 + j * period;
        self.bulk_streams(c_end, faults);
        self.bulk_counters(j, c_end);
        Some(c_end)
    }

    /// Re-bases every in-flight arrival stamp on the window end, and
    /// replays the per-transmit fault-detector reset of every stream that
    /// flows in the window. Where a stamp sits in its ring carries no
    /// meaning beyond FIFO order, so no head moves.
    fn bulk_streams(&mut self, c_end: u64, faults: &mut Option<FaultState>) {
        let snap = &self.bat.snap;
        for wi in 0..self.wire_active.len() {
            let mut word = self.wire_active[wi];
            while word != 0 {
                let s = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let base = s << self.vc_shift;
                for idx in 0..self.vc_inflight[s] {
                    let slot = ((self.wire_head[s] + idx) & self.vc_mask) as usize;
                    self.vc_arr[base + slot] = c_end + snap.inflight_off[base + idx as usize];
                }
            }
        }
        for s in 0..self.c.stream_chan.len() {
            // In steady shape a live stream's source stages flits exactly
            // as often as its destination consumes them, and it transmits
            // that often too: one flit per fire on a reduce stream, one
            // per delivery on a broadcast stream. (A reduce-family root
            // also delivers when the collective never broadcasts.)
            let reduce = self.c.ready_slot[s] != NONE;
            let (now, then) = if reduce {
                (&self.reduced, &snap.reduced)
            } else {
                (&self.delivered, &snap.delivered)
            };
            let rate = |p: u32| now[p as usize] - then[p as usize];
            let r = rate(self.c.stream_dst_pair[s]);
            debug_assert!(
                r == rate(self.c.stream_src_pair[s]) || !reduce && !self.kind.broadcasts(),
                "stream {s} is not in steady shape"
            );
            if let Some(fs) = faults.as_mut().filter(|_| r > 0) {
                // The per-cycle path resets the stream's stall/retry
                // bookkeeping on every transmit; a stream that flows in
                // the window must end it reset.
                fs.note_progress(s);
            }
        }
    }

    /// Bulk-advances every progress counter by `j` times its per-period
    /// delta. Runs last: the element passes need the pre-window values.
    fn bulk_counters(&mut self, j: u64, c_end: u64) {
        let snap = &self.bat.snap;
        for p in 0..self.reduced.len() {
            self.reduced[p] += j * (self.reduced[p] - snap.reduced[p]);
            self.delivered[p] += j * (self.delivered[p] - snap.delivered[p]);
        }
        self.deliveries += j * (self.deliveries - snap.deliveries);
        for ti in 0..self.ntrees {
            self.tree_deliveries[ti] +=
                j * (self.tree_deliveries[ti] - snap.tree_deliveries[ti]);
        }
        for jb in 0..self.job_deliveries.len() {
            self.job_deliveries[jb] += j * (self.job_deliveries[jb] - snap.job_deliveries[jb]);
        }
        for c in 0..self.channel_flits.len() {
            self.channel_flits[c] += j * (self.channel_flits[c] - snap.channel_flits[c]);
        }
        // The fused arrival pass has already completed the cycle after
        // the cut; the restamped wires preserve that at the new cut.
        self.arrivals_done = c_end + 1;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::{Graph, RootedTree};

    fn cycle_graph(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    fn run_single_tree(n: u32, m: u64, cfg: SimConfig) -> SimReport {
        let g = cycle_graph(n);
        let path: Vec<u32> = (0..n).collect();
        let t = RootedTree::from_path(&path, (n / 2) as usize).unwrap();
        let emb = MultiTreeEmbedding::new(&g, &[t], &[m]);
        let w = Workload::new(n, m);
        Simulator::new(&g, &emb, cfg).run(&w)
    }

    #[test]
    fn correct_and_complete_single_tree() {
        let r = run_single_tree(6, 200, SimConfig::default());
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.total_elems, 200);
        assert!(r.cycles > 0);
    }

    #[test]
    fn single_tree_approaches_link_rate() {
        // One uncongested tree streams at ~1 element/cycle for large m.
        let r = run_single_tree(6, 5000, SimConfig::default());
        assert!(r.completed);
        assert!(
            r.measured_bandwidth > 0.95,
            "measured {} el/cy, expected ~1",
            r.measured_bandwidth
        );
    }

    #[test]
    fn small_buffer_throttles_throughput() {
        // With vc_buffer = 1 and latency 4, at most one flit per
        // round-trip-ish window: bandwidth well below saturation. This is
        // the latency-bandwidth-product memory footprint the paper cites.
        let starved = SimConfig { link_latency: 4, vc_buffer: 1, ..Default::default() };
        let r = run_single_tree(6, 2000, starved);
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        assert!(
            r.measured_bandwidth < 0.5,
            "measured {} el/cy with 1-flit buffers",
            r.measured_bandwidth
        );
    }

    #[test]
    fn congested_trees_share_bandwidth() {
        // Two fully-overlapping path trees with opposite roots: reduce
        // streams flow in opposite directions, but each channel still
        // carries one reduce + one broadcast stream -> per-tree rate 1/2.
        let g = {
            let mut g = Graph::new(5);
            for i in 0..4 {
                g.add_edge(i, i + 1);
            }
            g
        };
        let path = [0u32, 1, 2, 3, 4];
        let t1 = RootedTree::from_path(&path, 0).unwrap();
        let t2 = RootedTree::from_path(&path, 4).unwrap();
        let m = 4000;
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &[m / 2, m / 2]);
        let w = Workload::new(5, m);
        let r = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        // Aggregate ~1 element/cycle (2 trees x 1/2 each).
        assert!(
            (r.measured_bandwidth - 1.0).abs() < 0.1,
            "measured {}",
            r.measured_bandwidth
        );
    }

    #[test]
    fn utilization_bounded_by_one() {
        let r = run_single_tree(5, 1000, SimConfig::default());
        assert!(r.max_channel_utilization <= 1.0 + 1e-9);
        assert!(r.max_channel_utilization > 0.5);
    }

    #[test]
    fn deadlock_backstop_reports_incomplete() {
        let cfg = SimConfig { max_cycles: 10, ..Default::default() };
        let r = run_single_tree(6, 10_000, cfg);
        assert!(!r.completed);
        assert_eq!(r.cycles, 10);
    }

    #[test]
    fn empty_vector_finishes_immediately() {
        let r = run_single_tree(4, 0, SimConfig::default());
        assert!(r.completed);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.total_elems, 0);
    }

    #[test]
    fn reduce_only_collective() {
        let g = cycle_graph(6);
        let t = RootedTree::from_path(&[0, 1, 2, 3, 4, 5], 2).unwrap();
        let m = 500;
        let emb = MultiTreeEmbedding::new(&g, &[t], &[m]);
        let w = Workload::new(6, m);
        let full = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        let reduce = Simulator::new(&g, &emb, SimConfig::default())
            .run_jobs_collective(&w, &[], Collective::Reduce)
            .report;
        assert!(reduce.completed);
        assert_eq!(reduce.mismatches, 0);
        // No broadcast phase: strictly faster than the full allreduce.
        assert!(reduce.cycles < full.cycles);
    }

    #[test]
    fn broadcast_only_collective() {
        let g = cycle_graph(6);
        let t = RootedTree::from_path(&[0, 1, 2, 3, 4, 5], 0).unwrap();
        let m = 500;
        let emb = MultiTreeEmbedding::new(&g, &[t], &[m]);
        let w = Workload::new(6, m);
        let r = Simulator::new(&g, &emb, SimConfig::default())
            .run_jobs_collective(&w, &[], Collective::Broadcast).report;
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        // Streams at link rate like the reduce direction.
        assert!(r.measured_bandwidth > 0.8, "measured {}", r.measured_bandwidth);
    }

    #[test]
    fn first_element_latency_scales_with_depth() {
        let shallow = {
            let g = cycle_graph(8);
            let t = RootedTree::from_path(&[0, 1, 2, 3, 4, 5, 6, 7], 4).unwrap();
            let emb = MultiTreeEmbedding::new(&g, &[t], &[64]);
            let w = Workload::new(8, 64);
            Simulator::new(&g, &emb, SimConfig::default()).run(&w)
        };
        let deep = {
            let g = cycle_graph(8);
            let t = RootedTree::from_path(&[0, 1, 2, 3, 4, 5, 6, 7], 0).unwrap();
            let emb = MultiTreeEmbedding::new(&g, &[t], &[64]);
            let w = Workload::new(8, 64);
            Simulator::new(&g, &emb, SimConfig::default()).run(&w)
        };
        assert!(shallow.first_element_latency > 0);
        assert!(
            deep.first_element_latency > shallow.first_element_latency,
            "deep {} vs shallow {}",
            deep.first_element_latency,
            shallow.first_element_latency
        );
        assert!(shallow.first_element_latency <= shallow.cycles);
    }

    #[test]
    fn collective_latency_formulas() {
        // Pure broadcast and pure reduce each traverse `depth` hops once:
        // first-element latency = depth·L + 1 (the +1 is the source's
        // compute/inject cycle). Allreduce chains both: 2·depth·L + 1.
        let g = cycle_graph(8);
        let t = RootedTree::from_path(&[0, 1, 2, 3, 4, 5, 6, 7], 0).unwrap(); // depth 7
        let m = 64;
        let emb = MultiTreeEmbedding::new(&g, &[t], &[m]);
        let w = Workload::new(8, m);
        let cfg = SimConfig::default(); // L = 4
        let run = |kind| Simulator::new(&g, &emb, cfg).run_jobs_collective(&w, &[], kind).report;
        let bc = run(Collective::Broadcast);
        let rd = run(Collective::Reduce);
        let ar = run(Collective::Allreduce);
        assert_eq!(bc.first_element_latency, 7 * 4 + 1);
        assert_eq!(rd.first_element_latency, 7 * 4 + 1);
        assert_eq!(ar.first_element_latency, 2 * 7 * 4 + 1);
        for r in [&bc, &rd, &ar] {
            assert!(r.completed && r.mismatches == 0);
        }
    }

    #[test]
    fn vc_occupancy_tracks_latency_bandwidth_product() {
        let g = cycle_graph(6);
        let t = RootedTree::from_path(&[0, 1, 2, 3, 4, 5], 0).unwrap();
        let emb = MultiTreeEmbedding::new(&g, &[t], &[4000]);
        let w = Workload::new(6, 4000);
        let r = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        assert!(r.completed);
        // Occupancy never exceeds the configured buffer...
        assert!(r.max_vc_occupancy <= 6);
        // ...and a saturated stream keeps at least the latency in flight.
        assert!(r.max_vc_occupancy >= 4, "occupancy {}", r.max_vc_occupancy);
    }

    #[test]
    fn injection_cap_throttles_aggregate_bandwidth() {
        // Two overlapping trees want 2 local injections per node per
        // cycle in steady state... here both run at 1/2 each, so a cap of
        // 1 is harmless but a cap that starves (per-cycle 0 impossible;
        // use two disjoint paths where each tree streams at full rate and
        // needs 1 injection each -> cap 1 halves the aggregate).
        let mut g = Graph::new(4);
        for u in 0..4 {
            for v in u + 1..4 {
                g.add_edge(u, v);
            }
        }
        // Edge-disjoint spanning trees of K4: the Hamiltonian path
        // 0-1-2-3 and its complement path 2-0-3-1.
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 1).unwrap();
        let t2 = RootedTree::from_path(&[2, 0, 3, 1], 1).unwrap();
        let m = 2000;
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &[m / 2, m / 2]);
        let w = Workload::new(4, m);
        let free = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        let capped = Simulator::new(
            &g,
            &emb,
            SimConfig { max_injections_per_node: Some(1), ..Default::default() },
        )
        .run(&w);
        assert!(free.completed && capped.completed);
        assert_eq!(capped.mismatches, 0);
        assert!(
            free.measured_bandwidth > 1.8,
            "uncapped should stream both trees: {}",
            free.measured_bandwidth
        );
        assert!(
            capped.measured_bandwidth < 1.2,
            "injection cap 1 should halve throughput: {}",
            capped.measured_bandwidth
        );
    }

    #[test]
    fn float_gradient_allreduce_validates() {
        // The ML case: f64 gradients, tree association order != reference
        // order, tolerance-based validation must still pass with zero
        // mismatches.
        let g = cycle_graph(8);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3, 4, 5, 6, 7], 3).unwrap();
        let t2 = RootedTree::from_path(&[1, 2, 3, 4, 5, 6, 7, 0], 4).unwrap();
        let m = 1000;
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &[m / 2, m / 2]);
        let w = Workload::new_float(8, m);
        let r = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
    }

    #[test]
    fn zero_length_tree_slice_allowed() {
        let g = cycle_graph(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[1, 0, 3, 2], 0).unwrap();
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &[50, 0]);
        let w = Workload::new(4, 50);
        let r = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.tree_completion[1], 0);
    }

    fn two_tenant_setup(m1: u64, m2: u64) -> (Graph, Vec<RootedTree>, Workload) {
        let g = cycle_graph(6);
        let path: Vec<u32> = (0..6).collect();
        let t1 = RootedTree::from_path(&path, 0).unwrap();
        let t2 = RootedTree::from_path(&path, 5).unwrap();
        let w = Workload::concat(
            6,
            &[
                crate::workload::JobSegment::full(m1, crate::workload::ReduceKind::WrappingU64),
                crate::workload::JobSegment::full(m2, crate::workload::ReduceKind::WrappingU64),
            ],
        );
        (g, vec![t1, t2], w)
    }

    #[test]
    fn run_jobs_single_binding_matches_plain_run() {
        // One binding released at 0 is exactly the unbound run plus job
        // accounting: same report and trace bytes for every collective.
        let g = cycle_graph(6);
        let path: Vec<u32> = (0..6).collect();
        let t = RootedTree::from_path(&path, 3).unwrap();
        let m = 300;
        let emb = MultiTreeEmbedding::new(&g, &[t], &[m]);
        let w = Workload::new(6, m);
        let full = [JobBinding { trees: 0..emb.num_trees(), release: 0 }];
        let plain = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        let jr = Simulator::new(&g, &emb, SimConfig::default())
            .run_jobs_collective(&w, &full, Collective::Allreduce);
        assert_eq!(jr.report, plain);
        assert_eq!(jr.jobs.len(), 1);
        assert_eq!(jr.jobs[0].elems, m);
        assert_eq!(jr.jobs[0].deliveries, m * 6);
        assert_eq!(jr.jobs[0].completion, plain.cycles);
        assert_eq!(jr.jobs[0].mismatches, 0);
        for kind in Collective::ALL {
            let traced = |bindings: &[JobBinding]| {
                Simulator::new(&g, &emb, SimConfig::default())
                    .with_trace(TraceConfig::counters())
                    .run_jobs_collective(&w, bindings, kind)
            };
            let (unbound, bound) = (traced(&[]), traced(&full));
            assert_eq!(unbound.report, bound.report, "{kind:?}");
            assert_eq!(
                unbound.trace.expect("traced").to_json(),
                bound.trace.expect("traced").to_json(),
                "{kind:?}"
            );
            assert!(unbound.jobs.is_empty() && bound.jobs.len() == 1);
        }
    }

    #[test]
    fn concurrent_jobs_track_separate_completions() {
        let (m1, m2) = (400u64, 100u64);
        let (g, trees, w) = two_tenant_setup(m1, m2);
        let emb =
            MultiTreeEmbedding::with_offsets(&g, &trees, &[m1, m2], &[0, m1]);
        let jr = Simulator::new(&g, &emb, SimConfig::default()).run_jobs_collective(
            &w,
            &[
                JobBinding { trees: 0..1, release: 0 },
                JobBinding { trees: 1..2, release: 0 },
            ],
            Collective::Allreduce,
        );
        assert!(jr.report.completed);
        assert_eq!(jr.report.mismatches, 0);
        for j in &jr.jobs {
            assert_eq!(j.mismatches, 0);
            assert!(j.completion > 0);
            assert!(j.first_delivery > 0 && j.first_delivery <= j.completion);
        }
        // The shorter job finishes first under fair channel sharing.
        assert!(jr.jobs[1].completion < jr.jobs[0].completion);
        assert_eq!(jr.jobs[0].deliveries, m1 * 6);
        assert_eq!(jr.jobs[1].deliveries, m2 * 6);
    }

    #[test]
    fn job_value_hash_is_schedule_invariant() {
        // The same job reduced solo, on the same trees and global element
        // offsets, yields the identical digest as in the concurrent run.
        let (m1, m2) = (250u64, 130u64);
        let (g, trees, w) = two_tenant_setup(m1, m2);
        let emb = MultiTreeEmbedding::with_offsets(&g, &trees, &[m1, m2], &[0, m1]);
        let both = Simulator::new(&g, &emb, SimConfig::default()).run_jobs_collective(
            &w,
            &[
                JobBinding { trees: 0..1, release: 0 },
                JobBinding { trees: 1..2, release: 0 },
            ],
            Collective::Allreduce,
        );
        let solo1 = MultiTreeEmbedding::with_offsets(&g, &trees[..1], &[m1], &[0]);
        let solo2 = MultiTreeEmbedding::with_offsets(&g, &trees[1..], &[m2], &[m1]);
        let r1 = Simulator::new(&g, &solo1, SimConfig::default())
            .run_jobs_collective(
                &w,
                &[JobBinding { trees: 0..1, release: 0 }],
                Collective::Allreduce,
            );
        let r2 = Simulator::new(&g, &solo2, SimConfig::default())
            .run_jobs_collective(
                &w,
                &[JobBinding { trees: 0..1, release: 0 }],
                Collective::Allreduce,
            );
        assert_eq!(both.jobs[0].value_hash, r1.jobs[0].value_hash);
        assert_eq!(both.jobs[1].value_hash, r2.jobs[0].value_hash);
        assert_ne!(both.jobs[0].value_hash, both.jobs[1].value_hash);
        assert_eq!(both.report.mismatches, 0);
    }

    #[test]
    fn release_cycle_delays_a_job() {
        let (m1, m2) = (200u64, 200u64);
        let (g, trees, w) = two_tenant_setup(m1, m2);
        let emb = MultiTreeEmbedding::with_offsets(&g, &trees, &[m1, m2], &[0, m1]);
        let release = 5000u64; // far after job 0 would finish alone
        let jr = Simulator::new(&g, &emb, SimConfig::default()).run_jobs_collective(
            &w,
            &[
                JobBinding { trees: 0..1, release: 0 },
                JobBinding { trees: 1..2, release },
            ],
            Collective::Allreduce,
        );
        assert!(jr.report.completed);
        assert_eq!(jr.report.mismatches, 0);
        assert!(jr.jobs[0].completion < release);
        assert!(jr.jobs[1].first_delivery >= release);
        // The engine must skip the idle gap, not tick through it: the
        // delayed job still finishes promptly after its release.
        assert!(jr.jobs[1].completion < release + 2 * jr.jobs[0].completion + 100);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn run_jobs_rejects_gapped_bindings() {
        let (m1, m2) = (50u64, 50u64);
        let (g, trees, w) = two_tenant_setup(m1, m2);
        let emb = MultiTreeEmbedding::with_offsets(&g, &trees, &[m1, m2], &[0, m1]);
        let _ = Simulator::new(&g, &emb, SimConfig::default())
            .run_jobs_collective(
                &w,
                &[JobBinding { trees: 1..2, release: 0 }],
                Collective::Allreduce,
            );
    }
}

#[cfg(test)]
mod value_pass_tests {
    use super::*;
    use crate::workload::{JobSegment, ReduceKind};
    use pf_allreduce::AllreducePlan;

    /// [`TreeOrder::fill_block`] as it was before the tree kernel: node by
    /// node in the tree's order, each node's inputs element by element,
    /// then each child's row combined in, in CSR order.
    fn fill_block_per_node(
        order: &TreeOrder,
        ti: usize,
        w: &Workload,
        kind: Collective,
        ge: u64,
        bw: usize,
        rows: &mut [u64],
    ) {
        let tree = order.tree(ti);
        let root = *tree.nodes.last().unwrap();
        let elems = (0..bw).map(|k| (k, ge + k as u64));
        if kind.reduces() {
            for (i, &v) in tree.nodes.iter().enumerate() {
                let v = v as usize;
                for (k, e) in elems.clone() {
                    rows[v * VALUE_BLOCK + k] = w.input(v as u32, e);
                }
                for &c in tree.children(i) {
                    let c = c as usize;
                    for (k, e) in elems.clone() {
                        let (acc, x) = (rows[v * VALUE_BLOCK + k], rows[c * VALUE_BLOCK + k]);
                        rows[v * VALUE_BLOCK + k] = w.combine_at(e, acc, x);
                    }
                }
            }
        } else {
            for (k, e) in elems {
                rows[root as usize * VALUE_BLOCK + k] = match kind {
                    Collective::Broadcast => w.input(root, e),
                    _ => w.expected(e),
                };
            }
        }
    }

    /// The plans of the block-kernel suite: `low_depth(7)`, its repair
    /// after one link fault, and a kary plan on the 4 × 4 torus.
    fn plans() -> Vec<(AllreducePlan, &'static str)> {
        use pf_allreduce::{rebuild_degraded, Budget, FaultSet, KaryMultitree};
        let low = AllreducePlan::low_depth(7).unwrap();
        let used = (0..low.edge_congestion.len() as u32)
            .find(|&e| low.edge_congestion[e as usize] > 0)
            .unwrap();
        let repaired = rebuild_degraded(&low, &FaultSet::links(vec![used])).unwrap().to_plan(7);
        let torus = pf_topo::torus::Torus::new(&[4, 4]).graph().clone();
        let kary = KaryMultitree { k: 3 };
        let kary = AllreducePlan::construct(&torus, &kary, &Budget::unlimited()).unwrap();
        vec![
            (low, "low_depth(7)"),
            (repaired, "low_depth(7) less one link"),
            (kary, "kary torus 4x4"),
        ]
    }

    /// A `u64`, an `f64` and a segmented workload of 256 elements. The
    /// segments change at elements 100 and 130, and two of them leave a
    /// third of the nodes out.
    fn workloads(n: u32) -> Vec<(Workload, &'static str)> {
        let thirds = |r: u32| Some((0..n).filter(|v| v % 3 != r).collect::<Vec<_>>());
        let segs = [
            JobSegment::full(100, ReduceKind::WrappingU64),
            JobSegment { elems: 30, kind: ReduceKind::FloatF64, participants: thirds(0) },
            JobSegment { elems: 126, kind: ReduceKind::WrappingU64, participants: thirds(1) },
        ];
        vec![
            (Workload::new(n, 256), "u64"),
            (Workload::new_float(n, 256), "f64"),
            (Workload::concat(n, &segs), "segmented"),
        ]
    }

    /// What a kernel's rows hold before it runs: a word no input, sum or
    /// identity in these tests equals, so a column left unwritten shows.
    const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

    #[test]
    fn tree_blocks_match_the_per_node_path_and_the_portable_body() {
        let kinds = [Collective::Allreduce, Collective::Broadcast, Collective::Allgather];
        for (plan, label) in plans() {
            let n = plan.graph.num_vertices();
            let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(256));
            for (w, wl) in workloads(n) {
                for (ti, kind) in (0..emb.num_trees()).flat_map(|ti| kinds.map(|k| (ti, k))) {
                    // Blocks inside one segment, blocks across 100, 130 or
                    // both, and blocks across a 64-element group, which the
                    // pass itself never asks for.
                    for (ge, bw) in [0u64, 60, 95, 99, 100, 125, 129, 192]
                        .into_iter()
                        .flat_map(|ge| [1usize, 7, 63, 64].map(|bw| (ge, bw)))
                    {
                        let at = format!("{label} {wl} tree {ti} {kind:?} [{ge}; {bw}]");
                        let mut rows = vec![0u64; n as usize * VALUE_BLOCK];
                        fill_block_per_node(&emb.order, ti, &w, kind, ge, bw, &mut rows);
                        // The pass reads only the root's values. It reuses
                        // its rows from block to block, so each call here
                        // starts on rows that hold none of them.
                        let root = emb.root(ti) as usize * VALUE_BLOCK;
                        let want = &rows[root..root + bw];
                        let mut scratch = vec![POISON; rows.len()];
                        let got = emb.order.fill_block(ti, &w, kind, ge, bw, &mut scratch);
                        assert!(got == want, "{at}: dispatched kernel");
                        scratch.fill(POISON);
                        let portable = kernels::portable_only(|| {
                            emb.order.fill_block(ti, &w, kind, ge, bw, &mut scratch).to_vec()
                        });
                        assert!(portable == want, "{at}: portable body");
                    }
                }
            }
        }
    }

    /// What a value pass over `emb` must return when sink `v` of tree `ti`
    /// received the first `delivered(ti, v)` elements of its slice, on an
    /// exact (`u64`) workload: each delivery's
    /// [`delivery_digest_entry`] summed, and per job the root's
    /// `hash_entry` over its prefix.
    fn digest_oracle(
        emb: &MultiTreeEmbedding,
        w: &Workload,
        kind: Collective,
        bindings: &[JobBinding],
        delivered: &dyn Fn(usize, usize) -> u64,
    ) -> (u64, Vec<u64>) {
        let n = emb.num_nodes() as usize;
        let mut digest = 0u64;
        let mut hashes = vec![0u64; bindings.len()];
        for (ti, t) in emb.slices().iter().enumerate() {
            let root = emb.root(ti) as usize;
            let value = |e: u64| match kind {
                Collective::Broadcast => w.input(root as u32, e),
                _ => w.expected(e),
            };
            let sinks = if kind.broadcasts() { 0..n } else { root..root + 1 };
            for v in sinks {
                for e in t.offset..t.offset + delivered(ti, v) {
                    digest = digest.wrapping_add(delivery_digest_entry(v as u64, e, value(e)));
                }
            }
            let j = bindings.iter().position(|b| b.trees.contains(&ti)).unwrap();
            for e in t.offset..t.offset + delivered(ti, root) {
                hashes[j] = hashes[j].wrapping_add(hash_entry(e, value(e)));
            }
        }
        (digest, hashes)
    }

    /// Runs the value pass over hand-set delivered counts.
    fn pass(
        emb: &MultiTreeEmbedding,
        w: &Workload,
        kind: Collective,
        bindings: &[JobBinding],
        delivered: &dyn Fn(usize, usize) -> u64,
    ) -> (u64, u64, Vec<u64>) {
        let mut jobs = vec![JobOutcome::default(); bindings.len()];
        let (mismatches, digest) = value_pass(emb, w, kind, Some(bindings), delivered, &mut jobs);
        let bad: u64 = jobs.iter().map(|j| j.mismatches).sum();
        assert_eq!(bad, mismatches);
        (mismatches, digest, jobs.iter().map(|j| j.value_hash).collect())
    }

    #[test]
    fn digest_sums_each_delivery_over_uneven_prefixes() {
        // Slices of 150 elements: prefixes end before, inside and at the
        // end of the first block, and in the second and third.
        let plan = AllreducePlan::low_depth(3).unwrap();
        let n = plan.graph.num_vertices();
        let ntrees = plan.trees.len();
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &vec![150; ntrees]);
        let segs = [
            JobSegment::full(2 * 150, ReduceKind::WrappingU64),
            JobSegment {
                elems: 150 * (ntrees as u64 - 2),
                kind: ReduceKind::WrappingU64,
                participants: Some((0..n).step_by(2).collect()),
            },
        ];
        let w = Workload::concat(n, &segs);
        let bindings = [
            JobBinding { trees: 0..2, release: 0 },
            JobBinding { trees: 2..ntrees, release: 0 },
        ];
        let prefixes = [0u64, 1, 17, 63, 64, 65, 128, 150];
        let delivered = |ti: usize, v: usize| prefixes[(3 * ti + v) % prefixes.len()];
        // Wrong expectations at a few elements of every slice, for the
        // mismatch counts: a sink that checks one inside its prefix counts
        // it once. Only a reduction's sinks check against `expected`.
        let mut bent = w.clone();
        let wrong = [0u64, 16, 63, 64, 100, 149];
        for t in emb.slices() {
            for k in wrong {
                bent.perturb_expected(t.offset + k);
            }
        }
        for kind in Collective::ALL {
            let (bad, digest, hashes) = pass(&emb, &w, kind, &bindings, &delivered);
            let (want_digest, want_hashes) = digest_oracle(&emb, &w, kind, &bindings, &delivered);
            assert_eq!(bad, 0, "{kind:?}");
            assert_eq!(digest, want_digest, "{kind:?}: digest");
            assert_eq!(hashes, want_hashes, "{kind:?}: job hashes");
            let checked = |ti: usize| {
                let root = emb.root(ti) as usize;
                let sinks = if kind.broadcasts() { 0..n as usize } else { root..root + 1 };
                let wrong_in = |v| wrong.iter().filter(|&&k| k < delivered(ti, v)).count() as u64;
                sinks.map(wrong_in).sum::<u64>()
            };
            let want_bad = if kind.reduces() { (0..ntrees).map(checked).sum() } else { 0 };
            assert_eq!(pass(&emb, &bent, kind, &bindings, &delivered).0, want_bad, "{kind:?}");
        }
    }

    #[test]
    fn sink_weights_are_odd_and_distinct() {
        let ids = (0..1u64 << 16).chain([(1 << 20) - 1, 1 << 20, u32::MAX.into(), u64::MAX]);
        let mut weights: Vec<u64> = ids.map(sink_weight).collect();
        assert!(weights.iter().all(|w| w % 2 == 1));
        let count = weights.len();
        weights.sort_unstable();
        weights.dedup();
        assert_eq!(weights.len(), count, "two sinks share a weight");
    }

    #[test]
    fn moving_one_delivery_to_another_sink_changes_the_digest() {
        // Sink `a` holds element k − 1 of tree 0's slice and `b` does not;
        // then `b` holds it and `a` does not. Every other delivery stays.
        let plan = AllreducePlan::low_depth(3).unwrap();
        let n = plan.graph.num_vertices() as usize;
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(400));
        let w = Workload::new(n as u32, 400);
        let bindings = [JobBinding { trees: 0..emb.num_trees(), release: 0 }];
        for k in [1u64, 40, 64, 65] {
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).filter(|(a, b)| a != b) {
                let before = |ti: usize, v: usize| match (ti, v) {
                    (0, v) if v == a => k,
                    (0, v) if v == b => k - 1,
                    _ => 30,
                };
                let after = |ti: usize, v: usize| match (ti, v) {
                    (0, v) if v == a => k - 1,
                    (0, v) if v == b => k,
                    _ => 30,
                };
                let (_, d0, _) = pass(&emb, &w, Collective::Allreduce, &bindings, &before);
                let (_, d1, _) = pass(&emb, &w, Collective::Allreduce, &bindings, &after);
                assert_ne!(d0, d1, "element {} moved from sink {a} to sink {b}", k - 1);
            }
        }
    }
}
