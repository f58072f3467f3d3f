//! Cycle-level observability: per-link, per-stream and per-router counters
//! with structured JSON/CSV export.
//!
//! The paper's central guarantees (Theorems 7.6 and 7.19: per-link
//! congestion ≤ 2 for the low-depth trees, = 1 for edge-disjoint
//! Hamiltonian trees; Theorem 5.1's bandwidth model) are *per-link*
//! statements. The aggregate numbers in [`crate::engine::SimReport`] can
//! confirm that measured bandwidth roughly matches the model, but not *why*
//! a run falls short of it. This module records, per directed channel and
//! per stream, where every cycle went — a flit forwarded, a credit stall, an
//! arbitration loss, or idleness — and per router, how often each reduction
//! engine fired or what blocked it. The exported [`TraceReport`] is the
//! measured counterpart of the Algorithm 1 congestion vector, letting tests
//! assert the theorems as *runtime-verified* invariants (see
//! `tests/paper_claims.rs`) and letting `docs/OBSERVABILITY.md`'s worked
//! example attribute the quickstart's 3.67-vs-4 elements/cycle gap to
//! pipeline fill.
//!
//! Tracing is strictly observational: enabling it never changes arbitration,
//! credit, or engine decisions, so a traced run produces a bit-identical
//! [`crate::engine::SimReport`] (property-tested in this crate). With
//! [`TraceConfig::off`] the simulator skips every hook behind one `Option`
//! check and allocates nothing.

use crate::embedding::{MultiTreeEmbedding, Phase};

/// What the simulator should record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch: collect per-channel / per-stream / per-router
    /// counters. `false` makes every hook a no-op (and `Simulator` skips
    /// allocating a tracer altogether).
    pub enabled: bool,
    /// Sample the global timeline every `timeline_interval` cycles
    /// (0 = no timeline). Ignored when `enabled` is false.
    pub timeline_interval: u64,
}

impl TraceConfig {
    /// Tracing disabled — the default; zero overhead.
    pub fn off() -> Self {
        TraceConfig { enabled: false, timeline_interval: 0 }
    }

    /// End-of-run counters only (no timeline).
    pub fn counters() -> Self {
        TraceConfig { enabled: true, timeline_interval: 0 }
    }

    /// Counters plus a timeline sample every `interval` cycles (≥ 1).
    pub fn with_timeline(interval: u64) -> Self {
        assert!(interval >= 1, "timeline interval must be at least one cycle");
        TraceConfig { enabled: true, timeline_interval: interval }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// Where a directed channel's cycles went. One row per directed channel
/// (`2*e` is the `u → v` direction of edge `e = (u, v)` with `u < v`,
/// `2*e + 1` the reverse, as in [`crate::embedding::channel_id`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelTrace {
    /// Directed channel id.
    pub channel: u32,
    /// Undirected edge id (`channel / 2`).
    pub edge: u32,
    /// Transmitting router.
    pub src: u32,
    /// Receiving router.
    pub dst: u32,
    /// Streams mapped onto this channel by the embedding.
    pub streams: u32,
    /// Streams that actually carried at least one flit — the *measured*
    /// per-direction congestion (compare `AllreducePlan::edge_congestion`).
    pub active_streams: u32,
    /// Flits transmitted.
    pub flits: u64,
    /// Cycles in which a flit was transmitted (`flits`, kept separate for
    /// schema clarity).
    pub busy_cycles: u64,
    /// Cycles in which some resident stream had a flit staged but every
    /// such stream was out of downstream credit — back-pressure.
    pub credit_stall_cycles: u64,
    /// Cycles with no staged flit on any resident stream (includes all
    /// cycles for channels no tree uses).
    pub idle_cycles: u64,
    /// `flits / cycles`.
    pub utilization: f64,
}

/// Per-logical-stream counters (one stream = one directed tree edge in one
/// phase).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTrace {
    /// Stream index in the embedding.
    pub stream: u32,
    /// Owning tree.
    pub tree: u32,
    /// `"reduce"` or `"broadcast"`.
    pub phase: String,
    /// Sending router.
    pub src: u32,
    /// Receiving router.
    pub dst: u32,
    /// Directed channel the stream is mapped to.
    pub channel: u32,
    /// Flits transmitted.
    pub flits: u64,
    /// Cycles with a staged flit but no downstream credit.
    pub credit_stall_cycles: u64,
    /// Cycles with a staged flit *and* credit, lost to round-robin
    /// arbitration — bandwidth sharing under congestion made visible.
    pub arb_loss_cycles: u64,
    /// High-water mark of the sender-side staging queue, in flits.
    pub max_sendq: u64,
    /// High-water mark of receiver occupancy (buffered + in flight) —
    /// bounded by `vc_buffer`; saturated streams sit at the
    /// latency-bandwidth product.
    pub max_vc_occupancy: u64,
}

/// Per-router reduction/broadcast engine counters, summed over trees.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterTrace {
    /// Router id.
    pub router: u32,
    /// Reduction-engine firings (one element combined + forwarded each).
    pub reductions: u64,
    /// Broadcast-relay firings (one element forwarded down each).
    pub relays: u64,
    /// Engine-cycles stalled waiting for a child or upstream input
    /// (per tree with work remaining, summed).
    pub input_starved_cycles: u64,
    /// Engine-cycles stalled on a full output staging queue.
    pub output_blocked_cycles: u64,
    /// Engine-cycles stalled on the router's shared reduction/injection
    /// budget (`max_reductions_per_router` / `max_injections_per_node`).
    pub budget_stall_cycles: u64,
}

/// One fault-layer action (injection, heal, retry expiration, or
/// dead-declaration), as recorded by [`crate::faults`]. Appears in the
/// trace's `faults` table; the table is absent from fault-free traces
/// written before fault support and optional on parse, so the
/// `pf-simnet-trace-v1` schema tag is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTraceRow {
    /// Cycle the action happened at.
    pub cycle: u64,
    /// `"fail"`, `"degrade"`, `"heal"`, `"retry"`, or `"detected"`.
    pub action: String,
    /// `"link"`, `"router"`, or `"stream"` (retries are per stream).
    pub target_kind: String,
    /// Edge, router, or stream id, per `target_kind`.
    pub target: u32,
    /// Action-specific payload: fault duration (0 = permanent) for
    /// `"fail"`, degrade period for `"degrade"`, the retry ordinal for
    /// `"retry"`, 0 otherwise.
    pub detail: u64,
}

/// One tenant's scheduling record in a multi-job run, as filled in by the
/// `pf-sched` scheduler. Appears in the trace's `jobs` table; like the
/// `faults` table it postdates the original v1 writer, is absent from
/// single-job traces and optional on parse, so the `pf-simnet-trace-v1`
/// schema tag is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTraceRow {
    /// Job id (unique within the scheduler run).
    pub job: u32,
    /// Cycle the job entered the arrival queue.
    pub arrival: u64,
    /// Cycle the admission controller admitted it into a wave.
    pub admit: u64,
    /// Cycle its engines were released (work could begin).
    pub start: u64,
    /// Cycle its last element was delivered to every sink.
    pub finish: u64,
    /// The job's vector length.
    pub elems: u64,
    /// Number of spanning trees allocated to it.
    pub trees: u32,
    /// `start - arrival`.
    pub queueing_delay: u64,
    /// `elems / (finish - start)` in elements per cycle.
    pub achieved_bandwidth: f64,
    /// The collective this job executed ([`crate::Collective::name`]:
    /// `"allreduce"`, `"reduce"`, `"broadcast"`, `"reduce_scatter"` or
    /// `"allgather"`). Absent in pre-collective traces and optional on
    /// parse, defaulting to `"allreduce"`.
    pub collective: String,
}

/// One sample of global progress (taken every
/// [`TraceConfig::timeline_interval`] cycles and at completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSample {
    /// Cycle the sample was taken at.
    pub cycle: u64,
    /// Cumulative element deliveries across all trees and sinks.
    pub deliveries: u64,
    /// Cumulative flits transmitted on all channels.
    pub flits: u64,
    /// Channels that have carried at least one flit so far.
    pub active_channels: u64,
}

/// The full structured trace of one run. Schema documented field by field
/// in `docs/OBSERVABILITY.md`; stable under the `pf-simnet-trace-v1` tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Total flits transmitted.
    pub total_flits: u64,
    /// The collective the traced run executed
    /// ([`crate::Collective::name`]). Absent in pre-collective traces and
    /// optional on parse, defaulting to `"allreduce"` — so the
    /// `pf-simnet-trace-v1` schema tag is unchanged, like the `faults` and
    /// `jobs` tables.
    pub collective: String,
    /// One row per directed channel.
    pub channels: Vec<ChannelTrace>,
    /// One row per logical stream.
    pub streams: Vec<StreamTrace>,
    /// One row per router.
    pub routers: Vec<RouterTrace>,
    /// Progress samples (empty unless a timeline interval was set).
    pub timeline: Vec<TimelineSample>,
    /// Fault-layer actions (empty unless faults were injected; see
    /// [`crate::faults`] and `docs/FAULTS.md`).
    pub faults: Vec<FaultTraceRow>,
    /// Per-tenant scheduling records (empty unless the trace came from a
    /// `pf-sched` multi-job wave; see `docs/SCHEDULER.md`).
    pub jobs: Vec<JobTraceRow>,
}

impl TraceReport {
    /// Measured congestion per undirected edge: the larger of the two
    /// directions' active stream counts. Directly comparable to the
    /// theoretical per-edge congestion (`AllreducePlan::edge_congestion`),
    /// because each tree using edge `e` contributes exactly one stream per
    /// direction (reduce one way and broadcast the other, or vice versa).
    pub fn link_congestion(&self) -> Vec<u32> {
        let num_edges = self.channels.len() / 2;
        let mut per_edge = vec![0u32; num_edges];
        for c in &self.channels {
            let e = c.edge as usize;
            per_edge[e] = per_edge[e].max(c.active_streams);
        }
        per_edge
    }

    /// Maximum measured per-link congestion — the runtime counterpart of
    /// `AllreducePlan::max_congestion` (Theorems 7.6 / 7.19).
    pub fn max_link_congestion(&self) -> u32 {
        self.link_congestion().into_iter().max().unwrap_or(0)
    }

    /// Serializes the full trace as compact JSON (schema
    /// `pf-simnet-trace-v1`; see `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"schema\":\"pf-simnet-trace-v1\"");
        s.push_str(&format!(",\"cycles\":{}", self.cycles));
        s.push_str(&format!(",\"total_flits\":{}", self.total_flits));
        s.push_str(&format!(",\"collective\":\"{}\"", self.collective));
        s.push_str(",\"channels\":[");
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"channel\":{},\"edge\":{},\"src\":{},\"dst\":{},\"streams\":{},\
                 \"active_streams\":{},\"flits\":{},\"busy_cycles\":{},\
                 \"credit_stall_cycles\":{},\"idle_cycles\":{},\"utilization\":{}}}",
                c.channel,
                c.edge,
                c.src,
                c.dst,
                c.streams,
                c.active_streams,
                c.flits,
                c.busy_cycles,
                c.credit_stall_cycles,
                c.idle_cycles,
                json_f64(c.utilization),
            ));
        }
        s.push_str("],\"streams\":[");
        for (i, t) in self.streams.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"stream\":{},\"tree\":{},\"phase\":\"{}\",\"src\":{},\"dst\":{},\
                 \"channel\":{},\"flits\":{},\"credit_stall_cycles\":{},\
                 \"arb_loss_cycles\":{},\"max_sendq\":{},\"max_vc_occupancy\":{}}}",
                t.stream,
                t.tree,
                t.phase,
                t.src,
                t.dst,
                t.channel,
                t.flits,
                t.credit_stall_cycles,
                t.arb_loss_cycles,
                t.max_sendq,
                t.max_vc_occupancy,
            ));
        }
        s.push_str("],\"routers\":[");
        for (i, r) in self.routers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"router\":{},\"reductions\":{},\"relays\":{},\
                 \"input_starved_cycles\":{},\"output_blocked_cycles\":{},\
                 \"budget_stall_cycles\":{}}}",
                r.router,
                r.reductions,
                r.relays,
                r.input_starved_cycles,
                r.output_blocked_cycles,
                r.budget_stall_cycles,
            ));
        }
        s.push_str("],\"timeline\":[");
        for (i, t) in self.timeline.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"cycle\":{},\"deliveries\":{},\"flits\":{},\"active_channels\":{}}}",
                t.cycle, t.deliveries, t.flits, t.active_channels,
            ));
        }
        s.push_str("],\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"cycle\":{},\"action\":\"{}\",\"target_kind\":\"{}\",\
                 \"target\":{},\"detail\":{}}}",
                f.cycle, f.action, f.target_kind, f.target, f.detail,
            ));
        }
        s.push_str("],\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"job\":{},\"arrival\":{},\"admit\":{},\"start\":{},\"finish\":{},\
                 \"elems\":{},\"trees\":{},\"queueing_delay\":{},\"achieved_bandwidth\":{},\
                 \"collective\":\"{}\"}}",
                j.job,
                j.arrival,
                j.admit,
                j.start,
                j.finish,
                j.elems,
                j.trees,
                j.queueing_delay,
                json_f64(j.achieved_bandwidth),
                j.collective,
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a trace serialized by [`TraceReport::to_json`].
    pub fn from_json(text: &str) -> Result<TraceReport, String> {
        let v = json::parse(text)?;
        let obj = v.as_object()?;
        let schema = obj.get_str("schema")?;
        if schema != "pf-simnet-trace-v1" {
            return Err(format!("unknown trace schema {schema:?}"));
        }
        let channels = obj
            .get_array("channels")?
            .iter()
            .map(|c| {
                let c = c.as_object()?;
                Ok(ChannelTrace {
                    channel: c.get_u64("channel")? as u32,
                    edge: c.get_u64("edge")? as u32,
                    src: c.get_u64("src")? as u32,
                    dst: c.get_u64("dst")? as u32,
                    streams: c.get_u64("streams")? as u32,
                    active_streams: c.get_u64("active_streams")? as u32,
                    flits: c.get_u64("flits")?,
                    busy_cycles: c.get_u64("busy_cycles")?,
                    credit_stall_cycles: c.get_u64("credit_stall_cycles")?,
                    idle_cycles: c.get_u64("idle_cycles")?,
                    utilization: c.get_f64("utilization")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let streams = obj
            .get_array("streams")?
            .iter()
            .map(|t| {
                let t = t.as_object()?;
                Ok(StreamTrace {
                    stream: t.get_u64("stream")? as u32,
                    tree: t.get_u64("tree")? as u32,
                    phase: t.get_str("phase")?.to_string(),
                    src: t.get_u64("src")? as u32,
                    dst: t.get_u64("dst")? as u32,
                    channel: t.get_u64("channel")? as u32,
                    flits: t.get_u64("flits")?,
                    credit_stall_cycles: t.get_u64("credit_stall_cycles")?,
                    arb_loss_cycles: t.get_u64("arb_loss_cycles")?,
                    max_sendq: t.get_u64("max_sendq")?,
                    max_vc_occupancy: t.get_u64("max_vc_occupancy")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let routers = obj
            .get_array("routers")?
            .iter()
            .map(|r| {
                let r = r.as_object()?;
                Ok(RouterTrace {
                    router: r.get_u64("router")? as u32,
                    reductions: r.get_u64("reductions")?,
                    relays: r.get_u64("relays")?,
                    input_starved_cycles: r.get_u64("input_starved_cycles")?,
                    output_blocked_cycles: r.get_u64("output_blocked_cycles")?,
                    budget_stall_cycles: r.get_u64("budget_stall_cycles")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let timeline = obj
            .get_array("timeline")?
            .iter()
            .map(|t| {
                let t = t.as_object()?;
                Ok(TimelineSample {
                    cycle: t.get_u64("cycle")?,
                    deliveries: t.get_u64("deliveries")?,
                    flits: t.get_u64("flits")?,
                    active_channels: t.get_u64("active_channels")?,
                })
            })
            .collect::<Result<_, String>>()?;
        // The faults table postdates the original v1 writer: absent means
        // no fault layer was attached (or an older producer) — not an error.
        let faults = obj
            .get_array_opt("faults")?
            .unwrap_or(&[])
            .iter()
            .map(|f| {
                let f = f.as_object()?;
                Ok(FaultTraceRow {
                    cycle: f.get_u64("cycle")?,
                    action: f.get_str("action")?.to_string(),
                    target_kind: f.get_str("target_kind")?.to_string(),
                    target: f.get_u64("target")? as u32,
                    detail: f.get_u64("detail")?,
                })
            })
            .collect::<Result<_, String>>()?;
        // The jobs table likewise postdates the original v1 writer: absent
        // means the trace came from a single-job run — not an error.
        let jobs = obj
            .get_array_opt("jobs")?
            .unwrap_or(&[])
            .iter()
            .map(|j| {
                let j = j.as_object()?;
                Ok(JobTraceRow {
                    job: j.get_u64("job")? as u32,
                    arrival: j.get_u64("arrival")?,
                    admit: j.get_u64("admit")?,
                    start: j.get_u64("start")?,
                    finish: j.get_u64("finish")?,
                    elems: j.get_u64("elems")?,
                    trees: j.get_u64("trees")? as u32,
                    queueing_delay: j.get_u64("queueing_delay")?,
                    achieved_bandwidth: j.get_f64("achieved_bandwidth")?,
                    collective: j.get_str_opt("collective")?.unwrap_or("allreduce").to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(TraceReport {
            cycles: obj.get_u64("cycles")?,
            total_flits: obj.get_u64("total_flits")?,
            // Absent in pre-collective traces: default, don't error.
            collective: obj.get_str_opt("collective")?.unwrap_or("allreduce").to_string(),
            channels,
            streams,
            routers,
            timeline,
            faults,
            jobs,
        })
    }

    /// Per-channel counters as CSV (header included).
    pub fn channels_csv(&self) -> String {
        let mut s = String::from(
            "channel,edge,src,dst,streams,active_streams,flits,busy_cycles,\
             credit_stall_cycles,idle_cycles,utilization\n",
        );
        for c in &self.channels {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                c.channel,
                c.edge,
                c.src,
                c.dst,
                c.streams,
                c.active_streams,
                c.flits,
                c.busy_cycles,
                c.credit_stall_cycles,
                c.idle_cycles,
                json_f64(c.utilization),
            ));
        }
        s
    }

    /// Per-stream counters as CSV (header included).
    pub fn streams_csv(&self) -> String {
        let mut s = String::from(
            "stream,tree,phase,src,dst,channel,flits,credit_stall_cycles,\
             arb_loss_cycles,max_sendq,max_vc_occupancy\n",
        );
        for t in &self.streams {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                t.stream,
                t.tree,
                t.phase,
                t.src,
                t.dst,
                t.channel,
                t.flits,
                t.credit_stall_cycles,
                t.arb_loss_cycles,
                t.max_sendq,
                t.max_vc_occupancy,
            ));
        }
        s
    }

    /// Per-router counters as CSV (header included).
    pub fn routers_csv(&self) -> String {
        let mut s = String::from(
            "router,reductions,relays,input_starved_cycles,output_blocked_cycles,\
             budget_stall_cycles\n",
        );
        for r in &self.routers {
            s.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.router,
                r.reductions,
                r.relays,
                r.input_starved_cycles,
                r.output_blocked_cycles,
                r.budget_stall_cycles,
            ));
        }
        s
    }

    /// Timeline samples as CSV (header included).
    pub fn timeline_csv(&self) -> String {
        let mut s = String::from("cycle,deliveries,flits,active_channels\n");
        for t in &self.timeline {
            s.push_str(&format!(
                "{},{},{},{}\n",
                t.cycle, t.deliveries, t.flits, t.active_channels
            ));
        }
        s
    }

    /// Fault-layer actions as CSV (header included).
    pub fn faults_csv(&self) -> String {
        let mut s = String::from("cycle,action,target_kind,target,detail\n");
        for f in &self.faults {
            s.push_str(&format!(
                "{},{},{},{},{}\n",
                f.cycle, f.action, f.target_kind, f.target, f.detail
            ));
        }
        s
    }

    /// Per-tenant scheduling records as CSV (header included).
    pub fn jobs_csv(&self) -> String {
        let mut s = String::from(
            "job,arrival,admit,start,finish,elems,trees,queueing_delay,achieved_bandwidth,\
             collective\n",
        );
        for j in &self.jobs {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                j.job,
                j.arrival,
                j.admit,
                j.start,
                j.finish,
                j.elems,
                j.trees,
                j.queueing_delay,
                json_f64(j.achieved_bandwidth),
                j.collective,
            ));
        }
        s
    }
}

/// Prints an f64 so that it parses back to the identical bits (Rust's
/// shortest round-trip `Display`), with a decimal point guaranteed. Every
/// hand-written `pf-bench-*` JSON file formats its floats through this.
pub fn json_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// The in-flight counter store the engine writes into. Struct-of-arrays;
/// converted into a [`TraceReport`] by [`Tracer::finish`].
#[derive(Debug, Clone)]
pub(crate) struct Tracer {
    cfg: TraceConfig,
    // Per stream.
    stream_flits: Vec<u64>,
    stream_credit_stalls: Vec<u64>,
    stream_arb_losses: Vec<u64>,
    stream_max_sendq: Vec<u64>,
    stream_max_occ: Vec<u64>,
    // Per directed channel.
    channel_busy: Vec<u64>,
    channel_credit_stall: Vec<u64>,
    // Per router.
    router_reductions: Vec<u64>,
    router_relays: Vec<u64>,
    router_input_starved: Vec<u64>,
    router_output_blocked: Vec<u64>,
    router_budget_stall: Vec<u64>,
    timeline: Vec<TimelineSample>,
}

/// Why a reduction engine or broadcast relay could not fire this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineStall {
    /// A child / upstream input queue was empty.
    InputStarved,
    /// The output (or broadcast fan-out) staging queue was full.
    OutputBlocked,
    /// The router's shared engine/injection budget was exhausted.
    Budget,
}

impl Tracer {
    pub(crate) fn new(num_streams: usize, num_channels: usize, num_nodes: usize, cfg: TraceConfig) -> Self {
        Tracer {
            cfg,
            stream_flits: vec![0; num_streams],
            stream_credit_stalls: vec![0; num_streams],
            stream_arb_losses: vec![0; num_streams],
            stream_max_sendq: vec![0; num_streams],
            stream_max_occ: vec![0; num_streams],
            channel_busy: vec![0; num_channels],
            channel_credit_stall: vec![0; num_channels],
            router_reductions: vec![0; num_nodes],
            router_relays: vec![0; num_nodes],
            router_input_starved: vec![0; num_nodes],
            router_output_blocked: vec![0; num_nodes],
            router_budget_stall: vec![0; num_nodes],
            timeline: Vec::new(),
        }
    }

    /// Observes one member stream during the arbitration scan. `won` is the
    /// stream the channel actually granted this cycle (if any).
    #[inline]
    pub(crate) fn observe_stream(
        &mut self,
        stream: usize,
        sendq: u64,
        occupancy: u64,
        has_data: bool,
        has_credit: bool,
        won: bool,
    ) {
        self.stream_max_sendq[stream] = self.stream_max_sendq[stream].max(sendq);
        self.stream_max_occ[stream] = self.stream_max_occ[stream].max(occupancy);
        if won {
            self.stream_flits[stream] += 1;
        } else if has_data && !has_credit {
            self.stream_credit_stalls[stream] += 1;
        } else if has_data {
            self.stream_arb_losses[stream] += 1;
        }
    }

    /// Records the channel-level outcome of one arbitration cycle.
    #[inline]
    pub(crate) fn observe_channel(&mut self, channel: usize, transmitted: bool, any_data: bool) {
        if transmitted {
            self.channel_busy[channel] += 1;
        } else if any_data {
            self.channel_credit_stall[channel] += 1;
        }
    }

    /// Records a reduction-engine firing at `router`.
    #[inline]
    pub(crate) fn reduction_fired(&mut self, router: usize) {
        self.router_reductions[router] += 1;
    }

    /// Records a broadcast-relay (or broadcast-source) firing at `router`.
    #[inline]
    pub(crate) fn relay_fired(&mut self, router: usize) {
        self.router_relays[router] += 1;
    }

    /// Attributes a non-firing engine cycle at `router`.
    #[inline]
    pub(crate) fn engine_stalled(&mut self, router: usize, why: EngineStall) {
        match why {
            EngineStall::InputStarved => self.router_input_starved[router] += 1,
            EngineStall::OutputBlocked => self.router_output_blocked[router] += 1,
            EngineStall::Budget => self.router_budget_stall[router] += 1,
        }
    }

    /// True when a timeline sample is due at `cycle`.
    #[inline]
    pub(crate) fn timeline_due(&self, cycle: u64) -> bool {
        self.cfg.timeline_interval > 0 && cycle.is_multiple_of(self.cfg.timeline_interval)
    }

    /// Appends a timeline sample (callers check [`Tracer::timeline_due`],
    /// and may also sample once at completion). No-op when the config has
    /// no timeline interval or `cycle` was already sampled.
    pub(crate) fn sample_timeline(&mut self, cycle: u64, deliveries: u64) {
        if self.cfg.timeline_interval == 0 {
            return;
        }
        if self.timeline.last().is_some_and(|s| s.cycle == cycle) {
            return;
        }
        let flits: u64 = self.stream_flits.iter().sum();
        let active = self.channel_busy.iter().filter(|&&b| b > 0).count() as u64;
        self.timeline.push(TimelineSample { cycle, deliveries, flits, active_channels: active });
    }

    /// Folds the counters into the exported report.
    pub(crate) fn finish(self, emb: &MultiTreeEmbedding, cycles: u64) -> TraceReport {
        // Invert the channel → streams map once.
        let mut stream_channel = vec![u32::MAX; emb.streams.len()];
        for (c, members) in emb.channel_streams.iter().enumerate() {
            for &s in members {
                stream_channel[s as usize] = c as u32;
            }
        }
        let streams: Vec<StreamTrace> = emb
            .streams
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let channel = stream_channel[si];
                debug_assert_ne!(channel, u32::MAX, "every stream is mapped to a channel");
                StreamTrace {
                    stream: si as u32,
                    tree: s.tree,
                    phase: match s.phase {
                        Phase::Reduce => "reduce".to_string(),
                        Phase::Broadcast => "broadcast".to_string(),
                    },
                    src: s.src,
                    dst: s.dst,
                    channel,
                    flits: self.stream_flits[si],
                    credit_stall_cycles: self.stream_credit_stalls[si],
                    arb_loss_cycles: self.stream_arb_losses[si],
                    max_sendq: self.stream_max_sendq[si],
                    max_vc_occupancy: self.stream_max_occ[si],
                }
            })
            .collect();

        let channels: Vec<ChannelTrace> = emb
            .channel_streams
            .iter()
            .enumerate()
            .map(|(c, members)| {
                let flits: u64 = members.iter().map(|&s| self.stream_flits[s as usize]).sum();
                let active =
                    members.iter().filter(|&&s| self.stream_flits[s as usize] > 0).count() as u32;
                let busy = self.channel_busy[c];
                let stall = self.channel_credit_stall[c];
                // Endpoints: any member stream knows them; memberless
                // channels fall back to the stored stream metadata being
                // absent, so recover endpoints from the channel id parity
                // via the first member or mark src = dst = u32::MAX.
                let (src, dst) = members
                    .first()
                    .map(|&s| (emb.streams[s as usize].src, emb.streams[s as usize].dst))
                    .unwrap_or((u32::MAX, u32::MAX));
                ChannelTrace {
                    channel: c as u32,
                    edge: (c / 2) as u32,
                    src,
                    dst,
                    streams: members.len() as u32,
                    active_streams: active,
                    flits,
                    busy_cycles: busy,
                    credit_stall_cycles: stall,
                    idle_cycles: cycles.saturating_sub(busy + stall),
                    utilization: flits as f64 / cycles.max(1) as f64,
                }
            })
            .collect();

        let routers: Vec<RouterTrace> = (0..emb.num_nodes as usize)
            .map(|v| RouterTrace {
                router: v as u32,
                reductions: self.router_reductions[v],
                relays: self.router_relays[v],
                input_starved_cycles: self.router_input_starved[v],
                output_blocked_cycles: self.router_output_blocked[v],
                budget_stall_cycles: self.router_budget_stall[v],
            })
            .collect();

        let total_flits = streams.iter().map(|s| s.flits).sum();
        TraceReport {
            cycles,
            total_flits,
            // The engines overwrite this with the executed collective's
            // name right after `finish` returns.
            collective: "allreduce".to_string(),
            channels,
            streams,
            routers,
            timeline: self.timeline,
            faults: Vec::new(),
            jobs: Vec::new(),
        }
    }
}

mod json {
    //! A minimal JSON reader — just enough to round-trip [`super::TraceReport`].

    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Num(f64),
        Str(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self) -> Result<Obj<'_>, String> {
            match self {
                Value::Object(m) => Ok(Obj(m)),
                other => Err(format!("expected object, got {other:?}")),
            }
        }
    }

    /// Typed field access over a parsed object.
    pub struct Obj<'a>(&'a BTreeMap<String, Value>);

    impl<'a> Obj<'a> {
        fn get(&self, key: &str) -> Result<&'a Value, String> {
            self.0.get(key).ok_or_else(|| format!("missing field {key:?}"))
        }
        pub fn get_u64(&self, key: &str) -> Result<u64, String> {
            match self.get(key)? {
                Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u64),
                other => Err(format!("field {key:?} is not a u64: {other:?}")),
            }
        }
        pub fn get_f64(&self, key: &str) -> Result<f64, String> {
            match self.get(key)? {
                Value::Num(x) => Ok(*x),
                other => Err(format!("field {key:?} is not a number: {other:?}")),
            }
        }
        pub fn get_str(&self, key: &str) -> Result<&'a str, String> {
            match self.get(key)? {
                Value::Str(s) => Ok(s),
                other => Err(format!("field {key:?} is not a string: {other:?}")),
            }
        }
        /// Like [`Obj::get_str`], but a missing key is `Ok(None)` — for
        /// fields added to the schema after its first release.
        pub fn get_str_opt(&self, key: &str) -> Result<Option<&'a str>, String> {
            match self.0.get(key) {
                None => Ok(None),
                Some(Value::Str(s)) => Ok(Some(s)),
                Some(other) => Err(format!("field {key:?} is not a string: {other:?}")),
            }
        }
        pub fn get_array(&self, key: &str) -> Result<&'a [Value], String> {
            match self.get(key)? {
                Value::Array(v) => Ok(v),
                other => Err(format!("field {key:?} is not an array: {other:?}")),
            }
        }
        /// Like [`Obj::get_array`], but a missing key is `Ok(None)` — for
        /// tables added to the schema after its first release.
        pub fn get_array_opt(&self, key: &str) -> Result<Option<&'a [Value]>, String> {
            match self.0.get(key) {
                None => Ok(None),
                Some(Value::Array(v)) => Ok(Some(v)),
                Some(other) => Err(format!("field {key:?} is not an array: {other:?}")),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            other => Err(format!("unexpected {other:?} at byte {pos}")),
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            let val = parse_value(b, pos)?;
            map.insert(key, val);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(out));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let start = *pos;
        while *pos < b.len() && b[*pos] != b'"' {
            if b[*pos] == b'\\' {
                return Err("escape sequences are not used by this schema".to_string());
            }
            *pos += 1;
        }
        if *pos >= b.len() {
            return Err("unterminated string".to_string());
        }
        let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?.to_string();
        *pos += 1;
        Ok(s)
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TraceReport {
        TraceReport {
            cycles: 100,
            total_flits: 42,
            collective: "allreduce".to_string(),
            channels: vec![
                ChannelTrace {
                    channel: 0,
                    edge: 0,
                    src: 0,
                    dst: 1,
                    streams: 2,
                    active_streams: 1,
                    flits: 40,
                    busy_cycles: 40,
                    credit_stall_cycles: 10,
                    idle_cycles: 50,
                    utilization: 0.4,
                },
                ChannelTrace {
                    channel: 1,
                    edge: 0,
                    src: 1,
                    dst: 0,
                    streams: 1,
                    active_streams: 1,
                    flits: 2,
                    busy_cycles: 2,
                    credit_stall_cycles: 0,
                    idle_cycles: 98,
                    utilization: 0.02,
                },
            ],
            streams: vec![StreamTrace {
                stream: 0,
                tree: 0,
                phase: "reduce".to_string(),
                src: 0,
                dst: 1,
                channel: 0,
                flits: 40,
                credit_stall_cycles: 10,
                arb_loss_cycles: 3,
                max_sendq: 2,
                max_vc_occupancy: 5,
            }],
            routers: vec![RouterTrace {
                router: 0,
                reductions: 40,
                relays: 2,
                input_starved_cycles: 7,
                output_blocked_cycles: 1,
                budget_stall_cycles: 0,
            }],
            timeline: vec![TimelineSample {
                cycle: 50,
                deliveries: 20,
                flits: 21,
                active_channels: 2,
            }],
            faults: vec![FaultTraceRow {
                cycle: 30,
                action: "fail".to_string(),
                target_kind: "link".to_string(),
                target: 0,
                detail: 0,
            }],
            jobs: vec![JobTraceRow {
                job: 0,
                arrival: 0,
                admit: 0,
                start: 0,
                finish: 90,
                elems: 20,
                trees: 2,
                queueing_delay: 0,
                achieved_bandwidth: 20.0 / 90.0,
                collective: "allreduce".to_string(),
            }],
        }
    }

    #[test]
    fn traces_without_collective_fields_still_parse() {
        // A trace written before the sharded-training collectives has no
        // "collective" key (top level or per job); both must parse to the
        // "allreduce" default.
        let r = sample_report();
        let j = r
            .to_json()
            .replace(",\"collective\":\"allreduce\"", "");
        assert!(!j.contains("collective"));
        let parsed = TraceReport::from_json(&j).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let r = sample_report();
        let parsed = TraceReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trip_preserves_awkward_floats() {
        let mut r = sample_report();
        r.channels[0].utilization = 1.0 / 3.0;
        r.channels[1].utilization = 0.918_273_645_546_372_8;
        let parsed = TraceReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.channels[0].utilization.to_bits(), r.channels[0].utilization.to_bits());
        assert_eq!(parsed.channels[1].utilization.to_bits(), r.channels[1].utilization.to_bits());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TraceReport::from_json("").is_err());
        assert!(TraceReport::from_json("{}").is_err());
        assert!(TraceReport::from_json("{\"schema\":\"other-v9\"}").is_err());
        let r = sample_report();
        let mut j = r.to_json();
        j.push('x');
        assert!(TraceReport::from_json(&j).is_err());
    }

    #[test]
    fn link_congestion_takes_per_edge_max() {
        let r = sample_report();
        // Edge 0: directions with 1 and 1 active streams -> congestion 1.
        assert_eq!(r.link_congestion(), vec![1]);
        assert_eq!(r.max_link_congestion(), 1);
        let mut r2 = r.clone();
        r2.channels[0].active_streams = 2;
        assert_eq!(r2.link_congestion(), vec![2]);
    }

    #[test]
    fn traces_without_a_faults_table_still_parse() {
        // A trace written by the original v1 producer (pre-fault-injection)
        // has no "faults" key; it must parse to an empty table.
        let mut r = sample_report();
        r.faults.clear();
        let j = r.to_json().replace(",\"faults\":[]", "");
        assert!(!j.contains("faults"));
        let parsed = TraceReport::from_json(&j).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn traces_without_a_jobs_table_still_parse() {
        // A trace written before multi-tenant scheduling has no "jobs"
        // key; it must parse to an empty table.
        let mut r = sample_report();
        r.jobs.clear();
        let j = r.to_json().replace(",\"jobs\":[]", "");
        assert!(!j.contains("\"jobs\""));
        let parsed = TraceReport::from_json(&j).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn csv_outputs_are_rectangular() {
        let r = sample_report();
        for csv in [
            r.channels_csv(),
            r.streams_csv(),
            r.routers_csv(),
            r.timeline_csv(),
            r.faults_csv(),
            r.jobs_csv(),
        ] {
            let mut lines = csv.lines();
            let cols = lines.next().unwrap().split(',').count();
            let mut rows = 0;
            for l in lines {
                assert_eq!(l.split(',').count(), cols, "ragged row {l}");
                rows += 1;
            }
            assert!(rows >= 1);
        }
    }

    #[test]
    fn tracer_counter_arithmetic() {
        let mut t = Tracer::new(2, 2, 1, TraceConfig::counters());
        // Cycle 1: stream 0 wins, stream 1 loses arbitration.
        t.observe_stream(0, 1, 2, true, true, true);
        t.observe_stream(1, 3, 0, true, true, false);
        t.observe_channel(0, true, true);
        // Cycle 2: stream 0 blocked on credit; channel stalls.
        t.observe_stream(0, 2, 6, true, false, false);
        t.observe_stream(1, 0, 0, false, true, false);
        t.observe_channel(0, false, true);
        // Cycle 3: nothing to send — idle.
        t.observe_stream(0, 0, 0, false, true, false);
        t.observe_stream(1, 0, 0, false, true, false);
        t.observe_channel(0, false, false);
        t.reduction_fired(0);
        t.engine_stalled(0, EngineStall::InputStarved);
        t.engine_stalled(0, EngineStall::Budget);
        t.relay_fired(0);

        assert_eq!(t.stream_flits, vec![1, 0]);
        assert_eq!(t.stream_credit_stalls, vec![1, 0]);
        assert_eq!(t.stream_arb_losses, vec![0, 1]);
        assert_eq!(t.stream_max_sendq, vec![2, 3]);
        assert_eq!(t.stream_max_occ, vec![6, 0]);
        assert_eq!(t.channel_busy[0], 1);
        assert_eq!(t.channel_credit_stall[0], 1);
        assert_eq!(t.router_reductions[0], 1);
        assert_eq!(t.router_relays[0], 1);
        assert_eq!(t.router_input_starved[0], 1);
        assert_eq!(t.router_budget_stall[0], 1);
        assert_eq!(t.router_output_blocked[0], 0);
    }

    #[test]
    fn timeline_sampling_interval_and_dedup() {
        let mut t = Tracer::new(1, 1, 1, TraceConfig::with_timeline(10));
        assert!(!t.timeline_due(5));
        assert!(t.timeline_due(10));
        t.sample_timeline(10, 4);
        t.sample_timeline(10, 4); // duplicate cycle collapses
        t.sample_timeline(20, 9);
        assert_eq!(t.timeline.len(), 2);
        assert_eq!(t.timeline[1], TimelineSample {
            cycle: 20,
            deliveries: 9,
            flits: 0,
            active_channels: 0,
        });
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_timeline_interval_rejected() {
        TraceConfig::with_timeline(0);
    }
}
