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
use crate::json::{self, JsonError, Obj, Value};

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

/// A table of the trace. Each row type lists its fields once, in its
/// struct definition; the JSON object and the CSV line both follow that
/// list.
trait Row: Sized {
    /// Field names: JSON member and CSV column order.
    const FIELDS: &'static [&'static str];
    /// The field values, in [`Row::FIELDS`] order.
    fn values(&self) -> Vec<Value>;
    /// Reads a row back from its JSON object.
    fn from_object(o: Obj<'_>) -> Result<Self, JsonError>;
}

/// Defines trace row structs and derives each one's [`Row`] from its
/// field list. A field written `name: Type = "default"` postdates the
/// schema's first release: it is optional on parse.
macro_rules! trace_rows {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty $(= $default:literal)?, )+
        }
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl Row for $name {
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];

            fn values(&self) -> Vec<Value> {
                vec![$(Value::from(self.$field.clone())),+]
            }

            fn from_object(o: Obj<'_>) -> Result<Self, JsonError> {
                Ok($name { $($field: row_field!(o, $field $(, $default)?),)+ })
            }
        }
    )+};
}

macro_rules! row_field {
    ($o:ident, $field:ident) => {
        $o.get(stringify!($field))?
    };
    ($o:ident, $field:ident, $default:literal) => {
        $o.get_opt(stringify!($field))?.unwrap_or_else(|| $default.to_string())
    };
}

trace_rows! {
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
        /// Engine-cycles stalled on the node's shared injection budget
        /// (`max_injections_per_node`).
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
        /// `"fail"`, `"heal"`, `"retry"`, or `"detected"`.
        pub action: String,
        /// `"link"`, `"router"`, or `"stream"` (retries are per stream).
        pub target_kind: String,
        /// Edge, router, or stream id, per `target_kind`.
        pub target: u32,
        /// Action-specific payload: fault duration (0 = permanent) for
        /// `"fail"`, the retry ordinal for `"retry"`, 0 otherwise.
        pub detail: u64,
    }

    /// One tenant's scheduling record in a multi-job run, as `pf-sched`'s
    /// `SchedReport::trace_rows` yields it. Appears in the trace's `jobs`
    /// table, which the engine leaves empty for the caller to fill; like the
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
        pub collective: String = "allreduce",
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
    /// Per-tenant scheduling records (the engine leaves it empty; a caller
    /// fills it from a `pf-sched` run; see `docs/SCHEDULER.md`).
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
        Value::object([
            ("schema", Value::from(TRACE_SCHEMA)), ("cycles", self.cycles.into()),
            ("total_flits", self.total_flits.into()),
            ("collective", self.collective.as_str().into()),
            ("channels", table_value(&self.channels)), ("streams", table_value(&self.streams)),
            ("routers", table_value(&self.routers)), ("timeline", table_value(&self.timeline)),
            ("faults", table_value(&self.faults)), ("jobs", table_value(&self.jobs)),
        ])
        .compact()
    }

    /// Parses a trace serialized by [`TraceReport::to_json`]. The
    /// `collective` field and the `faults` and `jobs` tables postdate the
    /// original v1 writer: absent, they default to `"allreduce"` and empty.
    pub fn from_json(text: &str) -> Result<TraceReport, JsonError> {
        let doc = json::parse(text)?;
        let o = doc.document(TRACE_SCHEMA)?;
        Ok(TraceReport {
            cycles: o.get_u64("cycles")?,
            total_flits: o.get_u64("total_flits")?,
            collective: o.get_opt("collective")?.unwrap_or_else(|| "allreduce".to_string()),
            channels: table(o, "channels", false)?,
            streams: table(o, "streams", false)?,
            routers: table(o, "routers", false)?,
            timeline: table(o, "timeline", false)?,
            faults: table(o, "faults", true)?,
            jobs: table(o, "jobs", true)?,
        })
    }

    /// Per-channel counters as CSV (header included).
    pub fn channels_csv(&self) -> String {
        csv(&self.channels)
    }

    /// Per-stream counters as CSV (header included).
    pub fn streams_csv(&self) -> String {
        csv(&self.streams)
    }

    /// Per-router counters as CSV (header included).
    pub fn routers_csv(&self) -> String {
        csv(&self.routers)
    }

    /// Timeline samples as CSV (header included).
    pub fn timeline_csv(&self) -> String {
        csv(&self.timeline)
    }

    /// Fault-layer actions as CSV (header included).
    pub fn faults_csv(&self) -> String {
        csv(&self.faults)
    }

    /// Per-tenant scheduling records as CSV (header included).
    pub fn jobs_csv(&self) -> String {
        csv(&self.jobs)
    }
}

/// The trace format's schema tag.
const TRACE_SCHEMA: &str = "pf-simnet-trace-v1";

fn table_value<R: Row>(rows: &[R]) -> Value {
    rows.iter().map(|r| Value::object(R::FIELDS.iter().copied().zip(r.values()))).collect()
}

/// Reads table `key`; an `optional` table may be absent (empty).
fn table<R: Row>(o: Obj<'_>, key: &str, optional: bool) -> Result<Vec<R>, JsonError> {
    if optional && o.get_opt::<&[Value]>(key)?.is_none() {
        return Ok(Vec::new());
    }
    o.get_list(key)?.into_iter().map(R::from_object).collect()
}

/// One header line, then one line per row; strings go unquoted.
fn csv<R: Row>(rows: &[R]) -> String {
    let cell = |v: Value| match v {
        Value::Str(text) => text,
        other => other.compact(),
    };
    let lines = rows.iter().map(|r| r.values().into_iter().map(cell).collect::<Vec<_>>().join(","));
    std::iter::once(R::FIELDS.join(",")).chain(lines).map(|line| line + "\n").collect()
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
    /// The node's shared injection budget was exhausted.
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
        let streams: Vec<StreamTrace> = emb
            .streams()
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let channel = emb.stream_channel(si);
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

        let channels: Vec<ChannelTrace> = (0..emb.num_channels())
            .map(|c| {
                let members = emb.channel_streams(c);
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
                    .map(|&s| (emb.streams()[s as usize].src, emb.streams()[s as usize].dst))
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

        let routers: Vec<RouterTrace> = (0..emb.num_nodes() as usize)
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
    fn out_of_range_ids_are_typed_errors() {
        let j = sample_report().to_json().replacen("\"channel\":0", "\"channel\":4294967296", 1);
        assert_eq!(
            TraceReport::from_json(&j),
            Err(JsonError::Type { key: "channel".into(), expected: "u32" })
        );
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
