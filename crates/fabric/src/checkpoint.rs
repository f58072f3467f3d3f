//! Checkpoint / restore for the fabric manager.
//!
//! Format `pf-fabric-ckpt-v2`: one compact JSON document written and read
//! through [`pf_simnet::json`], the same layer as the traces and the bench
//! files. Integers are exact (the digest and fingerprints are full
//! `u64`s) and the output is byte-deterministic, so a round trip through
//! [`FabricManager::checkpoint`] → [`FabricManager::restore`] →
//! [`FabricManager::checkpoint`] is byte-identical, and two managers fed
//! the same trace checkpoint identically.
//!
//! What is saved: the virtual clock, every aggregate counter (by name),
//! the latency histogram, the rolling digest, the active fault set, and
//! both job queues (full specs, ingestion order). What is deliberately
//! *not* saved: the plan cache and the current plan. Both are pure
//! functions of `(healthy plan, fault set)` — restore rebuilds the
//! current plan from the saved fault set (without counting a repair
//! event; the saved counters already account for it) and starts with a
//! cold cache, whose stats are the only report fields a restored manager
//! may differ in.

use crate::manager::{FabricConfig, FabricManager};
use pf_allreduce::recovery::rebuild_degraded;
use pf_allreduce::{AllreducePlan, FaultSet};
use pf_sched::{validate_spec, JobSpec};
use pf_simnet::json::{self, JsonError, Obj, Value};
use pf_simnet::{Collective, ReduceKind};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// The checkpoint format's schema tag.
pub const CHECKPOINT_SCHEMA: &str = "pf-fabric-ckpt-v2";

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The document's schema tag names another format (the tag found).
    Schema(String),
    /// The text is not JSON, or a field is missing, mistyped or out of
    /// range.
    Malformed(JsonError),
    /// The saved fault set does not apply to the given plan (wrong plan,
    /// or it would partition the fabric).
    FaultMismatch,
    /// A saved job spec is invalid for the given plan.
    BadJob(u32),
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        match e {
            JsonError::Schema { found, .. } => CheckpointError::Schema(found),
            e => CheckpointError::Malformed(e),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Schema(found) => write!(f, "schema {found:?} is not {CHECKPOINT_SCHEMA}"),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::FaultMismatch => write!(f, "saved fault set does not apply to this plan"),
            CheckpointError::BadJob(id) => write!(f, "saved job {id} is invalid for this plan"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The aggregate counters, saved by name under `"counters"`.
macro_rules! counters {
    ($($field:ident),+ $(,)?) => {
        fn counters_value(m: &FabricManager) -> Value {
            Value::object([$((stringify!($field), Value::from(m.$field))),+])
        }

        fn restore_counters(m: &mut FabricManager, o: Obj<'_>) -> Result<(), JsonError> {
            $(m.$field = o.get(stringify!($field))?;)+
            Ok(())
        }
    };
}

counters!(
    submitted, accepted, deferred, rejected, invalid, completed, total_elems, epochs, waves,
    makespan, mismatches, max_comb, incremental_repairs, full_rebuilds, heals, fault_events,
    latency_sum, queueing_sum, max_latency, digest,
);

/// A job spec; `participants` is omitted when every node takes part.
fn job_value(s: &JobSpec) -> Value {
    let kind = match s.kind {
        ReduceKind::WrappingU64 => "u64",
        ReduceKind::FloatF64 => "f64",
    };
    let mut members = vec![
        ("id", s.id.into()), ("arrival", s.arrival.into()), ("elems", s.elems.into()),
        ("kind", kind.into()), ("priority", s.priority.into()),
        ("collective", s.collective.name().into()),
    ];
    if let Some(p) = &s.participants {
        members.push(("participants", p.iter().map(|&v| v.into()).collect()));
    }
    Value::object(members)
}

fn job_from(o: Obj<'_>) -> Result<JobSpec, JsonError> {
    let mistyped = |key: &str, expected| JsonError::Type { key: key.to_string(), expected };
    let kind = match o.get_str("kind")? {
        "u64" => ReduceKind::WrappingU64,
        "f64" => ReduceKind::FloatF64,
        _ => return Err(mistyped("kind", "reduce kind")),
    };
    let collective = Collective::from_name(o.get_str("collective")?)
        .ok_or_else(|| mistyped("collective", "collective name"))?;
    let participants = o.get_opt::<&[Value]>("participants")?.map(|_| o.get_list("participants"));
    Ok(JobSpec {
        id: o.get_u32("id")?,
        arrival: o.get_u64("arrival")?,
        elems: o.get_u64("elems")?,
        kind,
        priority: o.get_u32("priority")?,
        participants: participants.transpose()?,
        collective,
    })
}

/// Queue `key`, every spec validated against `plan`.
fn queue(o: Obj<'_>, key: &str, plan: &AllreducePlan) -> Result<VecDeque<JobSpec>, CheckpointError> {
    o.get_list(key)?
        .into_iter()
        .map(|j| {
            let spec = job_from(j)?;
            validate_spec(&spec, plan).map_err(|_| CheckpointError::BadJob(spec.id))?;
            Ok(spec)
        })
        .collect()
}

impl FabricManager {
    /// Serializes the manager's resumable state (see module docs).
    #[must_use]
    pub fn checkpoint(&self) -> String {
        Value::object([
            ("schema", CHECKPOINT_SCHEMA.into()), ("now", self.now.into()),
            ("last_event", self.last_event.into()), ("counters", counters_value(self)),
            ("latency_hist", self.latency_hist.iter().map(|&x| x.into()).collect()),
            ("faults", self.faults.edges.iter().map(|&e| e.into()).collect()),
            ("ready", self.ready.iter().map(job_value).collect()),
            ("deferred", self.deferred_q.iter().map(job_value).collect()),
        ])
        .compact()
    }

    /// Reconstructs a manager from a checkpoint taken on the same healthy
    /// plan. The current plan is rebuilt from the saved fault set;
    /// the cache starts cold (its stats are the only report fields that
    /// may differ from the checkpointed manager's).
    pub fn restore(
        plan: AllreducePlan,
        cfg: FabricConfig,
        text: &str,
    ) -> Result<FabricManager, CheckpointError> {
        let doc = json::parse(text)?;
        let o = doc.document(CHECKPOINT_SCHEMA)?;
        let mut m = FabricManager::new(plan, cfg);
        m.now = o.get_u64("now")?;
        m.last_event = o.get_u64("last_event")?;
        restore_counters(&mut m, o.get_object("counters")?)?;
        m.latency_hist = o.get_list("latency_hist")?.try_into().map_err(|_| {
            JsonError::Type { key: "latency_hist".to_string(), expected: "one u64 per latency bucket" }
        })?;

        let edges: Vec<u32> = o.get_list("faults")?;
        if edges.iter().any(|&e| e >= m.healthy.graph.num_edges()) {
            return Err(CheckpointError::FaultMismatch);
        }
        if !edges.is_empty() {
            let faults = FaultSet::links(edges);
            let degraded = rebuild_degraded(&m.healthy, &faults)
                .map_err(|_| CheckpointError::FaultMismatch)?;
            m.current = Arc::new(degraded.to_plan(m.healthy.q));
            m.fault_fp = faults.fingerprint();
            m.faults = faults;
        }

        m.ready = queue(o, "ready", &m.healthy)?;
        m.deferred_q = queue(o, "deferred", &m.healthy)?;
        m.queued_ids = m.ready.iter().chain(&m.deferred_q).map(|s| s.id).collect();
        m.ready_elems = m.ready.iter().map(|s| s.elems).sum();
        Ok(m)
    }
}
