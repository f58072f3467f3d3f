//! Deterministic multi-tenant job scheduler for one PolarFly fabric.
//!
//! The paper's `q + 1` spanning trees exist so aggregate bandwidth can be
//! *split* — and a divisible resource can be shared. This crate treats the
//! tree set of an [`pf_allreduce::AllreducePlan`] as the schedulable
//! resource: a stream of allreduce jobs (arrival cycle, vector length,
//! reduce kind, priority, full fabric or a node subset) is admitted by a
//! pluggable policy ([`Policy`]: FIFO, shortest-job-first, priority with
//! aging), each admitted job receives a *disjoint subset* of the trees
//! from the [`TreeAllocator`], and the concurrent jobs execute in one
//! cycle-accurate `pf-simnet` run ([`pf_simnet::Simulator::run_jobs_collective`])
//! where they contend for the shared physical channels exactly like the
//! streams of a single collective.
//!
//! Because the per-job subsets partition one healthy plan's tree set, the
//! combined per-edge congestion of everything running at once can never
//! exceed the plan's own Theorem 7.6 / 7.19 bound — the allocator asserts
//! this invariant on every allocation (see `docs/SCHEDULER.md`).
//!
//! Scheduling is *wave-based*: the engine runs a set of concurrent jobs to
//! completion, then the scheduler reclaims every tree and admits the next
//! wave (rebalancing tree shares to the new queue depth). Within a wave,
//! jobs that arrive after the wave starts can be admitted with a deferred
//! release cycle, which the engine honors exactly. Everything is
//! deterministic: same job stream, same policy → byte-identical reports.
//!
//! Fault handling composes with `pf-simnet`'s fault layer: when a link
//! dies mid-wave and detection aborts the run, the scheduler re-runs the
//! *unaffected* tenants untouched (on their original tree subsets and
//! releases) and sends only the affected tenants through
//! [`pf_simnet::run_with_recovery`] on their private subset plans.

pub mod alloc;
pub mod error;
pub mod job;
pub mod policy;
pub mod provider;
pub mod sched;

pub use alloc::TreeAllocator;
pub use error::SchedError;
pub use job::{JobRecord, JobSpec};
pub use policy::Policy;
pub use provider::{DirectPlans, PlanProvider};
pub use sched::{
    fold_job_digest, validate_spec, FairnessStats, SchedConfig, SchedReport, Scheduler,
    WaveRecord,
};
