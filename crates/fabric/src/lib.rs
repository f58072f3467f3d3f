//! `pf-fabric` — the always-on fabric-manager service.
//!
//! Everything below this crate answers "what does one allreduce / one
//! batch cost?"; this crate answers "what does *operating the fabric*
//! cost?". A [`FabricManager`] owns one PolarFly allreduce plan for the
//! life of the process and serves an open-ended stream of collective
//! jobs under admission control, amortizing plan construction in a
//! deterministic LRU [`PlanCache`] and absorbing link faults by
//! rebuilding a degraded plan — all in seeded virtual time, so the same
//! trace always produces a byte-identical [`FabricReport`].
//!
//! Module map:
//!
//! * [`manager`] — the event loop: bounded ingestion queues
//!   (accept / defer / reject), lazy epoch dispatch through
//!   [`pf_sched::Scheduler::run_epoch`], fault/heal handling, flat-memory
//!   aggregates (counters, log2 latency histogram, rolling digest).
//! * [`cache`] — the plan cache keyed by *(topology fingerprint,
//!   fault fingerprint, tree subset)* and the [`pf_sched::PlanProvider`]
//!   adapter that routes scheduler subset requests through it.
//! * [`events`] — seeded virtual-time event sources ([`PoissonJobs`])
//!   and the [`FabricEvent`] trace vocabulary.
//! * [`checkpoint`] — versioned `pf-fabric-ckpt-v2` checkpoint/restore,
//!   compact JSON through `pf_simnet::json`; round trips are
//!   byte-identical.
//!
//! See `docs/FABRIC.md` for the service design and the
//! `experiments fabric-sweep` benchmark it feeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod events;
pub mod manager;

pub use cache::{CacheKey, CacheStats, CachingProvider, PlanCache};
pub use checkpoint::{CheckpointError, CHECKPOINT_SCHEMA};
pub use events::{FabricEvent, PoissonJobs};
pub use manager::{Admission, FabricConfig, FabricManager, FabricReport, LATENCY_BUCKETS};
