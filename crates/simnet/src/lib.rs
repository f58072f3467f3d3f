//! Cycle-level in-network-computing simulator.
//!
//! This crate stands in for the hardware the paper targets (Intel
//! PIUMA-style / Mellanox SHARP-style routers with streaming reduction
//! engines). It implements the abstract router model of §4.4–§5.1:
//!
//! * every physical link is a pair of directed channels moving one element
//!   ("flit") per cycle with a configurable pipeline latency,
//! * each tree edge is a logical *stream* with its own virtual-channel
//!   buffer at the receiver and credit-based flow control (buffers sized in
//!   flits; full throughput needs `buffer ≥ latency`, the
//!   latency–bandwidth product the paper cites as the in-network memory
//!   footprint, because a credit returns in the cycle its flit is
//!   consumed),
//! * overlapping streams on a directed channel share its bandwidth through
//!   work-conserving round-robin arbitration — the physical realization of
//!   the congestion model behind Algorithm 1,
//! * reduction engines combine child streams with the local contribution at
//!   link rate (the paper's "multiple reductions at link rate" assumption),
//!   and the root turns the reduced stream around into a broadcast.
//!
//! The same machinery executes the full collective family — allreduce,
//! reduce, broadcast, and the sharded-training pair reduce-scatter /
//! allgather ([`engine::Collective`], defined next to the plan model in
//! `pf_allreduce::collective`; semantics and pricing in
//! `docs/COLLECTIVES.md`).
//!
//! The simulator checks numerical correctness of every delivered element
//! and reports cycle counts, per-tree goodput and per-channel utilization,
//! which the experiments compare against the Algorithm 1 predictions. The
//! [`trace`] module adds opt-in cycle-level observability — per-link,
//! per-stream and per-router counters with a documented JSON/CSV schema
//! (see `docs/OBSERVABILITY.md`) — used to verify the paper's per-link
//! congestion bounds at runtime. Traces, the bench files and the fabric
//! checkpoint are all written and read through the one [`json`] module.
//!
//! [`hostbased`] builds the classical host-based allreduce algorithms
//! (ring, recursive doubling, Rabenseifner, BlueConnect) as one schedule
//! each — the baselines of the paper's §8 comparison — and prices them
//! with a congestion-aware α–β model; [`p2p`] executes the same schedules
//! flit by flit.
//!
//! The [`faults`] module injects deterministic, seed-reproducible link and
//! router faults (transient or permanent), models per-channel
//! timeout/bounded-retry failure detection, and drives the
//! `pf_allreduce::recovery` rebuild loop so the collective completes on
//! the surviving fabric with quantified bandwidth loss (`docs/FAULTS.md`).
//!
//! The one `unsafe` operation in the crate is the call into a kernel's
//! AVX-512 copy once the CPU is known to have it (`kernels`).

#![deny(unsafe_code)]

#[cfg(test)]
mod difftest;
pub mod embedding;
pub mod engine;
pub mod faults;
pub mod hostbased;
pub mod json;
#[allow(unsafe_code)]
mod kernels;
pub mod p2p;
pub mod routing;
pub mod stats;
pub mod trace;
pub mod workload;

pub use embedding::{CompiledTrees, MultiTreeEmbedding, TreeSlice};
pub use engine::{
    delivery_digest_entry, Collective, JobBinding, JobOutcome, RunReport, SimConfig, SimReport,
    Simulator,
};
pub use faults::{
    run_with_recovery, DetectionConfig, FaultEvent, FaultKind,
    FaultReport, FaultSchedule, FaultTarget, RecoveryError, RecoveryOutcome, RecoveryRound,
};
pub use trace::{FaultTraceRow, JobTraceRow, TraceConfig, TraceReport};
pub use workload::{JobSegment, ReduceKind, Workload};
