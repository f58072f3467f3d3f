//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a pure function returning structured rows (so the
//! integration tests can assert on them) plus a printer producing the
//! table the paper reports. The `experiments` binary dispatches on a
//! subcommand per artifact — see DESIGN.md's per-experiment index.

pub mod capacity;
pub mod collectives;
pub mod csv;
pub mod fabric_sweep;
pub mod faults;
pub mod figures;
pub mod par;
pub mod perf_snapshot;
pub mod sched_sweep;
pub mod sims;
pub mod sweeps;
pub mod tables;
pub mod topo_compare;

/// Prints a header line followed by a rule of matching width.
pub fn print_header(title: &str) {
    println!("\n== {title} ==");
}
