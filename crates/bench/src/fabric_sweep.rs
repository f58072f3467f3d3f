//! Fabric-manager sustained-throughput sweep: the `experiments
//! fabric-sweep` subcommand.
//!
//! Two parts, both in seeded virtual time (no wall clock anywhere, so the
//! output is byte-deterministic and CI can `cmp` a double run):
//!
//! * **Sweep** — a seeded Poisson job stream at the three standard
//!   offered-load levels (the same `mean_gap`s as `sched-sweep`), each
//!   cell with a link fault a third of the way in, a second fault at the
//!   half (taking the incremental repair path on the already-degraded
//!   fabric) and a heal at two thirds. Reports sustained throughput
//!   (jobs per kilocycle), the
//!   latency distribution from the manager's log2 histogram, the
//!   admission ledger and the plan-cache hit rate.
//! * **Soak** — one long heavy-load stream (10^6 jobs for the committed
//!   `BENCH_fabric.json`) through a single always-on manager, with the
//!   same mid-stream fault/heal cycle. The counting allocator's
//!   live-bytes gauge is sampled early, mid-stream and after the drain;
//!   the soak asserts the manager's memory stays flat — it keeps
//!   aggregates only, so a million jobs cost no more residency than a
//!   thousand.
//!
//! The result is written as `pf-bench-fabric-v1` JSON (schema documented
//! in `docs/FABRIC.md`) and committed at the repo root as
//! `BENCH_fabric.json`, so fabric-service behavior is recorded
//! PR-over-PR; CI regenerates it twice and requires identical bytes.

use crate::print_header;
use crate::sched_sweep::{LoadLevel, LOADS};
use pf_allreduce::AllreducePlan;
use pf_fabric::{FabricConfig, FabricEvent, FabricManager, FabricReport, PoissonJobs};
use pf_simnet::json::Value;
use std::path::Path;

/// Memory-flatness bound for the soak: live-byte growth between the
/// mid-stream sample (cache warm, fault state seen) and the post-drain
/// sample must stay under this. The manager holds aggregates only, so
/// real growth is zero; the slack absorbs allocator bookkeeping noise.
pub const SOAK_FLAT_BYTES: u64 = 1 << 20;

/// The manager configuration every cell and the soak run under.
#[must_use]
pub fn bench_config() -> FabricConfig {
    FabricConfig {
        queue_capacity: 512,
        max_outstanding_elems: 32 * 1024,
        epoch_max_jobs: 32,
        cache_capacity: 64,
        ..FabricConfig::default()
    }
}

/// One offered-load cell of the sweep.
#[derive(Debug, Clone)]
pub struct FabricCell {
    /// Offered-load label ("light" / "medium" / "heavy").
    pub load: &'static str,
    /// Mean cycles between arrivals.
    pub mean_gap: u64,
    /// The manager's aggregate report for the cell.
    pub report: FabricReport,
}

/// The soak result: the cell report plus the live-memory samples.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Jobs streamed.
    pub jobs: u64,
    /// The manager's aggregate report.
    pub report: FabricReport,
    /// Live heap bytes above the pre-soak baseline after the first tenth
    /// of the stream. Reporting deltas (rather than absolute residency)
    /// keeps the JSON independent of process noise outside the soak —
    /// e.g. the byte length of the `--out` path sitting in argv.
    pub live_bytes_early: u64,
    /// Live heap bytes above the baseline mid-stream (post-fault, cache
    /// warm).
    pub live_bytes_mid: u64,
    /// Live heap bytes above the baseline after the final drain.
    pub live_bytes_end: u64,
}

/// Builds the standard trace for one cell: `n` Poisson jobs, link 2
/// failing at the one-third mark, link 5 at the half — a second burst on
/// an already-degraded fabric, so it exercises the incremental repair
/// path — and a heal at two thirds.
fn cell_events(seed: u64, mean_gap: u64, n: usize) -> Vec<FabricEvent> {
    let mut events: Vec<FabricEvent> =
        PoissonJobs::new(seed, mean_gap, 32, 256).take(n).map(FabricEvent::Submit).collect();
    let first_at = events[n / 3].at();
    let second_at = events[n / 2].at();
    let heal_at = events[2 * n / 3].at();
    events.insert(n / 3 + 1, FabricEvent::LinkFaults { at: first_at, edges: vec![2] });
    events.insert(n / 2 + 2, FabricEvent::LinkFaults { at: second_at, edges: vec![5] });
    events.insert(2 * n / 3 + 3, FabricEvent::Heal { at: heal_at });
    events
}

/// Runs one offered-load cell and checks its invariants.
fn run_cell(plan: &AllreducePlan, load: LoadLevel, n: usize, seed: u64) -> FabricCell {
    let mut m = FabricManager::new(plan.clone(), bench_config());
    let report = m.play(cell_events(seed, load.mean_gap, n));
    assert_eq!(report.mismatches, 0, "{}: every job must validate", load.label);
    assert!(
        report.max_combined_congestion <= report.congestion_bound,
        "{}: combined congestion exceeds the plan bound",
        load.label
    );
    assert_eq!(report.submitted, n as u64);
    assert_eq!(report.completed + report.rejected + report.invalid, report.submitted);
    FabricCell { load: load.label, mean_gap: load.mean_gap, report }
}

/// The full sweep: every load level on one plan.
pub fn collect(plan: &AllreducePlan, n: usize, seed: u64) -> Vec<FabricCell> {
    LOADS.iter().map(|&load| run_cell(plan, load, n, seed)).collect()
}

/// The soak: one always-on manager streaming `n` heavy-load jobs with a
/// mid-stream fault/heal cycle, never materializing the stream. Samples
/// the live-bytes gauge at the tenth, the half and the end — as deltas
/// above a pre-soak baseline, so the numbers are independent of process
/// noise like argv — and asserts flat memory.
pub fn soak(plan: &AllreducePlan, n: usize, seed: u64) -> SoakResult {
    assert!(n >= 10, "soak needs enough jobs to sample");
    let base = crate::perf_snapshot::live_bytes();
    let mut m = FabricManager::new(plan.clone(), bench_config());
    let mut jobs = PoissonJobs::new(seed, 200, 16, 64);
    let (early_at, mid_at) = (n / 10, n / 2);
    let (fault_at, fault2_at, heal_at) = (n / 3, n / 2, 2 * n / 3);
    let (mut live_early, mut live_mid) = (0u64, 0u64);
    for i in 0..n {
        let spec = jobs.next().expect("endless stream");
        let t = spec.arrival;
        m.submit(spec);
        if i == fault_at {
            m.inject_link_faults(t, &[2]).expect("non-partitioning");
        }
        if i == fault2_at {
            m.inject_link_faults(t, &[5]).expect("non-partitioning");
        }
        if i == heal_at {
            m.heal(t);
        }
        if i == early_at {
            live_early = crate::perf_snapshot::live_bytes().saturating_sub(base);
        }
        if i == mid_at {
            live_mid = crate::perf_snapshot::live_bytes().saturating_sub(base);
        }
    }
    let report = m.drain();
    drop(m);
    let live_end = crate::perf_snapshot::live_bytes().saturating_sub(base);
    assert_eq!(report.mismatches, 0, "soak: every job must validate");
    assert_eq!(report.completed + report.rejected + report.invalid, report.submitted);
    assert!(
        live_end.saturating_sub(live_mid) < SOAK_FLAT_BYTES,
        "soak memory is not flat: {live_mid} live bytes mid-stream, {live_end} at the end"
    );
    SoakResult {
        jobs: n as u64,
        report,
        live_bytes_early: live_early,
        live_bytes_mid: live_mid,
        live_bytes_end: live_end,
    }
}

/// Sustained throughput in jobs per kilocycle of virtual time.
#[must_use]
pub fn jobs_per_kilocycle(r: &FabricReport) -> f64 {
    r.completed as f64 * 1000.0 / r.makespan.max(1) as f64
}

fn report_members(r: &FabricReport) -> [(&'static str, Value); 21] {
    [
        ("submitted", r.submitted.into()), ("completed", r.completed.into()),
        ("deferred", r.deferred.into()), ("rejected", r.rejected.into()),
        ("epochs", r.epochs.into()), ("waves", r.waves.into()), ("makespan", r.makespan.into()),
        ("jobs_per_kilocycle", jobs_per_kilocycle(r).into()), ("p50_latency", r.p50_latency.into()),
        ("p99_latency", r.p99_latency.into()), ("max_latency", r.max_latency.into()),
        ("mean_latency", r.mean_latency.into()),
        ("mean_queueing_delay", r.mean_queueing_delay.into()),
        ("max_combined_congestion", r.max_combined_congestion.into()),
        ("congestion_bound", r.congestion_bound.into()), ("cache_hits", r.cache.hits.into()),
        ("cache_misses", r.cache.misses.into()), ("cache_evictions", r.cache.evictions.into()),
        ("incremental_repairs", r.incremental_repairs.into()),
        ("full_rebuilds", r.full_rebuilds.into()), ("digest", r.digest.into()),
    ]
}

/// The sweep cells as a JSON array — the `points` of the bench file.
pub fn points_value(cells: &[FabricCell]) -> Value {
    cells
        .iter()
        .map(|c| {
            let head = [("load", c.load.into()), ("mean_gap", c.mean_gap.into())];
            Value::object(head.into_iter().chain(report_members(&c.report)))
        })
        .collect()
}

/// Serializes the sweep + soak as `pf-bench-fabric-v1` JSON (schema in
/// `docs/FABRIC.md`). Virtual-time quantities only — byte-deterministic.
pub fn to_json(q: u64, n: usize, seed: u64, cells: &[FabricCell], soak: &SoakResult) -> String {
    let live = [
        ("live_bytes_early", soak.live_bytes_early.into()),
        ("live_bytes_mid", soak.live_bytes_mid.into()),
        ("live_bytes_end", soak.live_bytes_end.into()),
    ];
    let soak_members = [("jobs", soak.jobs.into())].into_iter().chain(report_members(&soak.report));
    Value::object([
        ("schema", "pf-bench-fabric-v1".into()), ("q", q.into()), ("jobs", n.into()),
        ("seed", seed.into()), ("points", points_value(cells)),
        ("soak", Value::object(soak_members.chain(live))),
    ])
    .pretty()
}

/// The `experiments fabric-sweep` entry point: sweeps, soaks, prints a
/// table, and writes `out`.
pub fn print_fabric_sweep(q: u64, n: usize, soak_jobs: usize, seed: u64, out: &Path) {
    print_header("FABRIC sustained-throughput sweep + soak");
    let plan = AllreducePlan::low_depth(q).expect("odd prime power");
    println!(
        "ER_{q}: {} routers, {} trees, congestion bound {}; {} jobs per cell, {} soak jobs, seed {}",
        plan.num_nodes(),
        plan.trees.len(),
        plan.max_congestion,
        n,
        soak_jobs,
        seed
    );
    let cells = collect(&plan, n, seed);
    println!(
        "{:<7} {:>8} {:>9} {:>9} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "load", "mean gap", "completed", "deferred", "rejected", "jobs/kcy", "p50 lat", "p99 lat", "hit rate", "repairs"
    );
    for c in &cells {
        let r = &c.report;
        println!(
            "{:<7} {:>8} {:>9} {:>9} {:>8} {:>9.3} {:>8} {:>8} {:>7.1}% {:>5}+{}",
            c.load,
            c.mean_gap,
            r.completed,
            r.deferred,
            r.rejected,
            jobs_per_kilocycle(r),
            r.p50_latency,
            r.p99_latency,
            r.cache.hit_rate() * 100.0,
            r.incremental_repairs,
            r.full_rebuilds
        );
    }
    let s = soak(&plan, soak_jobs, seed);
    let r = &s.report;
    println!(
        "soak: {} jobs, {} epochs, {} waves, makespan {} cycles, {:.3} jobs/kilocycle",
        s.jobs, r.epochs, r.waves, r.makespan, jobs_per_kilocycle(r)
    );
    println!(
        "      latency p50 {} p99 {} max {}; cache {:.1}% hits over {} lookups",
        r.p50_latency,
        r.p99_latency,
        r.max_latency,
        r.cache.hit_rate() * 100.0,
        r.cache.hits + r.cache.misses
    );
    println!(
        "      live bytes: {} early, {} mid, {} end (flat within {} KiB)",
        s.live_bytes_early,
        s.live_bytes_mid,
        s.live_bytes_end,
        SOAK_FLAT_BYTES >> 10
    );
    std::fs::write(out, to_json(q, n, seed, &cells, &s)).expect("write BENCH_fabric.json");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_and_soak_hold_their_invariants() {
        // q = 3 keeps the unit test fast; the committed BENCH_fabric.json
        // and the CI smoke job run the q = 7 sweep.
        let plan = AllreducePlan::low_depth(3).unwrap();
        let cells = collect(&plan, 30, 7);
        assert_eq!(cells.len(), LOADS.len());
        for c in &cells {
            assert_eq!(c.report.submitted, 30);
            assert_eq!(c.report.mismatches, 0);
            assert!(c.report.epochs >= 1);
            assert!(c.report.p50_latency <= c.report.p99_latency);
            // The second burst lands on a degraded fabric, so the
            // committed benchmark records the incremental repair path.
            assert_eq!(c.report.incremental_repairs, 1);
            assert_eq!(c.report.full_rebuilds, 1);
        }
        let s = soak(&plan, 120, 7);
        assert_eq!(s.report.submitted, 120);
        assert_eq!(s.report.fault_events, 2);
        assert_eq!(s.report.heals, 1);
        assert_eq!(s.report.incremental_repairs, 1);
        let json = to_json(3, 30, 7, &cells, &s);
        assert!(json.contains("pf-bench-fabric-v1"));
        assert!(json.contains("\"soak\": {\n"));
        // Byte-determinism: a second identical run serializes identically.
        let json2 = to_json(3, 30, 7, &collect(&plan, 30, 7), &soak(&plan, 120, 7));
        assert_eq!(json, json2);
    }
}
