//! Multi-tenant offered-load sweep: the `experiments sched-sweep`
//! subcommand.
//!
//! Generates a seeded, deterministic stream of allreduce jobs (staggered
//! arrivals, mixed vector sizes and operators, a spread of priorities)
//! and runs it through the [`pf_sched::Scheduler`] at three offered-load
//! levels under each admission policy. Every job is validated inside the
//! engine against [`pf_simnet::Workload::expected`]; the sweep asserts
//! zero mismatches and that the combined per-edge congestion never
//! exceeds the plan's Theorem 7.6 / 7.19 bound.
//!
//! The result is written as `pf-bench-sched-v1` JSON (schema documented
//! in `docs/SCHEDULER.md`). The file is committed at the repo root as
//! `BENCH_sched.json`, so scheduler behavior is recorded PR-over-PR, and
//! CI uploads each run's copy as an artifact. Output is byte-deterministic:
//! same seed, same build → identical file.

use crate::print_header;
use pf_allreduce::AllreducePlan;
use pf_sched::{FairnessStats, JobSpec, Policy, SchedConfig, SchedReport, Scheduler};
use pf_simnet::json::Value;
use pf_simnet::ReduceKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// One offered-load level of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct LoadLevel {
    /// Label in the output ("light" / "medium" / "heavy").
    pub label: &'static str,
    /// Mean cycles between job arrivals (exponential-ish spacing drawn
    /// uniformly from `[gap/2, 3*gap/2]`).
    pub mean_gap: u64,
}

/// The three standard load levels.
pub const LOADS: [LoadLevel; 3] = [
    LoadLevel { label: "light", mean_gap: 1500 },
    LoadLevel { label: "medium", mean_gap: 600 },
    LoadLevel { label: "heavy", mean_gap: 200 },
];

/// The three admission policies the sweep compares.
pub const POLICIES: [Policy; 3] =
    [Policy::Fifo, Policy::ShortestJobFirst, Policy::Priority { aging: 512 }];

/// One (policy, load) cell of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Admission policy label.
    pub policy: &'static str,
    /// Offered-load label.
    pub load: &'static str,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Waves the scheduler ran.
    pub waves: usize,
    /// Cycle the last job finished.
    pub makespan: u64,
    /// Aggregate goodput: total elements / makespan.
    pub goodput: f64,
    /// Peak combined per-edge congestion over all waves.
    pub max_combined_congestion: u32,
    /// The plan's own bound (the sweep asserts peak ≤ bound).
    pub congestion_bound: u32,
    /// Cross-tenant fairness summary.
    pub fairness: FairnessStats,
}

/// Deterministic job stream: `n` jobs with seeded arrivals, sizes in
/// `[256, 2048]`, one job in four a float reduction, priorities 0..4.
pub fn job_stream(n: u32, mean_gap: u64, seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrival = 0u64;
    (0..n)
        .map(|id| {
            arrival += rng.random_range(mean_gap / 2..=mean_gap + mean_gap / 2);
            let mut s = JobSpec::new(id, arrival, rng.random_range(256..=2048));
            if rng.random_range(0..4u32) == 0 {
                s.kind = ReduceKind::FloatF64;
            }
            s.priority = rng.random_range(0..4);
            s
        })
        .collect()
}

/// Runs one (policy, load) cell and checks its invariants.
fn run_point(plan: &AllreducePlan, policy: Policy, load: LoadLevel, n: u32, seed: u64) -> SweepPoint {
    let specs = job_stream(n, load.mean_gap, seed);
    let cfg = SchedConfig { policy, ..SchedConfig::default() };
    let r: SchedReport = Scheduler::new(plan, cfg).run(&specs).expect("valid stream");
    assert_eq!(r.mismatches, 0, "{}/{}: every job must validate", policy.label(), load.label);
    assert!(
        r.max_combined_congestion <= r.congestion_bound,
        "{}/{}: combined congestion exceeds the plan bound",
        policy.label(),
        load.label
    );
    assert!(
        r.fairness.jain_index > 0.0 && r.fairness.jain_index <= 1.0 + 1e-12,
        "{}/{}: Jain index {} out of range",
        policy.label(),
        load.label,
        r.fairness.jain_index
    );
    SweepPoint {
        policy: policy.label(),
        load: load.label,
        jobs: r.jobs.len(),
        waves: r.waves.len(),
        makespan: r.makespan,
        goodput: r.goodput(),
        max_combined_congestion: r.max_combined_congestion,
        congestion_bound: r.congestion_bound,
        fairness: r.fairness,
    }
}

/// The full sweep: every policy at every load level on one plan.
pub fn collect(plan: &AllreducePlan, n: u32, seed: u64) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for policy in POLICIES {
        for load in LOADS {
            points.push(run_point(plan, policy, load, n, seed));
        }
    }
    points
}

/// Serializes the sweep as `pf-bench-sched-v1` JSON (schema in
/// `docs/SCHEDULER.md`).
pub fn to_json(q: u64, n: u32, seed: u64, points: &[SweepPoint]) -> String {
    let point = |p: &SweepPoint| {
        Value::object([
            ("policy", p.policy.into()), ("load", p.load.into()), ("jobs", p.jobs.into()),
            ("waves", p.waves.into()), ("makespan", p.makespan.into()),
            ("goodput", p.goodput.into()),
            ("max_combined_congestion", p.max_combined_congestion.into()),
            ("congestion_bound", p.congestion_bound.into()),
            ("jain_index", p.fairness.jain_index.into()),
            ("p50_latency", p.fairness.p50_latency.into()),
            ("p99_latency", p.fairness.p99_latency.into()),
            ("mean_queueing_delay", p.fairness.mean_queueing_delay.into()),
        ])
    };
    Value::object([
        ("schema", "pf-bench-sched-v1".into()), ("q", q.into()), ("jobs", n.into()),
        ("seed", seed.into()), ("points", points.iter().map(point).collect()),
    ])
    .pretty()
}

/// The `experiments sched-sweep` entry point: sweeps, prints a table,
/// and writes `out`.
pub fn print_sched_sweep(q: u64, n: u32, seed: u64, out: &Path) {
    print_header("SCHED multi-tenant offered-load sweep");
    let plan = AllreducePlan::low_depth(q).expect("odd prime power");
    println!(
        "ER_{q}: {} routers, {} trees, congestion bound {}, {} jobs per cell, seed {}",
        plan.num_nodes(),
        plan.trees.len(),
        plan.max_congestion,
        n,
        seed
    );
    let points = collect(&plan, n, seed);
    println!(
        "{:<9} {:<7} {:>6} {:>9} {:>8} {:>7} {:>9} {:>9} {:>10} {:>8}",
        "policy", "load", "waves", "makespan", "goodput", "jain", "p50 lat", "p99 lat", "mean queue", "maxcong"
    );
    for p in &points {
        println!(
            "{:<9} {:<7} {:>6} {:>9} {:>8.3} {:>7.4} {:>9} {:>9} {:>10.1} {:>5}/{}",
            p.policy,
            p.load,
            p.waves,
            p.makespan,
            p.goodput,
            p.fairness.jain_index,
            p.fairness.p50_latency,
            p.fairness.p99_latency,
            p.fairness.mean_queueing_delay,
            p.max_combined_congestion,
            p.congestion_bound
        );
    }
    std::fs::write(out, to_json(q, n, seed, &points)).expect("write BENCH_sched.json");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stream_is_deterministic_and_valid() {
        let a = job_stream(20, 600, 42);
        let b = job_stream(20, 600, 42);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.elems, y.elems);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.priority, y.priority);
        }
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|s| (256..=2048).contains(&s.elems)));
        assert!(a.iter().any(|s| s.kind == ReduceKind::FloatF64));
        // A different seed moves the stream.
        let c = job_stream(20, 600, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival || x.elems != y.elems));
    }

    #[test]
    fn small_sweep_holds_its_invariants() {
        // q = 3 keeps the unit test fast; the committed BENCH_sched.json
        // and the CI smoke job run the acceptance-scale q = 11 sweep.
        let plan = AllreducePlan::low_depth(3).unwrap();
        let points = collect(&plan, 8, 7);
        assert_eq!(points.len(), POLICIES.len() * LOADS.len());
        for p in &points {
            assert_eq!(p.jobs, 8);
            assert!(p.waves >= 1);
            assert!(p.max_combined_congestion <= p.congestion_bound);
            assert!(p.fairness.jain_index > 0.0 && p.fairness.jain_index <= 1.0);
            assert!(p.fairness.p50_latency <= p.fairness.p99_latency);
        }
        let json = to_json(3, 8, 7, &points);
        assert!(json.contains("pf-bench-sched-v1"));
        assert_eq!(json, to_json(3, 8, 7, &collect(&plan, 8, 7)), "byte-deterministic");
    }
}
