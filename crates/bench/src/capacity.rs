//! `experiments capacity` — the operator-facing capacity planner.
//!
//! Answers the ROADMAP's design-tool question: *given a fleet size
//! range, a fault budget, and a job mix, which (q, construction,
//! scheduler policy) maximizes goodput?* For every PolarFly radix whose
//! router count `N = q² + q + 1` fits the fleet range, every
//! construction, and every admission policy, the planner:
//!
//! 1. builds the plan and (when the fault budget `k > 0`) degrades it
//!    through [`pf_allreduce::rebuild_degraded`] with `k` deterministic,
//!    evenly spread link faults — capacity questions are asked about the
//!    fabric you will actually be running, which is never fault-free;
//! 2. replays the mix's seeded [`pf_fabric::PoissonJobs`] stream through
//!    the [`pf_sched::Scheduler`] under the policy and prices the run
//!    with [`pf_sched::SchedReport::goodput`];
//! 3. records the surviving substrate's exact rate bound
//!    ([`pf_allreduce::rate::allreduce_rate_bound`], `docs/RATES.md`) and
//!    the plan's optimality gap next to the goodput, so a recommendation
//!    can be audited against what the topology could at best carry.
//!
//! Per mix, the recommendation is the cell with maximum goodput
//! (deterministic tie-break: smaller q, then construction and policy
//! label order). The whole sweep is seeded and byte-deterministic: the
//! committed `BENCH_capacity.json` (`pf-bench-capacity-v1`) is gated in
//! CI by a double-run `cmp`, like the other `BENCH_*` files.

use crate::print_header;
use pf_allreduce::plan::AllreducePlan;
use pf_allreduce::rate::allreduce_rate_bound;
use pf_allreduce::rational::Rational;
use pf_allreduce::{rebuild_degraded, Budget, FaultSet, KaryMultitree};
use pf_fabric::PoissonJobs;
use pf_sched::{SchedConfig, Scheduler};
use pf_simnet::json::Value;
use std::path::Path;

/// One named job mix: a seeded Poisson arrival process and a size band.
#[derive(Debug, Clone, Copy)]
pub struct JobMix {
    /// Label in the output.
    pub label: &'static str,
    /// Mean cycles between arrivals.
    pub mean_gap: u64,
    /// Smallest vector size (elements).
    pub elems_lo: u64,
    /// Largest vector size (elements).
    pub elems_hi: u64,
}

/// The three standard mixes: many small gradients arriving hot, a broad
/// mixed band, and large steady bulk jobs.
pub const MIXES: [JobMix; 3] = [
    JobMix { label: "small-bursty", mean_gap: 250, elems_lo: 256, elems_hi: 1024 },
    JobMix { label: "mixed", mean_gap: 600, elems_lo: 256, elems_hi: 4096 },
    JobMix { label: "large-steady", mean_gap: 1200, elems_lo: 2048, elems_hi: 8192 },
];

/// The constructions the planner compares on each radix.
pub const CONSTRUCTIONS: [&str; 3] = ["low-depth", "edge-disjoint", "kary-multitree"];

/// One (mix, q, construction, policy) cell.
#[derive(Debug, Clone)]
pub struct CapacityCell {
    /// Job-mix label.
    pub mix: &'static str,
    /// PolarFly radix.
    pub q: u64,
    /// Routers at this radix (`q² + q + 1`), minus nothing — faults kill
    /// links, not routers.
    pub fleet: u32,
    /// Construction label (one of [`CONSTRUCTIONS`]).
    pub construction: &'static str,
    /// Admission-policy label.
    pub policy: &'static str,
    /// Trees surviving the fault budget.
    pub trees: usize,
    /// Cycle the last job finished.
    pub makespan: u64,
    /// Elements per cycle over the whole run.
    pub goodput: f64,
    /// Algorithm 1 aggregate `Σ B_i` of the (degraded) plan.
    pub aggregate: Rational,
    /// Exact rate bound of the surviving substrate.
    pub rate_bound: Rational,
    /// `aggregate / rate_bound`, exact.
    pub gap: Rational,
    /// Peak combined per-edge congestion over all waves.
    pub max_combined_congestion: u32,
    /// The degraded plan's own congestion bound.
    pub congestion_bound: u32,
}

/// The per-mix winner.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Job-mix label.
    pub mix: &'static str,
    /// Recommended radix.
    pub q: u64,
    /// Routers at that radix.
    pub fleet: u32,
    /// Recommended construction.
    pub construction: &'static str,
    /// Recommended policy.
    pub policy: &'static str,
    /// The winning goodput.
    pub goodput: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct CapacityParams {
    /// Smallest acceptable fleet (routers).
    pub fleet_min: u32,
    /// Largest acceptable fleet (routers).
    pub fleet_max: u32,
    /// Link faults to apply before pricing (evenly spread edge ids).
    pub fault_budget: u32,
    /// Jobs per cell.
    pub jobs: u32,
    /// Stream seed (each mix offsets it so mixes draw distinct streams).
    pub seed: u64,
}

impl Default for CapacityParams {
    fn default() -> Self {
        // q ∈ {3, 5, 7}: fleets of 13, 31 and 57 routers.
        CapacityParams { fleet_min: 10, fleet_max: 60, fault_budget: 2, jobs: 24, seed: 2026 }
    }
}

/// The odd radices whose `q² + q + 1` routers fit the fleet range.
pub fn radices_in_range(fleet_min: u32, fleet_max: u32) -> Vec<u64> {
    pf_galois::prime_powers_in(3, 32)
        .into_iter()
        .filter(|q| q % 2 == 1)
        .filter(|&q| {
            let n = q * q + q + 1;
            (fleet_min as u64..=fleet_max as u64).contains(&n)
        })
        .collect()
}

/// Builds the named construction's healthy plan for radix `q`.
fn build_plan(q: u64, construction: &str) -> AllreducePlan {
    match construction {
        "low-depth" => AllreducePlan::low_depth(q).expect("odd prime power"),
        "edge-disjoint" => AllreducePlan::edge_disjoint(q, 30, 0xC0FFEE).expect("odd prime power"),
        "kary-multitree" => {
            let pf = pf_topo::PolarFly::new(q);
            AllreducePlan::construct(pf.graph(), &KaryMultitree { k: 3 }, &Budget::unlimited())
                .expect("PolarFly is connected")
        }
        other => panic!("unknown construction {other}"),
    }
}

/// `k` deterministic faulted links, spread evenly over the edge-id space
/// so no single router's links are wiped out.
fn spread_faults(num_edges: u32, k: u32) -> FaultSet {
    assert!(k < num_edges, "fault budget must leave links standing");
    FaultSet::links((0..k).map(|i| i * (num_edges / k.max(1))).collect())
}

/// Runs the full sweep. Cells whose degraded rebuild partitions the
/// fabric are skipped (none do at the committed parameters — the spread
/// faults never isolate a router at these radices).
pub fn collect(p: &CapacityParams) -> (Vec<CapacityCell>, Vec<Recommendation>) {
    let qs = radices_in_range(p.fleet_min, p.fleet_max);
    assert!(!qs.is_empty(), "no PolarFly radix fits fleet range {}..={}", p.fleet_min, p.fleet_max);
    let mut cells = Vec::new();
    for (mix_i, mix) in MIXES.iter().enumerate() {
        for &q in &qs {
            for construction in CONSTRUCTIONS {
                // Build once per (q, construction); policies share it.
                let healthy = build_plan(q, construction);
                let plan = if p.fault_budget == 0 {
                    healthy
                } else {
                    let faults = spread_faults(healthy.graph.num_edges(), p.fault_budget);
                    match rebuild_degraded(&healthy, &faults) {
                        Ok(d) => d.to_plan(healthy.q),
                        Err(e) => {
                            println!("skip q={q} {construction}: {e:?}");
                            continue;
                        }
                    }
                };
                let rate = allreduce_rate_bound(&plan.graph).expect("rebuild keeps connectivity");
                assert!(
                    rate.certifies(plan.aggregate),
                    "q={q} {construction}: degraded plan beats the surviving rate bound"
                );
                let specs: Vec<_> = PoissonJobs::new(
                    p.seed.wrapping_add(mix_i as u64),
                    mix.mean_gap,
                    mix.elems_lo,
                    mix.elems_hi,
                )
                .take(p.jobs as usize)
                .collect();
                for policy in crate::sched_sweep::POLICIES {
                    let cfg = SchedConfig { policy, ..SchedConfig::default() };
                    let r = Scheduler::new(&plan, cfg).run(&specs).expect("valid stream");
                    assert_eq!(r.mismatches, 0, "{}: every job must validate", mix.label);
                    assert!(r.max_combined_congestion <= r.congestion_bound);
                    cells.push(CapacityCell {
                        mix: mix.label,
                        q,
                        fleet: plan.graph.num_vertices(),
                        construction,
                        policy: policy.label(),
                        trees: plan.trees.len(),
                        makespan: r.makespan,
                        goodput: r.goodput(),
                        aggregate: plan.aggregate,
                        rate_bound: rate.bound,
                        gap: rate.gap(plan.aggregate),
                        max_combined_congestion: r.max_combined_congestion,
                        congestion_bound: r.congestion_bound,
                    });
                }
            }
        }
    }
    let recs = MIXES.iter().map(|mix| recommend(&cells, mix.label)).collect();
    (cells, recs)
}

/// The maximum-goodput cell of one mix, with a deterministic tie-break
/// (smaller q first, then construction and policy label order — the
/// cheapest fleet wins a dead heat).
fn recommend(cells: &[CapacityCell], mix: &'static str) -> Recommendation {
    let best = cells
        .iter()
        .filter(|c| c.mix == mix)
        .min_by(|a, b| {
            b.goodput
                .partial_cmp(&a.goodput)
                .expect("goodput is finite")
                .then(a.q.cmp(&b.q))
                .then(a.construction.cmp(b.construction))
                .then(a.policy.cmp(b.policy))
        })
        .expect("every mix has cells");
    Recommendation {
        mix,
        q: best.q,
        fleet: best.fleet,
        construction: best.construction,
        policy: best.policy,
        goodput: best.goodput,
    }
}

/// Serializes the sweep as `pf-bench-capacity-v1` JSON (schema in
/// `docs/RATES.md`). Exact rationals are strings; goodput is a
/// round-trippable float.
pub fn to_json(p: &CapacityParams, cells: &[CapacityCell], recs: &[Recommendation]) -> String {
    let cell = |c: &CapacityCell| {
        Value::object([
            ("mix", c.mix.into()), ("q", c.q.into()), ("fleet", c.fleet.into()),
            ("construction", c.construction.into()), ("policy", c.policy.into()),
            ("trees", c.trees.into()), ("makespan", c.makespan.into()),
            ("goodput", c.goodput.into()), ("aggregate", c.aggregate.to_string().into()),
            ("rate_bound", c.rate_bound.to_string().into()), ("gap", c.gap.to_string().into()),
            ("gap_float", c.gap.to_f64().into()),
            ("max_combined_congestion", c.max_combined_congestion.into()),
            ("congestion_bound", c.congestion_bound.into()),
        ])
    };
    let rec = |r: &Recommendation| {
        Value::object([
            ("mix", r.mix.into()), ("q", r.q.into()), ("fleet", r.fleet.into()),
            ("construction", r.construction.into()), ("policy", r.policy.into()),
            ("goodput", r.goodput.into()),
        ])
    };
    Value::object([
        ("schema", "pf-bench-capacity-v1".into()), ("fleet_min", p.fleet_min.into()),
        ("fleet_max", p.fleet_max.into()), ("fault_budget", p.fault_budget.into()),
        ("jobs", p.jobs.into()), ("seed", p.seed.into()),
        ("cells", cells.iter().map(cell).collect()),
        ("recommendations", recs.iter().map(rec).collect()),
    ])
    .pretty()
}

/// The `experiments capacity` entry point: sweeps, prints the cell table
/// and the per-mix recommendations, and writes `out`.
pub fn print_capacity(p: &CapacityParams, out: &Path) {
    print_header("capacity planner: fleet x construction x policy");
    println!(
        "fleet {}..={} routers (q in {:?}), {} link faults, {} jobs per cell, seed {}",
        p.fleet_min,
        p.fleet_max,
        radices_in_range(p.fleet_min, p.fleet_max),
        p.fault_budget,
        p.jobs,
        p.seed
    );
    let (cells, recs) = collect(p);
    println!(
        "{:<13} {:>3} {:>5}  {:<15} {:<9} {:>5} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "mix", "q", "fleet", "construction", "policy", "trees", "makespan", "goodput", "rate bd",
        "gap~", "cong"
    );
    for c in &cells {
        println!(
            "{:<13} {:>3} {:>5}  {:<15} {:<9} {:>5} {:>9} {:>8.3} {:>8} {:>8.4} {:>4}/{}",
            c.mix,
            c.q,
            c.fleet,
            c.construction,
            c.policy,
            c.trees,
            c.makespan,
            c.goodput,
            c.rate_bound.to_string(),
            c.gap.to_f64(),
            c.max_combined_congestion,
            c.congestion_bound
        );
    }
    println!("\nrecommendations (max goodput per mix; ties -> smallest fleet):");
    for r in &recs {
        println!(
            "  {:<13} -> q={} ({} routers), {} + {} ({:.3} elems/cycle)",
            r.mix, r.q, r.fleet, r.construction, r.policy, r.goodput
        );
    }
    std::fs::write(out, to_json(p, &cells, &recs)).expect("write BENCH_capacity.json");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed sweep for unit tests: one small radix, light streams.
    fn small_params() -> CapacityParams {
        CapacityParams { fleet_min: 10, fleet_max: 15, fault_budget: 1, jobs: 6, seed: 7 }
    }

    #[test]
    fn radix_selection_matches_the_fleet_range() {
        assert_eq!(radices_in_range(10, 60), vec![3, 5, 7]);
        assert_eq!(radices_in_range(10, 15), vec![3]);
        assert_eq!(radices_in_range(50, 150), vec![7, 9, 11]);
    }

    #[test]
    fn sweep_is_deterministic_and_recommends_per_mix() {
        let p = small_params();
        let (cells, recs) = collect(&p);
        // 1 radix × 3 constructions × 3 policies per mix.
        assert_eq!(cells.len(), MIXES.len() * 3 * 3);
        assert_eq!(recs.len(), MIXES.len());
        for c in &cells {
            assert!(c.goodput > 0.0);
            assert!(c.gap.is_positive() && c.gap <= Rational::ONE);
            assert!(c.max_combined_congestion <= c.congestion_bound);
        }
        for r in &recs {
            assert!(cells.iter().any(|c| {
                c.mix == r.mix
                    && c.q == r.q
                    && c.construction == r.construction
                    && c.policy == r.policy
            }));
        }
        // Byte-deterministic: the double-run cmp gate in CI relies on it.
        let (cells2, recs2) = collect(&p);
        assert_eq!(to_json(&p, &cells, &recs), to_json(&p, &cells2, &recs2));
    }

    #[test]
    fn faults_reduce_but_never_break_the_bound() {
        let healthy = build_plan(3, "low-depth");
        let faults = spread_faults(healthy.graph.num_edges(), 2);
        let degraded = rebuild_degraded(&healthy, &faults).unwrap().to_plan(3);
        let rate = allreduce_rate_bound(&degraded.graph).unwrap();
        assert!(rate.certifies(degraded.aggregate));
        // The surviving substrate's bound is itself no higher than the
        // healthy one (faults only delete edges).
        let healthy_rate = allreduce_rate_bound(&healthy.graph).unwrap();
        assert!(rate.bound <= healthy_rate.bound);
    }
}
