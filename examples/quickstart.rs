//! Quickstart: build both of the paper's allreduce solutions for one
//! PolarFly, inspect their guarantees, and run one simulated allreduce.
//!
//! ```text
//! cargo run --release --example quickstart -- [q] [--trace]
//! ```
//!
//! With `--trace` the run also collects per-link counters and prints the
//! measured-vs-theory congestion table documented in
//! `docs/OBSERVABILITY.md`.

use pf_allreduce::AllreducePlan;
use pf_simnet::stats::{congestion_vs_bound, stall_summary};
use pf_simnet::{
    Collective, MultiTreeEmbedding, RunReport, SimConfig, Simulator, TraceConfig, Workload,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_on = args.iter().any(|a| a == "--trace");
    let q: u64 = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    println!("PolarFly ER_{q}: {} routers of radix {}", q * q + q + 1, q + 1);
    println!(
        "optimal allreduce bandwidth (Corollary 7.1): {} x link bandwidth\n",
        pf_allreduce::rate::polarfly_bound(q)
    );

    // --- Solution 1: low-depth trees (Algorithm 3) ---
    match AllreducePlan::low_depth(q) {
        Ok(plan) => {
            println!("low-depth solution (§7.1):");
            println!(
                "  trees: {} | depth: {} | max link congestion: {}",
                plan.trees.len(),
                plan.depth,
                plan.max_congestion
            );
            println!(
                "  aggregate bandwidth: {} ({} of optimal)\n",
                plan.aggregate,
                plan.normalized_bandwidth().expect("PolarFly plan")
            );
        }
        Err(e) => println!("low-depth solution unavailable: {e}\n"),
    }

    // --- Solution 2: edge-disjoint Hamiltonian trees (§7.2) ---
    let plan = AllreducePlan::edge_disjoint(q, 30, 42).expect("prime power radix");
    println!("edge-disjoint Hamiltonian solution (§7.2):");
    println!(
        "  trees: {} | depth: {} | max link congestion: {}",
        plan.trees.len(),
        plan.depth,
        plan.max_congestion
    );
    println!(
        "  aggregate bandwidth: {} ({} of optimal)\n",
        plan.aggregate,
        plan.normalized_bandwidth().expect("PolarFly plan")
    );

    // --- Execute one allreduce on the cycle-level simulator ---
    let m = 10_000;
    let cfg = SimConfig::default();
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let workload = Workload::new(plan.graph.num_vertices(), m);
    let tcfg = if trace_on { TraceConfig::counters() } else { TraceConfig::off() };
    let RunReport { report, trace, .. } = Simulator::new(&plan.graph, &emb, cfg)
        .with_trace(tcfg)
        .run_jobs_collective(&workload, &[], Collective::Allreduce);

    println!("simulated allreduce of {m} elements:");
    println!("  completed: {} | wrong elements: {}", report.completed, report.mismatches);
    println!(
        "  cycles: {} | measured bandwidth: {:.2} elements/cycle (predicted {})",
        report.cycles, report.measured_bandwidth, plan.aggregate
    );
    assert!(report.completed && report.mismatches == 0);

    // --- Congestion vs theory (only with --trace) ---
    let Some(trace) = trace else {
        println!("\n(re-run with --trace for the measured-vs-theory congestion table)");
        return;
    };
    let cong = congestion_vs_bound(&trace, plan.max_congestion);
    println!("\nmeasured vs theoretical per-link congestion (docs/OBSERVABILITY.md):");
    println!("  {:>22} {:>9} {:>9}", "", "measured", "theory");
    println!(
        "  {:>22} {:>9} {:>9}",
        "max link congestion", cong.max_measured, plan.max_congestion
    );
    for level in 0..=plan.max_congestion {
        let measured = cong.measured.iter().filter(|&&c| c == level).count();
        let theory = plan.edge_congestion.iter().filter(|&&c| c == level).count();
        println!("  {:>22} {measured:>9} {theory:>9}", format!("links at congestion {level}"));
    }
    assert!(cong.within_bound, "simulated congestion exceeded the Theorem 7.6/7.19 bound");

    let predicted = plan.predicted_cycles(m, cfg.link_latency as u64);
    let stalls = stall_summary(&trace);
    println!("\nwhy measured bandwidth sits below the predicted aggregate:");
    println!(
        "  predicted cycles (pipeline fill + drain): {predicted} | measured: {}",
        report.cycles
    );
    println!(
        "  fill = 2*depth*L + 1 = {} cycles before the first element lands; the drain",
        2 * plan.depth as u64 * cfg.link_latency as u64 + 1
    );
    println!(
        "  streams at the full {} el/cycle (active channels {:.1}% busy, {:.1}% credit-stalled)",
        plan.aggregate,
        100.0 * stalls.busy_fraction,
        100.0 * stalls.credit_stall_cycles as f64
            / (stalls.busy_cycles + stalls.credit_stall_cycles + stalls.idle_cycles).max(1) as f64
    );
}
