//! Distributed-training scenario: bandwidth-bound gradient allreduce.
//!
//! Data-parallel training allreduces a gradient the size of the model every
//! step (the paper's motivating ML workload, §1). This example sizes a
//! PolarFly cluster, compares the paper's two tree sets and the classical
//! host-based algorithms on a large gradient, and reports the effective
//! step-time improvement of multi-tree in-network reduction.
//!
//! ```text
//! cargo run --release --example ml_training -- [q] [gradient_elems] [--trace]
//! ```
//!
//! With `--trace` each in-network run also reports its measured per-link
//! congestion against the paper's theoretical bound and the pipeline-model
//! predicted step time (see `docs/OBSERVABILITY.md`).

use pf_allreduce::AllreducePlan;
use pf_simnet::hostbased::{self, price, HostParams};
use pf_simnet::routing::Routing;
use pf_simnet::stats::congestion_vs_bound;
use pf_simnet::{
    Collective, MultiTreeEmbedding, RunReport, SimConfig, Simulator, TraceConfig, Workload,
};

fn simulate(plan: &AllreducePlan, m: u64, trace_on: bool) -> (u64, f64) {
    let cfg = SimConfig::default();
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    let tcfg = if trace_on { TraceConfig::counters() } else { TraceConfig::off() };
    let RunReport { report: r, trace, .. } = Simulator::new(&plan.graph, &emb, cfg)
        .with_trace(tcfg)
        .run_jobs_collective(&w, &[], Collective::Allreduce);
    assert!(r.completed && r.mismatches == 0, "simulation must validate");
    if let Some(trace) = trace {
        let cong = congestion_vs_bound(&trace, plan.max_congestion);
        let predicted = plan.predicted_cycles(m, cfg.link_latency as u64);
        println!(
            "  [trace {:>13}] link congestion {} (bound {}, {}) | predicted {} cycles, measured {}",
            plan.solution.label(),
            cong.max_measured,
            plan.max_congestion,
            if cong.within_bound { "ok" } else { "EXCEEDED" },
            predicted,
            r.cycles
        );
        assert!(cong.within_bound, "simulated congestion exceeded the theoretical bound");
    }
    (r.cycles, r.measured_bandwidth)
}

fn main() {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let trace_on = all.iter().any(|a| a == "--trace");
    let mut args = all.iter().filter(|a| !a.starts_with("--"));
    let q: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);
    let m: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let n = q * q + q + 1;

    println!("== gradient allreduce on PolarFly ER_{q} ({n} nodes, radix {}) ==", q + 1);
    println!("gradient size: {m} elements (one element = one link-flit)\n");

    let ham = AllreducePlan::edge_disjoint(q, 30, 0xA11).unwrap();
    let single = AllreducePlan::single_tree(q).unwrap();

    let (ham_cycles, ham_bw) = simulate(&ham, m, trace_on);
    println!(
        "edge-disjoint trees ({}): {:>9} cycles   {:.2} el/cy",
        ham.trees.len(),
        ham_cycles,
        ham_bw
    );
    if let Ok(low) = AllreducePlan::low_depth(q) {
        let (c, bw) = simulate(&low, m, trace_on);
        println!("low-depth trees     ({}): {:>9} cycles   {:.2} el/cy", low.trees.len(), c, bw);
    }
    let (single_cycles, single_bw) = simulate(&single, m, trace_on);
    println!("single tree          (1): {:>9} cycles   {:.2} el/cy", single_cycles, single_bw);

    let routing = Routing::new(&single.graph);
    let hp = HostParams::default();
    let n_ranks = single.graph.num_vertices();
    let host = |s| price(&single.graph, &routing, &s, hp).total;
    let ring = host(hostbased::ring(n_ranks, m, 2));
    println!("\nhost-based baselines (phase model, per-round software overhead {}):", hp.phase_overhead);
    println!("ring allreduce          : {:>9} cycles", ring);
    println!("recursive doubling      : {:>9} cycles", host(hostbased::recursive_doubling(n_ranks, m)));
    println!("rabenseifner            : {:>9} cycles", host(hostbased::rabenseifner(n_ranks, m)));

    println!(
        "\nmulti-tree speedup over single in-network tree: {:.2}x (theory: {})",
        single_cycles as f64 / ham_cycles as f64,
        ham.aggregate
    );
    println!(
        "multi-tree speedup over ring allreduce:         {:.2}x",
        ring as f64 / ham_cycles as f64
    );
}
