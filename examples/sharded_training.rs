//! Sharded-training scenario: one FSDP step on the multi-tree embedding.
//!
//! Fully-sharded data parallelism never materializes the whole model on
//! one node: each step reduce-scatters the gradients (every shard owner
//! receives its reduced slice) and allgathers the updated parameters
//! (every node receives every owner's slice). Together the two halves
//! move exactly one allreduce's volume — and on the paper's spanning-tree
//! embedding each half runs as a single tree phase, reduce-up or
//! broadcast-down, at the recovered single-direction rate (see
//! `docs/COLLECTIVES.md`).
//!
//! This example prices one FSDP step on a PolarFly cluster three ways:
//! the in-network collectives, the host-based ring pair on the same
//! fabric, and the classical DDP-style allreduce for reference.
//!
//! ```text
//! cargo run --release --example sharded_training -- [q] [shard_elems]
//! ```

use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::hostbased::{
    ring_allgather_time, ring_allreduce_time, ring_reduce_scatter_time, HostParams,
};
use pf_simnet::routing::Routing;
use pf_simnet::{MultiTreeEmbedding, SimConfig, SimReport, Simulator, Workload};

fn run(plan: &AllreducePlan, m: u64, kind: Collective) -> SimReport {
    let cfg = SimConfig::default();
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    let r = Simulator::new(&plan.graph, &emb, cfg).run_jobs_collective(&w, &[], kind).report;
    assert!(r.completed && r.mismatches == 0, "{} must validate", kind.name());
    r
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let q: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(11);
    let m: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(250_000);

    let plan = AllreducePlan::low_depth(q).expect("odd prime power");
    let n = plan.graph.num_vertices();
    let cfg = SimConfig::default();
    let hop = cfg.link_latency as u64;
    println!("== One FSDP step on PolarFly q = {q} ({n} nodes, {m} elements) ==\n");

    // In-network: reduce-scatter the gradients, allgather the parameters.
    let rs = run(&plan, m, Collective::ReduceScatter);
    let ag = run(&plan, m, Collective::Allgather);
    let ar = run(&plan, m, Collective::Allreduce);
    let step = rs.cycles + ag.cycles;
    println!("in-network multi-tree ({} trees, depth {}):", plan.trees.len(), plan.depth);
    println!(
        "  reduce-scatter {:>9} cycles (model {:>9})",
        rs.cycles,
        plan.predicted_reduce_scatter_cycles(m, hop)
    );
    println!(
        "  allgather      {:>9} cycles (model {:>9})",
        ag.cycles,
        plan.predicted_allgather_cycles(m, hop)
    );
    println!("  FSDP step      {:>9} cycles", step);
    println!(
        "  (DDP-style allreduce of the same vector: {} cycles — the \
         rs/ag pair pays one extra pipeline fill)",
        ar.cycles
    );

    // Host-based rings on the same fabric: each round sends one chunk
    // around the ring over multi-hop routed paths.
    let routing = Routing::new(&plan.graph);
    let hp = HostParams { hop_latency: hop, phase_overhead: 0 };
    let ring_rs = ring_reduce_scatter_time(&plan.graph, &routing, m, hp);
    let ring_ag = ring_allgather_time(&plan.graph, &routing, m, hp);
    let ring_ar = ring_allreduce_time(&plan.graph, &routing, m, hp);
    assert_eq!(ring_rs + ring_ag, ring_ar, "ring halves compose exactly");
    println!("\nhost-based rings ({} ranks):", n);
    println!("  reduce-scatter {ring_rs:>9} cycles");
    println!("  allgather      {ring_ag:>9} cycles");
    println!("  FSDP step      {ring_ar:>9} cycles");

    println!(
        "\nin-network speedup: {:.1}x per step ({:.1}x on the reduce-scatter half)",
        ring_ar as f64 / step as f64,
        ring_rs as f64 / rs.cycles as f64
    );
}
