//! The README's "Library usage" snippet, compiled and executed verbatim
//! so the front-page code can never rot.
//!
//! ```text
//! cargo run --release --example readme
//! ```

use pf_allreduce::AllreducePlan;
use pf_simnet::{Collective, MultiTreeEmbedding, SimConfig, Simulator, TraceConfig, Workload};

fn main() {
    let plan = AllreducePlan::edge_disjoint(11, 30, 42).unwrap();
    assert_eq!(plan.trees.len(), 6); // floor((q+1)/2), the optimum
    assert_eq!(plan.max_congestion, 1); // edge-disjoint

    let m = 100_000; // vector elements
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(m));
    let w = Workload::new(plan.graph.num_vertices(), m);
    let report = Simulator::new(&plan.graph, &emb, SimConfig::default()).run(&w);
    assert_eq!(report.mismatches, 0); // numerically exact allreduce

    // `run` is the allreduce shorthand. Every other variant (collective kind,
    // tracing, fault injection, concurrent jobs) is a setting of the one
    // general entry point, which returns report, trace, faults and jobs.
    let rs = Simulator::new(&plan.graph, &emb, SimConfig::default())
        .with_trace(TraceConfig::counters())
        .run_jobs_collective(&w, &[], Collective::ReduceScatter);
    assert!(rs.report.completed && rs.trace.is_some());

    println!(
        "q = 11 edge-disjoint allreduce of {m} elements: {} cycles, {:.2} el/cycle",
        report.cycles, report.measured_bandwidth
    );
}
