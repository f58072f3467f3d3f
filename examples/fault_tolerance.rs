//! Fault tolerance: kill links mid-allreduce, watch the detect →
//! rebuild → re-run loop finish the collective, and quantify the cost.
//!
//! ```text
//! cargo run --release --example fault_tolerance -- [q] [k] [--router]
//! ```
//!
//! Injects `k` random permanent link faults (default 2) into `ER_q`
//! (default q = 7) at a random cycle of the low-depth allreduce, or one
//! random router fault with `--router`. The fault model, timeout/retry
//! detection and degraded-plan rebuild are documented in
//! `docs/FAULTS.md`.

use pf_allreduce::AllreducePlan;
use pf_simnet::{run_with_recovery, Collective, FaultSchedule, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let router_fault = args.iter().any(|a| a == "--router");
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let q: u64 = positional.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let k: usize = positional.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let m = 4000;
    let seed = 0xFA017;

    let plan = AllreducePlan::low_depth(q).expect("q must be an odd prime power");
    println!(
        "PolarFly ER_{q}: {} routers, {} links, {} low-depth trees (congestion <= {})",
        plan.graph.num_vertices(),
        plan.graph.num_edges(),
        plan.trees.len(),
        plan.max_congestion
    );

    let schedule = if router_fault {
        println!("injecting: 1 random router fault (seed {seed:#x})\n");
        FaultSchedule::random_router(&plan.graph, 20, 200, seed)
    } else {
        println!("injecting: {k} random permanent link fault(s) (seed {seed:#x})\n");
        FaultSchedule::random_links(&plan.graph, k, 20, 200, seed)
    };

    let out = run_with_recovery(&plan, m, SimConfig::default(), &schedule, Collective::Allreduce)
        .expect("recovery completes unless the faults partition the network");

    // --- Round-by-round: abort on detection, rebuild, retry ---
    for (i, round) in out.rounds.iter().enumerate() {
        let r = &round.report;
        let status = if r.completed { "completed" } else { "aborted on detection" };
        println!(
            "round {i}: {status} after {} cycles (retries {}, detected links {:?}, routers {:?})",
            r.cycles, round.faults.retries, round.newly_detected.edges, round.newly_detected.routers
        );
    }

    let last = out.final_report();
    assert!(last.completed && last.mismatches == 0);
    println!("\nallreduce of {m} elements finished correctly after {} attempt(s)", out.rounds.len());

    // --- The degraded plan, and what the faults cost ---
    match &out.degraded {
        None => println!("no used link failed: the healthy plan ran to completion"),
        Some(d) => {
            let (intact, repaired) = (d.intact(), d.repaired());
            println!(
                "degraded plan: {} trees ({intact} intact, {repaired} repaired, {} dropped)",
                d.trees.len(),
                d.dropped
            );
            println!(
                "  depth {} (healthy {}) | max link congestion {} <= bound {}",
                d.depth, plan.depth, d.max_congestion, d.congestion_bound
            );
            println!(
                "  Algorithm 1 aggregate: {} vs healthy {} -> {:.1}% bandwidth retained",
                d.aggregate,
                d.healthy_aggregate,
                100.0 * d.bandwidth_retention().to_f64()
            );
        }
    }
    println!(
        "end-to-end: {} total cycles including detection + re-run -> {:.3} elements/cycle goodput",
        out.total_cycles,
        out.achieved_bandwidth()
    );
}
