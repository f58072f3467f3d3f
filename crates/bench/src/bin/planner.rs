//! `planner` — a user-facing CLI for sizing in-network allreduce on
//! PolarFly.
//!
//! ```text
//! cargo run --release -p pf-bench --bin planner -- \
//!     --q 11 --solution edge-disjoint --m 1000000 [--simulate] [--hop-latency 4]
//! ```
//!
//! Prints the tree set's guarantees, the Theorem 5.1 sub-vector split and
//! predicted time; `--simulate` additionally executes the plan on the
//! cycle-level simulator and reports measured numbers.

use pf_allreduce::{AllreducePlan, Rational};
use pf_simnet::{MultiTreeEmbedding, SimConfig, Simulator, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: planner --q <prime power> [--solution low-depth|edge-disjoint|single-tree]\n\
         \x20              [--m <elements>] [--hop-latency <cycles>] [--simulate]\n\
         \x20              [--attempts <n>] [--seed <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let get_u64 = |name: &str, default: u64| {
        get(name).map(|v| v.parse().unwrap_or_else(|_| usage())).unwrap_or(default)
    };
    let q = match get("--q") {
        Some(v) => v.parse::<u64>().unwrap_or_else(|_| usage()),
        None => usage(),
    };
    if pf_galois::prime_power(q).is_none() {
        eprintln!("error: q = {q} is not a prime power.");
        eprintln!("feasible radixes up to 128: {:?}", pf_galois::prime_powers_in(3, 128));
        std::process::exit(2);
    }
    let solution = get("--solution").unwrap_or_else(|| "edge-disjoint".into());
    let m = get_u64("--m", 1_000_000);
    let hop = get_u64("--hop-latency", 4);
    let attempts = get_u64("--attempts", 30) as usize;
    let seed = get_u64("--seed", 42);
    let simulate = args.iter().any(|a| a == "--simulate");

    let plan = match solution.as_str() {
        "low-depth" => AllreducePlan::low_depth(q),
        "edge-disjoint" => AllreducePlan::edge_disjoint(q, attempts, seed),
        "single-tree" => AllreducePlan::single_tree(q),
        _ => usage(),
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!("PolarFly ER_{q}: {} routers, radix {}", plan.num_nodes(), q + 1);
    println!("solution: {}", plan.solution.label());
    println!("  trees:           {}", plan.trees.len());
    println!("  max depth:       {}", plan.depth);
    println!("  max congestion:  {}", plan.max_congestion);
    println!(
        "  aggregate bandwidth: {} x link ({} of the (q+1)/2 optimum)",
        plan.aggregate,
        plan.normalized_bandwidth().expect("PolarFly plan")
    );

    let sizes = plan.split(m);
    println!("\nvector: {m} elements, optimal split across trees: {sizes:?}");
    let t = plan.predicted_time(m, Rational::from_int(hop as i64));
    println!(
        "predicted allreduce time (Theorem 5.1, hop latency {hop}): {} cycles ({:.3} el/cy)",
        t,
        m as f64 / t.to_f64()
    );

    if simulate {
        let cfg = SimConfig { link_latency: hop as u32, ..SimConfig::default() };
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        println!("\nsimulating ({} streams, VC buffer {} flits)...", emb.streams().len(), cfg.vc_buffer);
        let r = Simulator::new(&plan.graph, &emb, cfg).run(&w);
        println!("  completed:          {}", r.completed);
        println!("  wrong elements:     {}", r.mismatches);
        println!("  cycles:             {}", r.cycles);
        println!("  measured bandwidth: {:.3} elements/cycle", r.measured_bandwidth);
        println!("  first-element latency: {} cycles", r.first_element_latency);
        let per_tree = pf_simnet::stats::per_tree_bandwidth(&r, &sizes);
        println!(
            "  per-tree bandwidth: {:?}",
            per_tree.iter().map(|b| (b * 1000.0).round() / 1000.0).collect::<Vec<_>>()
        );
        let util = pf_simnet::stats::utilization_summary(&r);
        println!(
            "  link utilization: {}/{} channels active, mean {:.1}%, peak {:.1}%",
            util.active_channels,
            util.total_channels,
            100.0 * util.mean_active,
            100.0 * util.max
        );
        let vc = emb.vc_requirements();
        println!(
            "  router resources: {} VC(s)/channel, {} reduction engine(s)/port",
            vc.total_vcs_per_channel, vc.reduce_vcs_per_channel
        );
        if !r.completed || r.mismatches > 0 {
            std::process::exit(1);
        }
    }
}
