//! Experiment driver: one subcommand per paper table/figure.
//!
//! ```text
//! cargo run --release -p pf-bench --bin experiments -- <command> [--max-q Q]
//! ```
//!
//! The subcommands and their one-line descriptions are the `COMMANDS`
//! table below; an unknown command prints it, and `all` runs it in order.

use pf_bench::{faults, sims, sweeps, tables};
use std::path::PathBuf;

// Count heap allocations so perf-snapshot can report the optimized
// engine's allocation-free hot loop next to the reference stepper's
// per-fire churn.
#[global_allocator]
static ALLOC: pf_bench::perf_snapshot::CountingAllocator =
    pf_bench::perf_snapshot::CountingAllocator;

/// Every subcommand with its help line, in the order `all` runs them.
const COMMANDS: [(&str, &str); 34] = [
    ("table1", "Table 1 census (vertex classes)"),
    ("fig1", "Figure 1 layout statistics (q = 11)"),
    ("fig2", "Figure 2 Singer difference sets (q = 3, 4)"),
    ("table2", "Table 2 non-Hamiltonian paths on S_4"),
    ("fig4", "Figure 4 edge-disjoint Hamiltonian sets (q = 3, 4)"),
    ("fig5a", "Figure 5a normalized bandwidth sweep"),
    ("fig5b", "Figure 5b tree depth sweep"),
    ("disjoint-sweep", "§7.3 random-search sweep (--exact for branch & bound)"),
    ("totient", "Corollary 7.20 path-count check"),
    ("sim-bandwidth", "SIM1 simulated vs analytic bandwidth"),
    ("sim-crossover", "SIM2 latency/bandwidth crossover vs host-based baselines"),
    ("sim-trace", "traced runs: measured link congestion vs theory"),
    ("sim-split", "ablation: optimal vs equal sub-vector split"),
    ("sim-buffers", "ablation: VC buffer depth vs throughput"),
    ("sim-latency", "measured first-element latency vs 2·depth·latency"),
    ("sim-hostbased", "host-based baselines: flit-level vs α–β model"),
    ("sim-collectives", "allreduce vs reduce, broadcast, reduce-scatter, allgather"),
    ("ablation-naive", "structured trees vs random BFS and greedy peeling"),
    ("ablation-logical", "embedded trees vs SHARP-style logical trees"),
    ("vc-report", "router VC requirements per solution"),
    ("sim-injection", "ablation: node injection rate vs aggregate bandwidth"),
    ("sim-faults", "fault injection: bandwidth vs failed links (recovery)"),
    ("perf-snapshot", "engine throughput vs the reference stepper -> BENCH_simnet.json"),
    ("sched-sweep", "multi-tenant offered-load sweep -> BENCH_sched.json"),
    ("fabric-sweep", "fabric-manager throughput sweep + soak -> BENCH_fabric.json"),
    ("capacity", "fleet x construction x policy planner -> BENCH_capacity.json"),
    ("collectives", "sharded-training collectives vs host rings -> BENCH_collectives.json"),
    ("evenq-search", "even-q low-depth search (the variant the paper omits)"),
    ("topo-compare", "constructions × substrates: trees, depth, rate gap (--full)"),
    ("torus-compare", "§1.2 in-network PolarFly vs multiported torus"),
    ("starters", "starter-quadric sensitivity of Algorithm 3"),
    ("metrics", "§1.3 topology metrics table"),
    ("dot", "Graphviz DOT figures -> figures/"),
    ("csv", "CSV series and trace dumps -> results/"),
];

/// `all` skips the wall-clock snapshot: it measures this host, not the
/// model, and rewrites the committed `BENCH_simnet.json`.
const NOT_IN_ALL: &str = "perf-snapshot";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let flag = |name: &str| args.iter().any(|a| a == name);
    // The argument after flag `name`, if any.
    let value = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let opt_u64 =
        |name: &str, default: u64| value(name).and_then(|v| v.parse().ok()).unwrap_or(default);
    // Output file (or directory) of the commands that write one.
    let out = |default: &str| PathBuf::from(value("--out").map_or(default, String::as_str));
    // Sweep ceiling: the paper uses q in [3, 128]; trim with --max-q for a
    // quick run.
    let max_q = opt_u64("--max-q", 128);
    let sim_qs: Vec<u64> = [5u64, 7, 9, 11, 13].into_iter().filter(|&q| q <= max_q).collect();

    let run = |c: &str| match c {
        "table1" => tables::print_table1(
            &pf_galois::prime_powers_in(3, max_q.min(31))
                .into_iter()
                .filter(|q| q % 2 == 1)
                .collect::<Vec<_>>(),
        ),
        "fig1" => tables::print_fig1(11.min(max_q).max(3) | 1),
        "fig2" => tables::print_fig2(),
        "table2" => tables::print_table2(),
        "fig4" => tables::print_fig4(),
        "fig5a" => sweeps::print_fig5a(3, max_q),
        "fig5b" => sweeps::print_fig5b(3, max_q),
        "disjoint-sweep" => sweeps::print_disjoint_sweep(3, max_q, flag("--exact")),
        "totient" => sweeps::print_totient(3, max_q),
        "sim-bandwidth" => sims::print_sim_bandwidth(&sim_qs, opt_u64("--m", 40_000)),
        "sim-crossover" => sims::print_sim_crossover(
            11.min(max_q).max(3) | 1,
            &[1, 16, 256, 1024, 4096, 16_384, 65_536, 262_144],
        ),
        "sim-trace" => sims::print_sim_trace(&sim_qs, opt_u64("--m", 20_000)),
        "sim-split" => sims::print_sim_split(7, opt_u64("--m", 20_000)),
        "sim-buffers" => sims::print_sim_buffers(7, opt_u64("--m", 20_000)),
        "sim-latency" => sims::print_sim_latency(&sim_qs),
        "sim-hostbased" => sims::print_sim_hostbased(7, &[64, 1024, 16_384, 131_072]),
        "sim-collectives" => sims::print_sim_collectives(7, opt_u64("--m", 20_000)),
        "ablation-naive" => sims::print_ablation_naive(&sim_qs),
        "ablation-logical" => sims::print_ablation_logical(&sim_qs),
        "vc-report" => sims::print_vc_report(&sim_qs),
        "sim-injection" => sims::print_sim_injection(7, opt_u64("--m", 20_000)),
        "sim-faults" => faults::print_sim_faults(
            &[3u64, 7, 11].into_iter().filter(|&q| q <= max_q).collect::<Vec<_>>(),
            opt_u64("--m", 4_000),
        ),
        "perf-snapshot" => {
            let opts = pf_bench::perf_snapshot::SnapshotOptions {
                scaling: flag("--scaling"),
                gate: flag("--gate"),
                max_q,
            };
            if let Err(e) = pf_bench::perf_snapshot::print_perf_snapshot(
                &sim_qs,
                opt_u64("--m", 4_000),
                &out("BENCH_simnet.json"),
                &opts,
            ) {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        "collectives" => pf_bench::collectives::print_collectives(
            &sim_qs,
            opt_u64("--m", 4_000),
            &out("BENCH_collectives.json"),
        ),
        "sched-sweep" => pf_bench::sched_sweep::print_sched_sweep(
            opt_u64("--q", 11.min(max_q).max(3) | 1),
            opt_u64("--jobs", 60) as u32,
            opt_u64("--seed", 2026),
            &out("BENCH_sched.json"),
        ),
        "fabric-sweep" => pf_bench::fabric_sweep::print_fabric_sweep(
            opt_u64("--q", 7.min(max_q).max(3) | 1),
            opt_u64("--jobs", 400) as usize,
            opt_u64("--soak", 1_000_000) as usize,
            opt_u64("--seed", 2026),
            &out("BENCH_fabric.json"),
        ),
        "capacity" => {
            let defaults = pf_bench::capacity::CapacityParams::default();
            let p = pf_bench::capacity::CapacityParams {
                fleet_min: opt_u64("--fleet-min", defaults.fleet_min as u64) as u32,
                fleet_max: opt_u64("--fleet-max", defaults.fleet_max as u64) as u32,
                fault_budget: opt_u64("--faults", defaults.fault_budget as u64) as u32,
                jobs: opt_u64("--jobs", defaults.jobs as u64) as u32,
                seed: opt_u64("--seed", defaults.seed),
            };
            pf_bench::capacity::print_capacity(&p, &out("BENCH_capacity.json"));
        }
        "evenq-search" => sims::print_evenq_search(opt_u64("--attempts", 500) as usize),
        "topo-compare" => pf_bench::topo_compare::print_topo_compare(flag("--full")),
        "torus-compare" => sims::print_torus_compare(opt_u64("--m", 200_000)),
        "starters" => sims::print_starters(opt_u64("--q", 11)),
        "metrics" => sweeps::print_metrics(&pf_galois::prime_powers_in(3, max_q.min(32))),
        "csv" => {
            let dir = out("results");
            let written = pf_bench::csv::write_all(&dir, max_q.min(32)).expect("write csv");
            println!("wrote {} CSV series to {}/:", written.len(), dir.display());
            for p in written {
                println!("  {}", p.display());
            }
        }
        "dot" => {
            let dir = out("figures");
            let written = pf_bench::figures::write_figures(&dir).expect("write figures");
            println!("wrote {} DOT figures to {}/:", written.len(), dir.display());
            for p in written {
                println!("  {}", p.display());
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!("commands:");
            for (name, help) in COMMANDS {
                eprintln!("  {name:<16} {help}");
            }
            eprintln!("  {:<16} every command above but {NOT_IN_ALL}", "all");
            std::process::exit(2);
        }
    };

    if cmd == "all" {
        for (name, _) in COMMANDS.into_iter().filter(|&(name, _)| name != NOT_IN_ALL) {
            run(name);
        }
    } else {
        run(cmd);
    }
}
