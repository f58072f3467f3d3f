//! Simulation experiments: validating the analytic model on an executing
//! system, the latency/bandwidth crossover, and the design-choice
//! ablations called out in DESIGN.md.

use pf_allreduce::{AllreducePlan, Rational};
use pf_simnet::hostbased::{self, HostParams};
use pf_simnet::routing::Routing;
use pf_simnet::{
    Collective, MultiTreeEmbedding, SimConfig, SimReport, Simulator, TraceConfig, TraceReport,
    Workload,
};

/// Runs one plan through the cycle-level simulator.
pub fn simulate_plan(plan: &AllreducePlan, m: u64, cfg: SimConfig) -> SimReport {
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    Simulator::new(&plan.graph, &emb, cfg).run(&w)
}

/// Runs one plan with per-link counter tracing enabled
/// (`docs/OBSERVABILITY.md`).
pub fn simulate_plan_traced(plan: &AllreducePlan, m: u64, cfg: SimConfig) -> (SimReport, TraceReport) {
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    let run = Simulator::new(&plan.graph, &emb, cfg)
        .with_trace(TraceConfig::counters())
        .run_jobs_collective(&w, &[], Collective::Allreduce);
    (run.report, run.trace.expect("tracing was enabled"))
}

/// SIM1: measured vs Algorithm 1-predicted aggregate bandwidth.
pub fn print_sim_bandwidth(qs: &[u64], m: u64) {
    crate::print_header("SIM1: simulated vs analytic aggregate bandwidth (elements/cycle)");
    println!(
        "{:>4} {:>14} {:>10} {:>10} {:>8} {:>8} {:>9}",
        "q", "solution", "predicted", "measured", "ratio", "cycles", "checked"
    );
    for &q in qs {
        let mut plans = vec![
            AllreducePlan::edge_disjoint(q, 30, 0x51A1 ^ q).unwrap(),
            AllreducePlan::single_tree(q).unwrap(),
        ];
        if q % 2 == 1 {
            plans.insert(0, AllreducePlan::low_depth(q).unwrap());
        }
        for plan in &plans {
            let r = simulate_plan(plan, m, SimConfig::default());
            assert!(r.completed && r.mismatches == 0, "q={q} {}", plan.solution.label());
            let pred = plan.aggregate.to_f64();
            println!(
                "{:>4} {:>14} {:>10.3} {:>10.3} {:>8.3} {:>8} {:>9}",
                q,
                plan.solution.label(),
                pred,
                r.measured_bandwidth,
                r.measured_bandwidth / pred,
                r.cycles,
                "exact"
            );
        }
    }
    println!("(ratio < 1 reflects pipeline fill: deep Hamiltonian trees pay (N-1) hops before streaming)");
}

/// SIM: the observability cross-check — measured per-link congestion vs
/// the Theorem 7.6/7.19 bounds, pipeline-model predicted cycles vs
/// measured, and where the channel-cycles went.
pub fn print_sim_trace(qs: &[u64], m: u64) {
    use pf_simnet::stats::{congestion_vs_bound, stall_summary};
    crate::print_header("SIM: traced runs — measured link congestion vs theory (Theorems 7.6/7.19)");
    println!(
        "{:>4} {:>14} {:>8} {:>6} {:>6} {:>10} {:>10} {:>7} {:>7}",
        "q", "solution", "maxcong", "bound", "ok", "predicted", "measured", "busy%", "stall%"
    );
    let cfg = SimConfig::default();
    for &q in qs {
        let mut plans = vec![AllreducePlan::edge_disjoint(q, 30, 0x7ACE ^ q).unwrap()];
        if q % 2 == 1 {
            plans.insert(0, AllreducePlan::low_depth(q).unwrap());
        }
        for plan in &plans {
            let (r, trace) = simulate_plan_traced(plan, m, cfg);
            assert!(r.completed && r.mismatches == 0, "q={q} {}", plan.solution.label());
            let cong = congestion_vs_bound(&trace, plan.max_congestion);
            let stalls = stall_summary(&trace);
            let accounted =
                (stalls.busy_cycles + stalls.credit_stall_cycles + stalls.idle_cycles).max(1);
            println!(
                "{:>4} {:>14} {:>8} {:>6} {:>6} {:>10} {:>10} {:>6.1}% {:>6.1}%",
                q,
                plan.solution.label(),
                cong.max_measured,
                plan.max_congestion,
                if cong.within_bound { "yes" } else { "NO" },
                plan.predicted_cycles(m, cfg.link_latency as u64),
                r.cycles,
                100.0 * stalls.busy_fraction,
                100.0 * stalls.credit_stall_cycles as f64 / accounted as f64
            );
            assert!(cong.within_bound, "q={q}: measured congestion above the theoretical bound");
        }
    }
    println!("(no simulated link ever carries more concurrent streams than the paper's bound;");
    println!(" the fill+drain pipeline model predicts the measured cycle count to ~1 cycle)");
}

/// SIM2 row: times for every scheme at one message size.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    pub m: u64,
    pub low_depth: Option<u64>,
    pub edge_disjoint: u64,
    pub single_tree: u64,
    pub ring: u64,
    pub recursive_doubling: u64,
    pub rabenseifner: u64,
    pub blueconnect: u64,
}

/// SIM2: in-network (simulated) vs host-based (phase model) across message
/// sizes — the latency/bandwidth crossover and the §8 "order of magnitude"
/// claim.
pub fn crossover_rows(q: u64, ms: &[u64]) -> Vec<CrossoverRow> {
    let low = (q % 2 == 1).then(|| AllreducePlan::low_depth(q).unwrap());
    let ham = AllreducePlan::edge_disjoint(q, 30, 0xC0DE ^ q).unwrap();
    let single = AllreducePlan::single_tree(q).unwrap();
    let routing = Routing::new(&single.graph);
    let n = single.graph.num_vertices();
    let model = |s| hostbased::price(&single.graph, &routing, &s, HostParams::default()).total;
    let cfg = SimConfig::default();

    ms.iter()
        .map(|&m| {
            let ld = low.as_ref().map(|p| {
                let r = simulate_plan(p, m, cfg);
                assert!(r.completed && r.mismatches == 0);
                r.cycles
            });
            let ed = {
                let r = simulate_plan(&ham, m, cfg);
                assert!(r.completed && r.mismatches == 0);
                r.cycles
            };
            let st = {
                let r = simulate_plan(&single, m, cfg);
                assert!(r.completed && r.mismatches == 0);
                r.cycles
            };
            CrossoverRow {
                m,
                low_depth: ld,
                edge_disjoint: ed,
                single_tree: st,
                ring: model(hostbased::ring(n, m, 2)),
                recursive_doubling: model(hostbased::recursive_doubling(n, m)),
                rabenseifner: model(hostbased::rabenseifner(n, m)),
                blueconnect: model(hostbased::blueconnect(n, m)),
            }
        })
        .collect()
}

/// Prints SIM2.
pub fn print_sim_crossover(q: u64, ms: &[u64]) {
    crate::print_header(&format!(
        "SIM2: allreduce time (cycles) vs vector size, q = {q} (N = {})",
        q * q + q + 1
    ));
    println!(
        "{:>9} {:>11} {:>13} {:>12} {:>11} {:>11} {:>12} {:>12}",
        "m", "low-depth", "edge-disjoint", "single-tree", "ring", "rec-dbl", "rabenseifner", "blueconnect"
    );
    for r in crossover_rows(q, ms) {
        println!(
            "{:>9} {:>11} {:>13} {:>12} {:>11} {:>11} {:>12} {:>12}",
            r.m,
            r.low_depth.map_or("-".to_string(), |v| v.to_string()),
            r.edge_disjoint,
            r.single_tree,
            r.ring,
            r.recursive_doubling,
            r.rabenseifner,
            r.blueconnect
        );
    }
    println!("(small m: low-depth wins on latency; large m: multi-tree beats single-tree by ~(q+1)/2");
    println!(" and beats host-based by >10x once per-round software overhead is charged — §8)");
}

/// Ablation: Theorem 5.1 optimal split vs naive equal split.
///
/// The paper's constructions give every tree the same bandwidth, where the
/// two splits coincide (shown first). The split matters when Algorithm 1
/// assigns *unequal* bandwidths — demonstrated on a naive random-BFS
/// embedding, whose congestion is irregular.
pub fn print_sim_split(q: u64, m: u64) {
    use pf_allreduce::baselines::k_bfs_trees;
    use pf_allreduce::congestion::assign_unit_bandwidth;
    use pf_allreduce::perf::optimal_split;
    use pf_topo::PolarFly;

    crate::print_header("Ablation: optimal B_i-proportional sub-vector split vs equal split");
    let cfg = SimConfig::default();

    let plan = AllreducePlan::low_depth(q).unwrap();
    let structured = simulate_plan(&plan, m, cfg);
    println!(
        "low-depth trees (q = {q}): uniform B_i = {}, optimal split == equal split, {} cycles",
        plan.bandwidths[0], structured.cycles
    );

    // Naive embedding with irregular congestion -> unequal B_i.
    let pf = PolarFly::new(q);
    let trees = k_bfs_trees(pf.graph(), q as usize, 0x5117 ^ q);
    let a = assign_unit_bandwidth(pf.graph(), &trees);
    println!(
        "\nnaive {}-BFS embedding: per-tree B_i = {:?}",
        trees.len(),
        a.per_tree.iter().map(Rational::to_f64).collect::<Vec<_>>()
    );
    let n = pf.graph().num_vertices();
    let w = Workload::new(n, m);

    let opt_sizes = optimal_split(m, &a.per_tree);
    let emb = MultiTreeEmbedding::new(pf.graph(), &trees, &opt_sizes);
    let opt = Simulator::new(pf.graph(), &emb, cfg).run(&w);

    let t = trees.len() as u64;
    let mut eq_sizes = vec![m / t; trees.len()];
    for slot in eq_sizes.iter_mut().take((m % t) as usize) {
        *slot += 1;
    }
    let emb = MultiTreeEmbedding::new(pf.graph(), &trees, &eq_sizes);
    let eq = Simulator::new(pf.graph(), &emb, cfg).run(&w);

    assert!(opt.completed && eq.completed && opt.mismatches == 0 && eq.mismatches == 0);
    println!("optimal split: {:>8} cycles ({:.3} el/cy)", opt.cycles, opt.measured_bandwidth);
    println!("equal split:   {:>8} cycles ({:.3} el/cy)", eq.cycles, eq.measured_bandwidth);
    println!(
        "(B_i-proportional splitting is {:.2}x faster when bandwidths are unequal — Theorem 5.1)",
        eq.cycles as f64 / opt.cycles as f64
    );
}

/// Ablation: VC buffer depth vs throughput — the latency-bandwidth-product
/// memory footprint of §1.2/§5.1.
pub fn print_sim_buffers(q: u64, m: u64) {
    crate::print_header("Ablation: VC buffer depth vs throughput (latency-bandwidth product)");
    let plan = AllreducePlan::edge_disjoint(q, 30, 7).unwrap();
    println!("q = {q}, link latency = 4 cycles, m = {m}");
    println!("{:>10} {:>10} {:>12}", "buffer", "cycles", "el/cycle");
    for buf in [1usize, 2, 3, 4, 5, 6, 8, 12] {
        let cfg = SimConfig { link_latency: 4, vc_buffer: buf, ..Default::default() };
        let r = simulate_plan(&plan, m, cfg);
        assert!(r.completed && r.mismatches == 0);
        println!("{:>10} {:>10} {:>12.3}", buf, r.cycles, r.measured_bandwidth);
    }
    println!("(throughput saturates once the buffer covers the link latency: the in-network memory");
    println!(" footprint is the latency-bandwidth product per stream, as the paper argues in §1.2)");
}

/// Ablation: the paper's structured trees vs naive multi-tree embeddings
/// (§1.2's congestion argument), all evaluated through Algorithm 1.
pub fn print_ablation_naive(qs: &[u64]) {
    use pf_allreduce::baselines::k_bfs_trees;
    use pf_allreduce::congestion::assign_unit_bandwidth;
    use pf_allreduce::lowdepth::low_depth_trees;
    use pf_allreduce::{Budget, GreedyPeel, TreeConstruction};
    use pf_topo::{PolarFly, Singer};

    crate::print_header("Ablation: structured trees vs naive embeddings (Algorithm 1 bandwidth)");
    println!(
        "{:>4} {:>18} {:>7} {:>11} {:>12} {:>7}",
        "q", "embedding", "trees", "aggregate", "normalized", "maxcong"
    );
    for &q in qs {
        let opt = pf_allreduce::rate::polarfly_bound(q);
        let mut rows: Vec<(String, usize, Rational, u32)> = Vec::new();

        let pf = PolarFly::new(q);
        if q % 2 == 1 {
            let low = low_depth_trees(&pf, None).unwrap();
            let a = assign_unit_bandwidth(pf.graph(), &low.trees);
            rows.push(("low-depth (§7.1)".into(), low.trees.len(), a.aggregate(), a.max_congestion));
        }
        let s = Singer::new(q);
        let ham = pf_allreduce::disjoint::find_edge_disjoint(&s, 30, 0xAB1A ^ q);
        let a = assign_unit_bandwidth(s.graph(), &ham.trees);
        rows.push(("Hamiltonian (§7.2)".into(), ham.trees.len(), a.aggregate(), a.max_congestion));

        let naive = k_bfs_trees(pf.graph(), q as usize, 0xBAD ^ q);
        let a = assign_unit_bandwidth(pf.graph(), &naive);
        rows.push((format!("{} random BFS", q), naive.len(), a.aggregate(), a.max_congestion));

        let greedy = GreedyPeel { seed: 0x62EE ^ q }
            .build(s.graph(), &Budget::unlimited())
            .expect("Singer graphs are connected");
        let a = assign_unit_bandwidth(s.graph(), &greedy);
        rows.push(("greedy disjoint".into(), greedy.len(), a.aggregate(), a.max_congestion));

        for (name, k, agg, cong) in rows {
            println!(
                "{:>4} {:>18} {:>7} {:>11} {:>12.4} {:>7}",
                q,
                name,
                k,
                agg.to_string(),
                (agg / opt).to_f64(),
                cong
            );
        }
    }
    println!("(naive BFS trees congest heavily — the §1.2 motivation for careful embedding)");
}

/// Measured first-element latency vs analytic 2·depth·latency — Figure 5b
/// validated on the executing system.
pub fn print_sim_latency(qs: &[u64]) {
    crate::print_header("SIM: first-element latency (cycles) vs tree depth (Figure 5b, executed)");
    println!(
        "{:>4} {:>14} {:>7} {:>12} {:>14}",
        "q", "solution", "depth", "measured", "2*depth*L + 1"
    );
    let cfg = SimConfig::default();
    for &q in qs {
        let mut plans = vec![AllreducePlan::edge_disjoint(q, 30, 5).unwrap()];
        if q % 2 == 1 {
            plans.insert(0, AllreducePlan::low_depth(q).unwrap());
        }
        for plan in &plans {
            // One element per tree keeps the pipeline out of the picture.
            let m = plan.trees.len() as u64;
            let r = simulate_plan(plan, m, cfg);
            assert!(r.completed && r.mismatches == 0);
            let analytic = 2 * plan.depth as u64 * cfg.link_latency as u64 + 1;
            println!(
                "{:>4} {:>14} {:>7} {:>12} {:>14}",
                q,
                plan.solution.label(),
                plan.depth,
                r.first_element_latency,
                analytic
            );
        }
    }
    println!("(reduction climbs depth hops, broadcast descends depth hops, plus the first compute cycle)");
}

/// Starter-quadric sensitivity: Algorithm 3's guarantees hold for every
/// starter choice; the aggregate bandwidth is starter-invariant.
pub fn print_starters(q: u64) {
    use pf_allreduce::congestion::assign_unit_bandwidth;
    use pf_allreduce::lowdepth::low_depth_trees;
    use pf_topo::PolarFly;

    crate::print_header(&format!("Sensitivity: starter quadric choice, q = {q}"));
    let pf = PolarFly::new(q);
    println!("{:>10} {:>11} {:>7} {:>9}", "starter", "aggregate", "depth", "maxcong");
    for s in pf.quadrics() {
        let out = low_depth_trees(&pf, Some(s)).unwrap();
        let a = assign_unit_bandwidth(pf.graph(), &out.trees);
        let depth = out.trees.iter().map(|t| t.depth()).max().unwrap();
        println!(
            "{:>10} {:>11} {:>7} {:>9}",
            s,
            a.aggregate().to_string(),
            depth,
            a.max_congestion
        );
        assert!(depth <= 3 && a.max_congestion <= 2);
    }
    println!("(Theorems 7.4-7.6 hold for every starter, as the proofs require)");
}

/// Collective variants on the same embedding: allreduce vs reduce vs
/// broadcast vs the sharded-training halves (reduce-scatter, allgather).
pub fn print_sim_collectives(q: u64, m: u64) {
    crate::print_header(&format!("SIM: collective variants on the edge-disjoint trees, q = {q}"));
    let plan = AllreducePlan::edge_disjoint(q, 30, 0xC011).unwrap();
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    println!("{:>15} {:>10} {:>12} {:>10}", "collective", "cycles", "el/cycle", "latency");
    for kind in Collective::ALL {
        let r = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .run_jobs_collective(&w, &[], kind)
            .report;
        assert!(r.completed && r.mismatches == 0, "{}", kind.name());
        println!(
            "{:>15} {:>10} {:>12.3} {:>10}",
            kind.name(),
            r.cycles,
            r.measured_bandwidth,
            r.first_element_latency
        );
    }
    println!("(one-phase collectives stream one direction; allreduce pipelines both)");
}

/// Ablation: physically-embedded trees vs SHARP-style logically-defined
/// trees whose edges are routed at runtime (§4.4's critique).
pub fn print_ablation_logical(qs: &[u64]) {
    use pf_allreduce::congestion::assign_unit_bandwidth;
    use pf_allreduce::logical::{assign_bandwidth_weighted, route_usage, LogicalTree};
    use pf_allreduce::lowdepth::low_depth_trees;
    use pf_topo::PolarFly;

    crate::print_header("Ablation: physical embedding vs logically-defined trees (§4.4)");
    println!(
        "{:>4} {:>22} {:>7} {:>11} {:>12} {:>9}",
        "q", "embedding", "trees", "aggregate", "normalized", "conflicts"
    );
    for &q in qs {
        let pf = PolarFly::new(q);
        let g = pf.graph();
        let n = g.num_vertices();
        let opt = pf_allreduce::rate::polarfly_bound(q);

        let low = low_depth_trees(&pf, None).unwrap();
        let a = assign_unit_bandwidth(g, &low.trees);
        println!(
            "{:>4} {:>22} {:>7} {:>11} {:>12.4} {:>9}",
            q,
            "physical low-depth",
            low.trees.len(),
            a.aggregate().to_string(),
            (a.aggregate() / opt).to_f64(),
            a.max_congestion
        );

        // q logical (q+1)-ary trees rooted at spread-out node ids, routed
        // minimally — the SHARP configuration model.
        let usages: Vec<Vec<u32>> = (0..q as u32)
            .map(|i| {
                route_usage(g, &LogicalTree::kary(n, q as u32 + 1, (i * (n / q as u32).max(1)) % n))
            })
            .collect();
        let a = assign_bandwidth_weighted(g, &usages);
        println!(
            "{:>4} {:>22} {:>7} {:>11} {:>12.4} {:>9}",
            q,
            "logical (q+1)-ary",
            usages.len(),
            a.aggregate().to_string(),
            (a.aggregate() / opt).to_f64(),
            a.max_congestion
        );
    }
    println!("('conflicts' = max logical edges per physical link; logical trees route over");
    println!(" 2-hop paths that collide, which is why §4.4 demands physical-path control)");
}

/// §1.2 comparison: PolarFly in-network multi-tree vs multiported torus
/// allreduce at matched node counts — time, rounds, and the memory
/// footprint argument.
pub fn print_torus_compare(m: u64) {
    use pf_simnet::hostbased::{multiported_torus_memory_elems, multiported_torus_time};
    use pf_topo::torus::Torus;

    crate::print_header("§1.2: in-network PolarFly vs multiported torus allreduce");
    let q = 11u64; // N = 133, radix 12
    let plan = AllreducePlan::edge_disjoint(q, 30, 0x70B).unwrap();
    let cfg = SimConfig::default();
    let r = simulate_plan(&plan, m, cfg);
    assert!(r.completed && r.mismatches == 0);

    // In-network per-router memory: receiver VC buffers only (the
    // latency-bandwidth product), independent of m.
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(m));
    let bufs_per_router = {
        let mut per_node = vec![0usize; plan.graph.num_vertices() as usize];
        for s in emb.streams() {
            per_node[s.dst as usize] += 1;
        }
        per_node.into_iter().max().unwrap_or(0)
    };
    let innet_mem = bufs_per_router * cfg.vc_buffer;

    println!("vector: m = {m} elements; hop latency {} cycles\n", cfg.link_latency);
    println!(
        "{:<28} {:>6} {:>7} {:>10} {:>12} {:>16}",
        "system", "nodes", "radix", "cycles", "el/cycle", "mem/node (elems)"
    );
    println!(
        "{:<28} {:>6} {:>7} {:>10} {:>12.3} {:>16}",
        format!("PolarFly q={q} in-network"),
        plan.num_nodes(),
        q + 1,
        r.cycles,
        r.measured_bandwidth,
        innet_mem
    );

    let hp = HostParams {
        hop_latency: cfg.link_latency as u64,
        phase_overhead: 200,
    };
    for dims in [vec![12u32, 11], vec![5, 5, 5]] {
        let t = Torus::new(&dims);
        let time = multiported_torus_time(&t, m, hp);
        let mem = multiported_torus_memory_elems(&t, m);
        println!(
            "{:<28} {:>6} {:>7} {:>10} {:>12.3} {:>16}",
            format!("torus {dims:?} multiported"),
            t.num_nodes(),
            t.radix(),
            time,
            m as f64 / time as f64,
            mem
        );
    }
    println!("\n(multiported tori parallelize over 2n ports but pay Θ(k) host rounds and Θ(m)");
    println!(" per-node staging memory; pipelined in-network trees need only the");
    println!(" latency-bandwidth product per stream — the §1.2 argument, quantified)");
}

/// The even-q exploration: the double-cover rigidity argument plus the
/// outcome of the randomized greedy search (§6.1.1's omitted variant).
pub fn print_evenq_search(attempts: usize) {
    use pf_allreduce::evenq::{double_cover_budget, search_low_depth_even};
    use pf_topo::PolarFly;
    crate::print_header("Even-q low-depth exploration (the variant the paper omits)");
    println!("Counting argument: (q+1) congestion-2 trees at B/2 need every edge in");
    println!("exactly two trees (a perfect double cover by depth-3 spanning trees):");
    for q in [4u64, 8, 16] {
        let (need, have) = double_cover_budget(q);
        println!("  q={q:>3}: tree-edge slots needed {need} = 2|E| available {have}");
    }
    println!("
randomized greedy search ({attempts} attempts per q):");
    for q in [4u64, 8, 16] {
        let pf = PolarFly::new(q);
        match search_low_depth_even(&pf, attempts, 0xE7E ^ q) {
            Some(trees) => println!("  q={q:>3}: FOUND {} valid trees (!)", trees.len()),
            None => println!("  q={q:>3}: not found — the construction needs algebraic structure, not search"),
        }
    }
}

/// Ablation: node injection bandwidth — multi-tree allreduce needs each
/// node to feed ~aggregate-bandwidth elements per cycle into the network
/// (§4.1's all-links-at-once assumption, made explicit).
pub fn print_sim_injection(q: u64, m: u64) {
    crate::print_header(&format!("Ablation: local injection rate vs aggregate bandwidth, q = {q}"));
    let plan = AllreducePlan::edge_disjoint(q, 30, 0x117).unwrap();
    println!(
        "edge-disjoint trees: {}, predicted aggregate {} el/cy",
        plan.trees.len(),
        plan.aggregate
    );
    println!("{:>12} {:>10} {:>12}", "inject/cyc", "cycles", "el/cycle");
    let trees = plan.trees.len() as u32;
    for cap in (1..=trees).chain([u32::MAX]) {
        let cfg = SimConfig {
            max_injections_per_node: (cap != u32::MAX).then_some(cap),
            ..SimConfig::default()
        };
        let r = simulate_plan(&plan, m, cfg);
        assert!(r.completed && r.mismatches == 0);
        let label = if cap == u32::MAX { "unbounded".to_string() } else { cap.to_string() };
        println!("{:>12} {:>10} {:>12.3}", label, r.cycles, r.measured_bandwidth);
    }
    println!("(aggregate bandwidth is injection-bound below the tree count: the compute");
    println!(" node must source one element per tree per cycle — §4.1's premise)");
}

/// VC / router-resource requirements of each solution (§5.1).
pub fn print_vc_report(qs: &[u64]) {
    crate::print_header("Router resource requirements per solution (§5.1, §7.1)");
    println!(
        "{:>4} {:>14} {:>10} {:>11} {:>11} {:>11}",
        "q", "solution", "total VCs", "reduce VCs", "bcast VCs", "maxcong"
    );
    for &q in qs {
        let mut plans = vec![AllreducePlan::edge_disjoint(q, 30, 0xCC ^ q).unwrap()];
        if q % 2 == 1 {
            plans.insert(0, AllreducePlan::low_depth(q).unwrap());
        }
        for plan in &plans {
            let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(1000));
            let vc = emb.vc_requirements();
            println!(
                "{:>4} {:>14} {:>10} {:>11} {:>11} {:>11}",
                q,
                plan.solution.label(),
                vc.total_vcs_per_channel,
                vc.reduce_vcs_per_channel,
                vc.broadcast_vcs_per_channel,
                plan.max_congestion
            );
            // Lemma 7.8's practical payoff: a single reduction engine per
            // input port suffices for both of the paper's solutions.
            assert_eq!(vc.reduce_vcs_per_channel, 1);
        }
    }
    println!("(edge-disjoint trees need no extra VCs at all; low-depth trees need 2 but");
    println!(" never two reductions on one port — Lemma 7.8, so one engine per port suffices)");
}

/// Flit-level host-based baselines vs the analytic phase model — a
/// methodology cross-check for SIM2's baseline numbers. Both columns of a
/// pair price the one schedule value, so they compare the same rounds.
pub fn print_sim_hostbased(q: u64, ms: &[u64]) {
    use pf_simnet::p2p::simulate_schedule;
    use pf_topo::PolarFly;

    crate::print_header(&format!(
        "SIM: flit-level vs analytic host-based allreduce, q = {q}"
    ));
    let pf = PolarFly::new(q);
    let g = pf.graph();
    let routing = Routing::new(g);
    let cfg = SimConfig::default();
    let hp = HostParams { hop_latency: cfg.link_latency as u64, phase_overhead: 0 };
    println!(
        "{:>9} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "m", "ring(flit)", "ring(model)", "ratio", "rdbl(flit)", "rdbl(model)", "ratio"
    );
    let flit_and_model = |s| {
        let flit = simulate_schedule(g, &routing, &s, cfg, 0).expect("completes");
        (flit, hostbased::price(g, &routing, &s, hp).total)
    };
    for &m in ms {
        let (rf, rm) = flit_and_model(hostbased::ring(g.num_vertices(), m, 2));
        let (df, dm) = flit_and_model(hostbased::recursive_doubling(g.num_vertices(), m));
        println!(
            "{:>9} {:>12} {:>12} {:>8.3} {:>12} {:>12} {:>8.3}",
            m,
            rf,
            rm,
            rf as f64 / rm as f64,
            df,
            dm,
            df as f64 / dm as f64
        );
    }
    println!("(the analytic phase model tracks the executed flit-level schedule)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_matches_predicted_low_depth() {
        let plan = AllreducePlan::low_depth(5).unwrap();
        let r = simulate_plan(&plan, 8000, SimConfig::default());
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        let pred = plan.aggregate.to_f64();
        assert!(
            (r.measured_bandwidth / pred - 1.0).abs() < 0.05,
            "measured {} vs predicted {pred}",
            r.measured_bandwidth
        );
    }

    #[test]
    fn simulated_matches_predicted_edge_disjoint() {
        let plan = AllreducePlan::edge_disjoint(5, 30, 2).unwrap();
        let r = simulate_plan(&plan, 12_000, SimConfig::default());
        assert!(r.completed);
        assert_eq!(r.mismatches, 0);
        let pred = plan.aggregate.to_f64();
        assert!(
            r.measured_bandwidth / pred > 0.93,
            "measured {} vs predicted {pred}",
            r.measured_bandwidth
        );
    }

    #[test]
    fn crossover_shape() {
        let rows = crossover_rows(5, &[8, 32_768]);
        // Small m: low-depth beats edge-disjoint (latency).
        assert!(rows[0].low_depth.unwrap() < rows[0].edge_disjoint);
        // Large m: multi-tree beats single tree decisively.
        assert!(rows[1].edge_disjoint * 2 < rows[1].single_tree);
        // In-network beats host-based at scale.
        assert!(rows[1].edge_disjoint < rows[1].ring);
        assert!(rows[1].edge_disjoint < rows[1].recursive_doubling);
    }
}
