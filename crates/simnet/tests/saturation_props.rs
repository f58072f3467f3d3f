//! Saturation guard for the latency–bandwidth-product fast path.
//!
//! In-network VC memory is sized at `link_latency` flits per stream —
//! exactly one latency–bandwidth product: the receiver returns a credit in
//! the cycle it consumes a flit and the sender spends it that same cycle,
//! so a single uncongested tree streams at link rate. The active-set
//! engine's credit/wake bookkeeping must preserve that: a stream that
//! transmits every cycle keeps its source engine, its channel, and its
//! receiver in the active sets with no gaps, so any off-by-one in the
//! wake rules or the ring-buffer credit math shows up here as a
//! throughput cliff.
//!
//! `single_tree` plans are balanced BFS trees, which the engine reports in
//! closed form without stepping; so is an unbalanced low-depth tree alone,
//! because a shorter child that waits on credits never delays its parent.
//! Each case therefore also runs on two copies of
//! `low_depth(q).tree_subset(&[0])` that split the vector. Every channel
//! then carries one stream of each copy with the same transmit window, so
//! the closed form refuses them: the arbiter alternates the copies, their
//! shorter children still wait on credits, and together they must still
//! fill every link — the stepper's bookkeeping under test.

use pf_allreduce::{AllreducePlan, Solution};
use pf_graph::RootedTree;
use pf_simnet::{Collective, MultiTreeEmbedding, SimConfig, Simulator, Workload};
use proptest::prelude::*;

/// The two plans of radix `q` that saturate one stream per link: the
/// balanced BFS tree, which takes the closed form, and two copies of the
/// first low-depth tree, which step.
fn saturating_plans(q: u64) -> [AllreducePlan; 2] {
    let low_depth = AllreducePlan::low_depth(q).expect("odd prime power");
    let tree = low_depth.trees[0].clone();
    assert!(has_unequal_sibling_heights(&tree), "q={q}: low-depth tree 0 must be unbalanced");
    let twins = AllreducePlan::from_tree_set(
        q,
        Solution::Constructed("twin low-depth"),
        low_depth.graph.clone(),
        vec![tree.clone(), tree],
    );
    [AllreducePlan::single_tree(q).expect("odd prime power"), twins]
}

/// Does some node have two children whose subtrees differ in height?
fn has_unequal_sibling_heights(t: &RootedTree) -> bool {
    let n = t.num_vertices() as u32;
    let mut by_depth: Vec<u32> = (0..n).collect();
    by_depth.sort_by_key(|&v| std::cmp::Reverse(t.depth_of(v)));
    let mut height = vec![0u32; n as usize];
    for &v in &by_depth {
        if let Some(p) = t.parent(v) {
            height[p as usize] = height[p as usize].max(height[v as usize] + 1);
        }
    }
    t.children().iter().any(|cs| cs.iter().any(|&c| height[c as usize] != height[cs[0] as usize]))
}

/// Runs `plan`'s allreduce and returns its report's cycle count and
/// measured bandwidth.
fn run(plan: &AllreducePlan, m: u64, cfg: SimConfig) -> (u64, f64) {
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    let r = Simulator::new(&plan.graph, &emb, cfg).run(&w);
    assert!(r.completed, "m={m} L={} did not complete", cfg.link_latency);
    assert_eq!(r.mismatches, 0);
    (r.cycles, r.measured_bandwidth)
}

/// Bandwidth with exactly the latency–bandwidth product of buffering: the
/// smallest buffer that can sustain link rate. The one-tree plan must take
/// the closed form and the twins must step: their windows coincide on
/// every channel they use.
fn minimal_buffer_bandwidth(plan: &AllreducePlan, m: u64, link_latency: u32) -> f64 {
    let cfg = SimConfig { link_latency, vc_buffer: link_latency as usize, ..Default::default() };
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &plan.split(m));
    let closed =
        Simulator::new(&plan.graph, &emb, cfg).closed_form_trees(Collective::Allreduce, &[]);
    assert_eq!(closed, vec![plan.trees.len() == 1; plan.trees.len()], "L={link_latency}");
    run(plan, m, cfg).1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With `vc_buffer = link_latency`, one uncongested tree — or two
    /// copies sharing every link — sustains ≥ 0.95 elements/cycle across
    /// radixes and link latencies: the minimal-buffer saturation claim,
    /// measured end to end through the optimized engine, in closed form
    /// and stepped.
    #[test]
    fn minimal_buffer_sustains_link_rate(
        q in prop::sample::select(vec![3u64, 7, 11]),
        link_latency in 1u32..6,
    ) {
        for plan in &saturating_plans(q) {
            let bw = minimal_buffer_bandwidth(plan, 4_000, link_latency);
            prop_assert!(
                bw >= 0.95,
                "q={} L={} {}: measured {} el/cycle, expected >= 0.95",
                q, link_latency, plan.solution.label(), bw
            );
        }
    }
}

/// The deterministic floor, pinned without proptest shrinking so CI
/// failures name the radix directly.
#[test]
fn minimal_buffer_sustains_link_rate_default_latency() {
    for q in [3u64, 7, 11] {
        for plan in &saturating_plans(q) {
            let bw = minimal_buffer_bandwidth(plan, 4_000, SimConfig::default().link_latency);
            assert!(
                bw >= 0.95,
                "q={q} {}: measured {bw} el/cycle, expected >= 0.95",
                plan.solution.label()
            );
        }
    }
}

/// The threshold is `link_latency`, not `link_latency + 1`: on a
/// contention-free plan `vc_buffer = L` already runs at link rate (the
/// same cycles as a far larger buffer), and one flit less costs cycles.
#[test]
fn link_rate_starts_at_vc_buffer_equal_to_latency() {
    let plan = AllreducePlan::edge_disjoint(7, 30, 1).expect("prime power");
    let m = 4_000;
    for link_latency in [1u32, 2, 4, 9] {
        let cycles = |vc_buffer: usize| {
            run(&plan, m, SimConfig { link_latency, vc_buffer, ..Default::default() }).0
        };
        let at = cycles(link_latency as usize);
        assert_eq!(at, cycles(link_latency as usize + 4), "L={link_latency}");
        if link_latency >= 2 {
            let below = cycles(link_latency as usize - 1);
            assert!(below > at, "L={link_latency}: vc L-1 took {below} cycles, vc L took {at}");
        }
    }
}
