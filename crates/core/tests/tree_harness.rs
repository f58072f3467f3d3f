//! Tinygarden-style property harness for every [`TreeConstruction`]
//! backend × substrate pair (see `docs/CONSTRUCTIONS.md`).
//!
//! For each pair the harness re-derives every contract clause from
//! scratch — it deliberately does not trust `validate_spanning` alone:
//!
//! * **spanning**: exactly `n − 1` edges, every edge physical, DSU says one
//!   component, and depths are parent-consistent with the root at 0;
//! * **disjointness**: if the backend claims edge-disjoint output, the
//!   trees are pairwise edge-disjoint;
//! * **congestion**: no edge is used by more than `congestion_bound()`
//!   trees (or more than `trees.len()` when no bound is claimed);
//! * **water-filling**: Algorithm 1 shares in exact rationals — per-edge
//!   load `Σ B_i ≤ 1` and every tree saturates some link;
//! * **rate bound**: the aggregate respects the exact rate bound
//!   `min(|E|/(n−1), λ(G))` (`pf_allreduce::rate`, docs/RATES.md), and on
//!   substrate families with a published closed form the generic
//!   computation reproduces it exactly;
//! * **budget & determinism**: tree caps are honored and rebuilding is
//!   byte-identical.
//!
//! The quick tier (`quick_catalog`) runs on every push; the full sweep
//! (`full_catalog`, all paper radices `q ∈ {3, 5, 7, 9, 11}` plus both
//! labelings) is `#[ignore]`d and runs in the nightly
//! `--include-ignored` job.

use pf_allreduce::congestion::assign_unit_bandwidth;
use pf_allreduce::plan::AllreducePlan;
use pf_allreduce::rational::Rational;
use pf_allreduce::rate::{allreduce_rate_bound, RateError};
use pf_allreduce::recovery::{rebuild_degraded, FaultSet};
use pf_allreduce::substrates::{
    backends_for, bridged_cliques, closed_form_rate_bound, erdos_renyi_connected, full_catalog,
    quick_catalog, Substrate,
};
use pf_allreduce::{Budget, ConstructError, GreedyPeel, KaryMultitree, TreeConstruction};
use pf_graph::dsu::Dsu;
use pf_graph::tree::pairwise_edge_disjoint;
use pf_graph::{builders, Graph, RootedTree};

/// Independent spanning re-check: count, membership, connectivity (DSU),
/// and depth consistency — none of it via `validate_spanning`.
fn assert_spanning(t: &RootedTree, g: &Graph, ctx: &str) {
    let n = g.num_vertices();
    assert_eq!(t.num_vertices(), n as usize, "{ctx}: tree order");
    assert_eq!(t.depth_of(t.root()), 0, "{ctx}: root depth");
    assert!(t.parent(t.root()).is_none(), "{ctx}: root parent");
    let mut dsu = Dsu::new(n);
    let mut edges = 0usize;
    for (child, parent) in t.edges() {
        assert!(g.has_edge(child, parent), "{ctx}: edge ({child},{parent}) not physical");
        assert_eq!(
            t.depth_of(child),
            t.depth_of(parent) + 1,
            "{ctx}: depth inconsistent at ({child},{parent})"
        );
        dsu.union(child, parent);
        edges += 1;
    }
    assert_eq!(edges, n as usize - 1, "{ctx}: edge count");
    assert_eq!(dsu.components(), 1, "{ctx}: not connected");
}

/// One backend × substrate harness pass; returns `false` when the backend
/// (correctly) declined the substrate as unsupported.
fn check_pair(b: &dyn TreeConstruction, sub: &Substrate) -> bool {
    let g = &sub.graph;
    let ctx = format!("{} on {}", b.name(), sub.name);
    let trees = match b.build(g, &Budget::unlimited()) {
        Ok(trees) => trees,
        Err(ConstructError::UnsupportedSubstrate(_)) => return false,
        Err(e) => panic!("{ctx}: unexpected error: {e}"),
    };
    assert!(!trees.is_empty(), "{ctx}: empty tree set");

    for t in &trees {
        assert_spanning(t, g, &ctx);
    }

    if b.claims_edge_disjoint() {
        assert!(pairwise_edge_disjoint(&trees, g), "{ctx}: disjointness claim broken");
    }

    // Water-filling in exact rationals; its per-edge congestion doubles as
    // the bound check.
    let a = assign_unit_bandwidth(g, &trees);
    let bound = b.congestion_bound().unwrap_or(trees.len() as u32);
    assert!(
        a.per_edge.iter().all(|&c| c <= bound),
        "{ctx}: congestion {} exceeds bound {bound}",
        a.max_congestion
    );

    // Per-edge load Σ B_i ≤ 1 and per-tree saturation: Algorithm 1 assigns
    // each tree at a bottleneck link that ends exactly full.
    let tree_edges: Vec<Vec<u32>> = trees.iter().map(|t| t.edge_ids(g)).collect();
    let mut load = vec![Rational::ZERO; g.num_edges() as usize];
    for (ti, ids) in tree_edges.iter().enumerate() {
        for &e in ids {
            load[e as usize] += a.per_tree[ti];
        }
    }
    for (e, &l) in load.iter().enumerate() {
        assert!(l <= Rational::ONE, "{ctx}: edge {e} oversubscribed ({l})");
    }
    for (ti, ids) in tree_edges.iter().enumerate() {
        assert!(a.per_tree[ti].is_positive(), "{ctx}: tree {ti} got zero bandwidth");
        assert!(
            ids.iter().any(|&e| load[e as usize] == Rational::ONE),
            "{ctx}: tree {ti} saturates no link"
        );
    }
    // The exact rate bound (edge budget ∧ global min cut) must hold and
    // agree with the family's closed form where one is known.
    let rate = allreduce_rate_bound(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(
        rate.certifies(a.aggregate()),
        "{ctx}: aggregate {} beats the rate bound {}",
        a.aggregate(),
        rate.bound
    );
    if let Some(closed) = closed_form_rate_bound(&sub.name) {
        assert_eq!(rate.bound, closed, "{ctx}: closed-form rate bound mismatch");
    }

    // Budget cap and determinism.
    let one = b.build(g, &Budget::trees(1)).expect("budgeted build");
    assert_eq!(one.len(), 1, "{ctx}: budget cap ignored");
    assert_spanning(&one[0], g, &ctx);
    let again = b.build(g, &Budget::unlimited()).expect("rebuild");
    assert_eq!(trees, again, "{ctx}: non-deterministic");
    true
}

fn run_catalog(cat: Vec<Substrate>) {
    for sub in &cat {
        let mut ran = 0;
        for b in backends_for(&sub.name) {
            if check_pair(b.as_ref(), sub) {
                ran += 1;
            }
        }
        assert!(ran >= 3, "{}: fewer than the generic backends ran", sub.name);
    }
}

#[test]
fn quick_catalog_satisfies_all_backend_contracts() {
    run_catalog(quick_catalog());
}

#[test]
#[ignore = "nightly: full substrate sweep over all paper radices"]
fn full_catalog_satisfies_all_backend_contracts() {
    run_catalog(full_catalog());
}

#[test]
fn specializations_run_somewhere_in_the_full_catalog() {
    // Guard against silent skipping: the PolarFly and star-product
    // backends must actually execute (not UnsupportedSubstrate) on their
    // home substrates.
    for name in ["polarfly-q3", "singer-q3", "star-k5xk4", "cart-c5xk4"] {
        let sub = full_catalog()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the full catalog"));
        let executed = backends_for(name)
            .iter()
            .filter(|b| check_pair(b.as_ref(), &sub))
            .count();
        assert!(executed >= 4, "{name}: its specialization did not run");
    }
}

/// Runs the full harness (including the rate-bound clause in
/// `check_pair`) over seeded-random ER substrates: the bound must
/// dominate every constructed plan on graphs nobody hand-tuned.
fn run_random_substrates(shapes: &[(u32, u32)], seeds: std::ops::Range<u64>) {
    for &(n, extra) in shapes {
        for seed in seeds.clone() {
            let sub = Substrate {
                name: format!("er-n{n}-e{extra}-s{seed}"),
                graph: erdos_renyi_connected(n, extra, seed),
            };
            let mut ran = 0;
            for b in backends_for(&sub.name) {
                if check_pair(b.as_ref(), &sub) {
                    ran += 1;
                }
            }
            assert!(ran >= 3, "{}: fewer than the generic backends ran", sub.name);
        }
    }
}

#[test]
fn random_substrates_respect_the_rate_bound_quick() {
    run_random_substrates(&[(12, 10), (20, 30)], 0..4);
}

#[test]
#[ignore = "nightly: wide seeded-random substrate sweep"]
fn random_substrates_respect_the_rate_bound_full() {
    run_random_substrates(&[(8, 6), (16, 20), (24, 40), (32, 24), (40, 90), (48, 60)], 0..12);
}

#[test]
fn deleted_bridge_is_a_typed_disconnection_everywhere() {
    // The two-clique bridge graph with its bridge deleted: every backend
    // reports Disconnected{2} (not a panic, not a bogus tree set), and
    // the rate module refuses to price it the same way.
    let g = bridged_cliques(5);
    let bridge = g.edge_id(4, 5).expect("bridge edge");
    let cut = pf_graph::surviving(&g, &[], &[bridge]).graph;
    for b in backends_for("bridged-k5") {
        assert_eq!(
            b.build(&cut, &Budget::unlimited()).unwrap_err(),
            ConstructError::Disconnected { components: 2 },
            "{}",
            b.name()
        );
    }
    assert_eq!(
        allreduce_rate_bound(&cut).unwrap_err(),
        RateError::Disconnected { components: 2 }
    );
}

#[test]
fn degenerate_graphs_get_typed_rate_errors_not_bogus_bounds() {
    // Mirrors degenerate_substrates_stay_typed_across_all_backends for
    // the rate module: where no plan exists, no bound exists either.
    assert_eq!(allreduce_rate_bound(&Graph::new(0)).unwrap_err(), RateError::EmptyGraph);
    assert_eq!(allreduce_rate_bound(&Graph::new(1)).unwrap_err(), RateError::SingleVertex);
    let mut split = Graph::new(5);
    split.add_edge(0, 1);
    split.add_edge(1, 2);
    split.add_edge(3, 4);
    assert_eq!(
        allreduce_rate_bound(&split).unwrap_err(),
        RateError::Disconnected { components: 2 }
    );
}

#[test]
fn degenerate_substrates_stay_typed_across_all_backends() {
    let empty = Graph::new(0);
    let lone = Graph::new(1);
    let mut split = Graph::new(5);
    split.add_edge(0, 1);
    split.add_edge(1, 2);
    split.add_edge(3, 4);
    for b in backends_for("star-c4xk4") {
        assert_eq!(
            b.build(&empty, &Budget::unlimited()).unwrap_err(),
            ConstructError::EmptySubstrate,
            "{}",
            b.name()
        );
        assert_eq!(
            b.build(&lone, &Budget::unlimited()).unwrap_err(),
            ConstructError::TooSmall,
            "{}",
            b.name()
        );
        assert_eq!(
            b.build(&split, &Budget::unlimited()).unwrap_err(),
            ConstructError::Disconnected { components: 2 },
            "{}",
            b.name()
        );
    }
}

#[test]
fn complete_graphs_support_every_generic_backend() {
    for n in [2u32, 3, 8, 12] {
        let sub = Substrate { name: format!("complete-k{n}"), graph: builders::complete(n) };
        for b in backends_for(&sub.name) {
            assert!(check_pair(b.as_ref(), &sub), "{} skipped K{n}", b.name());
        }
    }
}

#[test]
fn bridges_cap_edge_disjoint_sets_at_one_tree() {
    // Every spanning tree of a bridged graph uses the bridge, so no two
    // spanning trees are edge-disjoint; disjoint backends must settle for
    // one tree rather than panic or lie.
    let g = bridged_cliques(5);
    let trees = GreedyPeel { seed: 11 }.build(&g, &Budget::unlimited()).unwrap();
    assert_eq!(trees.len(), 1);
    assert_spanning(&trees[0], &g, "greedy-peel on bridged-k5");
    // The kary builder still embeds several (overlapping) trees, and
    // Algorithm 1 prices the shared bridge correctly: aggregate stays at
    // the bridge-limited bound of 1... per direction — i.e. the substrate
    // bound δ_min is not what binds here, the bridge congestion is.
    let plan = AllreducePlan::construct(&g, &KaryMultitree { k: 3 }, &Budget::unlimited())
        .expect("kary on bridged cliques");
    let bridge = g.edge_id(4, 5).expect("bridge edge");
    let crossing = plan.edge_congestion[bridge as usize];
    assert_eq!(crossing, plan.trees.len() as u32, "every tree crosses the bridge");
    assert!(plan.aggregate <= Rational::ONE, "bridge caps the aggregate at one");
}

#[test]
fn constructed_plans_rebuild_after_faults() {
    // The recovery path is construction-agnostic: fault a link out of a
    // kary plan on a torus and the degraded rebuild must hold the plan's
    // healthy congestion bound.
    let g = pf_topo::torus::Torus::new(&[4, 4]).graph().clone();
    let plan = AllreducePlan::construct(&g, &KaryMultitree { k: 3 }, &Budget::unlimited())
        .expect("kary plan on the torus");
    let victim = plan.trees[0].edge_ids(&g)[0];
    let degraded = rebuild_degraded(&plan, &FaultSet::links(vec![victim]))
        .expect("torus survives one link fault");
    assert_eq!(degraded.graph.num_vertices(), g.num_vertices());
    assert_eq!(degraded.graph.num_edges(), g.num_edges() - 1);
    assert!(!degraded.trees.is_empty());
    assert!(degraded.max_congestion <= degraded.congestion_bound);
    for t in &degraded.trees {
        t.validate_spanning(&degraded.graph).unwrap();
    }
    assert!(degraded.aggregate.is_positive());
}
