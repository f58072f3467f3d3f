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
//!
//! The `tree_identity_*` tests pin every tree the backends and the
//! low-depth repairs build by digest, and the kary trees on `ER_q` and
//! `S_q` at q ∈ {13, 19, 23, 31}, so a change to how trees are assembled
//! must leave them byte-identical. Their full tier is `#[ignore]`d too;
//! CI runs it in release on every push.

use pf_allreduce::congestion::assign_unit_bandwidth;
use pf_allreduce::fingerprint::{fnv1a_u64, FNV_OFFSET};
use pf_allreduce::plan::AllreducePlan;
use pf_allreduce::rational::Rational;
use pf_allreduce::rate::{allreduce_rate_bound, RateError};
use pf_allreduce::recovery::{extend_degraded, rebuild_degraded, FaultSet};
use pf_allreduce::substrates::{
    backends_for, bridged_cliques, closed_form_rate_bound, erdos_renyi_connected, full_catalog,
    quick_catalog, Substrate,
};
use pf_allreduce::{Budget, ConstructError, GreedyPeel, KaryMultitree, TreeConstruction};
use pf_graph::dsu::Dsu;
use pf_graph::tree::pairwise_edge_disjoint;
use pf_graph::{builders, Graph, RootedTree};
use pf_topo::{PolarFly, Singer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

// ---------------------------------------------------------------------
// Tree identity: every tree the constructions and repairs build, pinned
// by digest. A rooted tree is fixed by its edge set and its root, so a
// change to how trees are assembled (Kruskal selection, orientation,
// re-rooting) must leave every digest below as it is.
// ---------------------------------------------------------------------

/// FNV-1a over a tree set: the tree count, then per tree its root, its
/// order and every vertex's parent (`u64::MAX` at the root) and depth.
fn fold_trees(mut h: u64, trees: &[RootedTree]) -> u64 {
    h = fnv1a_u64(h, trees.len() as u64);
    for t in trees {
        h = fnv1a_u64(h, u64::from(t.root()));
        h = fnv1a_u64(h, t.num_vertices() as u64);
        for v in 0..t.num_vertices() as u32 {
            h = fnv1a_u64(h, t.parent(v).map_or(u64::MAX, u64::from));
            h = fnv1a_u64(h, u64::from(t.depth_of(v)));
        }
    }
    h
}

/// Folds a build or repair outcome: its trees, or a marker for an error
/// (an unsupported substrate, a partition, a declined extension).
fn fold_outcome(h: u64, trees: Option<&[RootedTree]>) -> u64 {
    match trees {
        Some(t) => fold_trees(fnv1a_u64(h, 1), t),
        None => fnv1a_u64(h, 0),
    }
}

/// One digest per catalog substrate over the tree sets of every backend
/// `backends_for` lists, then one over `GreedyPeel` at seeds 0..4; with
/// the number of tree sets folded.
fn construction_digests(cat: Vec<Substrate>) -> (Vec<(String, u64)>, usize) {
    let mut out = Vec::new();
    let mut sets = 0;
    for sub in &cat {
        let mut h = FNV_OFFSET;
        for b in backends_for(&sub.name) {
            let built = b.build(&sub.graph, &Budget::unlimited()).ok();
            sets += usize::from(built.is_some());
            h = fold_outcome(h, built.as_deref());
        }
        out.push((format!("backends {}", sub.name), h));
        let mut h = FNV_OFFSET;
        for seed in 0..4 {
            let built = GreedyPeel { seed }.build(&sub.graph, &Budget::unlimited()).ok();
            sets += usize::from(built.is_some());
            h = fold_outcome(h, built.as_deref());
        }
        out.push((format!("greedy-peel {}", sub.name), h));
    }
    (out, sets)
}

/// The degraded trees of low-depth repairs at radix `q`: every one-link
/// fault (`one_link`), `pairs` seeded fault pairs each rebuilt, extended
/// from the first fault's plan and rebuilt as a union, and every router
/// fault (`routers`); with the number of repairs folded.
fn repair_digest(q: u64, one_link: bool, pairs: usize, routers: bool) -> (u64, usize) {
    let plan = AllreducePlan::low_depth(q).expect("odd q");
    let m = plan.graph.num_edges();
    let degraded = |f: &FaultSet| rebuild_degraded(&plan, f).ok();
    let mut h = FNV_OFFSET;
    let mut repairs = 0;
    if one_link {
        for e in 0..m {
            let d = degraded(&FaultSet::links(vec![e]));
            h = fold_outcome(h, d.as_ref().map(|d| d.trees.as_slice()));
            repairs += 1;
        }
    }
    let mut rng = StdRng::seed_from_u64(0x7ee5 ^ q);
    for _ in 0..pairs {
        let a = FaultSet::links(vec![rng.random_range(0..m)]);
        let b = FaultSet::links(vec![rng.random_range(0..m)]);
        let first = degraded(&a).expect("one link never partitions ER_q");
        let extended = extend_degraded(&plan, &a, &first, &b);
        let union = degraded(&a.union(&b));
        h = fold_outcome(h, Some(&first.trees));
        h = fold_outcome(h, extended.as_ref().map(|d| d.trees.as_slice()));
        h = fold_outcome(h, union.as_ref().map(|d| d.trees.as_slice()));
        repairs += 3;
    }
    if routers {
        for r in plan.graph.vertices() {
            let d = degraded(&FaultSet { edges: vec![], routers: vec![r] });
            h = fold_outcome(h, d.as_ref().map(|d| d.trees.as_slice()));
            repairs += 1;
        }
    }
    (h, repairs)
}

/// Compares `got` with the pinned table, printing every digest so a
/// deliberate change can re-pin them in one pass.
fn assert_digests(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    for (name, h) in got {
        println!("    (\"{name}\", {h:#018x}),");
    }
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, pinned, "tree digests moved; the table above is what this build gives");
}

const QUICK_CONSTRUCTIONS: &[(&str, u64)] = &[
    ("backends er-n20", 0x96f1aadb3f5d8e58),
    ("greedy-peel er-n20", 0x09ebfec398bf321d),
    ("backends torus-4x4", 0x53f0729a4e291af8),
    ("greedy-peel torus-4x4", 0xe39ce397179a867a),
    ("backends star-c4xk4", 0x0322dee6911c92c6),
    ("greedy-peel star-c4xk4", 0xf75129d9e0747b0b),
    ("backends polarfly-q5", 0x86abd1cc1d93ee69),
    ("greedy-peel polarfly-q5", 0x78153f927b441881),
    ("backends hypercube-4", 0x0ba3b4bfb74d9037),
    ("greedy-peel hypercube-4", 0x0c3d51395e826e7b),
    ("backends complete-k8", 0x5c7a927ecffeea64),
    ("greedy-peel complete-k8", 0x8e49f531d4b3fbc2),
];
const FULL_CONSTRUCTIONS: &[(&str, u64)] = &[
    ("backends er-n8-e6-s1", 0xaddf5f54e02e5467),
    ("greedy-peel er-n8-e6-s1", 0x69daa21bb2363ee7),
    ("backends er-n16-e20-s2", 0x375a79bca0d325a3),
    ("greedy-peel er-n16-e20-s2", 0xe067c401b4e129f4),
    ("backends er-n24-e40-s3", 0x32437e61d32ece29),
    ("greedy-peel er-n24-e40-s3", 0xf0a881b957592d30),
    ("backends er-n32-e24-s4", 0x933c8ced6e1a90f1),
    ("greedy-peel er-n32-e24-s4", 0xf2b2877727ac4ea9),
    ("backends er-n40-e90-s5", 0x66b8cc1d0e6b087e),
    ("greedy-peel er-n40-e90-s5", 0x51a896caac38d3ca),
    ("backends torus-3x3", 0x62be7fe709789842),
    ("greedy-peel torus-3x3", 0xcc0c0a56e8697570),
    ("backends torus-4x4", 0x53f0729a4e291af8),
    ("greedy-peel torus-4x4", 0xe39ce397179a867a),
    ("backends torus-3x4", 0xff97077fb7243695),
    ("greedy-peel torus-3x4", 0x6de5a8fb10395fd3),
    ("backends torus-3x3x3", 0xb4c6fe9ad7644aa9),
    ("greedy-peel torus-3x3x3", 0xe79c24ffa9772762),
    ("backends cart-c5xk4", 0x02a3277fa11bbe92),
    ("greedy-peel cart-c5xk4", 0xee52a9c11fc2fd54),
    ("backends star-k5xk4", 0x9c1ddd5974d59829),
    ("greedy-peel star-k5xk4", 0x53cf351f77741fd0),
    ("backends star-c6xc4", 0xe036afff93521a76),
    ("greedy-peel star-c6xc4", 0x1de6b3eafe5a5b6d),
    ("backends polarfly-q3", 0x5a995ff5211316b2),
    ("greedy-peel polarfly-q3", 0xd81f85878b288acd),
    ("backends singer-q3", 0xceb3fd3a159f215c),
    ("greedy-peel singer-q3", 0x16687a1f0f30eb47),
    ("backends polarfly-q5", 0x86abd1cc1d93ee69),
    ("greedy-peel polarfly-q5", 0x78153f927b441881),
    ("backends singer-q5", 0xc2b11569028ca452),
    ("greedy-peel singer-q5", 0x8522653cffc1241e),
    ("backends polarfly-q7", 0xfd45c79a67e75042),
    ("greedy-peel polarfly-q7", 0x12d832c2c801d4ef),
    ("backends singer-q7", 0xdc9aefed83515ae2),
    ("greedy-peel singer-q7", 0x38e036d93d596dcf),
    ("backends polarfly-q9", 0x5c9f48802311acff),
    ("greedy-peel polarfly-q9", 0xf17533f2c65e87ef),
    ("backends singer-q9", 0xeb400f15b4eeca09),
    ("greedy-peel singer-q9", 0xc31493bf821173dd),
    ("backends polarfly-q11", 0x91289dbf2324562c),
    ("greedy-peel polarfly-q11", 0xc0c388b32f440b5d),
    ("backends singer-q11", 0x329545fcb2895a05),
    ("greedy-peel singer-q11", 0x1c1d26e2eccedd15),
    ("backends hypercube-5", 0x3d19cf8eb1a5e97b),
    ("greedy-peel hypercube-5", 0xcae70936202a29c9),
    ("backends petersen", 0x066e4adc74b0fd29),
    ("greedy-peel petersen", 0xdf1d32044df079a1),
    ("backends complete-k12", 0xd61f20f4990a31ad),
    ("greedy-peel complete-k12", 0xb6917f6c53972f84),
    ("backends bridged-k5", 0x71481e04b0d5d8a9),
    ("greedy-peel bridged-k5", 0x4258702df84325ab),
];
const QUICK_REPAIRS: &[(&str, u64)] = &[
    ("low-depth repairs q=3", 0xe625f18f9f7665d3),
    ("low-depth repairs q=5", 0xb225e0a7dc65c2aa),
    ("low-depth repairs q=7", 0x6fbd1b26d985296a),
];
const FULL_REPAIRS: &[(&str, u64)] = &[
    ("low-depth repairs q=9", 0x32d5af893e899c8b),
    ("low-depth repairs q=11", 0xdfa3aa167c479362),
    ("low-depth repairs q=13", 0xb985b140c283b769),
    ("low-depth repairs q=19", 0xcaaeb8d5c2af0e09),
    ("low-depth repairs q=23", 0x1c438603a2427723),
    ("low-depth repairs q=31", 0xae6f15c5b88170cb),
];

const FULL_KARY: &[(&str, u64)] = &[
    ("kary polarfly-q13", 0xa6664867579205d6),
    ("kary singer-q13", 0x21b0f2e50ad67d70),
    ("kary polarfly-q19", 0x3d432a33fde10074),
    ("kary singer-q19", 0x209d3cadc3350d16),
    ("kary polarfly-q23", 0x758293cef864a9a2),
    ("kary singer-q23", 0x328ced5729290139),
    ("kary polarfly-q31", 0x15dfa4f3fc418533),
    ("kary singer-q31", 0xe84392d2ff7cd360),
];

/// One digest per radix over the repair cases of one tier, each `(q, every
/// one-link fault, seeded pairs, every router fault)`; with the number of
/// repairs folded.
fn repair_digests(cases: &[(u64, bool, usize, bool)]) -> (Vec<(String, u64)>, usize) {
    let mut out = Vec::new();
    let mut total = 0;
    for &(q, one_link, pairs, routers) in cases {
        let (h, n) = repair_digest(q, one_link, pairs, routers);
        out.push((format!("low-depth repairs q={q}"), h));
        total += n;
    }
    (out, total)
}

#[test]
fn tree_identity_quick_constructions() {
    let (got, sets) = construction_digests(quick_catalog());
    println!("{sets} tree sets");
    assert_digests(&got, QUICK_CONSTRUCTIONS);
}

#[test]
#[ignore = "slow in debug: the full catalog; CI runs it in release"]
fn tree_identity_full_constructions() {
    let (got, sets) = construction_digests(full_catalog());
    println!("{sets} tree sets");
    assert_digests(&got, FULL_CONSTRUCTIONS);
}

#[test]
fn tree_identity_quick_repairs() {
    let (got, repairs) =
        repair_digests(&[(3, true, 40, true), (5, true, 40, true), (7, true, 40, true)]);
    println!("{repairs} repairs");
    assert_digests(&got, QUICK_REPAIRS);
}

#[test]
#[ignore = "slow in debug: repairs up to q = 31; CI runs it in release"]
fn tree_identity_full_repairs() {
    let (got, repairs) = repair_digests(&[
        (9, true, 0, false),
        (11, true, 40, false),
        (13, false, 40, false),
        (19, false, 40, false),
        (23, false, 40, false),
        (31, false, 40, false),
    ]);
    println!("{repairs} repairs");
    assert_digests(&got, FULL_REPAIRS);
}

#[test]
#[ignore = "slow in debug: kary up to q = 31; CI runs it in release"]
fn tree_identity_full_kary() {
    // The kary trees plan bring-up builds at the benchmark's radices, on
    // both labelings.
    let mut got = Vec::new();
    for q in [13u64, 19, 23, 31] {
        let graphs = [
            ("polarfly", PolarFly::new(q).graph().clone()),
            ("singer", Singer::new(q).graph().clone()),
        ];
        for (name, g) in &graphs {
            let built = KaryMultitree { k: 3 }.build(g, &Budget::unlimited()).ok();
            got.push((format!("kary {name}-q{q}"), fold_outcome(FNV_OFFSET, built.as_deref())));
        }
    }
    assert_digests(&got, FULL_KARY);
}
