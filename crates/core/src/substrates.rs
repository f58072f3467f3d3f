//! Named, deterministic substrate families for cross-topology work.
//!
//! The tree-construction harness (`tests/tree_harness.rs`), the
//! cross-backend paper-claims invariants (`tests/paper_claims.rs`) and
//! the `experiments topo-compare` table all iterate the same substrate
//! catalog, so a construction that regresses on one of these graphs fails
//! in every layer with the same substrate name attached.
//!
//! Everything here is seed-deterministic: the same call always returns
//! the same graph, byte for byte.

use crate::construction::{
    BfsSingle, GreedyPeel, KaryMultitree, PolarFlyHamiltonian, PolarFlyLowDepth,
    TreeConstruction,
};
use crate::starprod::StarProductDisjoint;
use pf_graph::{builders, cartesian_product, shifted_product, Graph};
use pf_topo::torus::Torus;
use pf_topo::{PolarFly, Singer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named substrate.
pub struct Substrate {
    /// Stable display name (used in harness failure messages and the
    /// topo-compare table).
    pub name: String,
    /// The topology.
    pub graph: Graph,
}

impl Substrate {
    fn new(name: impl Into<String>, graph: Graph) -> Self {
        Substrate { name: name.into(), graph }
    }
}

/// Connected Erdős–Rényi-style random graph: a random spanning skeleton
/// (vertex `v` attaches to a uniform earlier vertex) plus `extra` random
/// non-duplicate edges. Deterministic per seed.
pub fn erdos_renyi_connected(n: u32, extra: u32, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v, rng.random_range(0..v));
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < 20 * extra {
        attempts += 1;
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
            added += 1;
        }
    }
    g
}

/// Two cliques joined by a single bridge: only one edge-disjoint spanning
/// tree exists (every spanning tree must use the bridge).
pub fn bridged_cliques(half: u32) -> Graph {
    assert!(half >= 2);
    let n = 2 * half;
    let mut g = Graph::new(n);
    for side in [0, half] {
        for u in side..side + half {
            for v in u + 1..side + half {
                g.add_edge(u, v);
            }
        }
    }
    g.add_edge(half - 1, half);
    g
}

/// The quick-tier catalog: one representative per substrate family, small
/// enough for the push-time harness job.
pub fn quick_catalog() -> Vec<Substrate> {
    vec![
        Substrate::new("er-n20", erdos_renyi_connected(20, 30, 0xE5)),
        Substrate::new("torus-4x4", Torus::new(&[4, 4]).graph().clone()),
        Substrate::new(
            "star-c4xk4",
            shifted_product(&builders::cycle(4), &builders::complete(4)).graph().clone(),
        ),
        Substrate::new("polarfly-q5", PolarFly::new(5).graph().clone()),
        Substrate::new("hypercube-4", builders::hypercube(4)),
        Substrate::new("complete-k8", builders::complete(8)),
    ]
}

/// The full catalog for the nightly sweep: random substrates across
/// several densities and seeds, tori of multiple shapes, Cartesian and
/// twisted star products, and every paper radix `q ∈ {3, 5, 7, 9, 11}`.
pub fn full_catalog() -> Vec<Substrate> {
    let mut cat = Vec::new();
    for (n, extra, seed) in
        [(8u32, 6u32, 1u64), (16, 20, 2), (24, 40, 3), (32, 24, 4), (40, 90, 5)]
    {
        cat.push(Substrate::new(
            format!("er-n{n}-e{extra}-s{seed}"),
            erdos_renyi_connected(n, extra, seed),
        ));
    }
    for dims in [vec![3u32, 3], vec![4, 4], vec![3, 4], vec![3, 3, 3]] {
        let name = dims.iter().map(u32::to_string).collect::<Vec<_>>().join("x");
        cat.push(Substrate::new(format!("torus-{name}"), Torus::new(&dims).graph().clone()));
    }
    cat.push(Substrate::new(
        "cart-c5xk4",
        cartesian_product(&builders::cycle(5), &builders::complete(4)).graph().clone(),
    ));
    cat.push(Substrate::new(
        "star-k5xk4",
        shifted_product(&builders::complete(5), &builders::complete(4)).graph().clone(),
    ));
    cat.push(Substrate::new(
        "star-c6xc4",
        shifted_product(&builders::cycle(6), &builders::cycle(4)).graph().clone(),
    ));
    for q in [3u64, 5, 7, 9, 11] {
        cat.push(Substrate::new(format!("polarfly-q{q}"), PolarFly::new(q).graph().clone()));
        cat.push(Substrate::new(format!("singer-q{q}"), Singer::new(q).graph().clone()));
    }
    cat.push(Substrate::new("hypercube-5", builders::hypercube(5)));
    cat.push(Substrate::new("petersen", builders::petersen()));
    cat.push(Substrate::new("complete-k12", builders::complete(12)));
    cat.push(Substrate::new("bridged-k5", bridged_cliques(5)));
    cat
}

/// The known closed-form rate bound for the catalog substrate with this
/// name, keyed the same way [`backends_for`] is: `polarfly-q*`/`singer-q*`
/// (isomorphic, Theorem 6.6) get the Corollary 7.1 optimum `(q+1)/2`,
/// `torus-AxBx...` gets `k·n/(n−1)`, `hypercube-d` gets `d·2^(d−1)/(2^d−1)`
/// and `complete-kN` gets `n/2`. `None` for families without a published
/// closed form (random, products, bridged cliques) — there the generic
/// [`crate::rate::allreduce_rate_bound`] is the only bound. The harness
/// asserts the generic computation reproduces every `Some` exactly.
pub fn closed_form_rate_bound(name: &str) -> Option<crate::rational::Rational> {
    use crate::rate;
    if let Some(q) = name
        .strip_prefix("polarfly-q")
        .or_else(|| name.strip_prefix("singer-q"))
        .and_then(|s| s.parse::<u64>().ok())
    {
        return Some(rate::polarfly_bound(q));
    }
    if let Some(dims) = name.strip_prefix("torus-").map(|s| {
        s.split('x').map(|d| d.parse::<u32>().ok()).collect::<Option<Vec<_>>>()
    }) {
        return Some(rate::torus_bound(&dims?));
    }
    if let Some(d) = name.strip_prefix("hypercube-").and_then(|s| s.parse::<u32>().ok()) {
        return Some(rate::hypercube_bound(d));
    }
    if let Some(n) = name.strip_prefix("complete-k").and_then(|s| s.parse::<u32>().ok()) {
        return Some(rate::complete_bound(n));
    }
    None
}

/// The backends applicable to the catalog substrate with this name: the
/// three generic backends always, plus the specializations keyed by name —
/// `polarfly-q*` gets the low-depth construction, `singer-q*` the
/// Hamiltonian one, and the product substrates get the star-product
/// edge-disjoint construction rebuilt with its bijections. The tree
/// harness and `experiments topo-compare` iterate this same list, so both
/// layers see the same backend × substrate matrix.
pub fn backends_for(name: &str) -> Vec<Box<dyn TreeConstruction>> {
    let mut backends: Vec<Box<dyn TreeConstruction>> = vec![
        Box::new(BfsSingle),
        Box::new(GreedyPeel { seed: 7 }),
        Box::new(KaryMultitree { k: 3 }),
    ];
    if let Some(q) = name.strip_prefix("polarfly-q").and_then(|s| s.parse::<u64>().ok()) {
        backends.push(Box::new(PolarFlyLowDepth { q }));
    }
    if let Some(q) = name.strip_prefix("singer-q").and_then(|s| s.parse::<u64>().ok()) {
        backends.push(Box::new(PolarFlyHamiltonian { q, attempts: 30, seed: 9 }));
    }
    let sp = match name {
        "star-c4xk4" => Some(shifted_product(&builders::cycle(4), &builders::complete(4))),
        "star-k5xk4" => Some(shifted_product(&builders::complete(5), &builders::complete(4))),
        "star-c6xc4" => Some(shifted_product(&builders::cycle(6), &builders::cycle(4))),
        "cart-c5xk4" => Some(cartesian_product(&builders::cycle(5), &builders::complete(4))),
        _ => None,
    };
    if let Some(sp) = sp {
        backends.push(Box::new(StarProductDisjoint::new(sp, 3)));
    }
    backends
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn catalogs_are_connected_and_deterministic() {
        for cat in [quick_catalog(), full_catalog()] {
            for s in &cat {
                assert!(s.graph.num_vertices() >= 2, "{}", s.name);
                assert!(bfs::is_connected(&s.graph), "{}", s.name);
            }
        }
        let a = full_catalog();
        let b = full_catalog();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.num_edges(), y.graph.num_edges());
            assert!(x.graph.edges().eq(y.graph.edges()), "{}", x.name);
        }
    }

    #[test]
    fn bridged_cliques_have_one_bridge() {
        let g = bridged_cliques(4);
        assert_eq!(g.num_vertices(), 8);
        // 2 × C(4,2) + 1 bridge.
        assert_eq!(g.num_edges(), 13);
        assert!(bfs::is_connected(&g));
        // Deleting the bridge disconnects.
        let bridge = g.edge_id(3, 4).unwrap();
        let cut = pf_graph::surviving(&g, &[], &[bridge]);
        assert!(!bfs::is_connected(&cut.graph));
    }

    #[test]
    fn closed_forms_cover_the_expected_families() {
        use crate::rate;
        assert_eq!(closed_form_rate_bound("polarfly-q5"), Some(rate::polarfly_bound(5)));
        assert_eq!(closed_form_rate_bound("singer-q7"), Some(rate::polarfly_bound(7)));
        assert_eq!(closed_form_rate_bound("torus-3x3x3"), Some(rate::torus_bound(&[3, 3, 3])));
        assert_eq!(closed_form_rate_bound("hypercube-4"), Some(rate::hypercube_bound(4)));
        assert_eq!(closed_form_rate_bound("complete-k8"), Some(rate::complete_bound(8)));
        for generic in ["er-n20", "star-c4xk4", "cart-c5xk4", "bridged-k5", "petersen"] {
            assert_eq!(closed_form_rate_bound(generic), None, "{generic}");
        }
    }

    #[test]
    fn erdos_renyi_is_connected_for_many_seeds() {
        for seed in 0..20 {
            let g = erdos_renyi_connected(15, 10, seed);
            assert!(bfs::is_connected(&g));
            assert_eq!(g.num_vertices(), 15);
        }
    }
}
