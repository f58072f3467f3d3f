//! Pluggable spanning-tree constructions over arbitrary substrates.
//!
//! The paper's planner is PolarFly-specific, but everything downstream of
//! tree construction — Algorithm 1 water-filling, the simulator embedding,
//! fault recovery, the scheduler — operates on generic
//! [`RootedTree`] sets over any [`Graph`]. [`TreeConstruction`] is the
//! seam: a backend takes any substrate plus a [`Budget`] (tree-count cap,
//! preferred root) and returns a spanning-tree set, which
//! [`crate::AllreducePlan::construct`] prices with Algorithm 1.
//!
//! Backends in this module:
//!
//! * [`PolarFlyLowDepth`] / [`PolarFlyHamiltonian`] — the paper's two
//!   constructions, ported to the trait as PolarFly specializations (they
//!   reject substrates that are not the expected `ER_q` / Singer graph);
//! * [`KaryMultitree`] — the iterative multitree builder of the
//!   `farabimahmud/accelerator` lineage (SNIPPETS.md 1–3): trees grow
//!   round-robin, preferring globally least-used links, with a per-vertex
//!   children cap of `k − 1` — works on arbitrary connected substrates;
//! * [`BfsSingle`] — one BFS spanning tree, the "current practice"
//!   baseline on any substrate;
//! * [`GreedyPeel`] — randomized-Kruskal edge-disjoint peeling, the
//!   structure-blind strawman of the `ablation-naive` experiment.
//!
//! The star-product edge-disjoint construction lives in
//! [`crate::starprod`]; the property harness that keeps every backend
//! honest is `crates/core/tests/tree_harness.rs` (see
//! `docs/CONSTRUCTIONS.md`).

use pf_graph::{bfs, EdgeId, Graph, RootedTree, VertexId};
use pf_topo::{PolarFly, Singer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Resource budget handed to a construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Upper bound on the number of trees to return (`None` = backend's
    /// natural count).
    pub max_trees: Option<usize>,
    /// Preferred root / starter vertex, for backends that take one.
    pub root: Option<VertexId>,
}

impl Budget {
    /// No caps, no root preference.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// At most `n` trees.
    pub fn trees(n: usize) -> Self {
        Budget { max_trees: Some(n), root: None }
    }
}

/// Why a construction could not produce a plan. Degenerate substrates are
/// typed errors, never panics — the harness' degenerate-substrate suite
/// pins this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstructError {
    /// The substrate has no vertices.
    EmptySubstrate,
    /// A single-vertex substrate: the collective is a no-op and there is
    /// no link to price a plan on.
    TooSmall,
    /// No spanning tree exists: the substrate is disconnected.
    Disconnected {
        /// Number of connected components.
        components: u32,
    },
    /// The backend is specialized to a substrate family this graph does
    /// not belong to (e.g. the paper's constructions off PolarFly).
    UnsupportedSubstrate(String),
    /// The backend ran but produced no valid spanning tree.
    NoTrees(String),
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::EmptySubstrate => write!(f, "substrate has no vertices"),
            ConstructError::TooSmall => {
                write!(f, "substrate has a single vertex; no links to plan over")
            }
            ConstructError::Disconnected { components } => {
                write!(f, "substrate is disconnected ({components} components)")
            }
            ConstructError::UnsupportedSubstrate(why) => {
                write!(f, "unsupported substrate: {why}")
            }
            ConstructError::NoTrees(why) => write!(f, "no spanning trees found: {why}"),
        }
    }
}

impl std::error::Error for ConstructError {}

/// A spanning-tree construction backend.
///
/// Contract (property-checked by `tests/tree_harness.rs` for every
/// backend × substrate):
///
/// * every returned tree is a spanning tree of the substrate (covers all
///   vertices with exactly `n − 1` graph edges, acyclic, connected, with
///   consistent rooted orientation);
/// * if [`TreeConstruction::claims_edge_disjoint`] is true, the trees are
///   pairwise edge-disjoint;
/// * if [`TreeConstruction::congestion_bound`] returns `Some(c)`, no edge
///   appears in more than `c` trees;
/// * at most `budget.max_trees` trees are returned;
/// * degenerate substrates produce a typed [`ConstructError`], not a
///   panic;
/// * the output is deterministic for a given substrate and budget.
pub trait TreeConstruction {
    /// Short stable name, used as the plan label and in tables.
    fn name(&self) -> &'static str;

    /// Whether the returned trees are guaranteed pairwise edge-disjoint.
    fn claims_edge_disjoint(&self) -> bool {
        false
    }

    /// Guaranteed worst-case link congestion, when the backend has one
    /// (Theorem 7.6 gives 2 for the low-depth trees, Theorem 7.19 gives 1
    /// for edge-disjoint sets).
    fn congestion_bound(&self) -> Option<u32> {
        None
    }

    /// Builds the spanning-tree set for `g` under `budget`.
    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError>;
}

/// Rejects empty, single-vertex and disconnected substrates — the shared
/// prologue every backend runs.
pub fn check_substrate(g: &Graph) -> Result<(), ConstructError> {
    match g.num_vertices() {
        0 => return Err(ConstructError::EmptySubstrate),
        1 => return Err(ConstructError::TooSmall),
        _ => {}
    }
    let (_, components) = bfs::connected_components(g);
    if components != 1 {
        return Err(ConstructError::Disconnected { components });
    }
    Ok(())
}

/// Truncates `trees` to the budget's cap (a prefix of an edge-disjoint set
/// stays edge-disjoint; a prefix under a congestion bound stays under it).
fn apply_budget(mut trees: Vec<RootedTree>, budget: &Budget) -> Vec<RootedTree> {
    if let Some(cap) = budget.max_trees {
        trees.truncate(cap);
    }
    trees
}

/// Same edge set (as vertex pairs) — the substrate check the PolarFly
/// specializations use: their trees are expressed in a fixed labeling, so
/// the substrate must match that labeling edge for edge.
fn same_edges(a: &Graph, b: &Graph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    a.edges().all(|(_, u, v)| b.has_edge(u, v))
}

/// §7.1 low-depth trees (Algorithm 3) as a [`TreeConstruction`]: `q`
/// depth-≤3 trees with congestion ≤ 2 on the `ER_q` labeling.
#[derive(Debug, Clone, Copy)]
pub struct PolarFlyLowDepth {
    /// Field order (odd prime power).
    pub q: u64,
}

impl TreeConstruction for PolarFlyLowDepth {
    fn name(&self) -> &'static str {
        "low-depth"
    }

    fn congestion_bound(&self) -> Option<u32> {
        Some(2)
    }

    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError> {
        check_substrate(g)?;
        let pf = PolarFly::new(self.q);
        if !same_edges(g, pf.graph()) {
            return Err(ConstructError::UnsupportedSubstrate(format!(
                "low-depth trees need the ER_{} labeling ({} vertices), got {} vertices / {} edges",
                self.q,
                pf.graph().num_vertices(),
                g.num_vertices(),
                g.num_edges()
            )));
        }
        let out = crate::lowdepth::low_depth_trees(&pf, budget.root)
            .map_err(ConstructError::NoTrees)?;
        Ok(apply_budget(out.trees, budget))
    }
}

/// §7.2 edge-disjoint Hamiltonian-path trees as a [`TreeConstruction`]:
/// `⌊(q+1)/2⌋` depth-`(N−1)/2` trees with congestion 1 on the Singer
/// labeling.
#[derive(Debug, Clone, Copy)]
pub struct PolarFlyHamiltonian {
    /// Field order (prime power).
    pub q: u64,
    /// Random-search attempts for the independent-set protocol.
    pub attempts: usize,
    /// Search seed.
    pub seed: u64,
}

impl TreeConstruction for PolarFlyHamiltonian {
    fn name(&self) -> &'static str {
        "hamiltonian"
    }

    fn claims_edge_disjoint(&self) -> bool {
        true
    }

    fn congestion_bound(&self) -> Option<u32> {
        Some(1)
    }

    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError> {
        check_substrate(g)?;
        let s = Singer::new(self.q);
        if !same_edges(g, s.graph()) {
            return Err(ConstructError::UnsupportedSubstrate(format!(
                "Hamiltonian trees need the Singer S_{} labeling, got {} vertices / {} edges",
                self.q,
                g.num_vertices(),
                g.num_edges()
            )));
        }
        let sol = crate::disjoint::find_edge_disjoint(&s, self.attempts, self.seed);
        if sol.trees.is_empty() {
            return Err(ConstructError::NoTrees(format!(
                "no edge-disjoint Hamiltonian paths found for q = {}",
                self.q
            )));
        }
        Ok(apply_budget(sol.trees, budget))
    }
}

/// One BFS spanning tree — the single-tree baseline on any substrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsSingle;

impl TreeConstruction for BfsSingle {
    fn name(&self) -> &'static str {
        "bfs-single"
    }

    fn claims_edge_disjoint(&self) -> bool {
        true
    }

    fn congestion_bound(&self) -> Option<u32> {
        Some(1)
    }

    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError> {
        check_substrate(g)?;
        let root = budget.root.unwrap_or(0).min(g.num_vertices() - 1);
        let (_, parents) = bfs::tree(g, root);
        let t = RootedTree::from_parents(root, parents)
            .map_err(|e| ConstructError::NoTrees(e.to_string()))?;
        Ok(apply_budget(vec![t], budget))
    }
}

/// Greedy randomized-Kruskal edge-disjoint peeling — the structure-blind
/// way to chase disjointness on any substrate. Each round runs a
/// randomized Kruskal pass (random edge order + union-find) over the
/// still-unused edges and roots the tree at a random vertex; peeling stops
/// when the residual graph no longer spans. The trees come out pairwise
/// edge-disjoint.
///
/// Randomized Kruskal spreads tree degree across vertices (unlike a BFS
/// tree, which consumes *every* edge of its root and instantly isolates it
/// in the residual graph), so it peels several trees — but, lacking the
/// Hamiltonian structure, it still stalls before the `⌊(q+1)/2⌋` optimum
/// on most PolarFly instances. That gap is the point of the
/// `ablation-naive` experiment.
#[derive(Debug, Clone, Copy)]
pub struct GreedyPeel {
    /// Shuffle seed (the output is deterministic given the seed).
    pub seed: u64,
}

impl TreeConstruction for GreedyPeel {
    fn name(&self) -> &'static str {
        "greedy-peel"
    }

    fn claims_edge_disjoint(&self) -> bool {
        true
    }

    fn congestion_bound(&self) -> Option<u32> {
        Some(1)
    }

    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError> {
        // A connected substrate always yields the first tree.
        check_substrate(g)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut used = vec![false; g.num_edges() as usize];
        let mut trees = Vec::new();
        while let Some(t) = random_kruskal_avoiding(g, &used, &mut rng) {
            for id in t.edge_ids(g) {
                used[id as usize] = true;
            }
            trees.push(t);
        }
        Ok(apply_budget(trees, budget))
    }
}

/// Randomized Kruskal spanning tree over the unused edges, or `None` if
/// the residual graph is disconnected.
fn random_kruskal_avoiding(g: &Graph, used: &[bool], rng: &mut impl Rng) -> Option<RootedTree> {
    let n = g.num_vertices();
    let mut edges: Vec<(u32, VertexId, VertexId)> = g
        .edges()
        .filter(|&(e, _, _)| !used[e as usize])
        .collect();
    edges.shuffle(rng);
    let mut dsu = pf_graph::dsu::Dsu::new(n);
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n as usize];
    for (_, u, v) in edges {
        if dsu.union(u, v) {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
            if dsu.components() == 1 {
                break;
            }
        }
    }
    if dsu.components() != 1 {
        return None;
    }
    // Orient the forest into a rooted tree at a random root.
    let root = rng.random_range(0..n);
    let mut parent: Vec<Option<VertexId>> = vec![None; n as usize];
    let mut seen = vec![false; n as usize];
    seen[root as usize] = true;
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        for &v in &adj[u as usize] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                parent[v as usize] = Some(u);
                stack.push(v);
            }
        }
    }
    RootedTree::from_parents(root, parent).ok()
}

/// Iterative kary multitree construction for arbitrary substrates.
///
/// Grows several trees simultaneously, round-robin: each step, the active
/// tree attaches the not-yet-covered neighbor reachable over the globally
/// least-used link (ties to the lowest edge id), and any vertex may adopt
/// at most `k − 1` children (`k` at the root — one port feeds the
/// parent). Interleaving the trees and preferring cold links spreads
/// congestion the way the accelerator exemplar's alternating link
/// allocation does; the cap keeps fan-out bounded like its kary trees.
/// If the cap wedges an unfinished tree, it is lifted for that tree so
/// construction always completes on connected substrates.
///
/// No disjointness or congestion guarantee is claimed — that is what the
/// cross-backend comparison (and Algorithm 1) measures.
#[derive(Debug, Clone, Copy)]
pub struct KaryMultitree {
    /// Arity: maximum children per non-root vertex is `k − 1` (min 2).
    pub k: u32,
}

impl KaryMultitree {
    /// Natural tree count for `g`: its minimum degree (the vertex-capacity
    /// bound on how many trees can help; the min cut behind
    /// [`crate::rate::allreduce_rate_bound`] is never above it).
    fn natural_count(g: &Graph) -> usize {
        g.min_degree().max(1) as usize
    }

    /// The effective arity (`k ≥ 2`) and one root per tree, spread across
    /// the vertex range; an explicit budget root is the first tree's.
    fn arity_and_roots(&self, g: &Graph, budget: &Budget) -> (u32, Vec<VertexId>) {
        let n = g.num_vertices();
        let count = budget
            .max_trees
            .unwrap_or_else(|| Self::natural_count(g))
            .clamp(1, n as usize);
        let stride = (n as usize / count).max(1) as u32;
        let roots = (0..count as u32)
            .map(|i| match (i, budget.root) {
                (0, Some(r)) => r.min(n - 1),
                _ => (i * stride) % n,
            })
            .collect();
        (self.k.max(2), roots)
    }
}

/// Packs a frontier candidate as `(link use << 32) | edge id`, so `u64`
/// order is exactly the `(use, edge id)` preference order.
fn frontier_key(uses: u32, e: EdgeId) -> Reverse<u64> {
    Reverse((u64::from(uses) << 32) | u64::from(e))
}

/// One tree under construction, with its frontier: a min-heap of
/// candidate edges from members to non-members, keyed by the link use
/// recorded when the entry was pushed.
struct GrowingTree {
    root: VertexId,
    parents: Vec<Option<VertexId>>,
    in_tree: Vec<bool>,
    members: Vec<VertexId>,
    children: Vec<u32>,
    /// Whether the `k − 1` children cap still applies.
    capped: bool,
    frontier: BinaryHeap<Reverse<u64>>,
}

impl GrowingTree {
    fn new(g: &Graph, root: VertexId, link_use: &[u32]) -> Self {
        let n = g.num_vertices() as usize;
        let mut t = GrowingTree {
            root,
            parents: vec![None; n],
            in_tree: vec![false; n],
            members: Vec::new(),
            children: vec![0; n],
            capped: true,
            frontier: BinaryHeap::new(),
        };
        t.in_tree[root as usize] = true;
        t.members.push(root);
        t.push_edges(g, root, link_use);
        t
    }

    fn is_spanning(&self) -> bool {
        self.members.len() == self.in_tree.len()
    }

    fn push_edges(&mut self, g: &Graph, u: VertexId, link_use: &[u32]) {
        for &(v, e) in g.neighbors_with_edges(u) {
            if !self.in_tree[v as usize] {
                self.frontier.push(frontier_key(link_use[e as usize], e));
            }
        }
    }

    /// Pops the frontier edge with the lowest current `(link use, edge
    /// id)` among members with spare child capacity, as
    /// `(edge, member, non-member)`. Link use only grows, so a stored key
    /// never exceeds the current one: an entry whose key is current is the
    /// true minimum, and a stale one is re-pushed at its current use.
    fn pop_best(
        &mut self,
        g: &Graph,
        k: u32,
        link_use: &[u32],
    ) -> Option<(EdgeId, VertexId, VertexId)> {
        while let Some(Reverse(key)) = self.frontier.pop() {
            let (uses, e) = ((key >> 32) as u32, key as EdgeId);
            let (a, b) = g.endpoints(e);
            let (u, v) = if self.in_tree[a as usize] { (a, b) } else { (b, a) };
            let cap = if u == self.root { k } else { k - 1 };
            // Both checks only ever turn true (until the cap is lifted,
            // which rebuilds the frontier), so dropped entries stay dead.
            if self.in_tree[v as usize] || (self.capped && self.children[u as usize] >= cap) {
                continue;
            }
            if uses != link_use[e as usize] {
                self.frontier.push(frontier_key(link_use[e as usize], e));
                continue;
            }
            return Some((e, u, v));
        }
        None
    }

    /// Lifts the children cap and refills the frontier from every member.
    fn lift_cap(&mut self, g: &Graph, link_use: &[u32]) {
        self.capped = false;
        self.frontier.clear();
        for i in 0..self.members.len() {
            self.push_edges(g, self.members[i], link_use);
        }
    }
}

/// Round-robin growth of one tree per root: each round, every unfinished
/// tree attaches the non-member reachable over the least-used link (ties
/// to the lowest edge id) from a member under the children cap, or lifts
/// the cap if it wedged the tree. Returns each tree's parent array.
fn grow_trees(g: &Graph, k: u32, roots: &[VertexId]) -> Vec<Vec<Option<VertexId>>> {
    let mut link_use = vec![0u32; g.num_edges() as usize];
    let mut trees: Vec<GrowingTree> =
        roots.iter().map(|&r| GrowingTree::new(g, r, &link_use)).collect();
    while trees.iter().any(|t| !t.is_spanning()) {
        for t in trees.iter_mut().filter(|t| !t.is_spanning()) {
            match t.pop_best(g, k, &link_use) {
                Some((e, u, v)) => {
                    t.parents[v as usize] = Some(u);
                    t.in_tree[v as usize] = true;
                    t.members.push(v);
                    t.children[u as usize] += 1;
                    link_use[e as usize] += 1;
                    t.push_edges(g, v, &link_use);
                }
                // The children cap wedged this tree: lift it and let the
                // next round finish the job.
                None if t.capped => t.lift_cap(g, &link_use),
                None => unreachable!("connected substrate: some frontier edge must exist"),
            }
        }
    }
    trees.into_iter().map(|t| t.parents).collect()
}

/// Roots each parent array into a [`RootedTree`].
fn rooted(
    roots: Vec<VertexId>,
    parents: Vec<Vec<Option<VertexId>>>,
) -> Result<Vec<RootedTree>, ConstructError> {
    roots
        .into_iter()
        .zip(parents)
        .map(|(r, p)| {
            RootedTree::from_parents(r, p).map_err(|e| ConstructError::NoTrees(e.to_string()))
        })
        .collect()
}

impl TreeConstruction for KaryMultitree {
    fn name(&self) -> &'static str {
        "kary-multitree"
    }

    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError> {
        check_substrate(g)?;
        let (k, roots) = self.arity_and_roots(g, budget);
        let parents = grow_trees(g, k, &roots);
        rooted(roots, parents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::builders;
    use pf_graph::tree::{edge_congestion, pairwise_edge_disjoint};
    use proptest::prelude::*;

    fn spans(trees: &[RootedTree], g: &Graph) {
        assert!(!trees.is_empty());
        for t in trees {
            t.validate_spanning(g).unwrap();
        }
    }

    #[test]
    fn polarfly_backends_match_their_direct_constructors() {
        let pf = PolarFly::new(7);
        let low = PolarFlyLowDepth { q: 7 }.build(pf.graph(), &Budget::unlimited()).unwrap();
        assert_eq!(low.len(), 7);
        spans(&low, pf.graph());
        assert!(edge_congestion(&low, pf.graph()).iter().all(|&c| c <= 2));

        let s = Singer::new(7);
        let ham = PolarFlyHamiltonian { q: 7, attempts: 30, seed: 9 }
            .build(s.graph(), &Budget::unlimited())
            .unwrap();
        assert_eq!(ham.len(), 4);
        spans(&ham, s.graph());
        assert!(pairwise_edge_disjoint(&ham, s.graph()));
    }

    #[test]
    fn polarfly_backends_reject_foreign_substrates() {
        let torus = builders::torus2d(4, 4);
        let err = PolarFlyLowDepth { q: 3 }.build(&torus, &Budget::unlimited()).unwrap_err();
        assert!(matches!(err, ConstructError::UnsupportedSubstrate(_)));
        let err = PolarFlyHamiltonian { q: 3, attempts: 5, seed: 0 }
            .build(&torus, &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, ConstructError::UnsupportedSubstrate(_)));
        // The ER and Singer labelings differ, so each specialization
        // rejects the other's graph.
        let err = PolarFlyHamiltonian { q: 7, attempts: 5, seed: 0 }
            .build(PolarFly::new(7).graph(), &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, ConstructError::UnsupportedSubstrate(_)));
    }

    #[test]
    fn degenerate_substrates_are_typed_errors() {
        let empty = Graph::new(0);
        let lone = Graph::new(1);
        let mut split = Graph::new(4);
        split.add_edge(0, 1);
        split.add_edge(2, 3);
        let backends: Vec<Box<dyn TreeConstruction>> = vec![
            Box::new(BfsSingle),
            Box::new(GreedyPeel { seed: 0 }),
            Box::new(KaryMultitree { k: 4 }),
            Box::new(PolarFlyLowDepth { q: 3 }),
        ];
        for b in &backends {
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
    fn kary_covers_torus_and_respects_budget() {
        let g = builders::torus2d(4, 4);
        let trees = KaryMultitree { k: 2 }.build(&g, &Budget::unlimited()).unwrap();
        assert_eq!(trees.len(), 4); // min degree of the 2-D torus
        spans(&trees, &g);
        let two = KaryMultitree { k: 2 }.build(&g, &Budget::trees(2)).unwrap();
        assert_eq!(two.len(), 2);
        spans(&two, &g);
    }

    #[test]
    fn kary_cap_lifts_on_wedging_substrates() {
        // A star forces the hub to adopt n-2 children, far above k-1.
        let g = builders::star(8);
        let trees = KaryMultitree { k: 2 }.build(&g, &Budget::trees(1)).unwrap();
        spans(&trees, &g);
    }

    /// Reference for [`grow_trees`]: the quadratic builder it replaced,
    /// which rescans every member × neighbor for the lowest `(link use,
    /// edge id)` frontier edge each time a tree attaches one vertex.
    fn grow_trees_by_scan(g: &Graph, k: u32, roots: &[VertexId]) -> Vec<Vec<Option<VertexId>>> {
        let n = g.num_vertices();
        let count = roots.len();
        let mut link_use = vec![0u32; g.num_edges() as usize];
        let mut parents: Vec<Vec<Option<VertexId>>> = vec![vec![None; n as usize]; count];
        let mut in_tree: Vec<Vec<bool>> = vec![vec![false; n as usize]; count];
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); count];
        let mut child_cnt: Vec<Vec<u32>> = vec![vec![0; n as usize]; count];
        let mut capped: Vec<bool> = vec![true; count];
        for (ti, &r) in roots.iter().enumerate() {
            in_tree[ti][r as usize] = true;
            members[ti].push(r);
        }
        while members.iter().any(|m| m.len() < n as usize) {
            for ti in 0..count {
                if members[ti].len() == n as usize {
                    continue;
                }
                let mut best: Option<(u32, EdgeId, VertexId, VertexId)> = None;
                for &u in &members[ti] {
                    let cap = if u == roots[ti] { k } else { k - 1 };
                    if capped[ti] && child_cnt[ti][u as usize] >= cap {
                        continue;
                    }
                    for &(v, e) in g.neighbors_with_edges(u) {
                        if in_tree[ti][v as usize] {
                            continue;
                        }
                        let key = (link_use[e as usize], e, u, v);
                        if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                            best = Some(key);
                        }
                    }
                }
                match best {
                    Some((_, e, u, v)) => {
                        parents[ti][v as usize] = Some(u);
                        in_tree[ti][v as usize] = true;
                        members[ti].push(v);
                        child_cnt[ti][u as usize] += 1;
                        link_use[e as usize] += 1;
                    }
                    None if capped[ti] => capped[ti] = false,
                    None => unreachable!("connected substrate: some frontier edge must exist"),
                }
            }
        }
        parents
    }

    /// The heap builder and the scan oracle agree tree for tree on `g`
    /// under every arity and budget shape the backend distinguishes.
    fn assert_kary_matches_scan(name: &str, g: &Graph) {
        let n = g.num_vertices();
        let mut budgets = vec![Budget::unlimited()];
        budgets.extend((1..=3).map(Budget::trees));
        budgets.push(Budget { max_trees: None, root: Some(n / 2) });
        budgets.push(Budget { max_trees: Some(2), root: Some(n - 1) });
        for k in [2u32, 3, 4] {
            let kary = KaryMultitree { k };
            for budget in &budgets {
                let (arity, roots) = kary.arity_and_roots(g, budget);
                let oracle = rooted(roots.clone(), grow_trees_by_scan(g, arity, &roots)).unwrap();
                let built = kary.build(g, budget).unwrap();
                assert_eq!(built, oracle, "{name} k={k} {budget:?}");
            }
        }
    }

    #[test]
    fn kary_heap_growth_matches_the_scan_oracle() {
        for s in crate::substrates::quick_catalog() {
            assert_kary_matches_scan(&s.name, &s.graph);
        }
        // The children cap wedges both of these: a star's hub and a
        // path's interior can adopt far fewer children than needed.
        assert_kary_matches_scan("star-8", &builders::star(8));
        assert_kary_matches_scan("path-9", &builders::path(9));
        assert_kary_matches_scan("bridged-k4", &crate::substrates::bridged_cliques(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kary_heap_growth_matches_the_scan_oracle_on_random_graphs(
            n in 2u32..40,
            density in 0u32..6,
            seed in any::<u64>(),
        ) {
            let g = crate::substrates::erdos_renyi_connected(n, density * n / 2, seed);
            assert_kary_matches_scan(&format!("er n={n} density={density} seed={seed}"), &g);
        }
    }

    #[test]
    fn kary_is_deterministic() {
        let g = builders::hypercube(4);
        let a = KaryMultitree { k: 3 }.build(&g, &Budget::unlimited()).unwrap();
        let b = KaryMultitree { k: 3 }.build(&g, &Budget::unlimited()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_peel_is_disjoint_on_generic_substrates() {
        let g = builders::complete(8);
        let trees = GreedyPeel { seed: 5 }.build(&g, &Budget::unlimited()).unwrap();
        spans(&trees, &g);
        assert!(pairwise_edge_disjoint(&trees, &g));
    }

    #[test]
    fn bfs_single_honors_the_root_budget() {
        let g = builders::torus2d(3, 5);
        let budget = Budget { max_trees: None, root: Some(7) };
        let trees = BfsSingle.build(&g, &budget).unwrap();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].root(), 7);
        spans(&trees, &g);
    }
}
