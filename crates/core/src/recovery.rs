//! Degraded-plan rebuild after link/router faults.
//!
//! The paper's constructions assume a healthy `ER_q`; this module defines
//! what the allreduce falls back to when the fabric loses links or whole
//! routers mid-collective. Given an [`AllreducePlan`] and a set of failed
//! elements, [`rebuild_degraded`] produces a [`DegradedPlan`] on the
//! surviving subgraph:
//!
//! 1. Trees untouched by the faults survive verbatim (a spanning tree of
//!    the healthy graph whose edges all survive is a spanning tree of the
//!    subgraph).
//! 2. Broken trees are *repaired*: the surviving tree edges form a forest,
//!    which is completed to a spanning tree with the smallest-id surviving
//!    edges (union-find), keeping as much of the paper's structure as
//!    possible.
//! 3. Repairs are accepted greedily, in tree order, only while the
//!    degraded plan's worst-case link congestion stays within the healthy
//!    plan's Theorem 7.6 / 7.19 bound — a repair that would oversubscribe
//!    a link is dropped instead ("falling back to fewer trees").
//! 4. If nothing survives, a single BFS spanning tree of the subgraph is
//!    used (congestion 1 on any connected graph).
//!
//! The degraded plan is an ordinary [`AllreducePlan`] on the surviving
//! subgraph, priced once by Algorithm 1, so the loss relative to the
//! healthy aggregate is quantified exactly (in rational arithmetic).
//! Router faults shrink the vertex set: the collective then runs among the
//! survivors, and the [`DegradedPlan`] carries the id maps between the two
//! labelings.
//!
//! Everything here is deterministic: same plan + same fault set gives the
//! identical degraded plan, which the fault-injection property suites rely
//! on.

use crate::plan::{AllreducePlan, Solution};
use crate::rational::Rational;
use pf_graph::dsu::Dsu;
use pf_graph::{bfs, subgraph, EdgeId, Graph, RootedTree, VertexId};

/// A set of failed network elements, in the healthy graph's labeling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Failed undirected links (original edge ids).
    pub edges: Vec<EdgeId>,
    /// Failed routers (original vertex ids). A failed router also kills
    /// every incident link.
    pub routers: Vec<VertexId>,
}

impl FaultSet {
    /// No faults.
    pub fn none() -> Self {
        FaultSet::default()
    }

    /// Link faults only.
    pub fn links(edges: Vec<EdgeId>) -> Self {
        FaultSet { edges, routers: Vec::new() }
    }

    /// True when nothing failed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.routers.is_empty()
    }
}

/// Why a degraded plan could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildError {
    /// The surviving subgraph is disconnected — no spanning tree exists,
    /// so the collective cannot reach every surviving router.
    Partitioned {
        /// Number of connected components after the faults.
        components: u32,
    },
    /// Every router failed (or the plan had none to begin with).
    NoSurvivors,
}

impl std::fmt::Display for RebuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebuildError::Partitioned { components } => {
                write!(f, "faults partition the network into {components} components")
            }
            RebuildError::NoSurvivors => write!(f, "no surviving routers"),
        }
    }
}

impl std::error::Error for RebuildError {}

/// How each degraded-plan tree relates to the healthy plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOrigin {
    /// The healthy plan's tree at this index survived untouched.
    Intact(usize),
    /// The healthy plan's tree at this index was re-completed from its
    /// surviving edge forest.
    Repaired(usize),
    /// A fresh BFS spanning tree (used only when nothing else survived).
    Fallback,
}

/// A rebuilt allreduce plan on the surviving subgraph: an
/// [`AllreducePlan`] plus its provenance. It dereferences to the plan, so
/// `d.graph`, `d.trees`, `d.bandwidths`, `d.split(m)` and
/// `d.predicted_cycles(m, hop)` read the degraded plan directly.
#[derive(Debug, Clone)]
pub struct DegradedPlan {
    /// The surviving topology (renumbered ids; see the maps below) and its
    /// spanning trees, priced once by Algorithm 1. Labelled
    /// `Constructed("degraded")`, carrying the healthy plan's `q`; its
    /// `max_congestion` is guaranteed `<= congestion_bound`.
    pub plan: AllreducePlan,
    /// Provenance of each tree, parallel to `plan.trees`.
    pub origins: Vec<TreeOrigin>,
    /// Healthy-plan trees dropped because their repair would exceed the
    /// congestion bound.
    pub dropped: usize,
    /// The healthy plan's aggregate, for loss accounting.
    pub healthy_aggregate: Rational,
    /// Worst-case link congestion bound inherited from the healthy plan
    /// (Theorem 7.6 / 7.19); the rebuild never exceeds it.
    pub congestion_bound: u32,
    /// `orig_vertex[new] = old` for surviving routers.
    pub orig_vertex: Vec<VertexId>,
    /// `new_vertex[old] = Some(new)` for survivors, `None` for dead routers.
    pub new_vertex: Vec<Option<VertexId>>,
    /// `orig_edge[new] = old` for surviving links.
    pub orig_edge: Vec<EdgeId>,
    /// `new_edge[old] = Some(new)` for survivors, `None` for dead links.
    pub new_edge: Vec<Option<EdgeId>>,
}

impl std::ops::Deref for DegradedPlan {
    type Target = AllreducePlan;

    fn deref(&self) -> &AllreducePlan {
        &self.plan
    }
}

impl DegradedPlan {
    /// Fraction of the healthy aggregate bandwidth the degraded plan
    /// retains (1 means no loss).
    pub fn bandwidth_retention(&self) -> Rational {
        if self.healthy_aggregate == Rational::ZERO {
            return Rational::ONE;
        }
        self.aggregate / self.healthy_aggregate
    }

    /// Number of healthy-plan trees that survived untouched.
    pub fn intact(&self) -> usize {
        self.origins.iter().filter(|o| matches!(o, TreeOrigin::Intact(_))).count()
    }

    /// Number of healthy-plan trees that were repaired.
    pub fn repaired(&self) -> usize {
        self.origins.iter().filter(|o| matches!(o, TreeOrigin::Repaired(_))).count()
    }

    /// The degraded plan as an owned [`AllreducePlan`] labelled with `q`
    /// — a copy, not a second pricing. The fabric manager caches it to run
    /// waves on the surviving subgraph.
    pub fn to_plan(&self, q: u64) -> AllreducePlan {
        AllreducePlan { q, ..self.plan.clone() }
    }
}

/// Rebuilds `plan` on the subgraph surviving `faults`.
///
/// See the module docs for the strategy. Fails only when the faults
/// disconnect the surviving routers ([`RebuildError::Partitioned`]) or
/// kill all of them ([`RebuildError::NoSurvivors`]).
pub fn rebuild_degraded(
    plan: &AllreducePlan,
    faults: &FaultSet,
) -> Result<DegradedPlan, RebuildError> {
    degrade(plan, faults, None)
}

/// Incrementally extends a previous degraded plan with a new batch of
/// link faults, recomputing only the trees `delta` actually touches.
///
/// `prev` must be `rebuild_degraded(plan, prev_faults)` (or a previous
/// `extend_degraded` result, which is the same thing by induction). The
/// result is **structurally identical** to
/// `rebuild_degraded(plan, &prev_faults.union(delta))` — the incremental
/// path is an optimization, never a semantic fork — which the equivalence
/// suite in `tests/incremental_repair.rs` asserts field by field.
///
/// Returns `None` when the patch would be unsound and the caller must fall
/// back to the full rebuild:
///
/// * `delta` kills routers — the vertex labeling changes, so no previous
///   tree can be reused verbatim;
/// * `prev` resorted to the BFS fallback — there is no per-tree candidate
///   structure to patch;
/// * the combined faults disconnect (or would fully rebuild) the subgraph —
///   the full path owns error reporting.
///
/// Why reuse is sound: with an unchanged router set the surviving vertex
/// labeling is unchanged, and a previously repaired tree was built by
/// Kruskal-style completion (forest first, then smallest-id edges). If all
/// of its edges survive `delta`, re-running the completion on the smaller
/// graph walks the same edges in the same relative order and selects the
/// same set — deleting never-selected edges cannot change a greedy
/// smallest-id selection — so cloning the previous tree equals recomputing
/// it. A candidate that lost an edge is recomputed from the healthy tree's
/// surviving forest, exactly as the full rebuild would.
pub fn extend_degraded(
    plan: &AllreducePlan,
    prev_faults: &FaultSet,
    prev: &DegradedPlan,
    delta: &FaultSet,
) -> Option<DegradedPlan> {
    if !delta.routers.is_empty() || !prev_faults.routers.is_empty() {
        return None;
    }
    if prev.origins.iter().any(|o| matches!(o, TreeOrigin::Fallback)) {
        return None;
    }
    degrade(plan, &prev_faults.union(delta), Some(prev)).ok()
}

/// The one repair path behind [`rebuild_degraded`] and
/// [`extend_degraded`]: degrade `plan` under `faults`, reusing a repaired
/// tree from `prev` (same router set, fewer faults) whenever all its edges
/// survive.
fn degrade(
    plan: &AllreducePlan,
    faults: &FaultSet,
    prev: Option<&DegradedPlan>,
) -> Result<DegradedPlan, RebuildError> {
    let g = &plan.graph;

    // Surviving subgraph: vertices first, then the explicitly failed links
    // that are still present.
    let vd = subgraph::vertex_deleted(g, &faults.routers);
    if vd.graph.num_vertices() == 0 {
        return Err(RebuildError::NoSurvivors);
    }
    let edges_in_vd: Vec<EdgeId> =
        faults.edges.iter().filter_map(|&e| vd.new_edge[e as usize]).collect();
    let ed = subgraph::edge_deleted(&vd.graph, &edges_in_vd);
    let degraded = ed.graph;

    if !bfs::is_connected(&degraded) {
        let (_, components) = bfs::connected_components(&degraded);
        return Err(RebuildError::Partitioned { components });
    }

    // Compose the id maps (healthy <-> degraded). The clones are
    // exact-capacity, so a cached plan's heap footprint (which the fabric
    // soak's live-bytes gauge records) does not depend on how `vd` grew.
    let orig_vertex = vd.orig_vertex.clone();
    let new_vertex = vd.new_vertex.clone();
    let orig_edge: Vec<EdgeId> =
        ed.orig_edge.iter().map(|&mid| vd.orig_edge[mid as usize]).collect();
    let mut new_edge = vec![None; g.num_edges() as usize];
    for (new, &old) in orig_edge.iter().enumerate() {
        new_edge[old as usize] = Some(new as EdgeId);
    }

    let identity_vertices = degraded.num_vertices() == g.num_vertices();

    // Previous candidate per healthy tree index. Trees the previous round
    // dropped have no candidate and are recomputed from scratch below.
    let mut prev_tree: Vec<Option<&RootedTree>> = vec![None; plan.trees.len()];
    for (t, o) in prev.into_iter().flat_map(|p| p.trees.iter().zip(&p.origins)) {
        if let TreeOrigin::Intact(i) | TreeOrigin::Repaired(i) = *o {
            prev_tree[i] = Some(t);
        }
    }

    // Classify and translate each healthy tree.
    let mut candidates: Vec<(RootedTree, TreeOrigin)> = Vec::new();
    for (ti, tree) in plan.trees.iter().enumerate() {
        // Surviving tree edges, as degraded edge ids.
        let mut forest: Vec<EdgeId> = Vec::new();
        let mut broken = !identity_vertices; // router loss breaks every spanning tree
        for (child, parent) in tree.edges() {
            let old = g.edge_id(child, parent).expect("plan tree edge must be physical");
            match new_edge[old as usize] {
                Some(id) => forest.push(id),
                None => broken = true,
            }
        }
        if !broken {
            candidates.push((tree.clone(), TreeOrigin::Intact(ti)));
            continue;
        }
        // A previous candidate whose edges all survive is reused verbatim
        // (see `extend_degraded` for why). `edge_id` on the degraded graph
        // doubles as the survival check because a candidate tree edge is
        // physical in the previous degraded graph, and the new graph is
        // the previous one minus the new faults.
        if let Some(pt) = prev_tree[ti] {
            if pt.edges().all(|(c, p)| degraded.edge_id(c, p).is_some()) {
                candidates.push((pt.clone(), TreeOrigin::Repaired(ti)));
                continue;
            }
        }
        // Repair: complete the surviving forest to a spanning tree, rooted
        // at the original root when it survived.
        let root = new_vertex[tree.root() as usize].unwrap_or(0);
        let repaired = complete_forest(&degraded, &forest, root);
        candidates.push((repaired, TreeOrigin::Repaired(ti)));
    }

    // Greedy acceptance under the healthy congestion bound: intact trees
    // first (their combined congestion is a sub-sum of the healthy plan's,
    // hence within the bound), then repairs in tree order.
    let bound = plan.max_congestion.max(1);
    let mut congestion = vec![0u32; degraded.num_edges() as usize];
    let mut trees: Vec<RootedTree> = Vec::new();
    let mut origins: Vec<TreeOrigin> = Vec::new();
    let mut dropped = 0usize;
    for pass in [true, false] {
        for (tree, origin) in &candidates {
            if matches!(origin, TreeOrigin::Intact(_)) != pass {
                continue;
            }
            let ids = tree.edge_ids(&degraded);
            if ids.iter().any(|&e| congestion[e as usize] + 1 > bound) {
                dropped += 1;
                continue;
            }
            for &e in &ids {
                congestion[e as usize] += 1;
            }
            trees.push(tree.clone());
            origins.push(*origin);
        }
    }

    // Last resort: a fresh BFS spanning tree (congestion 1 fits any bound).
    if trees.is_empty() {
        let (_, parents) = bfs::tree(&degraded, 0);
        let t = RootedTree::from_parents(0, parents)
            .expect("BFS of a connected graph yields a spanning tree");
        trees.push(t);
        origins.push(TreeOrigin::Fallback);
    }

    Ok(DegradedPlan {
        plan: AllreducePlan::from_tree_set(
            plan.q,
            Solution::Constructed("degraded"),
            degraded,
            trees,
        ),
        origins,
        dropped,
        healthy_aggregate: plan.aggregate,
        congestion_bound: bound,
        orig_vertex,
        new_vertex,
        orig_edge,
        new_edge,
    })
}

/// Completes `forest` (edge ids of `g`, guaranteed acyclic) to a spanning
/// tree of the connected graph `g`, preferring the forest edges and then
/// the smallest-id edges, and returns it rooted at `root`.
fn complete_forest(g: &Graph, forest: &[EdgeId], root: VertexId) -> RootedTree {
    let mut dsu = Dsu::new(g.num_vertices());
    let mut selected = vec![false; g.num_edges() as usize];
    for &e in forest {
        let (u, v) = g.endpoints(e);
        if dsu.union(u, v) {
            selected[e as usize] = true;
        }
    }
    for (e, u, v) in g.edges() {
        if dsu.components() == 1 {
            break;
        }
        if dsu.union(u, v) {
            selected[e as usize] = true;
        }
    }
    debug_assert_eq!(dsu.components(), 1, "caller guarantees g is connected");

    // Orient the selected edges away from the root.
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); g.num_vertices() as usize];
    for (e, u, v) in g.edges() {
        if selected[e as usize] {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    let mut parent = vec![None; g.num_vertices() as usize];
    let mut seen = vec![false; g.num_vertices() as usize];
    let mut queue = std::collections::VecDeque::from([root]);
    seen[root as usize] = true;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                parent[v as usize] = Some(u);
                queue.push_back(v);
            }
        }
    }
    RootedTree::from_parents(root, parent).expect("selected edges span the graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AllreducePlan;

    #[test]
    fn no_faults_keeps_every_tree_intact() {
        let plan = AllreducePlan::low_depth(7).unwrap();
        let d = rebuild_degraded(&plan, &FaultSet::none()).unwrap();
        assert_eq!(d.trees.len(), plan.trees.len());
        assert_eq!(d.intact(), plan.trees.len());
        assert_eq!(d.dropped, 0);
        assert_eq!(d.aggregate, plan.aggregate);
        assert_eq!(d.bandwidth_retention(), Rational::ONE);
        assert_eq!(d.max_congestion, plan.max_congestion);
    }

    #[test]
    fn single_link_fault_keeps_congestion_bounded() {
        let plan = AllreducePlan::low_depth(7).unwrap();
        for e in [0u32, 5, 17, 100] {
            let d = rebuild_degraded(&plan, &FaultSet::links(vec![e])).unwrap();
            assert!(d.max_congestion <= plan.max_congestion, "edge {e}");
            assert!(!d.trees.is_empty());
            // Every tree spans the degraded graph.
            for t in &d.trees {
                t.validate_spanning(&d.graph).unwrap();
            }
            // The degraded edge count reflects exactly one loss.
            assert_eq!(d.graph.num_edges() + 1, plan.graph.num_edges());
            assert!(d.aggregate <= plan.aggregate);
            assert!(d.aggregate > Rational::ZERO);
        }
    }

    #[test]
    fn edge_disjoint_plan_survives_or_drops() {
        let plan = AllreducePlan::edge_disjoint(7, 30, 3).unwrap();
        let d = rebuild_degraded(&plan, &FaultSet::links(vec![0])).unwrap();
        // Congestion-1 bound must be preserved even through repairs.
        assert!(d.max_congestion <= 1);
        for t in &d.trees {
            t.validate_spanning(&d.graph).unwrap();
        }
    }

    #[test]
    fn router_fault_rebuilds_on_survivors() {
        let plan = AllreducePlan::low_depth(5).unwrap();
        let dead = 3u32;
        let d =
            rebuild_degraded(&plan, &FaultSet { edges: vec![], routers: vec![dead] }).unwrap();
        assert_eq!(d.graph.num_vertices() + 1, plan.graph.num_vertices());
        assert_eq!(d.new_vertex[dead as usize], None);
        // All healthy trees break on a router loss; everything is repaired
        // or dropped, never intact.
        assert_eq!(d.intact(), 0);
        assert!(!d.trees.is_empty());
        for t in &d.trees {
            t.validate_spanning(&d.graph).unwrap();
        }
        assert!(d.max_congestion <= plan.max_congestion.max(1));
    }

    #[test]
    fn isolating_faults_report_partition() {
        let plan = AllreducePlan::single_tree(3).unwrap();
        // Kill every link of router 0: the survivors stay connected
        // (diameter 2), but router 0 is cut off.
        let incident: Vec<u32> = plan
            .graph
            .neighbors_with_edges(0)
            .iter()
            .map(|&(_, e)| e)
            .collect();
        let err = rebuild_degraded(&plan, &FaultSet::links(incident)).unwrap_err();
        assert!(matches!(err, RebuildError::Partitioned { .. }), "{err}");
    }

    /// Field-by-field equality of two plans (`AllreducePlan` has no
    /// `PartialEq`).
    fn assert_same_plan(a: &AllreducePlan, b: &AllreducePlan, case: &str) {
        assert_eq!((a.q, a.solution), (b.q, b.solution), "{case}");
        assert!(a.graph.edges().eq(b.graph.edges()), "{case}");
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices(), "{case}");
        assert_eq!(a.trees, b.trees, "{case}");
        assert_eq!(a.bandwidths, b.bandwidths, "{case}");
        assert_eq!(a.aggregate, b.aggregate, "{case}");
        assert_eq!(a.depth, b.depth, "{case}");
        assert_eq!(a.edge_congestion, b.edge_congestion, "{case}");
        assert_eq!(a.max_congestion, b.max_congestion, "{case}");
    }

    #[test]
    fn degraded_plans_are_priced_once() {
        // Rebuilt and extended plans after one link fault, two link
        // faults and one router fault: the promoted plan is exactly what
        // pricing the surviving tree set from scratch gives.
        for q in [5u64, 7] {
            let plan = AllreducePlan::low_depth(q).unwrap();
            let used: Vec<u32> = (0..plan.graph.num_edges())
                .filter(|&e| plan.edge_congestion[e as usize] > 0)
                .collect();
            let (a, b) = (FaultSet::links(vec![used[0]]), FaultSet::links(vec![used[3]]));
            let router = FaultSet { edges: vec![], routers: vec![3] };
            let mut cases = vec![
                ("one link", rebuild_degraded(&plan, &a).unwrap()),
                ("two links", rebuild_degraded(&plan, &a.union(&b)).unwrap()),
                ("one router", rebuild_degraded(&plan, &router).unwrap()),
            ];
            let none = rebuild_degraded(&plan, &FaultSet::none()).unwrap();
            let first = extend_degraded(&plan, &FaultSet::none(), &none, &a).unwrap();
            let second = extend_degraded(&plan, &a, &first, &b).unwrap();
            cases.push(("one link, extended", first));
            cases.push(("two links, extended", second));
            for (label, d) in &cases {
                let case = format!("q={q} {label}");
                assert_eq!((d.q, d.solution), (q, Solution::Constructed("degraded")), "{case}");
                let priced = AllreducePlan::from_tree_set(
                    q,
                    Solution::Constructed("degraded"),
                    d.graph.clone(),
                    d.trees.clone(),
                );
                assert_same_plan(&d.to_plan(q), &priced, &case);
                assert!(d.max_congestion <= d.congestion_bound, "{case}");
            }
        }
    }

    #[test]
    fn rebuild_is_deterministic() {
        let plan = AllreducePlan::low_depth(7).unwrap();
        let f = FaultSet::links(vec![12, 40]);
        let a = rebuild_degraded(&plan, &f).unwrap();
        let b = rebuild_degraded(&plan, &f).unwrap();
        assert_eq!(a.trees, b.trees);
        assert_eq!(a.origins, b.origins);
        assert_eq!(a.bandwidths, b.bandwidths);
    }
}
