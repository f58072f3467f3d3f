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
//! 4. Acceptance always takes the first candidate: congestion starts at 0
//!    and the bound is at least 1. So a plan with trees keeps at least
//!    one, and a plan with no trees degrades to a plan with no trees.
//!
//! The degraded plan is an ordinary [`AllreducePlan`] on the surviving
//! subgraph, priced once by Algorithm 1, so the loss relative to the
//! healthy aggregate is quantified exactly (in rational arithmetic).
//!
//! Router faults shrink the vertex set: the collective then runs among the
//! survivors, and the [`DegradedPlan`] carries the id maps between the two
//! labelings.
//!
//! Every repair starts from the healthy plan and the whole fault set; no
//! earlier repair is reused. Completing a forest is linear (Kruskal over
//! the edge order, then one BFS), so re-deriving a repaired tree costs
//! what checking that an earlier repair survived would.
//!
//! A repair finds each tree edge's id once and hands it down.
//! Classification finds every healthy tree's edge ids in the healthy
//! graph in one sweep over its adjacency (`congestion::tree_edge_ids`) and
//! maps them through the surviving view's `new_edge`; an intact tree keeps
//! that list as its ids in the degraded graph. A repaired tree takes the
//! ids `complete_forest` selects. Acceptance counts congestion on those
//! ids and moves the accepted trees into the plan, and
//! `AllreducePlan::from_tree_ids` prices them, so no id is looked up or
//! sorted again. The unit tests hold every repair to
//! [`AllreducePlan::from_tree_set`], which looks each id up anew.
//!
//! Everything here is deterministic: same plan + same fault set gives the
//! identical degraded plan, which the fault-injection property suites rely
//! on.

use crate::congestion::tree_edge_ids;
use crate::plan::{AllreducePlan, Solution};
use crate::rational::Rational;
use pf_graph::subgraph::{self, Surviving};
use pf_graph::tree::spanning_edge_ids;
use pf_graph::{bfs, EdgeId, Graph, RootedTree, VertexId};

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
    let g = &plan.graph;

    // The surviving subgraph and its id maps (healthy <-> degraded), built
    // in one pass. The maps are exact-capacity, so a cached plan's heap
    // footprint (which the fabric soak's live-bytes gauge records) does
    // not depend on how they grew.
    let Surviving { graph: degraded, orig_vertex, new_vertex, orig_edge, new_edge } =
        subgraph::surviving(g, &faults.routers, &faults.edges);
    if degraded.num_vertices() == 0 {
        return Err(RebuildError::NoSurvivors);
    }
    if !bfs::is_connected(&degraded) {
        let (_, components) = bfs::connected_components(&degraded);
        return Err(RebuildError::Partitioned { components });
    }

    let identity_vertices = degraded.num_vertices() == g.num_vertices();

    // Classify and translate each healthy tree. Every candidate carries
    // its edge ids in the degraded graph, learned here once and handed on
    // to acceptance and pricing.
    let mut intact: Vec<Candidate> = Vec::new();
    let mut repairs: Vec<Candidate> = Vec::new();
    let healthy_ids = tree_edge_ids(g, &plan.trees);
    for (ti, (tree, mut forest)) in plan.trees.iter().zip(healthy_ids).enumerate() {
        // Surviving tree edges, mapped in place to degraded edge ids.
        let mut broken = !identity_vertices; // router loss breaks every spanning tree
        forest.retain_mut(|e| match new_edge[*e as usize] {
            Some(id) => {
                *e = id;
                true
            }
            None => {
                broken = true;
                false
            }
        });
        if !broken {
            intact.push((tree.clone(), forest, TreeOrigin::Intact(ti)));
            continue;
        }
        // Repair: complete the surviving forest to a spanning tree, rooted
        // at the original root when it survived.
        let root = new_vertex[tree.root() as usize].unwrap_or(0);
        let (repaired, ids) = complete_forest(&degraded, &forest, root);
        repairs.push((repaired, ids, TreeOrigin::Repaired(ti)));
    }

    // Greedy acceptance under the healthy congestion bound: intact trees
    // first (their combined congestion is a sub-sum of the healthy plan's,
    // hence within the bound), then repairs in tree order. The first
    // candidate always fits, since the bound is at least 1.
    let bound = plan.max_congestion.max(1);
    let mut congestion = vec![0u32; degraded.num_edges() as usize];
    let mut trees: Vec<RootedTree> = Vec::new();
    let mut tree_ids: Vec<Vec<EdgeId>> = Vec::new();
    let mut origins: Vec<TreeOrigin> = Vec::new();
    let mut dropped = 0usize;
    for (tree, ids, origin) in intact.into_iter().chain(repairs) {
        if ids.iter().any(|&e| congestion[e as usize] + 1 > bound) {
            dropped += 1;
            continue;
        }
        for &e in &ids {
            congestion[e as usize] += 1;
        }
        trees.push(tree);
        tree_ids.push(ids);
        origins.push(origin);
    }

    Ok(DegradedPlan {
        plan: AllreducePlan::from_tree_ids(
            plan.q,
            Solution::Constructed("degraded"),
            degraded,
            trees,
            &tree_ids,
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

/// The degraded plan for `prev_faults` plus `delta`:
/// `rebuild_degraded(plan, &prev_faults.union(delta)).ok()`, `None` where
/// that rebuild fails. `prev` is not read.
///
/// The request-path benchmark (`crates/bench/src/bin/benchmark`) still
/// calls this; the function goes with that package's next change.
pub fn extend_degraded(
    plan: &AllreducePlan,
    prev_faults: &FaultSet,
    _prev: &DegradedPlan,
    delta: &FaultSet,
) -> Option<DegradedPlan> {
    rebuild_degraded(plan, &prev_faults.union(delta)).ok()
}

/// A candidate tree of a repair: the tree on the degraded graph, its edge
/// ids there, and where it came from.
type Candidate = (RootedTree, Vec<EdgeId>, TreeOrigin);

/// Completes `forest` (edge ids of `g`, guaranteed acyclic) to a spanning
/// tree of the connected graph `g`, preferring the forest edges and then
/// the smallest-id edges, and returns it rooted at `root` together with
/// the ids of the edges it selected, sorted (its
/// [`RootedTree::edge_ids`]).
fn complete_forest(g: &Graph, forest: &[EdgeId], root: VertexId) -> (RootedTree, Vec<EdgeId>) {
    let ids = spanning_edge_ids(g, forest.iter().copied().chain(0..g.num_edges()))
        .expect("caller guarantees g is connected");
    let tree = RootedTree::from_edges(g, root, &ids).expect("selected edges span the graph");
    (tree, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::{Budget, ConstructError};
    use crate::plan::AllreducePlan;
    use crate::substrates::{backends_for, quick_catalog};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Checks a degraded plan against the lookup path: pricing its own
    /// graph and trees through `from_tree_set`, which looks every edge id
    /// up again, must give what the handed-down ids gave. Also re-runs
    /// `complete_forest` on every healthy tree's surviving forest and
    /// holds the ids it returns to the returned tree's `edge_ids`. Every
    /// healthy plan here has trees, so its repair keeps at least one.
    fn assert_priced_once(plan: &AllreducePlan, d: &DegradedPlan, case: &str) {
        assert_eq!((d.q, d.solution), (plan.q, Solution::Constructed("degraded")), "{case}");
        assert!(!d.trees.is_empty(), "{case}: a plan with trees lost them all");
        let oracle =
            AllreducePlan::from_tree_set(d.q, d.solution, d.graph.clone(), d.trees.clone());
        assert_same_plan(&d.to_plan(d.q), &oracle, case);
        assert!(d.max_congestion <= d.congestion_bound, "{case}");
        for (ti, tree) in plan.trees.iter().enumerate() {
            let forest: Vec<EdgeId> = tree
                .edges()
                .filter_map(|(c, p)| d.new_edge[plan.graph.edge_id(c, p).unwrap() as usize])
                .collect();
            let root = d.new_vertex[tree.root() as usize].unwrap_or(0);
            let (t, ids) = complete_forest(&d.graph, &forest, root);
            assert_eq!(ids, t.edge_ids(&d.graph), "{case}: complete_forest ids, tree {ti}");
        }
    }

    /// The links `plan` routes a tree over.
    fn used_edges(plan: &AllreducePlan) -> Vec<EdgeId> {
        (0..plan.graph.num_edges()).filter(|&e| plan.edge_congestion[e as usize] > 0).collect()
    }

    #[test]
    fn degraded_plans_are_priced_once() {
        // Rebuilt plans after one link fault, two link faults and one
        // router fault at q = 5 and 7: the promoted plan is exactly what
        // pricing the surviving tree set from scratch gives.
        for q in [5u64, 7] {
            let plan = AllreducePlan::low_depth(q).unwrap();
            let used = used_edges(&plan);
            let (a, b) = (FaultSet::links(vec![used[0]]), FaultSet::links(vec![used[3]]));
            let router = FaultSet { edges: vec![], routers: vec![3] };
            let cases = [
                ("one link", rebuild_degraded(&plan, &a).unwrap()),
                ("two links", rebuild_degraded(&plan, &a.union(&b)).unwrap()),
                ("one router", rebuild_degraded(&plan, &router).unwrap()),
            ];
            for (label, d) in &cases {
                assert_priced_once(&plan, d, &format!("q={q} {label}"));
            }
        }
        // Every one-link fault on a used edge at q = 3, 5, 7.
        for q in [3u64, 5, 7] {
            let plan = AllreducePlan::low_depth(q).unwrap();
            for e in used_edges(&plan) {
                let d = rebuild_degraded(&plan, &FaultSet::links(vec![e])).unwrap();
                assert_priced_once(&plan, &d, &format!("q={q} link {e}"));
            }
        }
        // Seeded one- and two-link faults at q = 11, 13.
        let mut rng = StdRng::seed_from_u64(0x1d5);
        for q in [11u64, 13] {
            let plan = AllreducePlan::low_depth(q).unwrap();
            let used = used_edges(&plan);
            for _ in 0..12 {
                let a = FaultSet::links(vec![used[rng.random_range(0..used.len())]]);
                let b = FaultSet::links(vec![used[rng.random_range(0..used.len())]]);
                let case = format!("q={q} links {:?} and {:?}", a.edges, b.edges);
                let first = rebuild_degraded(&plan, &a).unwrap();
                let both = rebuild_degraded(&plan, &a.union(&b)).unwrap();
                assert_priced_once(&plan, &first, &case);
                assert_priced_once(&plan, &both, &case);
            }
        }
        // Every router fault at q = 3: every tree is repaired on a
        // renumbered vertex set.
        let plan = AllreducePlan::low_depth(3).unwrap();
        for r in plan.graph.vertices() {
            let d = rebuild_degraded(&plan, &FaultSet { edges: vec![], routers: vec![r] }).unwrap();
            assert_priced_once(&plan, &d, &format!("q=3 router {r}"));
        }
        // Every plan of the quick catalog, under every one-link fault on a
        // used edge that leaves its substrate connected.
        for s in quick_catalog() {
            for b in backends_for(&s.name) {
                let built = AllreducePlan::construct(&s.graph, b.as_ref(), &Budget::unlimited());
                let plan = match built {
                    Ok(plan) => plan,
                    Err(ConstructError::UnsupportedSubstrate(_)) => continue,
                    Err(e) => panic!("{} on {}: {e}", b.name(), s.name),
                };
                for e in used_edges(&plan) {
                    let case = format!("{} on {} link {e}", b.name(), s.name);
                    match rebuild_degraded(&plan, &FaultSet::links(vec![e])) {
                        Ok(d) => assert_priced_once(&plan, &d, &case),
                        Err(RebuildError::Partitioned { .. }) => {}
                        Err(err) => panic!("{case}: {err}"),
                    }
                }
            }
        }
    }

    #[test]
    fn a_plan_without_trees_degrades_to_a_plan_without_trees() {
        let healthy = AllreducePlan::low_depth(5).unwrap();
        let plan = AllreducePlan::from_tree_set(5, healthy.solution, healthy.graph, Vec::new());
        let cases = [
            FaultSet::none(),
            FaultSet::links(vec![0, 7]),
            FaultSet { edges: vec![], routers: vec![3] },
        ];
        for faults in &cases {
            let d = rebuild_degraded(&plan, faults).unwrap();
            assert!(d.trees.is_empty() && d.origins.is_empty(), "{faults:?}");
            assert_eq!((d.dropped, d.congestion_bound, d.max_congestion), (0, 1, 0), "{faults:?}");
            assert_eq!((d.aggregate, d.depth), (Rational::ZERO, 0), "{faults:?}");
            assert_eq!(d.bandwidth_retention(), Rational::ONE, "{faults:?}");
            assert_eq!(d.graph.num_vertices() as usize, d.orig_vertex.len(), "{faults:?}");
            assert!(d.split(100).is_empty(), "{faults:?}");
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
