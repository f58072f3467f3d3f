//! High-level facade: build a complete multi-tree allreduce plan for a
//! PolarFly of a given radix.
//!
//! An [`AllreducePlan`] owns the topology graph, the spanning-tree set, and
//! the Algorithm 1 bandwidth assignment, and exposes the Theorem 5.1
//! performance model (optimal sub-vector split, predicted time). It is the
//! type the examples, the benchmarks and the simulator consume.

use crate::collective::Collective;
use crate::congestion::assign_unit_bandwidth;
use crate::construction::{Budget, ConstructError, TreeConstruction};
use crate::disjoint::find_edge_disjoint;
use crate::lowdepth::low_depth_trees;
use crate::perf;
use crate::rational::Rational;
use pf_graph::{bfs, Graph, RootedTree};
use pf_topo::{PolarFly, Singer};

/// Which of the paper's two solutions (plus baselines) a plan embodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solution {
    /// §7.1: `q` trees, depth ≤ 3, congestion ≤ 2 (odd prime powers).
    LowDepth,
    /// §7.2: `⌊(q+1)/2⌋` edge-disjoint Hamiltonian-path trees.
    EdgeDisjoint,
    /// Baseline: one BFS spanning tree (depth 2), bandwidth `B`.
    SingleTree,
    /// A plan built through a pluggable [`TreeConstruction`] backend; the
    /// payload is the backend's name.
    Constructed(&'static str),
}

impl Solution {
    /// Human-readable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Solution::LowDepth => "low-depth",
            Solution::EdgeDisjoint => "edge-disjoint",
            Solution::SingleTree => "single-tree",
            Solution::Constructed(name) => name,
        }
    }
}

/// A fully-resolved multi-tree allreduce embedding for one PolarFly.
#[derive(Debug, Clone)]
pub struct AllreducePlan {
    /// Field order (`radix = q + 1`, `N = q^2 + q + 1` routers).
    pub q: u64,
    /// Which construction produced the trees.
    pub solution: Solution,
    /// The physical topology the trees are embedded in. For `LowDepth` and
    /// `SingleTree` this is the projective-geometry `ER_q` labeling; for
    /// `EdgeDisjoint` it is the (isomorphic) Singer labeling.
    pub graph: Graph,
    /// The spanning trees.
    pub trees: Vec<RootedTree>,
    /// Per-tree bandwidth from Algorithm 1 (unit link bandwidth).
    pub bandwidths: Vec<Rational>,
    /// Aggregate allreduce bandwidth `Σ B_i` (Theorem 5.1).
    pub aggregate: Rational,
    /// Maximum tree depth (latency proxy).
    pub depth: u32,
    /// Theoretical congestion per undirected edge (graph edge-id order) —
    /// how many trees embed each link. The observability layer compares
    /// the simulator's measured per-link congestion against this vector.
    pub edge_congestion: Vec<u32>,
    /// Worst-case link congestion (`max(edge_congestion)`).
    pub max_congestion: u32,
}

impl AllreducePlan {
    /// Assembles a plan from a substrate graph and a spanning tree set,
    /// deriving bandwidths and congestion with Algorithm 1. Every plan is
    /// priced here, once: the constructors below, tree subsets, and the
    /// degraded plans [`crate::recovery`] builds on a surviving subgraph.
    /// The caller vouches that every tree spans `graph`.
    pub fn from_tree_set(
        q: u64,
        solution: Solution,
        graph: Graph,
        trees: Vec<RootedTree>,
    ) -> Self {
        let a = assign_unit_bandwidth(&graph, &trees);
        let aggregate = a.aggregate();
        let depth = trees.iter().map(|t| t.depth()).max().unwrap_or(0);
        AllreducePlan {
            q,
            solution,
            graph,
            trees,
            bandwidths: a.per_tree,
            aggregate,
            depth,
            edge_congestion: a.per_edge,
            max_congestion: a.max_congestion,
        }
    }

    /// Builds the low-depth plan (Algorithm 3). Odd prime powers only.
    pub fn low_depth(q: u64) -> Result<Self, String> {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None)?;
        Ok(Self::from_tree_set(q, Solution::LowDepth, pf.graph().clone(), out.trees))
    }

    /// Builds the edge-disjoint Hamiltonian plan (§7.2) with the paper's
    /// randomized independent-set protocol (`attempts` tries, seeded).
    pub fn edge_disjoint(q: u64, attempts: usize, seed: u64) -> Result<Self, String> {
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, attempts, seed);
        if sol.trees.is_empty() {
            return Err(format!("no edge-disjoint Hamiltonian paths found for q = {q}"));
        }
        Ok(Self::from_tree_set(q, Solution::EdgeDisjoint, s.graph().clone(), sol.trees))
    }

    /// Builds the single-tree baseline: one BFS tree rooted at vertex 0 of
    /// `ER_q` (depth 2 thanks to diameter 2) — the "current practice" the
    /// paper's multi-tree solutions are compared against.
    pub fn single_tree(q: u64) -> Result<Self, String> {
        let pf = PolarFly::new(q);
        let (_, parents) = bfs::tree(pf.graph(), 0);
        let t = RootedTree::from_parents(0, parents).map_err(|e| e.to_string())?;
        Ok(Self::from_tree_set(q, Solution::SingleTree, pf.graph().clone(), vec![t]))
    }

    /// Builds a plan over an arbitrary substrate through a pluggable
    /// [`TreeConstruction`] backend: the backend's trees, priced with
    /// Algorithm 1 on `g`. The plan's `solution` carries the backend name
    /// ([`Solution::Constructed`]); `q` is 0, so the PolarFly-specific
    /// [`AllreducePlan::optimal_bandwidth`] /
    /// [`AllreducePlan::normalized_bandwidth`] return `None` — compare
    /// against [`AllreducePlan::rate_bound`] instead. Everything
    /// downstream (simulator embedding, faults/recovery, scheduler
    /// subsets) works on these plans unchanged.
    pub fn construct(
        g: &Graph,
        backend: &dyn TreeConstruction,
        budget: &Budget,
    ) -> Result<Self, ConstructError> {
        let trees = backend.build(g, budget)?;
        for t in &trees {
            // The harness re-checks each backend's output property by
            // property; plan creation still refuses non-spanning sets so
            // a buggy backend cannot reach the congestion model.
            t.validate_spanning(g).map_err(|e| ConstructError::NoTrees(e.to_string()))?;
        }
        Ok(Self::from_tree_set(0, Solution::Constructed(backend.name()), g.clone(), trees))
    }

    /// Number of routers. For the PolarFly constructors this is
    /// `N = q^2 + q + 1`; for [`AllreducePlan::construct`] plans it is the
    /// substrate's order.
    pub fn num_nodes(&self) -> u64 {
        self.graph.num_vertices() as u64
    }

    /// Exact allreduce rate upper bound for this plan's substrate
    /// ([`crate::rate::allreduce_rate_bound`]): `min(|E|/(n−1), λ(G))` in
    /// exact rationals. `aggregate ≤ rate_bound()` is the standing
    /// paper-claims invariant for every plan on every substrate (see
    /// `docs/RATES.md`).
    pub fn rate_bound(&self) -> Rational {
        crate::rate::allreduce_rate_bound(&self.graph)
            .expect("plans only exist on connected substrates with >= 2 vertices")
            .bound
    }

    /// Optimality gap `aggregate / rate_bound() ∈ (0, 1]` as an exact
    /// rational — 1 means the plan is certified rate-optimal (the
    /// edge-disjoint Hamiltonian plans at odd `q` land exactly here).
    pub fn optimality_gap(&self) -> Rational {
        crate::rate::allreduce_rate_bound(&self.graph)
            .expect("plans only exist on connected substrates with >= 2 vertices")
            .gap(self.aggregate)
    }

    /// A plan over a subset of this plan's trees (by strictly increasing
    /// tree index), on the same graph — the tree allocator's per-tenant
    /// view of the fabric. Bandwidths and per-edge congestion are
    /// recomputed from scratch over the subset, so `split` and
    /// `predicted_*` answer for the tenant's trees alone; a subset can
    /// only lower per-edge congestion, never raise it (each tree
    /// contributes its edges exactly once), which is what keeps any
    /// disjoint partition of one healthy plan under the full plan's
    /// Theorem 7.6/7.19 congestion bound.
    ///
    /// Panics if `indices` is empty, out of range, or not strictly
    /// increasing.
    pub fn tree_subset(&self, indices: &[usize]) -> AllreducePlan {
        assert!(!indices.is_empty(), "a tree subset needs at least one tree");
        for pair in indices.windows(2) {
            assert!(pair[0] < pair[1], "tree indices must be strictly increasing");
        }
        assert!(
            *indices.last().unwrap() < self.trees.len(),
            "tree index out of range"
        );
        let trees = indices.iter().map(|&i| self.trees[i].clone()).collect();
        Self::from_tree_set(self.q, self.solution, self.graph.clone(), trees)
    }

    /// Corollary 7.1 optimum for this radix (unit link bandwidth), or
    /// `None` on a [`AllreducePlan::construct`] plan (`q == 0`), where it
    /// does not apply — compare against [`AllreducePlan::rate_bound`].
    pub fn optimal_bandwidth(&self) -> Option<Rational> {
        (self.q > 0).then(|| crate::rate::polarfly_bound(self.q))
    }

    /// Aggregate bandwidth normalized against the Corollary 7.1 optimum
    /// (Figure 5a's y-axis); `None` where the optimum does not apply.
    pub fn normalized_bandwidth(&self) -> Option<Rational> {
        self.optimal_bandwidth().map(|opt| self.aggregate / opt)
    }

    /// Theorem 5.1 optimal sub-vector split of an `m`-element vector.
    pub fn split(&self, m: u64) -> Vec<u64> {
        perf::optimal_split(m, &self.bandwidths)
    }

    /// Predicted allreduce time for an `m`-element vector with the given
    /// per-hop latency (Theorem 5.1 model; unit link bandwidth).
    pub fn predicted_time(&self, m: u64, hop_latency: Rational) -> Rational {
        let sizes = self.split(m);
        let lats: Vec<Rational> =
            self.trees.iter().map(|t| perf::tree_latency(t.depth(), hop_latency)).collect();
        perf::allreduce_time(&sizes, &lats, &self.bandwidths)
    }

    /// Cycle-level prediction of the simulator's run time for an
    /// `m`-element collective `kind` at integer hop latency: every tree
    /// gets its Algorithm 1 slice of the one split, and the slowest tree's
    /// pipeline fill plus steady-state drain
    /// ([`perf::predicted_tree_cycles`]) is the answer. The observability
    /// examples print this next to the measured cycle count
    /// (`docs/OBSERVABILITY.md` walks through why measured bandwidth lands
    /// below the Theorem 5.1 asymptote at finite `m`; `docs/COLLECTIVES.md`
    /// covers the one-phase collectives).
    pub fn predicted_collective_cycles(&self, kind: Collective, m: u64, hop_latency: u64) -> u64 {
        let sizes = self.split(m);
        self.trees
            .iter()
            .zip(&sizes)
            .zip(&self.bandwidths)
            .map(|((t, &mi), &bi)| {
                perf::predicted_tree_cycles(kind, t.depth(), hop_latency, mi, bi)
            })
            .max()
            .unwrap_or(0)
    }

    /// [`AllreducePlan::predicted_collective_cycles`] for the allreduce.
    pub fn predicted_cycles(&self, m: u64, hop_latency: u64) -> u64 {
        self.predicted_collective_cycles(Collective::Allreduce, m, hop_latency)
    }

    /// Picks the faster of the paper's two solutions for the given message
    /// size under the Theorem 5.1 model — the §7.3 trade-off, packaged:
    /// small vectors favor the depth-3 trees, large vectors the
    /// optimal-bandwidth Hamiltonian trees. Falls back to the
    /// edge-disjoint plan for even `q` (where the low-depth construction
    /// is unavailable).
    pub fn recommend(q: u64, m: u64, hop_latency: Rational) -> Result<Self, String> {
        let ham = Self::edge_disjoint(q, 30, 0x5EC)?;
        match Self::low_depth(q) {
            Ok(low) => {
                if low.predicted_time(m, hop_latency) <= ham.predicted_time(m, hop_latency) {
                    Ok(low)
                } else {
                    Ok(ham)
                }
            }
            Err(_) => Ok(ham),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_depth_plan_summary() {
        let p = AllreducePlan::low_depth(11).unwrap();
        assert_eq!(p.q, 11);
        assert_eq!(p.num_nodes(), 133);
        assert_eq!(p.trees.len(), 11);
        assert_eq!(p.depth, 3);
        assert_eq!(p.max_congestion, 2);
        // Corollary 7.7: aggregate >= 11/2; Corollary 7.1: <= 6.
        assert!(p.aggregate >= Rational::new(11, 2));
        assert!(p.aggregate <= Rational::from_int(6));
        assert_eq!(p.optimal_bandwidth(), Some(Rational::from_int(6)));
    }

    #[test]
    fn edge_disjoint_plan_summary() {
        let p = AllreducePlan::edge_disjoint(11, 30, 3).unwrap();
        assert_eq!(p.trees.len(), 6); // floor((11+1)/2)
        assert_eq!(p.max_congestion, 1);
        assert_eq!(p.aggregate, Rational::from_int(6));
        assert_eq!(p.normalized_bandwidth(), Some(Rational::ONE));
        assert_eq!(p.depth as u64, (p.num_nodes() - 1) / 2);
    }

    #[test]
    fn single_tree_baseline() {
        let p = AllreducePlan::single_tree(7).unwrap();
        assert_eq!(p.trees.len(), 1);
        assert_eq!(p.depth, 2);
        assert_eq!(p.aggregate, Rational::ONE);
        assert_eq!(p.max_congestion, 1);
    }

    #[test]
    fn split_matches_bandwidths() {
        let p = AllreducePlan::edge_disjoint(7, 30, 9).unwrap();
        let sizes = p.split(10_000);
        assert_eq!(sizes.iter().sum::<u64>(), 10_000);
        // Equal bandwidths -> equal split.
        assert!(sizes.iter().all(|&s| s == 2500));
    }

    #[test]
    fn edge_congestion_vector_consistent() {
        let low = AllreducePlan::low_depth(7).unwrap();
        assert_eq!(low.edge_congestion.len(), low.graph.num_edges() as usize);
        assert_eq!(low.edge_congestion.iter().copied().max(), Some(low.max_congestion));
        // Edge-disjoint trees: every used edge has congestion exactly 1.
        let ham = AllreducePlan::edge_disjoint(7, 30, 9).unwrap();
        assert!(ham.edge_congestion.iter().all(|&c| c <= 1));
    }

    #[test]
    fn predicted_cycles_is_fill_plus_drain() {
        // The quickstart case: q = 7 edge-disjoint, m = 10000, L = 4.
        // 4 trees at B = 1, depth 28, slices of 2500:
        // 2·28·4 + 1 + 2500 = 2725 cycles.
        let p = AllreducePlan::edge_disjoint(7, 30, 9).unwrap();
        assert_eq!(p.predicted_cycles(10_000, 4), 2725);
        assert_eq!(p.predicted_cycles(0, 4), 0);
        // The prediction refines the asymptotic Theorem 5.1 time: it can
        // only exceed it (pipeline fill + integer rounding).
        let model = p.predicted_time(10_000, Rational::from_int(4));
        assert!(Rational::from_int(p.predicted_cycles(10_000, 4) as i64) >= model);
    }

    #[test]
    fn predicted_collective_cycles_follow_the_phase_rule() {
        let hop = 4;
        let plans =
            [AllreducePlan::low_depth(7).unwrap(), AllreducePlan::edge_disjoint(7, 30, 9).unwrap()];
        for plan in &plans {
            for m in [0u64, 1, 999, 10_000] {
                // The one-phase model, tree by tree: fill depth·L + 1, drain
                // at the recovered rate min(2·b, 1).
                let sizes = plan.split(m);
                let one_phase = plan
                    .trees
                    .iter()
                    .zip(&sizes)
                    .zip(&plan.bandwidths)
                    .filter(|&((_, &mi), _)| mi > 0)
                    .map(|((t, &mi), &bi)| {
                        let drain = Rational::from_int(mi as i64) / (bi + bi).min(Rational::ONE);
                        let drain = (drain.numer() + drain.denom() - 1) / drain.denom();
                        t.depth() as u64 * hop + 1 + drain as u64
                    })
                    .max()
                    .unwrap_or(0);
                let label = plan.solution.label();
                for kind in [Collective::Reduce, Collective::Broadcast] {
                    let got = plan.predicted_collective_cycles(kind, m, hop);
                    assert_eq!(got, one_phase, "{label} m={m} {kind:?}");
                }
                let all = plan.predicted_collective_cycles(Collective::Allreduce, m, hop);
                assert_eq!(all, plan.predicted_cycles(m, hop), "{label} m={m}");
            }
        }
        // The edge-disjoint plan at m = 10 000: four depth-28 trees at
        // B = 1 with slices of 2500 — 28·4 + 1 + 2500 for one phase.
        let ham = &plans[1];
        assert_eq!(ham.predicted_collective_cycles(Collective::Broadcast, 10_000, hop), 2613);
        assert_eq!(ham.predicted_collective_cycles(Collective::Allreduce, 10_000, hop), 2725);
    }

    #[test]
    fn predicted_time_decreases_with_more_trees() {
        let single = AllreducePlan::single_tree(7).unwrap();
        let multi = AllreducePlan::edge_disjoint(7, 30, 5).unwrap();
        let m = 1_000_000;
        let lat = Rational::from_int(50);
        assert!(multi.predicted_time(m, lat) < single.predicted_time(m, lat));
    }

    #[test]
    fn small_messages_favor_low_depth() {
        // The latency/bandwidth trade-off of §7.3: for tiny vectors the
        // depth-3 trees beat the depth-(N-1)/2 Hamiltonian trees.
        let low = AllreducePlan::low_depth(11).unwrap();
        let ham = AllreducePlan::edge_disjoint(11, 30, 5).unwrap();
        let lat = Rational::from_int(50);
        assert!(low.predicted_time(1, lat) < ham.predicted_time(1, lat));
        // And for huge vectors the optimal-bandwidth solution wins.
        assert!(ham.predicted_time(100_000_000, lat) < low.predicted_time(100_000_000, lat));
    }

    #[test]
    fn even_q_low_depth_rejected_but_disjoint_works() {
        assert!(AllreducePlan::low_depth(8).is_err());
        let p = AllreducePlan::edge_disjoint(8, 30, 2).unwrap();
        assert_eq!(p.trees.len(), 4);
        assert_eq!(p.max_congestion, 1);
    }

    #[test]
    fn recommendation_follows_the_crossover() {
        let hop = Rational::from_int(4);
        // Tiny vectors: depth-3 trees.
        let small = AllreducePlan::recommend(11, 8, hop).unwrap();
        assert_eq!(small.solution, Solution::LowDepth);
        // Huge vectors: optimal-bandwidth trees.
        let big = AllreducePlan::recommend(11, 100_000_000, hop).unwrap();
        assert_eq!(big.solution, Solution::EdgeDisjoint);
        // Even q: always edge-disjoint.
        let even = AllreducePlan::recommend(8, 8, hop).unwrap();
        assert_eq!(even.solution, Solution::EdgeDisjoint);
    }

    #[test]
    fn tree_subset_recomputes_congestion() {
        let full = AllreducePlan::low_depth(7).unwrap();
        let sub = full.tree_subset(&[0, 2, 4]);
        assert_eq!(sub.trees.len(), 3);
        assert_eq!(sub.q, full.q);
        // A subset can only lower per-edge congestion.
        for (s, f) in sub.edge_congestion.iter().zip(&full.edge_congestion) {
            assert!(s <= f);
        }
        assert!(sub.max_congestion <= full.max_congestion);
        // Its split covers the subset's trees only.
        let sizes = sub.split(999);
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes.iter().sum::<u64>(), 999);
    }

    #[test]
    fn disjoint_tree_subsets_partition_congestion() {
        // Two disjoint subsets of one plan: their per-edge congestion
        // vectors sum to the full plan's (each tree counted exactly once),
        // so concurrent tenants on disjoint subsets stay under the healthy
        // bound by construction.
        let full = AllreducePlan::low_depth(7).unwrap();
        let a = full.tree_subset(&[0, 1, 2, 3]);
        let b = full.tree_subset(&[4, 5, 6]);
        for e in 0..full.edge_congestion.len() {
            assert_eq!(
                a.edge_congestion[e] + b.edge_congestion[e],
                full.edge_congestion[e],
                "edge {e}"
            );
        }
        // Edge-disjoint plans: tenant subsets share no physical links.
        let ham = AllreducePlan::edge_disjoint(7, 30, 9).unwrap();
        let ha = ham.tree_subset(&[0, 1]);
        let hb = ham.tree_subset(&[2, 3]);
        for e in 0..ham.edge_congestion.len() {
            assert!(ha.edge_congestion[e] == 0 || hb.edge_congestion[e] == 0, "edge {e}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn tree_subset_rejects_duplicates() {
        let full = AllreducePlan::single_tree(3).unwrap();
        let _ = full.tree_subset(&[0, 0]);
    }

    #[test]
    fn labels() {
        assert_eq!(Solution::LowDepth.label(), "low-depth");
        assert_eq!(Solution::EdgeDisjoint.label(), "edge-disjoint");
        assert_eq!(Solution::SingleTree.label(), "single-tree");
        assert_eq!(Solution::Constructed("kary-multitree").label(), "kary-multitree");
    }

    #[test]
    fn constructed_plan_on_a_torus() {
        use crate::construction::{Budget, KaryMultitree};
        let g = pf_topo::torus::Torus::new(&[4, 4]).graph().clone();
        let plan =
            AllreducePlan::construct(&g, &KaryMultitree { k: 2 }, &Budget::unlimited()).unwrap();
        assert_eq!(plan.q, 0);
        assert_eq!(plan.num_nodes(), 16);
        assert_eq!(plan.solution.label(), "kary-multitree");
        assert!(plan.aggregate.is_positive());
        assert!(plan.aggregate <= plan.rate_bound());
        // Corollary 7.1 is PolarFly's optimum, not this torus's.
        assert_eq!(plan.optimal_bandwidth(), None);
        assert_eq!(plan.normalized_bandwidth(), None);
        // The generic plan drives the same downstream machinery.
        let sizes = plan.split(1000);
        assert_eq!(sizes.iter().sum::<u64>(), 1000);
        assert!(plan.predicted_cycles(1000, 2) > 0);
    }

    #[test]
    fn constructed_plan_reports_typed_errors() {
        use crate::construction::{BfsSingle, Budget, ConstructError};
        let mut split = Graph::new(4);
        split.add_edge(0, 1);
        split.add_edge(2, 3);
        let err = AllreducePlan::construct(&split, &BfsSingle, &Budget::unlimited()).unwrap_err();
        assert_eq!(err, ConstructError::Disconnected { components: 2 });
    }

    #[test]
    fn polarfly_constructors_survive_num_nodes_from_graph() {
        // num_nodes now reads the graph order; for PolarFly plans that is
        // still q² + q + 1.
        for q in [3u64, 7] {
            let p = AllreducePlan::low_depth(q).unwrap();
            assert_eq!(p.num_nodes(), q * q + q + 1);
        }
    }
}
