//! Logically-defined aggregation trees — the SHARP-style baseline of §4.4.
//!
//! Some routers "allow embeddings to be logically defined by configuring
//! the children and parent(s) of each router. The physical routing paths
//! are decided by the routing algorithm at runtime … Such mechanisms can
//! incur path conflicts" (§4.4). Here a logical tree may connect any two
//! routers; each logical edge is routed minimally over the topology, and
//! a physical link's bandwidth is shared by *every logical edge crossing
//! it* — including several edges of the same tree.
//!
//! [`assign_bandwidth_weighted`] prices these weighted embeddings with
//! Algorithm 1 (a physical tree is the special case with all weights 1),
//! which makes the paper's physically-embedded solutions directly
//! comparable against logical trees (the `ablation-logical` experiment).

use crate::congestion::{assign_bandwidth, BandwidthAssignment};
use pf_graph::{bfs, EdgeId, Graph, VertexId};

/// A rooted aggregation tree whose edges need not be physical links.
#[derive(Debug, Clone)]
pub struct LogicalTree {
    pub root: VertexId,
    /// Parent per vertex (`None` at the root). Must be acyclic and span.
    pub parent: Vec<Option<VertexId>>,
}

impl LogicalTree {
    /// A `k`-ary aggregation tree over node ids in order — the shape a
    /// SHARP-style system builds without regard for physical adjacency:
    /// node `v`'s parent is `(v - 1) / k`.
    pub fn kary(n: u32, k: u32, root: VertexId) -> Self {
        assert!(k >= 1 && n >= 1 && root < n);
        // Build over ranks 0..n then relabel so `root` takes rank 0.
        let relabel = |rank: u32| -> VertexId {
            if rank == 0 {
                root
            } else if rank == root {
                0
            } else {
                rank
            }
        };
        let mut parent = vec![None; n as usize];
        for rank in 1..n {
            let prank = (rank - 1) / k;
            parent[relabel(rank) as usize] = Some(relabel(prank));
        }
        LogicalTree { root, parent }
    }

    /// Logical edges as `(child, parent)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|p| (v as VertexId, p)))
    }

    /// Depth in *logical* hops.
    pub fn logical_depth(&self) -> u32 {
        let mut best = 0;
        for v in 0..self.parent.len() as u32 {
            let mut d = 0;
            let mut cur = v;
            while let Some(p) = self.parent[cur as usize] {
                d += 1;
                cur = p;
            }
            best = best.max(d);
        }
        best
    }
}

/// Routes every logical edge of `tree` minimally and returns the number of
/// logical edges crossing each physical edge (the tree's weight vector).
pub fn route_usage(g: &Graph, tree: &LogicalTree) -> Vec<u32> {
    let mut usage = vec![0u32; g.num_edges() as usize];
    for (child, parent) in tree.edges() {
        let path = bfs::shortest_path(g, child, parent)
            .expect("logical endpoints must be connected");
        for w in path.windows(2) {
            let e = g.edge_id(w[0], w[1]).unwrap();
            usage[e as usize] += 1;
        }
    }
    usage
}

/// Weighted water-filling: max–min fair per-tree bandwidth where tree `i`
/// consumes `usages[i][e] · B_i` of unit link bandwidth on physical edge
/// `e` (dense weight vectors, as [`route_usage`] returns them). With all
/// weights in `{0, 1}` this is exactly Algorithm 1; both run
/// [`assign_bandwidth`].
pub fn assign_bandwidth_weighted(g: &Graph, usages: &[Vec<u32>]) -> BandwidthAssignment {
    let ne = g.num_edges() as usize;
    let trees: Vec<Vec<(EdgeId, u32)>> = usages
        .iter()
        .map(|u| {
            assert_eq!(u.len(), ne, "one weight per physical edge");
            (0..ne as EdgeId).zip(u.iter().copied()).filter(|&(_, w)| w > 0).collect()
        })
        .collect();
    assign_bandwidth(g, &trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::assign_unit_bandwidth;
    use crate::lowdepth::low_depth_trees;
    use crate::rational::Rational;
    use pf_topo::PolarFly;

    #[test]
    fn kary_tree_shape() {
        let t = LogicalTree::kary(7, 2, 0);
        assert_eq!(t.root, 0);
        assert_eq!(t.parent[1], Some(0));
        assert_eq!(t.parent[2], Some(0));
        assert_eq!(t.parent[3], Some(1));
        assert_eq!(t.parent[6], Some(2));
        assert_eq!(t.logical_depth(), 2);
        assert_eq!(t.edges().count(), 6);
    }

    #[test]
    fn kary_relabels_root() {
        let t = LogicalTree::kary(5, 4, 3);
        assert_eq!(t.root, 3);
        assert_eq!(t.parent[3], None);
        // All other vertices hang off the root (k = 4, n = 5).
        for v in [0u32, 1, 2, 4] {
            assert_eq!(t.parent[v as usize], Some(3), "v={v}");
        }
    }

    #[test]
    fn weighted_model_reduces_to_algorithm1_on_physical_trees() {
        let pf = PolarFly::new(7);
        let out = low_depth_trees(&pf, None).unwrap();
        let g = pf.graph();
        // Physical trees as logical trees: weights are 0/1.
        let usages: Vec<Vec<u32>> = out
            .trees
            .iter()
            .map(|t| {
                let lt = LogicalTree {
                    root: t.root(),
                    parent: (0..g.num_vertices()).map(|v| t.parent(v)).collect(),
                };
                route_usage(g, &lt)
            })
            .collect();
        // Physical adjacency => every logical edge routes in one hop.
        for (t, u) in out.trees.iter().zip(&usages) {
            let total: u32 = u.iter().sum();
            assert_eq!(total as usize, t.edges().count());
        }
        let weighted = assign_bandwidth_weighted(g, &usages);
        let classic = assign_unit_bandwidth(g, &out.trees);
        assert_eq!(weighted.per_tree, classic.per_tree);
        assert_eq!(weighted.aggregate(), classic.aggregate());
    }

    #[test]
    fn logical_trees_pay_for_path_conflicts() {
        // SHARP-style k-ary logical trees on PolarFly: 2-hop routed edges
        // conflict on shared links, collapsing the aggregate bandwidth
        // versus the physically-embedded solutions.
        let pf = PolarFly::new(7);
        let g = pf.graph();
        let n = g.num_vertices();
        let radix = 8;
        let logical: Vec<Vec<u32>> = (0..7u32)
            .map(|i| route_usage(g, &LogicalTree::kary(n, radix, i * 8 % n)))
            .collect();
        let a = assign_bandwidth_weighted(g, &logical);
        let structured = low_depth_trees(&pf, None).unwrap();
        let b = assign_unit_bandwidth(g, &structured.trees);
        assert!(
            a.aggregate() < b.aggregate(),
            "logical {} vs physical {}",
            a.aggregate(),
            b.aggregate()
        );
        assert!(a.max_congestion > 2, "logical congestion {}", a.max_congestion);
    }

    #[test]
    fn single_logical_tree_below_link_rate_when_conflicted() {
        // Even ONE logical tree can fall below link bandwidth when several
        // of its own routed edges share a physical link — impossible for a
        // physically-embedded tree (§5.1: "no congestion within a tree").
        let pf = PolarFly::new(5);
        let g = pf.graph();
        let t = LogicalTree::kary(g.num_vertices(), 2, 0);
        let u = route_usage(g, &t);
        let a = assign_bandwidth_weighted(g, std::slice::from_ref(&u));
        if u.iter().any(|&w| w > 1) {
            assert!(a.per_tree[0] < Rational::ONE);
        }
        assert!(a.per_tree[0].is_positive());
    }

    #[test]
    fn empty_usage_full_bandwidth() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        let a = assign_bandwidth_weighted(&g, &[vec![0]]);
        assert_eq!(a.per_tree, vec![Rational::ONE]);
    }
}
