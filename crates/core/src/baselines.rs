//! Naive multi-tree baselines — the ablation behind §1.2's claim that
//! "the trees must be carefully embedded, or else congestion … can create
//! bottleneck edges with high traffic load, nullifying the performance
//! benefits of data-parallelism".
//!
//! Two strawmen to compare against the paper's constructions:
//!
//! * [`k_bfs_trees`] — `k` BFS spanning trees from random roots, the kind
//!   of "logically defined" trees SHARP-style systems produce with no
//!   congestion guarantee (§1.1);
//! * [`crate::GreedyPeel`] — peel spanning trees off the graph greedily
//!   using only so-far-unused edges, a natural but structure-blind way to
//!   chase edge-disjointness (a [`crate::TreeConstruction`] backend, so
//!   it runs on any substrate).
//!
//! Run through Algorithm 1, these show the bandwidth gap to the
//! structured solutions (the `ablation-naive` experiment).

use pf_graph::{bfs, Graph, RootedTree, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `k` BFS spanning trees rooted at distinct random vertices. No
/// congestion control whatsoever: overlapping edges are the norm.
pub fn k_bfs_trees(g: &Graph, k: usize, seed: u64) -> Vec<RootedTree> {
    assert!(k as u32 <= g.num_vertices(), "need k distinct roots");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut roots: Vec<VertexId> = g.vertices().collect();
    roots.shuffle(&mut rng);
    roots.truncate(k);
    roots
        .into_iter()
        .map(|r| {
            let (_, parents) = bfs::tree(g, r);
            RootedTree::from_parents(r, parents).expect("BFS tree of a connected graph")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::assign_unit_bandwidth;
    use crate::{Budget, GreedyPeel, TreeConstruction};
    use crate::disjoint::find_edge_disjoint;
    use crate::lowdepth::low_depth_trees;
    use pf_graph::tree::pairwise_edge_disjoint;
    use pf_topo::{PolarFly, Singer};

    #[test]
    fn bfs_trees_span_and_have_diameter_depth() {
        let pf = PolarFly::new(7);
        let trees = k_bfs_trees(pf.graph(), 7, 42);
        assert_eq!(trees.len(), 7);
        let mut roots = std::collections::HashSet::new();
        for t in &trees {
            t.validate_spanning(pf.graph()).unwrap();
            assert!(t.depth() <= 2, "diameter-2 network");
            assert!(roots.insert(t.root()), "roots must be distinct");
        }
    }

    #[test]
    fn bfs_trees_congest_badly() {
        // The §1.2 claim: naive trees overlap heavily, so the aggregate
        // bandwidth collapses well below the structured solutions.
        let pf = PolarFly::new(11);
        let naive = k_bfs_trees(pf.graph(), 11, 7);
        let a_naive = assign_unit_bandwidth(pf.graph(), &naive);
        let structured = low_depth_trees(&pf, None).unwrap();
        let a_struct = assign_unit_bandwidth(pf.graph(), &structured.trees);
        assert!(
            a_naive.max_congestion > 2,
            "naive congestion {} should exceed the structured bound 2",
            a_naive.max_congestion
        );
        assert!(
            a_naive.aggregate() < a_struct.aggregate(),
            "naive {} vs structured {}",
            a_naive.aggregate(),
            a_struct.aggregate()
        );
    }

    #[test]
    fn greedy_trees_are_edge_disjoint_but_fewer_or_deeper() {
        let s = Singer::new(7);
        let greedy = GreedyPeel { seed: 3 }.build(s.graph(), &Budget::unlimited()).unwrap();
        assert!(!greedy.is_empty());
        for t in &greedy {
            t.validate_spanning(s.graph()).unwrap();
        }
        assert!(pairwise_edge_disjoint(&greedy, s.graph()));
        let structured = find_edge_disjoint(&s, 30, 3);
        assert!(
            greedy.len() <= structured.trees.len(),
            "greedy {} vs structured {}",
            greedy.len(),
            structured.trees.len()
        );
    }

    #[test]
    fn greedy_respects_upper_bound() {
        for q in [3u64, 5, 7] {
            let s = Singer::new(q);
            let greedy = GreedyPeel { seed: q }.build(s.graph(), &Budget::unlimited()).unwrap();
            assert!(greedy.len() as u64 <= q.div_ceil(2), "q={q}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pf = PolarFly::new(5);
        let a = k_bfs_trees(pf.graph(), 3, 9);
        let b = k_bfs_trees(pf.graph(), 3, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.root(), y.root());
        }
    }

    #[test]
    #[should_panic(expected = "distinct roots")]
    fn too_many_roots_rejected() {
        let pf = PolarFly::new(3);
        k_bfs_trees(pf.graph(), 14, 0);
    }
}
