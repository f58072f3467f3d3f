//! Surviving subgraphs, for fault modeling.
//!
//! A link or router fault turns the healthy topology into a subgraph:
//! the same network minus the failed elements. Because [`Graph`] assigns
//! dense edge ids in insertion order, deleting elements renumbers the
//! surviving edges (and, when vertices go, the surviving vertices), so
//! the view carries explicit id maps in both directions. Recovery code
//! uses the forward maps to translate a healthy-network plan onto the
//! surviving fabric and the backward maps to report results in the
//! original labeling.
//!
//! [`surviving`] does not insert the surviving edges one by one: it maps
//! the edge list and filters each surviving vertex's sorted adjacency
//! list, which stays sorted because renumbering preserves order. The
//! result equals the graph [`Graph::add_edge`] builds (the unit tests
//! hold both constructions equal); every list is allocated at exactly
//! its length.

use crate::graph::{EdgeId, Graph, VertexId};

/// A subgraph formed by deleting a set of vertices (with every incident
/// edge) and a set of edges. Survivors are renumbered densely, preserving
/// relative order; with no vertex deleted, vertex ids are unchanged.
///
/// Each forward/backward map pair composes to the identity on survivors:
/// `new_vertex[orig_vertex[n]] == Some(n)`,
/// `orig_vertex[new_vertex[o].unwrap()] == o`, and likewise for the edge
/// maps — the round-trip identity `pf-graph/tests/proptests.rs` pins.
/// Every map is allocated at exactly its length.
#[derive(Debug, Clone)]
pub struct Surviving {
    /// The surviving topology.
    pub graph: Graph,
    /// `orig_vertex[new_id] = old_id` for every surviving vertex.
    pub orig_vertex: Vec<VertexId>,
    /// `new_vertex[old_id] = Some(new_id)` for survivors, `None` for
    /// deleted vertices.
    pub new_vertex: Vec<Option<VertexId>>,
    /// `orig_edge[new_id] = old_id` for every surviving edge.
    pub orig_edge: Vec<EdgeId>,
    /// `new_edge[old_id] = Some(new_id)` for survivors, `None` for deleted
    /// edges and edges that lost an endpoint.
    pub new_edge: Vec<Option<EdgeId>>,
}

/// Deletes the vertices `vertices` and the edges `edges` (original ids;
/// duplicates allowed, either may be empty) from `g` in one pass. The
/// surviving edges keep their original relative order, so the result is
/// the graph [`Graph::add_edge`] builds from them in original-id order.
///
/// Panics if an id is out of range — that indicates a bookkeeping bug in
/// the caller, consistent with [`Graph::add_edge`]'s contract.
pub fn surviving(g: &Graph, vertices: &[VertexId], edges: &[EdgeId]) -> Surviving {
    let mut dead_vertex = vec![false; g.num_vertices() as usize];
    for &v in vertices {
        assert!((v as usize) < dead_vertex.len(), "vertex id {v} out of range");
        dead_vertex[v as usize] = true;
    }
    let mut dead_edge = vec![false; g.num_edges() as usize];
    for &e in edges {
        assert!((e as usize) < dead_edge.len(), "edge id {e} out of range");
        dead_edge[e as usize] = true;
    }
    let alive = dead_vertex.iter().filter(|&&dead| !dead).count();
    let mut orig_vertex = Vec::with_capacity(alive);
    let mut new_vertex = vec![None; g.num_vertices() as usize];
    for v in g.vertices() {
        if !dead_vertex[v as usize] {
            new_vertex[v as usize] = Some(orig_vertex.len() as VertexId);
            orig_vertex.push(v);
        }
    }
    let mut orig_edge = Vec::new();
    let mut new_edge = vec![None; g.num_edges() as usize];
    let mut degree = vec![0usize; alive];
    for (e, u, v) in g.edges() {
        if let (false, Some(nu), Some(nv)) =
            (dead_edge[e as usize], new_vertex[u as usize], new_vertex[v as usize])
        {
            new_edge[e as usize] = Some(orig_edge.len() as EdgeId);
            orig_edge.push(e);
            degree[nu as usize] += 1;
            degree[nv as usize] += 1;
        }
    }
    orig_edge.shrink_to_fit();

    // Renumbering is monotone, so mapping an edge keeps `u < v` and
    // filtering a survivor's sorted adjacency list keeps it sorted.
    let renumber = |v: VertexId| new_vertex[v as usize].expect("survivors keep their endpoints");
    let kept = orig_edge
        .iter()
        .map(|&e| {
            let (u, v) = g.endpoints(e);
            (renumber(u), renumber(v))
        })
        .collect();
    let adj = orig_vertex
        .iter()
        .zip(&degree)
        .map(|(&u, &d)| {
            let mut a = Vec::with_capacity(d);
            a.extend(g.neighbors_with_edges(u).iter().filter_map(|&(w, e)| {
                Some((new_vertex[w as usize]?, new_edge[e as usize]?))
            }));
            a
        })
        .collect();
    let graph = Graph::from_sorted_parts(kept, adj);
    Surviving { graph, orig_vertex, new_vertex, orig_edge, new_edge }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A graph on `n` vertices holding each pair with probability
    /// `density` percent, inserted in a seeded random order and
    /// orientation, so edge ids do not follow vertex order.
    fn random_graph(n: u32, density: u32, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(u32, u32)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        pairs.shuffle(&mut rng);
        let mut g = Graph::new(n);
        for (u, v) in pairs {
            if rng.random_range(0..100u32) < density {
                if rng.random_range(0..2u32) == 0 {
                    g.add_edge(u, v);
                } else {
                    g.add_edge(v, u);
                }
            }
        }
        g
    }

    /// The surviving graph as [`Graph::add_edge`] builds it: survivors
    /// renumbered in order, surviving edges inserted in original-id order.
    fn by_insertion(g: &Graph, vertices: &[VertexId], edges: &[EdgeId]) -> Graph {
        let alive: Vec<VertexId> = g.vertices().filter(|v| !vertices.contains(v)).collect();
        let renumber = |v: VertexId| alive.binary_search(&v).ok().map(|i| i as VertexId);
        let mut h = Graph::new(alive.len() as u32);
        for (e, u, v) in g.edges() {
            if let (false, Some(a), Some(b)) = (edges.contains(&e), renumber(u), renumber(v)) {
                h.add_edge(a, b);
            }
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn surviving_equals_the_graph_add_edge_builds(
            n in 1u32..40,
            density in 0u32..=100,
            seed in any::<u64>(),
            vertex_picks in proptest::collection::vec(0usize..64, 0..6),
            edge_picks in proptest::collection::vec(0usize..1024, 0..24),
        ) {
            let g = random_graph(n, density, seed);
            let vertices: Vec<VertexId> =
                vertex_picks.iter().map(|&p| (p % n as usize) as VertexId).collect();
            let edges: Vec<EdgeId> = edge_picks
                .iter()
                .filter(|_| g.num_edges() > 0)
                .map(|&p| (p % g.num_edges() as usize) as EdgeId)
                .collect();
            let got = surviving(&g, &vertices, &edges).graph;
            let want = by_insertion(&g, &vertices, &edges);
            prop_assert_eq!(got.num_vertices(), want.num_vertices());
            prop_assert!(got.edges().eq(want.edges()));
            for v in want.vertices() {
                prop_assert_eq!(got.neighbors_with_edges(v), want.neighbors_with_edges(v));
            }
        }
    }

    fn cycle(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn edge_deletion_renumbers_and_maps() {
        let g = cycle(5); // edges 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4) 4:(0,4)
        let view = surviving(&g, &[], &[1, 3]);
        assert_eq!(view.graph.num_vertices(), 5);
        assert_eq!(view.graph.num_edges(), 3);
        assert_eq!(view.orig_edge, vec![0, 2, 4]);
        assert_eq!(view.new_edge, vec![Some(0), None, Some(1), None, Some(2)]);
        // Endpoints preserved under the map.
        for (new, &old) in view.orig_edge.iter().enumerate() {
            assert_eq!(view.graph.endpoints(new as u32), g.endpoints(old));
        }
    }

    #[test]
    fn edge_deletion_tolerates_duplicates_and_empty() {
        let g = cycle(4);
        let view = surviving(&g, &[], &[2, 2, 2]);
        assert_eq!(view.graph.num_edges(), 3);
        let full = surviving(&g, &[], &[]);
        assert_eq!(full.graph.num_edges(), 4);
        assert!(bfs::is_connected(&full.graph));
    }

    #[test]
    fn deleting_a_cut_edge_disconnects() {
        let mut g = Graph::new(4); // path 0-1-2-3
        for i in 0..3 {
            g.add_edge(i, i + 1);
        }
        let view = surviving(&g, &[], &[1]);
        assert!(!bfs::is_connected(&view.graph));
        let (_, k) = bfs::connected_components(&view.graph);
        assert_eq!(k, 2);
        assert_eq!(bfs::diameter(&view.graph), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_deletion_rejects_bad_id() {
        surviving(&cycle(3), &[], &[7]);
    }

    #[test]
    fn vertex_deletion_renumbers_and_maps() {
        let g = cycle(5);
        let view = surviving(&g, &[2], &[]);
        assert_eq!(view.graph.num_vertices(), 4);
        assert_eq!(view.orig_vertex, vec![0, 1, 3, 4]);
        assert_eq!(view.new_vertex, vec![Some(0), Some(1), None, Some(2), Some(3)]);
        // Edges (1,2) and (2,3) are gone; survivors keep their endpoints
        // under the vertex map.
        assert_eq!(view.graph.num_edges(), 3);
        for (new, &old) in view.orig_edge.iter().enumerate() {
            let (u, v) = g.endpoints(old);
            let (nu, nv) = view.graph.endpoints(new as u32);
            assert_eq!(view.orig_vertex[nu as usize], u);
            assert_eq!(view.orig_vertex[nv as usize], v);
        }
        // A cycle minus one vertex is a path: still connected.
        assert!(bfs::is_connected(&view.graph));
    }

    #[test]
    fn vertex_deletion_can_partition() {
        let mut g = Graph::new(5); // star around 0 plus a pendant path
        for v in 1..5 {
            g.add_edge(0, v);
        }
        let view = surviving(&g, &[0], &[]);
        assert_eq!(view.graph.num_vertices(), 4);
        assert_eq!(view.graph.num_edges(), 0);
        assert!(!bfs::is_connected(&view.graph));
        assert_eq!(bfs::eccentricity(&view.graph, 0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertex_deletion_rejects_bad_id() {
        surviving(&cycle(3), &[3], &[]);
    }
}
