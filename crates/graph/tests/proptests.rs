//! Property-based tests for the graph substrate.

use pf_graph::{bfs, dsu::Dsu, indset, iso, subgraph, Graph, RootedTree};
use proptest::prelude::*;

/// Random connected graph: spanning-tree skeleton plus extra edges.
fn connected_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let parents = proptest::collection::vec(0u32..n, (n - 1) as usize);
        let extras = proptest::collection::vec((0u32..n, 0u32..n), 0..(3 * n) as usize);
        (Just(n), parents, extras).prop_map(|(n, parents, extras)| {
            let mut g = Graph::new(n);
            for (i, &p) in parents.iter().enumerate() {
                let v = i as u32 + 1;
                g.add_edge(v, p % v);
            }
            for (a, b) in extras {
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b);
                }
            }
            g
        })
    })
}

/// Random (possibly disconnected) graph.
fn any_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0u32..n, 0u32..n), 0..(2 * n) as usize);
        (Just(n), edges).prop_map(|(n, edges)| {
            let mut g = Graph::new(n);
            for (a, b) in edges {
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b);
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_tree_spans_connected_graphs(g in connected_graph(24), root in 0u32..24) {
        let root = root % g.num_vertices();
        let (dist, parents) = bfs::tree(&g, root);
        let t = RootedTree::from_parents(root, parents).unwrap();
        prop_assert!(t.validate_spanning(&g).is_ok());
        // BFS parents give shortest-path depths.
        for v in g.vertices() {
            prop_assert_eq!(t.depth_of(v) as u16, dist[v as usize]);
        }
        prop_assert_eq!(t.depth() as u16, bfs::eccentricity(&g, root).unwrap());
    }

    #[test]
    fn distances_satisfy_triangle_on_edges(g in connected_graph(20)) {
        let apd = bfs::all_pairs_distances(&g);
        for (_, u, v) in g.edges() {
            for w in g.vertices() {
                let (du, dv) = (apd[w as usize][u as usize], apd[w as usize][v as usize]);
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}), source {w}");
            }
        }
    }

    #[test]
    fn shortest_path_length_matches_distance(g in connected_graph(16), a in 0u32..16, b in 0u32..16) {
        let n = g.num_vertices();
        let (a, b) = (a % n, b % n);
        let d = bfs::distances(&g, a);
        let p = bfs::shortest_path(&g, a, b).unwrap();
        prop_assert_eq!(p.len() as u16 - 1, d[b as usize]);
        for w in p.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn random_maximal_indset_is_maximal(g in any_graph(24), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = indset::random_maximal(&g, &mut rng);
        prop_assert!(indset::is_maximal_independent(&g, &s));
    }

    #[test]
    fn exact_indset_at_least_as_good_as_random(g in any_graph(14), seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let approx = indset::random_maximal(&g, &mut rng);
        let exact = indset::maximum(&g);
        prop_assert!(indset::is_independent(&g, &exact));
        prop_assert!(exact.len() >= approx.len());
    }

    #[test]
    fn dsu_agrees_with_bfs_connectivity(g in any_graph(20)) {
        let mut d = Dsu::new(g.num_vertices());
        for (_, u, v) in g.edges() {
            d.union(u, v);
        }
        for u in g.vertices() {
            let dist = bfs::distances(&g, u);
            for v in g.vertices() {
                let reachable = dist[v as usize] != bfs::UNREACHABLE;
                prop_assert_eq!(d.connected(u, v), reachable, "({},{})", u, v);
            }
        }
    }

    #[test]
    fn graph_isomorphic_to_relabeled_self(g in connected_graph(10), seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = g.num_vertices();
        let mut perm: Vec<u32> = (0..n).collect();
        perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut h = Graph::new(n);
        for (_, u, v) in g.edges() {
            h.add_edge(perm[u as usize], perm[v as usize]);
        }
        let m = iso::find_isomorphism(&g, &h, None);
        prop_assert!(m.is_some());
        prop_assert!(iso::verify_isomorphism(&g, &h, &m.unwrap()));
    }

    #[test]
    fn tree_from_path_has_expected_depth(len in 2usize..20, root_idx in 0usize..20) {
        let path: Vec<u32> = (0..len as u32).collect();
        let root_idx = root_idx % len;
        let t = RootedTree::from_path(&path, root_idx).unwrap();
        prop_assert_eq!(t.depth() as usize, root_idx.max(len - 1 - root_idx));
        prop_assert_eq!(t.edges().count(), len - 1);
        prop_assert_eq!(t.leaves().len(), if root_idx == 0 || root_idx == len - 1 { 1 } else { 2 });
    }

    #[test]
    fn edge_deleted_maps_round_trip_on_survivors(g in any_graph(20), picks in proptest::collection::vec(0usize..64, 0..8)) {
        let removed: Vec<u32> = picks
            .iter()
            .filter(|_| g.num_edges() > 0)
            .map(|&p| (p % g.num_edges() as usize) as u32)
            .collect();
        let view = subgraph::surviving(&g, &[], &removed);
        // Forward then backward is the identity on every surviving new id…
        for (new, &old) in view.orig_edge.iter().enumerate() {
            prop_assert_eq!(view.new_edge[old as usize], Some(new as u32));
            prop_assert_eq!(view.graph.endpoints(new as u32), g.endpoints(old));
        }
        // …and backward then forward on every surviving original id.
        for (old, &new) in view.new_edge.iter().enumerate() {
            match new {
                Some(n) => prop_assert_eq!(view.orig_edge[n as usize], old as u32),
                None => prop_assert!(removed.contains(&(old as u32))),
            }
        }
        prop_assert_eq!(view.orig_edge.len(), view.graph.num_edges() as usize);
    }

    #[test]
    fn vertex_deleted_maps_round_trip_on_survivors(g in any_graph(20), picks in proptest::collection::vec(0usize..64, 0..6)) {
        let n = g.num_vertices();
        let removed: Vec<u32> = picks.iter().map(|&p| (p % n as usize) as u32).collect();
        // Keep at least one survivor so the view is non-degenerate.
        prop_assume!(removed.iter().collect::<std::collections::HashSet<_>>().len() < n as usize);
        let view = subgraph::surviving(&g, &removed, &[]);
        for (new, &old) in view.orig_vertex.iter().enumerate() {
            prop_assert_eq!(view.new_vertex[old as usize], Some(new as u32));
        }
        for (old, &new) in view.new_vertex.iter().enumerate() {
            match new {
                Some(nv) => prop_assert_eq!(view.orig_vertex[nv as usize], old as u32),
                None => prop_assert!(removed.contains(&(old as u32))),
            }
        }
        for (new, &old) in view.orig_edge.iter().enumerate() {
            prop_assert_eq!(view.new_edge[old as usize], Some(new as u32));
            // Endpoints are preserved under the vertex map.
            let (u, v) = g.endpoints(old);
            let (nu, nv) = view.graph.endpoints(new as u32);
            prop_assert_eq!(view.orig_vertex[nu as usize], u.min(v));
            prop_assert_eq!(view.orig_vertex[nv as usize], u.max(v));
        }
        for (old, &new) in view.new_edge.iter().enumerate() {
            if let Some(ne) = new {
                prop_assert_eq!(view.orig_edge[ne as usize], old as u32);
            }
        }
    }

    #[test]
    fn surviving_maps_round_trip(
        g in any_graph(20),
        vertex_picks in proptest::collection::vec(0usize..64, 0..6),
        edge_picks in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let n = g.num_vertices();
        let vertices: Vec<u32> = vertex_picks.iter().map(|&p| (p % n as usize) as u32).collect();
        let edges: Vec<u32> = edge_picks
            .iter()
            .filter(|_| g.num_edges() > 0)
            .map(|&p| (p % g.num_edges() as usize) as u32)
            .collect();
        // Keep at least one survivor so the view is non-degenerate.
        prop_assume!(vertices.iter().collect::<std::collections::HashSet<_>>().len() < n as usize);
        let view = subgraph::surviving(&g, &vertices, &edges);
        // Forward then backward is the identity on every surviving new id…
        for (new, &old) in view.orig_vertex.iter().enumerate() {
            prop_assert_eq!(view.new_vertex[old as usize], Some(new as u32));
        }
        for (new, &old) in view.orig_edge.iter().enumerate() {
            prop_assert_eq!(view.new_edge[old as usize], Some(new as u32));
            // Endpoints are preserved under the vertex map.
            let (u, v) = g.endpoints(old);
            let (nu, nv) = view.graph.endpoints(new as u32);
            prop_assert_eq!(view.orig_vertex[nu as usize], u);
            prop_assert_eq!(view.orig_vertex[nv as usize], v);
        }
        // …and backward then forward on every surviving original id; an
        // original id maps to nothing exactly when it was deleted.
        for (old, &new) in view.new_vertex.iter().enumerate() {
            prop_assert_eq!(new.is_none(), vertices.contains(&(old as u32)));
            if let Some(nv) = new {
                prop_assert_eq!(view.orig_vertex[nv as usize], old as u32);
            }
        }
        for (old, &new) in view.new_edge.iter().enumerate() {
            let (u, v) = g.endpoints(old as u32);
            let deleted =
                edges.contains(&(old as u32)) || vertices.contains(&u) || vertices.contains(&v);
            prop_assert_eq!(new.is_none(), deleted);
            if let Some(ne) = new {
                prop_assert_eq!(view.orig_edge[ne as usize], old as u32);
            }
        }
        prop_assert_eq!(view.orig_vertex.len(), view.graph.num_vertices() as usize);
        prop_assert_eq!(view.orig_edge.len(), view.graph.num_edges() as usize);
        // Every map is allocated at exactly its length.
        prop_assert_eq!(view.orig_vertex.capacity(), view.orig_vertex.len());
        prop_assert_eq!(view.orig_edge.capacity(), view.orig_edge.len());
    }

    #[test]
    fn star_product_coordinates_and_counts(g in connected_graph(6), h in connected_graph(5), twisted in any::<bool>()) {
        let sp = if twisted {
            pf_graph::shifted_product(&g, &h)
        } else {
            pf_graph::cartesian_product(&g, &h)
        };
        let p = sp.graph();
        let (ng, nh) = (g.num_vertices(), h.num_vertices());
        prop_assert_eq!(p.num_vertices(), ng * nh);
        prop_assert_eq!(p.num_edges(), ng * h.num_edges() + g.num_edges() * nh);
        prop_assert!(bfs::is_connected(p));
        for gv in 0..ng {
            for hv in 0..nh {
                let v = sp.vertex(gv, hv);
                prop_assert_eq!((sp.supernode(v), sp.local(v)), (gv, hv));
            }
        }
        // Every inter-supernode product edge follows its G-edge bijection.
        for (e, u, v) in g.edges() {
            for x in 0..nh {
                let y = sp.across(e, u, x);
                prop_assert!(p.has_edge(sp.vertex(u, x), sp.vertex(v, y)));
                prop_assert_eq!(sp.across(e, v, y), x);
            }
        }
    }

    #[test]
    fn edge_ids_are_stable_and_complete(g in any_graph(20)) {
        for (e, u, v) in g.edges() {
            prop_assert_eq!(g.edge_id(u, v), Some(e));
            prop_assert_eq!(g.edge_id(v, u), Some(e));
            prop_assert_eq!(g.endpoints(e), (u.min(v), u.max(v)));
        }
        let degree_sum: u32 = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }
}
