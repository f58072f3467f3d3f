//! Breadth-first search, distances, and diameter.

use crate::graph::{Graph, VertexId};

/// Distance label for unreachable vertices.
pub const UNREACHABLE: u16 = u16::MAX;

/// Single-source BFS distances. Unreachable vertices get [`UNREACHABLE`].
pub fn distances(g: &Graph, src: VertexId) -> Vec<u16> {
    let mut dist = vec![UNREACHABLE; g.num_vertices() as usize];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Single-source BFS returning `(distances, parents)`; the parent of the
/// source (and of unreachable vertices) is `None`. Ties are broken toward
/// the smallest-id parent because neighbors are visited in sorted order.
pub fn tree(g: &Graph, src: VertexId) -> (Vec<u16>, Vec<Option<VertexId>>) {
    let n = g.num_vertices() as usize;
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// `true` iff the graph is connected (vacuously true for `n <= 1`).
pub fn is_connected(g: &Graph) -> bool {
    if g.num_vertices() <= 1 {
        return true;
    }
    distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Connected-component labels (`0..k` in order of first appearance) and
/// the component count.
pub fn connected_components(g: &Graph) -> (Vec<u32>, u32) {
    let n = g.num_vertices() as usize;
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    for s in g.vertices() {
        if label[s as usize] != u32::MAX {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([s]);
        label[s as usize] = next;
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// Eccentricity of `src`: the maximum finite BFS distance.
/// Returns `None` if some vertex is unreachable.
pub fn eccentricity(g: &Graph, src: VertexId) -> Option<u16> {
    let d = distances(g, src);
    if d.contains(&UNREACHABLE) {
        return None;
    }
    d.into_iter().max()
}

/// Graph diameter via all-sources BFS. `None` if disconnected.
pub fn diameter(g: &Graph) -> Option<u16> {
    let mut best = 0;
    for v in g.vertices() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// `true` iff every two vertices are at distance at most 2, i.e.
/// [`diameter`] is `Some(d)` with `d ≤ 2` (so `false` on a disconnected
/// graph, vacuously `true` for `n ≤ 1`).
///
/// Vertex `v` reaches every vertex within two hops iff its adjacency row
/// ORed with its neighbours' rows, plus `v` itself, covers all of `V`.
/// Rows are bitsets of `⌈n/64⌉` words, so the check costs
/// `Σ_v deg(v) · ⌈n/64⌉` word operations and `n²/8` bytes, where the
/// all-pairs BFS of [`diameter`] walks every edge once per vertex. It stops
/// at the first vertex that misses one.
///
/// ```
/// use pf_graph::{bfs, builders};
/// assert!(bfs::diameter_at_most_two(&builders::petersen()));
/// assert!(!bfs::diameter_at_most_two(&builders::cycle(6)));
/// ```
pub fn diameter_at_most_two(g: &Graph) -> bool {
    let n = g.num_vertices() as usize;
    let words = n.div_ceil(64);
    let bit = |v: usize| (v / 64, 1u64 << (v % 64));
    let mut rows = vec![0u64; n * words];
    for (_, u, v) in g.edges() {
        let (u, v) = (u as usize, v as usize);
        let (w, b) = bit(v);
        rows[u * words + w] |= b;
        let (w, b) = bit(u);
        rows[v * words + w] |= b;
    }
    let mut full = vec![u64::MAX; words];
    if let Some(last) = full.last_mut() {
        *last >>= 64 * words - n;
    }
    let mut reach = vec![0u64; words];
    for v in 0..n {
        reach.copy_from_slice(&rows[v * words..(v + 1) * words]);
        let (w, b) = bit(v);
        reach[w] |= b;
        for u in g.neighbors(v as VertexId) {
            let row = &rows[u as usize * words..(u as usize + 1) * words];
            for (r, &x) in reach.iter_mut().zip(row) {
                *r |= x;
            }
        }
        if reach != full {
            return false;
        }
    }
    true
}

/// All-pairs shortest-path distances (`n` BFS passes).
pub fn all_pairs_distances(g: &Graph) -> Vec<Vec<u16>> {
    g.vertices().map(|v| distances(g, v)).collect()
}

/// A shortest path from `src` to `dst` as a vertex sequence (inclusive),
/// or `None` if unreachable. Deterministic (smallest-id tie-breaking).
pub fn shortest_path(g: &Graph, src: VertexId, dst: VertexId) -> Option<Vec<VertexId>> {
    let (dist, parent) = tree(g, src);
    if dist[dst as usize] == UNREACHABLE {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent[cur as usize] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// Counts the paths of length exactly 2 between `u` and `v` (common
/// neighbors). The paper's Theorem 6.1 says this is at most 1 in `ER_q`
/// for distinct `u`, `v`.
pub fn count_two_paths(g: &Graph, u: VertexId, v: VertexId) -> usize {
    let (mut i, mut j) = (0, 0);
    let a = g.neighbors_with_edges(u);
    let b = g.neighbors_with_edges(v);
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn distances_on_cycle() {
        let g = cycle(6);
        let d = distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn connected_and_diameter() {
        let g = cycle(7);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(3));

        let mut h = Graph::new(4);
        h.add_edge(0, 1);
        assert!(!is_connected(&h));
        assert_eq!(diameter(&h), None);
        assert_eq!(eccentricity(&h, 0), None);
    }

    #[test]
    fn component_labels() {
        let mut g = Graph::new(7);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 4);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[6]);
        // Labels are assigned in order of first appearance.
        assert_eq!(labels[0], 0);
        assert_eq!(labels[3], 1);
        assert_eq!(labels[5], 2);
        assert_eq!(labels[6], 3);
        let (_, one) = connected_components(&cycle(5));
        assert_eq!(one, 1);
    }

    #[test]
    fn diameter_at_most_two_matches_all_pairs_bfs() {
        use crate::builders;
        // A star on `n` vertices whose last leaf hangs off the one before
        // it instead: diameter 3, with the far vertex in the last word.
        let tailed_star = |n: u32| {
            let mut g = Graph::new(n);
            for v in 1..n - 1 {
                g.add_edge(0, v);
            }
            g.add_edge(n - 2, n - 1);
            g
        };
        let mut graphs = vec![
            Graph::new(0),
            Graph::new(1),
            Graph::new(2),
            builders::path(2),
            builders::path(3),
            builders::path(4),
            cycle(4),
            cycle(5),
            cycle(6),
            builders::petersen(),
            builders::hypercube(3),
            builders::complete(7),
            builders::torus2d(3, 3),
        ];
        for n in [63u32, 64, 65, 128, 129] {
            graphs.push(builders::star(n));
            graphs.push(tailed_star(n));
        }
        for g in &graphs {
            let want = matches!(diameter(g), Some(d) if d <= 2);
            let (n, m) = (g.num_vertices(), g.num_edges());
            assert_eq!(diameter_at_most_two(g), want, "n={n} |E|={m}");
        }
    }

    #[test]
    fn trivial_graphs_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert_eq!(diameter(&Graph::new(1)), Some(0));
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = cycle(8);
        let p = shortest_path(&g, 0, 3).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len(), 4);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert_eq!(shortest_path(&g, 2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn shortest_path_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        assert_eq!(shortest_path(&g, 0, 2), None);
    }

    #[test]
    fn two_path_counting() {
        // K4 minus one edge: u=0, v=1 non-adjacent, both adjacent to 2 and 3.
        let mut g = Graph::new(4);
        for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v);
        }
        assert_eq!(count_two_paths(&g, 0, 1), 2);
        assert_eq!(count_two_paths(&g, 2, 3), 2);
        assert_eq!(count_two_paths(&g, 0, 2), 1); // via 3
    }

    #[test]
    fn bfs_tree_parents_consistent() {
        let g = cycle(9);
        let (dist, parent) = tree(&g, 4);
        for v in g.vertices() {
            if v == 4 {
                assert_eq!(parent[v as usize], None);
                continue;
            }
            let p = parent[v as usize].unwrap();
            assert!(g.has_edge(p, v));
            assert_eq!(dist[p as usize] + 1, dist[v as usize]);
        }
    }

    #[test]
    fn all_pairs_symmetry() {
        let g = cycle(5);
        let apd = all_pairs_distances(&g);
        for (u, row) in apd.iter().enumerate() {
            for (v, &d) in row.iter().enumerate() {
                assert_eq!(d, apd[v][u]);
            }
            assert_eq!(row[u], 0);
        }
    }
}
