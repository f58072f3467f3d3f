//! The core undirected graph type.

/// Dense vertex index.
pub type VertexId = u32;
/// Dense edge index, stable across the lifetime of the graph.
pub type EdgeId = u32;

/// A simple undirected graph: no self-loops, no parallel edges.
///
/// Vertices are `0..n`. Each edge gets a dense id in insertion order;
/// adjacency lists are kept sorted by neighbor for binary-search membership
/// tests, which the topology validators use heavily.
#[derive(Debug, Clone)]
pub struct Graph {
    n: u32,
    /// Endpoints per edge id, stored with `u < v`.
    edges: Vec<(VertexId, VertexId)>,
    /// Sorted adjacency: `(neighbor, edge id)` pairs per vertex.
    adj: Vec<Vec<(VertexId, EdgeId)>>,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    ///
    /// ```
    /// use pf_graph::Graph;
    /// let mut g = Graph::new(3);
    /// let e = g.add_edge(0, 2);
    /// assert!(g.has_edge(2, 0));
    /// assert_eq!(g.endpoints(e), (0, 2));
    /// assert_eq!(g.degree(1), 0);
    /// ```
    pub fn new(n: u32) -> Self {
        Graph { n, edges: Vec::new(), adj: vec![Vec::new(); n as usize] }
    }

    /// The graph on `n` vertices whose edge `i` is `edges[i]`, in either
    /// orientation: the graph [`Graph::add_edge`] builds from the same
    /// pairs in the same order, without its duplicate search and two
    /// sorted inserts per edge. It counts each vertex's degree, fills
    /// each adjacency list in one allocation, then sorts it.
    ///
    /// A list is allocated at the capacity one-at-a-time insertion leaves
    /// it at (`pushed_capacity`), not at its length. Nothing reads that
    /// capacity; it is there only to keep the heap layout of the programs
    /// that build topologies as `add_edge` left it: with exact lengths
    /// the benchmark's `fabric_bulk` peak resident memory read 6 % higher
    /// (and `fabric_small`'s 2.7 %), from block sizes alone, with every
    /// output unchanged.
    ///
    /// Panics on what `add_edge` refuses: self-loops, out-of-range
    /// endpoints and duplicate edges.
    ///
    /// ```
    /// use pf_graph::Graph;
    /// let g = Graph::from_edges(3, vec![(2, 0), (0, 1)]);
    /// assert_eq!(g.endpoints(0), (0, 2));
    /// assert_eq!(g.neighbors_with_edges(0), &[(1, 1), (2, 0)]);
    /// ```
    pub fn from_edges(n: u32, mut edges: Vec<(VertexId, VertexId)>) -> Self {
        let mut degree = vec![0usize; n as usize];
        for (u, v) in &mut edges {
            assert!(u != v, "self-loops are not representable (vertex {u})");
            assert!(*u < n && *v < n, "edge ({u},{v}) out of range n={n}");
            if u > v {
                std::mem::swap(u, v);
            }
            degree[*u as usize] += 1;
            degree[*v as usize] += 1;
        }
        let mut adj: Vec<Vec<(VertexId, EdgeId)>> =
            degree.into_iter().map(|d| Vec::with_capacity(pushed_capacity(d))).collect();
        for (id, &(u, v)) in edges.iter().enumerate() {
            adj[u as usize].push((v, id as EdgeId));
            adj[v as usize].push((u, id as EdgeId));
        }
        for (u, list) in adj.iter_mut().enumerate() {
            list.sort_unstable_by_key(|&(w, _)| w);
            if let Some(pair) = list.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                panic!("duplicate edge ({u},{})", pair[0].0);
            }
        }
        Graph { n, edges, adj }
    }

    /// A graph from parts the caller already holds in [`Graph`]'s own
    /// form: `edges[id] = (u, v)` with `u < v`, and `adj[u]` sorted by
    /// neighbor, listing `(v, id)` for every edge at `u`. Checked in debug
    /// builds only.
    pub(crate) fn from_sorted_parts(
        edges: Vec<(VertexId, VertexId)>,
        adj: Vec<Vec<(VertexId, EdgeId)>>,
    ) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < adj.len()));
        debug_assert!(adj.iter().all(|a| a.windows(2).all(|w| w[0].0 < w[1].0)));
        debug_assert_eq!(adj.iter().map(Vec::len).sum::<usize>(), 2 * edges.len());
        Graph { n: adj.len() as u32, edges, adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.edges.len() as u32
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n
    }

    /// Adds the undirected edge `{u, v}` and returns its id.
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges —
    /// all of which indicate a construction bug in the caller.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> EdgeId {
        assert!(u != v, "self-loops are not representable (vertex {u})");
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range n={}", self.n);
        assert!(self.edge_id(u, v).is_none(), "duplicate edge ({u},{v})");
        let id = self.edges.len() as EdgeId;
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        let pos_u = self.adj[u as usize].partition_point(|&(w, _)| w < v);
        self.adj[u as usize].insert(pos_u, (v, id));
        let pos_v = self.adj[v as usize].partition_point(|&(w, _)| w < u);
        self.adj[v as usize].insert(pos_v, (u, id));
        id
    }

    /// The id of edge `{u, v}`, if present.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let a = &self.adj[u as usize];
        a.binary_search_by_key(&v, |&(w, _)| w).ok().map(|i| a[i].1)
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Endpoints of edge `e`, as `(min, max)`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// Iterator over all edges as `(edge id, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges.iter().enumerate().map(|(i, &(u, v))| (i as EdgeId, u, v))
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> u32 {
        self.adj[u as usize].len() as u32
    }

    /// Sorted neighbors of `u`.
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj[u as usize].iter().map(|&(v, _)| v)
    }

    /// Sorted `(neighbor, edge id)` pairs of `u`.
    pub fn neighbors_with_edges(&self, u: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[u as usize]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> u32 {
        self.adj.iter().map(|a| a.len() as u32).max().unwrap_or(0)
    }

    /// Minimum degree over all vertices (0 for the empty graph).
    pub fn min_degree(&self) -> u32 {
        self.adj.iter().map(|a| a.len() as u32).min().unwrap_or(0)
    }

    /// Sorted degree sequence (an isomorphism invariant).
    pub fn degree_sequence(&self) -> Vec<u32> {
        let mut d: Vec<u32> = self.adj.iter().map(|a| a.len() as u32).collect();
        d.sort_unstable();
        d
    }
}

/// The capacity of an adjacency list grown from empty by `len` inserts,
/// under std's growth policy today (doubling, from a least nonzero
/// capacity of 4 for 8-byte elements). Only heap layout depends on it.
fn pushed_capacity(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn path_graph(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn basic_construction() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(2, 1);
        assert_eq!((e0, e1), (0, 1));
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.endpoints(e1), (1, 2));
        assert_eq!(g.edge_id(2, 1), Some(1));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        Graph::new(3).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        Graph::new(3).add_edge(0, 3);
    }

    #[test]
    fn degree_stats() {
        let g = path_graph(5);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.degree_sequence(), vec![1, 1, 2, 2, 2]);
    }

    #[test]
    fn edges_iteration_order() {
        let mut g = Graph::new(4);
        g.add_edge(3, 0);
        g.add_edge(1, 2);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 0, 3), (1, 1, 2)]);
    }

    /// Seeded pairs on `n` vertices, each unordered pair at most once
    /// (about a third of them), in a random order and orientation.
    fn scrambled_pairs(n: u32, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(u32, u32)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        pairs.retain(|_| rng.random_range(0..3u32) == 0);
        pairs.shuffle(&mut rng);
        pairs.into_iter().map(|(u, v)| [(u, v), (v, u)][rng.random_range(0..2usize)]).collect()
    }

    #[test]
    fn from_edges_builds_what_add_edge_builds() {
        for n in [0u32, 1, 2, 5, 17, 64] {
            for seed in 1..6 {
                let pairs = scrambled_pairs(n, seed);
                let mut want = Graph::new(n);
                for &(u, v) in &pairs {
                    want.add_edge(u, v);
                }
                let got = Graph::from_edges(n, pairs);
                assert_eq!(got.num_vertices(), n);
                assert!(got.edges().eq(want.edges()), "n={n} seed={seed}: edge lists");
                for u in got.vertices() {
                    let (g, w) = (got.neighbors_with_edges(u), want.neighbors_with_edges(u));
                    assert_eq!(g, w, "n={n} seed={seed} u={u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn from_edges_rejects_self_loop() {
        Graph::from_edges(3, vec![(0, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn from_edges_rejects_duplicate_edge() {
        Graph::from_edges(3, vec![(0, 1), (2, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        Graph::from_edges(3, vec![(0, 3)]);
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = Graph::new(6);
        for v in [5, 2, 4, 1, 3] {
            g.add_edge(0, v);
        }
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }
}
