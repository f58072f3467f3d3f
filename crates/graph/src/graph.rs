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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn neighbors_sorted() {
        let mut g = Graph::new(6);
        for v in [5, 2, 4, 1, 3] {
            g.add_edge(0, v);
        }
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }
}
