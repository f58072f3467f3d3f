//! Rooted spanning trees: assembly, validation and re-rooting.
//!
//! The paper's allreduce embeddings are rooted spanning trees of the
//! physical topology: reduction traffic flows leaf→root, broadcast traffic
//! root→leaf. [`RootedTree`] is the shared representation used by the
//! low-depth construction (Algorithm 3), the Hamiltonian-path construction
//! (§7.2), the congestion model (Algorithm 1), and the simulator.
//!
//! A rooted tree is fixed by its edge set and its root. Constructions that
//! pick edges rather than parents (Kruskal peeling, star-product residual
//! trees, fault repair) select them with [`spanning_edge_ids`] and orient
//! them with [`RootedTree::from_edges`]; [`RootedTree::rerooted`] moves
//! the root of a tree already built.

use crate::dsu::Dsu;
use crate::graph::{EdgeId, Graph, VertexId};

/// Validation failures for a would-be spanning tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Wrong number of vertices relative to the host graph.
    WrongOrder { tree: usize, graph: usize },
    /// The root's parent entry must be `None`.
    RootHasParent(VertexId),
    /// A non-root vertex has no parent (tree not connected to the root).
    MissingParent(VertexId),
    /// Parent pointers contain a cycle through this vertex.
    Cycle(VertexId),
    /// A tree edge is not present in the host graph.
    EdgeNotInGraph(VertexId, VertexId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::WrongOrder { tree, graph } => {
                write!(f, "tree covers {tree} vertices but graph has {graph}")
            }
            TreeError::RootHasParent(r) => write!(f, "root {r} has a parent"),
            TreeError::MissingParent(v) => write!(f, "non-root vertex {v} has no parent"),
            TreeError::Cycle(v) => write!(f, "parent pointers cycle through {v}"),
            TreeError::EdgeNotInGraph(u, v) => {
                write!(f, "tree edge ({u},{v}) is not a graph edge")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted tree over vertices `0..n`, stored as parent pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    depth: Vec<u32>,
}

impl RootedTree {
    /// Builds a tree from parent pointers, checking structural soundness
    /// (single root, acyclic, fully connected to the root). Host-graph
    /// membership of the edges is checked separately by
    /// [`RootedTree::validate_spanning`].
    ///
    /// Each vertex not yet resolved walks its parent chain up to a resolved
    /// one, and the walk resolves the whole chain, so every vertex is
    /// walked once: `O(n)` with one reused chain buffer. A vertex on the
    /// current chain is stamped `ON_CHAIN` in the depth array, so meeting
    /// it again is a cycle. Errors name the first failing vertex in the
    /// order the walks meet them, from vertex 0 up.
    pub fn from_parents(
        root: VertexId,
        parent: Vec<Option<VertexId>>,
    ) -> Result<Self, TreeError> {
        const UNRESOLVED: u32 = u32::MAX;
        const ON_CHAIN: u32 = u32::MAX - 1;
        let n = parent.len();
        if (root as usize) >= n {
            return Err(TreeError::MissingParent(root));
        }
        if parent[root as usize].is_some() {
            return Err(TreeError::RootHasParent(root));
        }
        let mut depth = vec![UNRESOLVED; n];
        depth[root as usize] = 0;
        let mut chain = Vec::new();
        for v0 in 0..n as u32 {
            if depth[v0 as usize] != UNRESOLVED {
                continue;
            }
            chain.clear();
            let mut cur = v0;
            let base = loop {
                match depth[cur as usize] {
                    UNRESOLVED => {}
                    ON_CHAIN => return Err(TreeError::Cycle(cur)),
                    d => break d,
                }
                depth[cur as usize] = ON_CHAIN;
                chain.push(cur);
                match parent[cur as usize] {
                    Some(p) if (p as usize) < n => cur = p,
                    _ => return Err(TreeError::MissingParent(cur)),
                }
            };
            for (d, &v) in (base + 1..).zip(chain.iter().rev()) {
                depth[v as usize] = d;
            }
        }
        Ok(RootedTree { root, parent, depth })
    }

    /// Builds the tree induced by rooting a simple path at position
    /// `root_index` (paper Lemma 7.17 roots Hamiltonian paths at their
    /// midpoint to halve the depth).
    ///
    /// ```
    /// use pf_graph::RootedTree;
    /// let t = RootedTree::from_path(&[4, 1, 0, 2, 3], 2).unwrap();
    /// assert_eq!(t.root(), 0);
    /// assert_eq!(t.depth(), 2);
    /// ```
    pub fn from_path(path: &[VertexId], root_index: usize) -> Result<Self, TreeError> {
        assert!(root_index < path.len(), "root index out of path bounds");
        let n = path.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut parent = vec![None; n.max(path.len())];
        for i in (1..=root_index).rev() {
            parent[path[i - 1] as usize] = Some(path[i]);
        }
        for i in root_index..path.len() - 1 {
            parent[path[i + 1] as usize] = Some(path[i]);
        }
        RootedTree::from_parents(path[root_index], parent)
    }

    /// The spanning tree of `g` made of the edges `ids` (in any order),
    /// rooted at `root`: their adjacency in CSR form (degree count, prefix
    /// sums, fill), then one BFS that records each vertex's parent and
    /// depth. Errors when `root` is not a vertex of `g`
    /// ([`TreeError::MissingParent`]), when `ids` are not `n − 1` edges
    /// ([`TreeError::WrongOrder`]), or when they do not span `g`: the BFS
    /// meets a vertex twice ([`TreeError::Cycle`]) or leaves one unreached
    /// ([`TreeError::MissingParent`], as does an id outside `0..m`).
    pub fn from_edges(g: &Graph, root: VertexId, ids: &[EdgeId]) -> Result<Self, TreeError> {
        const UNREACHED: u32 = u32::MAX;
        let n = g.num_vertices() as usize;
        if (root as usize) >= n {
            return Err(TreeError::MissingParent(root));
        }
        if ids.len() + 1 != n {
            return Err(TreeError::WrongOrder { tree: ids.len() + 1, graph: n });
        }
        let m = g.num_edges();
        let mut start = vec![0usize; n + 1];
        for &e in ids.iter().filter(|&&e| e < m) {
            let (u, v) = g.endpoints(e);
            start[u as usize + 1] += 1;
            start[v as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![0 as VertexId; start[n]];
        for &e in ids.iter().filter(|&&e| e < m) {
            let (u, v) = g.endpoints(e);
            adj[fill[u as usize]] = v;
            fill[u as usize] += 1;
            adj[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        let mut parent = vec![None; n];
        let mut depth = vec![UNREACHED; n];
        depth[root as usize] = 0;
        let mut queue = Vec::with_capacity(n);
        queue.push(root);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &adj[start[u as usize]..start[u as usize + 1]] {
                if depth[v as usize] == UNREACHED {
                    parent[v as usize] = Some(u);
                    depth[v as usize] = depth[u as usize] + 1;
                    queue.push(v);
                } else if parent[u as usize] != Some(v) {
                    return Err(TreeError::Cycle(v));
                }
            }
        }
        if let Some(v) = depth.iter().position(|&d| d == UNREACHED) {
            return Err(TreeError::MissingParent(v as VertexId));
        }
        Ok(RootedTree { root, parent, depth })
    }

    /// The same tree rooted at `new_root`: the parent pointers on the path
    /// from `new_root` to the old root turn around, and every depth is
    /// recomputed. Panics if `new_root` is not a vertex of the tree.
    pub fn rerooted(&self, new_root: VertexId) -> RootedTree {
        let mut parent = self.parent.clone();
        let (mut prev, mut cur) = (None, Some(new_root));
        while let Some(v) = cur {
            cur = std::mem::replace(&mut parent[v as usize], prev);
            prev = Some(v);
        }
        RootedTree::from_parents(new_root, parent).expect("re-rooting keeps a spanning tree")
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of vertices the tree covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v` (`None` for the root).
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent[v as usize]
    }

    /// Depth of `v` (root = 0).
    #[inline]
    pub fn depth_of(&self, v: VertexId) -> u32 {
        self.depth[v as usize]
    }

    /// Height of the tree: maximum vertex depth.
    pub fn depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over tree edges as `(child, parent)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|p| (v as VertexId, p)))
    }

    /// Children lists, indexable by vertex.
    pub fn children(&self) -> Vec<Vec<VertexId>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (v, p) in self.edges() {
            ch[p as usize].push(v);
        }
        ch
    }

    /// Leaves of the tree (vertices with no children). A single-vertex tree
    /// has its root as a leaf.
    pub fn leaves(&self) -> Vec<VertexId> {
        let mut has_child = vec![false; self.parent.len()];
        for (_, p) in self.edges() {
            has_child[p as usize] = true;
        }
        (0..self.parent.len() as u32).filter(|&v| !has_child[v as usize]).collect()
    }

    /// The root-ward vertex path from `v` (inclusive) to the root (inclusive).
    pub fn path_to_root(&self, v: VertexId) -> Vec<VertexId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur as usize] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Checks that this tree spans `g`: same vertex set, and every tree edge
    /// is a physical edge of `g`.
    pub fn validate_spanning(&self, g: &Graph) -> Result<(), TreeError> {
        if self.parent.len() != g.num_vertices() as usize {
            return Err(TreeError::WrongOrder {
                tree: self.parent.len(),
                graph: g.num_vertices() as usize,
            });
        }
        for (v, p) in self.edges() {
            if !g.has_edge(v, p) {
                return Err(TreeError::EdgeNotInGraph(v, p));
            }
        }
        Ok(())
    }

    /// The host-graph edge ids used by this tree, sorted. Panics if an edge
    /// is not in `g` (validate first).
    pub fn edge_ids(&self, g: &Graph) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = self
            .edges()
            .map(|(v, p)| g.edge_id(v, p).expect("tree edge missing from host graph"))
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Kruskal over `order`: keeps each edge that joins two components of the
/// edges kept so far, and stops once they span `g`. Returns the kept ids
/// in ascending order (read off a kept-mask, not sorted), or `None` when
/// the edges of `order` leave `g` disconnected. Panics if an id is not an
/// edge of `g`.
pub fn spanning_edge_ids(
    g: &Graph,
    order: impl IntoIterator<Item = EdgeId>,
) -> Option<Vec<EdgeId>> {
    let mut dsu = Dsu::new(g.num_vertices());
    let mut kept = vec![false; g.num_edges() as usize];
    for e in order {
        if dsu.components() <= 1 {
            break;
        }
        let (u, v) = g.endpoints(e);
        kept[e as usize] |= dsu.union(u, v);
    }
    (dsu.components() <= 1).then(|| (0..g.num_edges()).filter(|&e| kept[e as usize]).collect())
}

/// Returns `true` if the trees are pairwise edge-disjoint in `g`.
pub fn pairwise_edge_disjoint(trees: &[RootedTree], g: &Graph) -> bool {
    let mut used = vec![false; g.num_edges() as usize];
    for t in trees {
        for id in t.edge_ids(g) {
            if used[id as usize] {
                return false;
            }
            used[id as usize] = true;
        }
    }
    true
}

/// Per-edge congestion: the number of trees containing each physical edge
/// (paper §5.1: "congestion on a link is equal to the number of trees
/// containing the link").
pub fn edge_congestion(trees: &[RootedTree], g: &Graph) -> Vec<u32> {
    let mut c = vec![0u32; g.num_edges() as usize];
    for t in trees {
        for id in t.edge_ids(g) {
            c[id as usize] += 1;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The chain walk `from_parents` replaced: a fresh chain per unresolved
    /// vertex and a linear scan of it for cycles. Kept as the oracle the
    /// linear walk must match, `Ok` trees and `Err` variants alike.
    fn from_parents_by_chain_scan(
        root: VertexId,
        parent: Vec<Option<VertexId>>,
    ) -> Result<RootedTree, TreeError> {
        let n = parent.len();
        if (root as usize) >= n {
            return Err(TreeError::MissingParent(root));
        }
        if parent[root as usize].is_some() {
            return Err(TreeError::RootHasParent(root));
        }
        let mut depth = vec![u32::MAX; n];
        depth[root as usize] = 0;
        for v0 in 0..n as u32 {
            if depth[v0 as usize] != u32::MAX {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = v0;
            loop {
                if depth[cur as usize] != u32::MAX {
                    break;
                }
                if chain.contains(&cur) {
                    return Err(TreeError::Cycle(cur));
                }
                chain.push(cur);
                match parent[cur as usize] {
                    Some(p) => {
                        if (p as usize) >= n {
                            return Err(TreeError::MissingParent(cur));
                        }
                        cur = p;
                    }
                    None => return Err(TreeError::MissingParent(cur)),
                }
            }
            let mut d = depth[cur as usize];
            for &v in chain.iter().rev() {
                d += 1;
                depth[v as usize] = d;
            }
        }
        Ok(RootedTree { root, parent, depth })
    }

    /// A root and parent vector: a random tree on `n` vertices (position
    /// `i > 0` of a random labelling hangs off an earlier position), with
    /// up to three edits. An edit makes a vertex an orphan, its own
    /// parent, or the child of any vertex or of one up to two past the end
    /// (a cycle, a re-hang or an out-of-range parent); gives the root such
    /// a parent; or moves the root to any vertex or past the end.
    fn parent_vectors() -> impl Strategy<Value = (VertexId, Vec<Option<VertexId>>)> {
        (1u32..24)
            .prop_flat_map(|n| {
                let keys = proptest::collection::vec(any::<u64>(), n as usize);
                let ups = proptest::collection::vec(0u32..n, n as usize);
                let edits = proptest::collection::vec((0u32..n, 0u32..5, 0u32..n + 3), 0..4usize);
                (Just(n), keys, ups, edits)
            })
            .prop_map(|(n, keys, ups, edits)| {
                let mut label: Vec<VertexId> = (0..n).collect();
                label.sort_by_key(|&v| keys[v as usize]);
                let mut parent = vec![None; n as usize];
                for i in 1..n as usize {
                    parent[label[i] as usize] = Some(label[ups[i] as usize % i]);
                }
                let mut root = label[0];
                for (x, kind, to) in edits {
                    match kind {
                        0 => parent[x as usize] = None,
                        1 => parent[x as usize] = Some(x),
                        2 => parent[x as usize] = Some(to),
                        3 => {
                            if let Some(p) = parent.get_mut(root as usize) {
                                *p = Some(to);
                            }
                        }
                        _ => root = to,
                    }
                }
                (root, parent)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn from_parents_matches_the_chain_scan(case in parent_vectors()) {
            let (root, parent) = case;
            let got = RootedTree::from_parents(root, parent.clone());
            prop_assert_eq!(got, from_parents_by_chain_scan(root, parent));
        }
    }

    /// A connected graph on `n` vertices, one of its spanning trees as edge
    /// ids in a random order, and a root. The graph is a random tree under
    /// a random labelling plus random extra edges, inserted in a random
    /// order so the tree's ids are scattered over `0..m`.
    fn trees_in_graphs() -> impl Strategy<Value = (Graph, Vec<EdgeId>, VertexId)> {
        (1u32..20)
            .prop_flat_map(|n| {
                let keys = proptest::collection::vec(any::<u64>(), n as usize);
                let ups = proptest::collection::vec(0u32..n, n as usize);
                let extra = proptest::collection::vec((0u32..n, 0u32..n), 0..2 * n as usize);
                let shuffle = proptest::collection::vec(any::<u64>(), 3 * n as usize);
                ((Just(n), keys, ups), (extra, shuffle, 0u32..n))
            })
            .prop_map(|((n, keys, ups), (extra, shuffle, root))| {
                let mut label: Vec<VertexId> = (0..n).collect();
                label.sort_by_key(|&v| keys[v as usize]);
                let tree: Vec<(VertexId, VertexId)> = (1..n as usize)
                    .map(|i| (label[i], label[ups[i] as usize % i]))
                    .collect();
                let mut pairs: Vec<(VertexId, VertexId)> = tree.clone();
                pairs.extend(extra.into_iter().filter(|&(u, v)| u != v));
                let mut slots: Vec<usize> = (0..pairs.len()).collect();
                slots.sort_by_key(|&i| shuffle[i]);
                let mut g = Graph::new(n);
                for i in slots {
                    let (u, v) = pairs[i];
                    if !g.has_edge(u, v) {
                        g.add_edge(u, v);
                    }
                }
                let mut ids: Vec<EdgeId> =
                    tree.iter().map(|&(u, v)| g.edge_id(u, v).unwrap()).collect();
                ids.sort_by_key(|&e| shuffle[e as usize]);
                (g, ids, root)
            })
    }

    /// The orientation `from_edges` replaced: adjacency lists of the
    /// chosen edges, a BFS with a visited set, then `from_parents`.
    fn from_edges_by_bfs(g: &Graph, root: VertexId, ids: &[EdgeId]) -> RootedTree {
        let n = g.num_vertices() as usize;
        let mut adj = vec![Vec::new(); n];
        for &e in ids {
            let (u, v) = g.endpoints(e);
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        seen[root as usize] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    parent[v as usize] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        RootedTree::from_parents(root, parent).expect("a spanning tree orients")
    }

    /// Kruskal by component labels (relabel the smaller side on a merge):
    /// the oracle for [`spanning_edge_ids`], which uses a union-find.
    fn kruskal_by_labels(g: &Graph, order: &[EdgeId]) -> Option<Vec<EdgeId>> {
        let n = g.num_vertices() as usize;
        let mut label: Vec<usize> = (0..n).collect();
        let mut kept = Vec::new();
        for &e in order {
            let (u, v) = g.endpoints(e);
            let (a, b) = (label[u as usize], label[v as usize]);
            if a != b {
                label.iter_mut().filter(|l| **l == b).for_each(|l| *l = a);
                kept.push(e);
            }
        }
        kept.sort_unstable();
        (kept.len() + 1 >= n).then_some(kept)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn from_edges_matches_a_bfs_orientation(case in trees_in_graphs()) {
            let (g, ids, root) = case;
            let t = RootedTree::from_edges(&g, root, &ids).unwrap();
            prop_assert_eq!(&t, &from_edges_by_bfs(&g, root, &ids));
            prop_assert!(t.validate_spanning(&g).is_ok());
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(t.edge_ids(&g), sorted);
        }

        #[test]
        fn rerooting_equals_building_at_the_new_root(case in trees_in_graphs()) {
            let (g, ids, root) = case;
            let t = RootedTree::from_edges(&g, root, &ids).unwrap();
            for r in g.vertices() {
                prop_assert_eq!(t.rerooted(r), RootedTree::from_edges(&g, r, &ids).unwrap());
            }
        }

        #[test]
        fn spanning_edge_ids_is_kruskal_over_the_order(
            case in trees_in_graphs(),
            keep in proptest::collection::vec(0u32..4, 64),
        ) {
            // Any sub-order of the edges, in the strategy's shuffled id
            // order: each edge survives with probability 3/4.
            let (g, ids, _) = case;
            let order: Vec<EdgeId> = ids
                .iter()
                .copied()
                .chain(0..g.num_edges())
                .filter(|&e| keep[e as usize % keep.len()] != 0)
                .collect();
            let mut sub = Graph::new(g.num_vertices());
            for &e in &order {
                let (u, v) = g.endpoints(e);
                if !sub.has_edge(u, v) {
                    sub.add_edge(u, v);
                }
            }
            let got = spanning_edge_ids(&g, order.iter().copied());
            prop_assert_eq!(got.is_none(), !crate::bfs::is_connected(&sub));
            prop_assert_eq!(&got, &kruskal_by_labels(&g, &order));
            if let Some(kept) = got {
                prop_assert!(RootedTree::from_edges(&g, 0, &kept).is_ok());
            }
        }

        #[test]
        fn id_lists_that_are_not_spanning_trees_are_errors(
            case in trees_in_graphs(),
            edit in 0u32..6,
            at in any::<u32>(),
            with in any::<u32>(),
        ) {
            let (g, mut ids, mut root) = case;
            let (n, m) = (g.num_vertices(), g.num_edges());
            match edit {
                // A non-tree edge in place of a tree edge closes a cycle.
                0 => {
                    let spare: Vec<EdgeId> = (0..m).filter(|e| !ids.contains(e)).collect();
                    prop_assume!(!ids.is_empty() && !spare.is_empty());
                    let i = at as usize % ids.len();
                    ids[i] = spare[with as usize % spare.len()];
                    prop_assume!(spanning_edge_ids(&g, ids.iter().copied()).is_none());
                }
                1 => {
                    prop_assume!(!ids.is_empty());
                    ids.remove(at as usize % ids.len());
                }
                2 => ids.push(with % m.max(1)),
                3 => {
                    prop_assume!(!ids.is_empty());
                    let i = at as usize % ids.len();
                    ids[i] = m + with % 3;
                }
                4 => {
                    prop_assume!(ids.len() >= 2);
                    let (i, j) = (at as usize % ids.len(), with as usize % ids.len());
                    prop_assume!(i != j);
                    ids[i] = ids[j];
                }
                _ => root = n + with % 3,
            }
            let got = RootedTree::from_edges(&g, root, &ids);
            prop_assert!(got.is_err(), "{:?}", got);
        }
    }

    #[test]
    fn from_edges_errors_name_the_fault() {
        // Path 0-1-2-3 plus the chord (0, 2): ids 0:(0,1) 1:(1,2) 2:(2,3) 3:(0,2).
        let mut g = Graph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
            g.add_edge(u, v);
        }
        assert!(RootedTree::from_edges(&g, 0, &[0, 1, 2]).is_ok());
        assert_eq!(RootedTree::from_edges(&g, 4, &[0, 1, 2]), Err(TreeError::MissingParent(4)));
        assert_eq!(
            RootedTree::from_edges(&g, 0, &[0, 1]),
            Err(TreeError::WrongOrder { tree: 3, graph: 4 })
        );
        assert_eq!(RootedTree::from_edges(&g, 0, &[0, 1, 3]), Err(TreeError::Cycle(2)));
        assert_eq!(RootedTree::from_edges(&g, 0, &[0, 1, 9]), Err(TreeError::MissingParent(3)));
        assert_eq!(RootedTree::from_edges(&g, 0, &[0, 0, 2]), Err(TreeError::Cycle(1)));
        let lone = Graph::new(1);
        assert_eq!(RootedTree::from_edges(&lone, 0, &[]).unwrap().num_vertices(), 1);
        assert_eq!(spanning_edge_ids(&lone, []), Some(vec![]));
        assert_eq!(spanning_edge_ids(&Graph::new(0), []), Some(vec![]));
        assert_eq!(spanning_edge_ids(&Graph::new(2), []), None);
    }

    #[test]
    fn parent_vectors_cover_every_outcome() {
        // The strategy reaches valid trees and every error variant.
        let mut rng = proptest::test_runner::TestRng::from_name("parent_vectors");
        let mut seen = [0usize; 5];
        for _ in 0..2048 {
            let (root, parent) = parent_vectors().generate(&mut rng);
            let n = parent.len();
            seen[match RootedTree::from_parents(root, parent) {
                Ok(_) => 0,
                Err(TreeError::Cycle(_)) => 1,
                Err(TreeError::MissingParent(v)) if (v as usize) < n => 2,
                Err(TreeError::MissingParent(_)) => 3,
                Err(TreeError::RootHasParent(_)) => 4,
                Err(e) => panic!("from_parents never returns {e:?}"),
            }] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
    }

    fn star(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(0, v);
        }
        g
    }

    #[test]
    fn from_parents_valid() {
        let t = RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(1)]).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.depth_of(3), 2);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.edges().count(), 3);
        assert_eq!(t.leaves(), vec![2, 3]);
        assert_eq!(t.path_to_root(3), vec![3, 1, 0]);
    }

    #[test]
    fn detects_cycle() {
        let err = RootedTree::from_parents(0, vec![None, Some(2), Some(3), Some(1)]).unwrap_err();
        assert!(matches!(err, TreeError::Cycle(_)));
    }

    #[test]
    fn detects_root_with_parent() {
        let err = RootedTree::from_parents(0, vec![Some(1), None]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent(0));
    }

    #[test]
    fn detects_orphan() {
        // From 1, the chain hits vertex 2 whose parent is... none beyond root? craft:
        let err = RootedTree::from_parents(0, vec![None, Some(1)]).unwrap_err();
        assert!(matches!(err, TreeError::Cycle(1)));
        let err2 = RootedTree::from_parents(0, vec![None, Some(5)]).unwrap_err();
        assert!(matches!(err2, TreeError::MissingParent(_)));
    }

    #[test]
    fn validate_against_graph() {
        let g = star(4);
        let ok = RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(0)]).unwrap();
        assert!(ok.validate_spanning(&g).is_ok());
        let bad = RootedTree::from_parents(0, vec![None, Some(0), Some(1), Some(0)]).unwrap();
        assert_eq!(bad.validate_spanning(&g), Err(TreeError::EdgeNotInGraph(2, 1)));
        let small = RootedTree::from_parents(0, vec![None, Some(0)]).unwrap();
        assert!(matches!(small.validate_spanning(&g), Err(TreeError::WrongOrder { .. })));
    }

    #[test]
    fn from_path_midpoint_root() {
        // Path 3-1-4-0-2 rooted at index 2 (vertex 4): depth 2.
        let t = RootedTree::from_path(&[3, 1, 4, 0, 2], 2).unwrap();
        assert_eq!(t.root(), 4);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(1), Some(4));
        assert_eq!(t.parent(0), Some(4));
        assert_eq!(t.parent(2), Some(0));
    }

    #[test]
    fn from_path_end_root_depth() {
        let t = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        assert_eq!(t.depth(), 3);
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        assert_eq!(t2.depth(), 3);
        assert_eq!(t2.root(), 3);
    }

    #[test]
    fn disjointness_and_congestion() {
        // Cycle of 4: two spanning trees sharing one edge.
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[1, 0, 3, 2], 0).unwrap();
        assert!(t1.validate_spanning(&g).is_ok());
        assert!(t2.validate_spanning(&g).is_ok());
        assert!(!pairwise_edge_disjoint(&[t1.clone(), t2.clone()], &g));
        let c = edge_congestion(&[t1, t2], &g);
        // Edges: 0:(0,1) 1:(1,2) 2:(2,3) 3:(0,3).
        // t1 uses {0,1,2}; t2 uses {(1,0),(0,3),(3,2)} = ids {0,3,2}.
        assert_eq!(c, vec![2, 1, 2, 1]);
    }

    #[test]
    fn children_lists() {
        let t = RootedTree::from_parents(2, vec![Some(2), Some(2), None, Some(0)]).unwrap();
        let ch = t.children();
        assert_eq!(ch[2], vec![0, 1]);
        assert_eq!(ch[0], vec![3]);
        assert!(ch[1].is_empty());
    }
}
