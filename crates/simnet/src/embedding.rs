//! Mapping a set of spanning trees onto the physical network as router
//! dataflow configurations.
//!
//! For every tree, every router needs to know: its parent port, its child
//! ports, whether it is the root, and which sub-vector slice the tree
//! carries. This module also enumerates the logical *streams* (tree edges
//! with a direction and phase) and assigns each to its directed physical
//! channel — the structure the cycle engine executes.

use pf_allreduce::Collective;
use pf_graph::{Graph, RootedTree, VertexId};

/// Direction/phase of a logical stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Child → parent partial sums.
    Reduce,
    /// Parent → child reduced results.
    Broadcast,
}

impl Phase {
    /// Does a stream of this phase carry flits under collective `kind`?
    pub(crate) fn runs_under(self, kind: Collective) -> bool {
        match self {
            Phase::Reduce => kind.reduces(),
            Phase::Broadcast => kind.broadcasts(),
        }
    }
}

/// One logical stream: a directed tree edge in one phase.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Index of the tree this stream belongs to.
    pub tree: u32,
    /// Sending router.
    pub src: VertexId,
    /// Receiving router.
    pub dst: VertexId,
    /// Reduce (up) or broadcast (down).
    pub phase: Phase,
}

/// Per-tree router configuration.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// The tree's root router.
    pub root: VertexId,
    /// Children of each router in this tree.
    pub children: Vec<Vec<VertexId>>,
    /// Parent of each router (None at the root).
    pub parent: Vec<Option<VertexId>>,
    /// Global element offset of this tree's sub-vector.
    pub offset: u64,
    /// Sub-vector length.
    pub len: u64,
}

/// A full multi-tree embedding: streams, channel assignments, sub-vector
/// slices.
#[derive(Debug, Clone)]
pub struct MultiTreeEmbedding {
    /// Number of routers.
    pub num_nodes: u32,
    /// Per-tree configuration.
    pub trees: Vec<TreeConfig>,
    /// All logical streams.
    pub streams: Vec<Stream>,
    /// `channel_streams[c]` = stream indices mapped to directed channel `c`.
    /// Channel ids: `2*e` for `u -> v` and `2*e + 1` for `v -> u`, where
    /// edge `e = (u, v)` with `u < v`.
    pub channel_streams: Vec<Vec<u32>>,
    /// Total vector length (sum of tree slices).
    pub total_len: u64,
}

/// Directed channel id for hop `src -> dst` over graph `g`.
pub fn channel_id(g: &Graph, src: VertexId, dst: VertexId) -> u32 {
    let e = g.edge_id(src, dst).expect("hop must be a physical edge");
    let (u, _) = g.endpoints(e);
    if src == u {
        2 * e
    } else {
        2 * e + 1
    }
}

impl MultiTreeEmbedding {
    /// Builds the embedding of `trees` in `g`, carving an `m`-element
    /// vector into per-tree slices `sizes` (must sum to `m`; use
    /// `pf_allreduce::perf::optimal_split`). Tree slices are laid out
    /// back to back from element 0.
    ///
    /// Panics if a tree is not a spanning tree of `g` or sizes mismatch.
    pub fn new(g: &Graph, trees: &[RootedTree], sizes: &[u64]) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut off = 0u64;
        for &len in sizes {
            offsets.push(off);
            off += len;
        }
        Self::with_offsets(g, trees, sizes, &offsets)
    }

    /// Builds an embedding whose tree slices sit at *explicit* global
    /// element offsets instead of a dense 0-based layout. This is how
    /// multi-tenant runs address one shared element space: each job's
    /// trees point at that job's global element range, so a job re-run
    /// solo on the same offsets reduces exactly the same elements as in a
    /// concurrent run. `total_len` stays the sum of `sizes` (the work this
    /// embedding performs), not the extent of the global space.
    ///
    /// Panics if a tree is not a spanning tree of `g` or lengths mismatch.
    pub fn with_offsets(g: &Graph, trees: &[RootedTree], sizes: &[u64], offsets: &[u64]) -> Self {
        assert_eq!(trees.len(), sizes.len(), "one slice size per tree");
        assert_eq!(trees.len(), offsets.len(), "one slice offset per tree");
        let n = g.num_vertices();
        let mut configs = Vec::with_capacity(trees.len());
        let mut streams = Vec::new();
        let mut channel_streams = vec![Vec::new(); 2 * g.num_edges() as usize];
        let mut total = 0u64;

        for (ti, (t, (&len, &offset))) in
            trees.iter().zip(sizes.iter().zip(offsets)).enumerate()
        {
            t.validate_spanning(g).expect("embedded tree must span the network");
            let mut children = vec![Vec::new(); n as usize];
            let mut parent = vec![None; n as usize];
            for (child, par) in t.edges() {
                children[par as usize].push(child);
                parent[child as usize] = Some(par);

                let up = Stream { tree: ti as u32, src: child, dst: par, phase: Phase::Reduce };
                channel_streams[channel_id(g, child, par) as usize].push(streams.len() as u32);
                streams.push(up);

                let down =
                    Stream { tree: ti as u32, src: par, dst: child, phase: Phase::Broadcast };
                channel_streams[channel_id(g, par, child) as usize].push(streams.len() as u32);
                streams.push(down);
            }
            configs.push(TreeConfig { root: t.root(), children, parent, offset, len });
            total += len;
        }

        MultiTreeEmbedding {
            num_nodes: n,
            trees: configs,
            streams,
            channel_streams,
            total_len: total,
        }
    }

    /// One past the highest global element any tree slice touches — the
    /// minimum workload length this embedding needs. Equals `total_len`
    /// for dense ([`MultiTreeEmbedding::new`]) layouts.
    pub fn elem_end(&self) -> u64 {
        self.trees.iter().map(|t| t.offset + t.len).max().unwrap_or(0)
    }

    /// Worst-case number of streams sharing one directed channel — the VC
    /// count an implementation would need (§5.1).
    pub fn max_channel_load(&self) -> usize {
        self.channel_streams.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Number of *reduce* streams entering each router port, maximized over
    /// ports: 1 everywhere iff Lemma 7.8's single-engine property holds.
    pub fn max_reduce_streams_per_channel(&self) -> usize {
        self.phase_max(Phase::Reduce)
    }

    /// Number of *broadcast* streams per directed channel, maximized.
    pub fn max_broadcast_streams_per_channel(&self) -> usize {
        self.phase_max(Phase::Broadcast)
    }

    fn phase_max(&self, phase: Phase) -> usize {
        self.channel_streams
            .iter()
            .map(|ss| {
                ss.iter().filter(|&&s| self.streams[s as usize].phase == phase).count()
            })
            .max()
            .unwrap_or(0)
    }

    /// The §5.1 router-resource summary of this embedding.
    pub fn vc_requirements(&self) -> VcRequirements {
        VcRequirements {
            total_vcs_per_channel: self.max_channel_load(),
            reduce_vcs_per_channel: self.max_reduce_streams_per_channel(),
            broadcast_vcs_per_channel: self.max_broadcast_streams_per_channel(),
        }
    }
}

/// Router resource requirements implied by an embedding (§5.1: "one way …
/// is to use a number of Virtual Channels equivalent to worst-case link
/// congestion"; PIUMA separates reduce and broadcast VCs, §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcRequirements {
    /// VCs needed per directed channel with a shared reduce/broadcast pool.
    pub total_vcs_per_channel: usize,
    /// VCs needed on the reduction plane alone. 1 for the low-depth trees
    /// (Lemma 7.8) and for edge-disjoint trees — a single arithmetic
    /// engine per input port always suffices for the paper's solutions.
    pub reduce_vcs_per_channel: usize,
    /// VCs needed on the broadcast plane alone.
    pub broadcast_vcs_per_channel: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::Graph;

    fn cycle(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn single_tree_embedding() {
        let g = cycle(4);
        let t = RootedTree::from_path(&[0, 1, 2, 3], 1).unwrap();
        let e = MultiTreeEmbedding::new(&g, &[t], &[100]);
        assert_eq!(e.num_nodes, 4);
        assert_eq!(e.total_len, 100);
        assert_eq!(e.streams.len(), 2 * 3); // (n-1) edges, 2 phases
        assert_eq!(e.trees[0].root, 1);
        assert_eq!(e.trees[0].children[1], vec![0, 2]);
        assert_eq!(e.trees[0].children[2], vec![3]);
        assert_eq!(e.trees[0].parent[0], Some(1));
        assert_eq!(e.max_channel_load(), 1);
        assert_eq!(e.max_reduce_streams_per_channel(), 1);
    }

    #[test]
    fn overlapping_trees_share_channels() {
        let g = cycle(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        let e = MultiTreeEmbedding::new(&g, &[t1, t2], &[10, 10]);
        // Same path, opposite roots: each directed channel carries the
        // reduce of one tree and the broadcast of the other.
        assert_eq!(e.max_channel_load(), 2);
        assert_eq!(e.max_reduce_streams_per_channel(), 1);
        assert_eq!(e.trees[1].offset, 10);
        assert_eq!(e.total_len, 20);
    }

    #[test]
    fn vc_requirements_summary() {
        let g = cycle(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        let e = MultiTreeEmbedding::new(&g, &[t1, t2], &[10, 10]);
        let vc = e.vc_requirements();
        assert_eq!(vc.total_vcs_per_channel, 2);
        assert_eq!(vc.reduce_vcs_per_channel, 1);
        assert_eq!(vc.broadcast_vcs_per_channel, 1);
    }

    #[test]
    fn channel_id_directionality() {
        let g = cycle(3);
        let c01 = channel_id(&g, 0, 1);
        let c10 = channel_id(&g, 1, 0);
        assert_ne!(c01, c10);
        assert_eq!(c01 / 2, c10 / 2);
    }

    #[test]
    fn explicit_offsets_place_slices_in_a_shared_space() {
        let g = cycle(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        // A tenant owning global elements [100, 130): 10 on t1, 20 on t2.
        let e = MultiTreeEmbedding::with_offsets(&g, &[t1, t2], &[10, 20], &[100, 110]);
        assert_eq!(e.trees[0].offset, 100);
        assert_eq!(e.trees[1].offset, 110);
        assert_eq!(e.total_len, 30); // work performed, not global extent
        assert_eq!(e.elem_end(), 130);
    }

    #[test]
    fn dense_layout_elem_end_equals_total_len() {
        let g = cycle(4);
        let t = RootedTree::from_path(&[0, 1, 2, 3], 1).unwrap();
        let e = MultiTreeEmbedding::new(&g, &[t], &[100]);
        assert_eq!(e.elem_end(), e.total_len);
    }

    #[test]
    #[should_panic(expected = "span")]
    fn rejects_non_spanning_tree() {
        let g = cycle(4);
        let t = RootedTree::from_path(&[0, 1, 2], 0).unwrap();
        MultiTreeEmbedding::new(&g, &[t], &[1]);
    }

    #[test]
    #[should_panic(expected = "one slice size")]
    fn rejects_size_mismatch() {
        let g = cycle(3);
        let t = RootedTree::from_path(&[0, 1, 2], 0).unwrap();
        MultiTreeEmbedding::new(&g, &[t], &[1, 2]);
    }
}
