//! Mapping a set of spanning trees onto the physical network as router
//! dataflow configurations.
//!
//! For every tree, every router needs to know: its parent port, its child
//! ports, whether it is the root, and which sub-vector slice the tree
//! carries. Only the last changes from one collective to the next (§4.4–5.1:
//! port↔engine connectivity and per-tree VCs are set once per tree set), so
//! the module splits the two:
//!
//! * [`CompiledTrees`] — one tree list compiled on one graph and validated
//!   once. It enumerates the logical *streams* (tree edges with a direction
//!   and phase), assigns each to its directed physical channel, and holds
//!   everything the cycle engine derives from the tree shapes: the
//!   per-(tree, node) dataflow wiring, children-first orders, heights and
//!   each tree's edge ids, all in flat arrays. Runs share it through an
//!   [`Arc`].
//! * [`MultiTreeEmbedding`] — a compiled form plus one run's slice table
//!   ([`TreeSlice`]: each tree's element offset and length). Slicing a
//!   compiled form copies two words per tree.

use pf_allreduce::Collective;
use pf_graph::{Graph, RootedTree, VertexId};
use std::ops::Deref;
use std::sync::Arc;

/// Sentinel for "no stream wired here" in the flat dataflow arrays.
pub(crate) const NONE: u32 = u32::MAX;

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

/// Children-first node order of every tree, each node with its children
/// in the engine's reduce-input (CSR) order — the schedule of the
/// blockwise value pass that reports every run's values.
#[derive(Debug)]
pub(crate) struct TreeOrder {
    /// Per tree: its positions in `nodes`.
    tree_off: Vec<u32>,
    /// Nodes, children before parents; a tree's root comes last.
    nodes: Vec<u32>,
    /// Per position: its range in `children`.
    child_off: Vec<u32>,
    children: Vec<u32>,
}

impl TreeOrder {
    /// A preorder DFS of each tree from its root, reversed. `children(p)`
    /// lists pair `p`'s children in the order their reduce streams were
    /// created, which is the order the per-cycle engine pops them in.
    fn new<'c>(n: usize, roots: &[VertexId], children: impl Fn(usize) -> &'c [u32]) -> Self {
        let mut tree_off = Vec::with_capacity(roots.len() + 1);
        let mut nodes: Vec<u32> = Vec::with_capacity(roots.len() * n);
        let mut stack: Vec<u32> = Vec::new();
        tree_off.push(0);
        for (ti, &root) in roots.iter().enumerate() {
            let before = nodes.len();
            stack.push(root);
            while let Some(v) = stack.pop() {
                nodes.push(v);
                stack.extend_from_slice(children(ti * n + v as usize));
            }
            nodes[before..].reverse();
            tree_off.push(nodes.len() as u32);
        }
        let mut child_off = Vec::with_capacity(nodes.len() + 1);
        let mut kids = Vec::with_capacity(nodes.len());
        child_off.push(0);
        for ti in 0..roots.len() {
            for &v in &nodes[tree_off[ti] as usize..tree_off[ti + 1] as usize] {
                kids.extend_from_slice(children(ti * n + v as usize));
                child_off.push(kids.len() as u32);
            }
        }
        TreeOrder { tree_off, nodes, child_off, children: kids }
    }

    /// Tree `ti`, children first.
    pub(crate) fn tree(&self, ti: usize) -> OrderedTree<'_> {
        let (start, end) = (self.tree_off[ti] as usize, self.tree_off[ti + 1] as usize);
        OrderedTree {
            nodes: &self.nodes[start..end],
            child_off: &self.child_off[start..=end],
            children: &self.children,
        }
    }
}

/// One tree of a [`TreeOrder`]: its nodes, children before parents and the
/// root last, and node `i`'s children at
/// `children[child_off[i]..child_off[i + 1]]`, in reduce-input order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrderedTree<'a> {
    pub(crate) nodes: &'a [u32],
    /// One entry per node, then one past the last node's children.
    child_off: &'a [u32],
    children: &'a [u32],
}

impl<'a> OrderedTree<'a> {
    /// The tree of `node` alone, with no children.
    pub(crate) fn lone(node: &'a u32) -> Self {
        OrderedTree { nodes: std::slice::from_ref(node), child_off: &[0, 0], children: &[] }
    }

    /// The children of the node at position `i`.
    #[inline(always)]
    pub(crate) fn children(&self, i: usize) -> &'a [u32] {
        &self.children[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }
}

/// One tree list compiled on one graph: the router configuration every
/// run on these trees shares, whatever its slices (see the module doc).
///
/// Stream ids go tree by tree, child vertex ascending, each reduce stream
/// before its broadcast stream; a channel lists its streams in id order,
/// and a node its children in ascending vertex order. Round-robin
/// arbitration and the `f64` combine order follow these orders.
///
/// Engines are addressed by *pair* index `p = tree · n + node`.
#[derive(Debug)]
pub struct CompiledTrees {
    num_nodes: u32,
    pub(crate) roots: Vec<VertexId>,
    streams: Vec<Stream>,
    /// Channel → member streams (CSR), in stream order. Channel ids:
    /// `2*e` for `u -> v` and `2*e + 1` for `v -> u`, where edge
    /// `e = (u, v)` with `u < v`.
    pub(crate) chan_off: Vec<u32>,
    pub(crate) chan_members: Vec<u32>,
    /// Stream → its channel.
    pub(crate) stream_chan: Vec<u32>,
    /// Per pair: its reduce-input streams (CSR over `in_ids`, children
    /// ascending) and broadcast-output streams (CSR over `out_ids`).
    pub(crate) reduce_in_off: Vec<u32>,
    pub(crate) in_ids: Vec<u32>,
    pub(crate) bcast_out_off: Vec<u32>,
    pub(crate) out_ids: Vec<u32>,
    /// Per pair: its reduce-output and broadcast-input stream (`NONE` at
    /// the root).
    pub(crate) reduce_out: Vec<u32>,
    pub(crate) bcast_in: Vec<u32>,
    /// Per stream: the pairs of its two endpoints.
    pub(crate) stream_src_pair: Vec<u32>,
    pub(crate) stream_dst_pair: Vec<u32>,
    /// Per stream: the active-set word index and bit mask of each
    /// endpoint's engine, so a flit event re-arms an engine with a single
    /// indexed OR.
    pub(crate) wake_src_word: Vec<u32>,
    pub(crate) wake_src_mask: Vec<u64>,
    pub(crate) wake_dst_word: Vec<u32>,
    pub(crate) wake_dst_mask: Vec<u64>,
    /// Per stream: the pair whose ready-input count it feeds (`NONE` for
    /// broadcast streams).
    pub(crate) ready_slot: Vec<u32>,
    pub(crate) order: TreeOrder,
    /// Per pair: the node's height in hops above the deepest leaf below it.
    height: Vec<u32>,
    /// Per tree: its edge ids, ascending (CSR over `edges`).
    edge_off: Vec<u32>,
    edges: Vec<u32>,
}

impl CompiledTrees {
    /// Compiles `trees` on `g`.
    ///
    /// Panics if a tree is not a spanning tree of `g`.
    #[must_use]
    pub fn new(g: &Graph, trees: &[RootedTree]) -> Self {
        let n = g.num_vertices() as usize;
        let ntrees = trees.len();
        let pairs = ntrees * n;
        let nchans = 2 * g.num_edges() as usize;
        let nstreams = 2 * ntrees * n.saturating_sub(1);

        let mut roots = Vec::with_capacity(ntrees);
        let mut streams = Vec::with_capacity(nstreams);
        let mut stream_chan = Vec::with_capacity(nstreams);
        let mut edge_off = Vec::with_capacity(ntrees + 1);
        let mut edges = Vec::with_capacity(nstreams / 2);
        edge_off.push(0);
        for (ti, t) in trees.iter().enumerate() {
            t.validate_spanning(g).expect("embedded tree must span the network");
            roots.push(t.root());
            let first = edges.len();
            for (child, par) in t.edges() {
                let up = channel_id(g, child, par);
                let tree = ti as u32;
                streams.push(Stream { tree, src: child, dst: par, phase: Phase::Reduce });
                stream_chan.push(up);
                streams.push(Stream { tree, src: par, dst: child, phase: Phase::Broadcast });
                stream_chan.push(up ^ 1);
                edges.push(up / 2);
            }
            edges[first..].sort_unstable();
            edge_off.push(edges.len() as u32);
        }

        // Channel → streams, by a counting sort that keeps stream order.
        let mut chan_off = vec![0u32; nchans + 1];
        for &c in &stream_chan {
            chan_off[c as usize + 1] += 1;
        }
        for c in 0..nchans {
            chan_off[c + 1] += chan_off[c];
        }
        let mut chan_members = vec![0u32; streams.len()];
        let mut fill = chan_off.clone();
        for (si, &c) in stream_chan.iter().enumerate() {
            chan_members[fill[c as usize] as usize] = si as u32;
            fill[c as usize] += 1;
        }

        // The per-pair dataflow (two passes: counts, then fill).
        let wpt = n.div_ceil(64);
        let mut reduce_in_off = vec![0u32; pairs + 1];
        let mut bcast_out_off = vec![0u32; pairs + 1];
        let mut reduce_out = vec![NONE; pairs];
        let mut bcast_in = vec![NONE; pairs];
        let mut src_pair = Vec::with_capacity(streams.len());
        let mut dst_pair = Vec::with_capacity(streams.len());
        let mut wake_src_word = Vec::with_capacity(streams.len());
        let mut wake_src_mask = Vec::with_capacity(streams.len());
        let mut wake_dst_word = Vec::with_capacity(streams.len());
        let mut wake_dst_mask = Vec::with_capacity(streams.len());
        let mut ready_slot = Vec::with_capacity(streams.len());
        for (si, s) in streams.iter().enumerate() {
            let (tree, src, dst) = (s.tree as usize, s.src as usize, s.dst as usize);
            let (sp, dp) = (tree * n + src, tree * n + dst);
            src_pair.push(sp as u32);
            dst_pair.push(dp as u32);
            wake_src_word.push((tree * wpt + src / 64) as u32);
            wake_src_mask.push(1u64 << (src % 64));
            wake_dst_word.push((tree * wpt + dst / 64) as u32);
            wake_dst_mask.push(1u64 << (dst % 64));
            match s.phase {
                Phase::Reduce => {
                    reduce_in_off[dp + 1] += 1;
                    reduce_out[sp] = si as u32;
                    ready_slot.push(dp as u32);
                }
                Phase::Broadcast => {
                    bcast_out_off[sp + 1] += 1;
                    bcast_in[dp] = si as u32;
                    ready_slot.push(NONE);
                }
            }
        }
        for p in 0..pairs {
            reduce_in_off[p + 1] += reduce_in_off[p];
            bcast_out_off[p + 1] += bcast_out_off[p];
        }
        let mut in_ids = vec![0u32; reduce_in_off[pairs] as usize];
        let mut out_ids = vec![0u32; bcast_out_off[pairs] as usize];
        let mut in_fill = reduce_in_off.clone();
        let mut out_fill = bcast_out_off.clone();
        for (si, s) in streams.iter().enumerate() {
            let (ids, at, p) = match s.phase {
                Phase::Reduce => (&mut in_ids, &mut in_fill, dst_pair[si]),
                Phase::Broadcast => (&mut out_ids, &mut out_fill, src_pair[si]),
            };
            ids[at[p as usize] as usize] = si as u32;
            at[p as usize] += 1;
        }

        // Children in reduce-input order, then the orders and heights.
        let children: Vec<u32> = in_ids.iter().map(|&s| streams[s as usize].src).collect();
        let order = TreeOrder::new(n, &roots, |p| {
            &children[reduce_in_off[p] as usize..reduce_in_off[p + 1] as usize]
        });
        let mut height = vec![0u32; pairs];
        for ti in 0..ntrees {
            let tree = order.tree(ti);
            for (i, &v) in tree.nodes.iter().enumerate() {
                height[ti * n + v as usize] = tree
                    .children(i)
                    .iter()
                    .map(|&c| height[ti * n + c as usize] + 1)
                    .max()
                    .unwrap_or(0);
            }
        }

        CompiledTrees {
            num_nodes: n as u32,
            roots,
            streams,
            chan_off,
            chan_members,
            stream_chan,
            reduce_in_off,
            in_ids,
            bcast_out_off,
            out_ids,
            reduce_out,
            bcast_in,
            stream_src_pair: src_pair,
            stream_dst_pair: dst_pair,
            wake_src_word,
            wake_src_mask,
            wake_dst_word,
            wake_dst_mask,
            ready_slot,
            order,
            height,
            edge_off,
            edges,
        }
    }

    /// Number of routers.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of compiled trees.
    #[must_use]
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of directed channels (two per graph edge).
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.chan_off.len() - 1
    }

    /// All logical streams, in id order.
    #[must_use]
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// The streams mapped to directed channel `c`, in id order.
    #[must_use]
    pub fn channel_streams(&self, c: usize) -> &[u32] {
        &self.chan_members[self.chan_off[c] as usize..self.chan_off[c + 1] as usize]
    }

    /// The directed channel stream `s` is mapped to.
    #[must_use]
    pub fn stream_channel(&self, s: usize) -> u32 {
        self.stream_chan[s]
    }

    /// Tree `ti`'s root router.
    #[must_use]
    pub fn root(&self, ti: usize) -> VertexId {
        self.roots[ti]
    }

    /// Router `v`'s parent in tree `ti` (`None` at the root).
    #[must_use]
    pub fn parent(&self, ti: usize, v: VertexId) -> Option<VertexId> {
        let s = self.reduce_out[ti * self.num_nodes as usize + v as usize];
        (s != NONE).then(|| self.streams[s as usize].dst)
    }

    /// Router `v`'s children in tree `ti`, ascending.
    pub fn children(&self, ti: usize, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let p = ti * self.num_nodes as usize + v as usize;
        let ids = &self.in_ids[self.reduce_in_off[p] as usize..self.reduce_in_off[p + 1] as usize];
        ids.iter().map(|&s| self.streams[s as usize].src)
    }

    /// Router `v`'s height in tree `ti`: hops down to the deepest leaf
    /// below it (the root's height is the tree's depth).
    #[must_use]
    pub fn height(&self, ti: usize, v: VertexId) -> u32 {
        self.height[ti * self.num_nodes as usize + v as usize]
    }

    /// The graph edge ids tree `ti` uses, ascending.
    #[must_use]
    pub fn tree_edges(&self, ti: usize) -> &[u32] {
        &self.edges[self.edge_off[ti] as usize..self.edge_off[ti + 1] as usize]
    }

    /// Worst-case number of streams sharing one directed channel — the VC
    /// count an implementation would need (§5.1).
    #[must_use]
    pub fn max_channel_load(&self) -> usize {
        self.chan_off.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Number of *reduce* streams entering each router port, maximized over
    /// ports: 1 everywhere iff Lemma 7.8's single-engine property holds.
    #[must_use]
    pub fn max_reduce_streams_per_channel(&self) -> usize {
        self.phase_max(Phase::Reduce)
    }

    /// Number of *broadcast* streams per directed channel, maximized.
    #[must_use]
    pub fn max_broadcast_streams_per_channel(&self) -> usize {
        self.phase_max(Phase::Broadcast)
    }

    fn phase_max(&self, phase: Phase) -> usize {
        (0..self.num_channels())
            .map(|c| {
                let members = self.channel_streams(c);
                members.iter().filter(|&&s| self.streams[s as usize].phase == phase).count()
            })
            .max()
            .unwrap_or(0)
    }

    /// The §5.1 router-resource summary of these trees.
    #[must_use]
    pub fn vc_requirements(&self) -> VcRequirements {
        VcRequirements {
            total_vcs_per_channel: self.max_channel_load(),
            reduce_vcs_per_channel: self.max_reduce_streams_per_channel(),
            broadcast_vcs_per_channel: self.max_broadcast_streams_per_channel(),
        }
    }
}

/// One tree's sub-vector slice in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSlice {
    /// Global element offset of the tree's sub-vector.
    pub offset: u64,
    /// Sub-vector length.
    pub len: u64,
}

/// A full multi-tree embedding: a compiled tree list plus each tree's
/// sub-vector slice. Dereferences to its [`CompiledTrees`].
#[derive(Debug, Clone)]
pub struct MultiTreeEmbedding {
    compiled: Arc<CompiledTrees>,
    slices: Vec<TreeSlice>,
    /// Total vector length (sum of tree slices).
    total_len: u64,
}

impl Deref for MultiTreeEmbedding {
    type Target = CompiledTrees;

    fn deref(&self) -> &CompiledTrees {
        &self.compiled
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
    /// Compiles `trees` and slices the result; to run the same trees
    /// again with other slices, keep the [`CompiledTrees`] and call
    /// [`MultiTreeEmbedding::from_compiled`].
    ///
    /// Panics if a tree is not a spanning tree of `g` or lengths mismatch.
    pub fn with_offsets(g: &Graph, trees: &[RootedTree], sizes: &[u64], offsets: &[u64]) -> Self {
        assert_eq!(trees.len(), sizes.len(), "one slice size per tree");
        assert_eq!(trees.len(), offsets.len(), "one slice offset per tree");
        Self::from_compiled(Arc::new(CompiledTrees::new(g, trees)), sizes, offsets)
    }

    /// Slices an already compiled tree list: tree `i` carries `sizes[i]`
    /// elements from global element `offsets[i]`. The result equals
    /// [`MultiTreeEmbedding::with_offsets`] on the trees `compiled` was
    /// built from.
    ///
    /// Panics if the lengths do not match the compiled tree count.
    pub fn from_compiled(compiled: Arc<CompiledTrees>, sizes: &[u64], offsets: &[u64]) -> Self {
        assert_eq!(compiled.num_trees(), sizes.len(), "one slice size per tree");
        assert_eq!(compiled.num_trees(), offsets.len(), "one slice offset per tree");
        let slices =
            sizes.iter().zip(offsets).map(|(&len, &offset)| TreeSlice { offset, len }).collect();
        MultiTreeEmbedding { compiled, slices, total_len: sizes.iter().sum() }
    }

    /// The compiled tree list this embedding slices.
    #[must_use]
    pub fn compiled(&self) -> &Arc<CompiledTrees> {
        &self.compiled
    }

    /// Each tree's slice, in tree order.
    #[must_use]
    pub fn slices(&self) -> &[TreeSlice] {
        &self.slices
    }

    /// Total vector length (sum of tree slices).
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// One past the highest global element any tree slice touches — the
    /// minimum workload length this embedding needs. Equals `total_len`
    /// for dense ([`MultiTreeEmbedding::new`]) layouts.
    #[must_use]
    pub fn elem_end(&self) -> u64 {
        self.slices.iter().map(|t| t.offset + t.len).max().unwrap_or(0)
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
        assert_eq!(e.num_nodes(), 4);
        assert_eq!(e.total_len(), 100);
        assert_eq!(e.streams().len(), 2 * 3); // (n-1) edges, 2 phases
        assert_eq!(e.root(0), 1);
        assert_eq!(e.children(0, 1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(e.children(0, 2).collect::<Vec<_>>(), vec![3]);
        assert_eq!(e.parent(0, 0), Some(1));
        assert_eq!(e.parent(0, 1), None);
        assert_eq!((e.height(0, 1), e.height(0, 2), e.height(0, 3)), (2, 1, 0));
        assert_eq!(e.max_channel_load(), 1);
        assert_eq!(e.max_reduce_streams_per_channel(), 1);
    }

    #[test]
    fn streams_go_tree_by_tree_child_ascending_reduce_first() {
        let g = cycle(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        let c = CompiledTrees::new(&g, &[t1.clone(), t2.clone()]);
        let mut want = Vec::new();
        for (ti, t) in [t1, t2].iter().enumerate() {
            for (child, par) in t.edges() {
                want.push((ti as u32, child, par, Phase::Reduce));
                want.push((ti as u32, par, child, Phase::Broadcast));
            }
        }
        let got: Vec<_> = c.streams().iter().map(|s| (s.tree, s.src, s.dst, s.phase)).collect();
        assert_eq!(got, want);
        for (si, s) in c.streams().iter().enumerate() {
            let ch = c.stream_channel(si);
            assert_eq!(ch, channel_id(&g, s.src, s.dst));
            assert!(c.channel_streams(ch as usize).contains(&(si as u32)));
        }
        for ch in 0..c.num_channels() {
            assert!(c.channel_streams(ch).windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(c.tree_edges(1), &g.edges().map(|(e, _, _)| e).collect::<Vec<_>>()[..3]);
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
        assert_eq!(e.slices()[1].offset, 10);
        assert_eq!(e.total_len(), 20);
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
        assert_eq!(e.slices()[0].offset, 100);
        assert_eq!(e.slices()[1].offset, 110);
        assert_eq!(e.total_len(), 30); // work performed, not global extent
        assert_eq!(e.elem_end(), 130);
    }

    #[test]
    fn slicing_a_compiled_form_shares_it() {
        let g = cycle(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        let cold = MultiTreeEmbedding::with_offsets(&g, &[t1, t2], &[10, 20], &[100, 110]);
        let warm = MultiTreeEmbedding::from_compiled(
            Arc::clone(cold.compiled()),
            &[10, 20],
            &[100, 110],
        );
        assert!(Arc::ptr_eq(cold.compiled(), warm.compiled()));
        assert_eq!(warm.slices(), cold.slices());
        assert_eq!((warm.total_len(), warm.elem_end()), (30, 130));
    }

    #[test]
    fn dense_layout_elem_end_equals_total_len() {
        let g = cycle(4);
        let t = RootedTree::from_path(&[0, 1, 2, 3], 1).unwrap();
        let e = MultiTreeEmbedding::new(&g, &[t], &[100]);
        assert_eq!(e.elem_end(), e.total_len());
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

    #[test]
    #[should_panic(expected = "one slice size")]
    fn rejects_a_slice_table_of_another_length() {
        let g = cycle(3);
        let t = RootedTree::from_path(&[0, 1, 2], 0).unwrap();
        let c = Arc::new(CompiledTrees::new(&g, &[t]));
        MultiTreeEmbedding::from_compiled(c, &[1, 2], &[0, 1]);
    }
}
