//! Algorithm 1 — performance under congestion.
//!
//! Given a network and a set of embedded allreduce trees, repeatedly find
//! the bottleneck link (minimum remaining-bandwidth / congestion ratio),
//! assign that ratio as the bandwidth of every still-unassigned tree using
//! the link, and subtract the consumed bandwidth from all links those trees
//! touch. The paper notes the result is independent of tie-breaking among
//! bottleneck candidates; we break ties deterministically by edge id.
//!
//! The bottleneck comes from a min-heap keyed by `(L(e)/C(e), edge id)`,
//! re-keyed lazily, because a link's ratio only rises. A round assigns the
//! global minimum `s ≤ L/C` to a tree of weight `w` on link `e`, which
//! leaves `(L − w·s)/(C − w) ≥ L/C`; so the key a link was pushed at is a
//! lower bound on its current ratio. Every link a round touches is marked.
//! A marked link that reaches the top of the heap is re-pushed at its
//! current key; an unmarked top is the exact argmin, ties to the lowest
//! edge id. Each re-push answers a mark, and a round marks only the links
//! of the trees it assigns, so a run costs `O((|E| + Σ|T_i|) log |E|)`
//! instead of a scan of every live link per round.
//!
//! Every link starts at key `1/C(e)`, which packs into one `u64`, so the
//! links not yet re-keyed wait in a heap of packed keys, the links
//! re-keyed since in a heap of rational keys, and the next entry is the
//! smaller of the two tops. Most links are still unmarked when the last
//! tree is assigned, so the rational heap stays a few entries long.
//!
//! A mark also defers the rational arithmetic: a round lowers `C(e)` and
//! records the weight its trees took on `e`, and `L(e)` absorbs it (one
//! subtraction per link and round) only when the link surfaces marked or
//! a later round touches it again. A link that dies first (`C(e) = 0`)
//! never does, so a plan whose trees share few links prices with a
//! handful of rational operations per round.

use crate::rational::Rational;
use pf_graph::{EdgeId, Graph, RootedTree, VertexId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Per-tree bandwidth assignment computed by Algorithm 1.
#[derive(Debug, Clone)]
pub struct BandwidthAssignment {
    /// Bandwidth `B_i` per tree, in the same order as the input set.
    pub per_tree: Vec<Rational>,
    /// Congestion `C(e)` per undirected edge (graph edge-id order): how
    /// many trees embed each link. This is the theoretical vector the
    /// simulator's measured per-link congestion is checked against
    /// (`tests/paper_claims.rs`).
    pub per_edge: Vec<u32>,
    /// Worst-case link congestion over the whole embedding
    /// (`max(per_edge)`).
    pub max_congestion: u32,
}

impl BandwidthAssignment {
    /// Aggregate allreduce bandwidth `Σ B_i` (Theorem 5.1).
    pub fn aggregate(&self) -> Rational {
        self.per_tree.iter().copied().fold(Rational::ZERO, |a, b| a + b)
    }
}

/// A heap entry: link `edge` at the ratio `num / den = L(e)/C(e)` it had
/// when pushed, unreduced (`den > 0`). Ordered by `(ratio, edge id)`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    num: i128,
    den: i128,
    edge: EdgeId,
}

impl Entry {
    /// Link `edge` at `L(e)/C(e)`. The unreduced denominator overflows
    /// exactly when the division `avail / C` would.
    fn new(avail: Rational, congestion: u32, edge: EdgeId) -> Self {
        let den = avail.denom().checked_mul(i128::from(congestion)).expect("rational overflow");
        Entry { num: avail.numer(), den, edge }
    }
}

impl Ord for Entry {
    /// Checked `i128` cross-multiplication, falling back to the
    /// overflow-free [`Rational`] order; ties to the lower edge id.
    fn cmp(&self, other: &Self) -> Ordering {
        let ratio = match (self.num.checked_mul(other.den), other.num.checked_mul(self.den)) {
            (Some(a), Some(b)) => a.cmp(&b),
            _ => Rational::new_i128(self.num, self.den)
                .cmp(&Rational::new_i128(other.num, other.den)),
        };
        ratio.then(self.edge.cmp(&other.edge))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// Packs link `e`'s initial key `1/C(e)` as `(u32::MAX − C(e)) << 32 | e`,
/// so `u64` order is exactly the `(1/C(e), edge id)` order.
fn cold_key(congestion: u32, e: EdgeId) -> Reverse<u64> {
    Reverse((u64::from(u32::MAX - congestion) << 32) | u64::from(e))
}

/// Takes the weight `w` a link's trees took in `round` out of its `L(e)`.
fn settle(avail: &mut Rational, (round, w): (u32, u32), shares: &[Rational]) {
    let share = shares[round as usize];
    *avail -= if w == 1 { share } else { share * Rational::from_int(i64::from(w)) };
}

/// Runs Algorithm 1 on weighted embeddings: `trees[i]` lists the
/// `(edge, w)` pairs of tree `i`, each edge once with `w ≥ 1`, and the
/// tree consumes `w · B_i` of unit link bandwidth on each such edge;
/// `C(e)` is the sum of the weights on `e`. Each round takes the
/// bottleneck edge, `argmin L(e)/C(e)` with ties to the lowest edge id,
/// and assigns that ratio to its unassigned trees in index order. A tree
/// that touches no edge (a one-vertex network) streams at the full link
/// bandwidth.
///
/// The bottleneck comes off a lazily re-keyed min-heap (see the module
/// docs), so a run costs `O((|E| + Σ|T_i|) log |E|)` for `|E|` links and
/// trees of `|T_i|` links each.
///
/// A physical tree has weight 1 on each of its edges
/// ([`assign_unit_bandwidth`]); a logical tree routed over the topology
/// may cross an edge more than once
/// ([`crate::logical::assign_bandwidth_weighted`]).
///
/// ```
/// use pf_allreduce::congestion::assign_bandwidth;
/// use pf_graph::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1); g.add_edge(1, 2); g.add_edge(0, 2);
/// // Two copies of the path 0-1-2 share every link: 1/2 each.
/// let path = vec![(0, 1), (1, 1)];
/// let a = assign_bandwidth(&g, &[path.clone(), path]);
/// assert_eq!(a.aggregate().to_string(), "1");
/// assert_eq!(a.max_congestion, 2);
/// // One tree crossing link 0 twice gets half of it.
/// let a = assign_bandwidth(&g, &[vec![(0, 2), (1, 1)]]);
/// assert_eq!(a.per_tree[0].to_string(), "1/2");
/// ```
pub fn assign_bandwidth(g: &Graph, trees: &[Vec<(EdgeId, u32)>]) -> BandwidthAssignment {
    water_fill(g, trees, |link| link)
}

/// Algorithm 1 over trees whose links `link` reads as `(edge, w)` pairs:
/// the one body behind [`assign_bandwidth`] and
/// [`assign_unit_bandwidth_ids`].
fn water_fill<L: Copy>(
    g: &Graph,
    trees: &[Vec<L>],
    link: impl Fn(L) -> (EdgeId, u32),
) -> BandwidthAssignment {
    let ne = g.num_edges() as usize;
    let mut per_edge = vec![0u32; ne]; // C(e)
    let mut bw = vec![Rational::ONE; trees.len()];
    // The edge -> tree membership table in CSR form: the trees crossing
    // `e`, in index order, are `members[start[e]..start[e + 1]]`.
    let mut start = vec![0u32; ne + 1];
    for &l in trees.iter().flatten() {
        let (e, w) = link(l);
        per_edge[e as usize] += w;
        start[e as usize] += 1;
    }
    let max_congestion = per_edge.iter().copied().max().unwrap_or(0);
    // Running sums leave `start[e]` at the end of row `e`; filling each row
    // back to front, trees in reverse order, walks it down to the start.
    let mut end = 0;
    for s in &mut start {
        end += *s;
        *s = end;
    }
    let mut members = vec![0u32; end as usize];
    for (ti, edges) in trees.iter().enumerate().rev() {
        for &l in edges {
            let (e, _) = link(l);
            start[e as usize] -= 1;
            members[start[e as usize] as usize] = ti as u32;
        }
    }

    // C(e) of the trees not yet assigned.
    let mut congestion = per_edge.clone();
    let mut assigned: Vec<bool> = trees.iter().map(Vec::is_empty).collect();
    let mut remaining = assigned.iter().filter(|&&a| !a).count();
    // Live links (C(e) > 0) each have one entry, at a key no larger than
    // their current ratio: in `cold` at the initial key `1/C(e)` until
    // re-keyed, then in `heap`.
    let mut cold: BinaryHeap<Reverse<u64>> = (per_edge.iter().enumerate())
        .filter(|&(_, &c)| c > 0)
        .map(|(e, &c)| cold_key(c, e as EdgeId))
        .collect();
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
    // L(e) lags behind by `pending[e] = (round, w)`: the weight `w` its
    // trees took in `round`, at `shares[round]`. A live link with pending
    // weight is marked, since its ratio may have risen since it was
    // pushed; dead links (C(e) = 0) are never settled.
    let mut avail = vec![Rational::ONE; ne]; // L(e)
    let mut pending = vec![(0u32, 0u32); ne];
    let mut shares: Vec<Rational> = Vec::with_capacity(trees.len());

    while remaining > 0 {
        let cold_top = cold.peek().map(|&Reverse(key)| {
            let e = key as EdgeId;
            Entry::new(Rational::ONE, per_edge[e as usize], e)
        });
        let top = match cold_top {
            Some(c) if heap.peek().is_none_or(|Reverse(hot)| c < *hot) => {
                cold.pop();
                c
            }
            _ => heap.pop().expect("unassigned trees must still cover live edges").0,
        };
        let emin = top.edge as usize;
        if congestion[emin] == 0 {
            continue; // every tree through it is assigned
        }
        if pending[emin].1 > 0 {
            settle(&mut avail[emin], std::mem::take(&mut pending[emin]), &shares);
            heap.push(Reverse(Entry::new(avail[emin], congestion[emin], top.edge)));
            continue;
        }
        // An unmarked top is current: emin = argmin L(e) / C(e) over live
        // edges. Assign `share` to every unassigned tree through it, then
        // release that bandwidth on all their links.
        let share = Rational::new_i128(top.num, top.den);
        let round = shares.len() as u32;
        shares.push(share);
        for &ti in &members[start[emin] as usize..start[emin + 1] as usize] {
            let ti = ti as usize;
            if assigned[ti] {
                continue;
            }
            bw[ti] = share;
            assigned[ti] = true;
            remaining -= 1;
            for &l in &trees[ti] {
                let (e, w) = link(l);
                let e = e as usize;
                congestion[e] -= w;
                if congestion[e] == 0 {
                    continue;
                }
                let p = &mut pending[e];
                if p.0 != round {
                    if p.1 > 0 {
                        settle(&mut avail[e], *p, &shares);
                    }
                    *p = (round, 0);
                }
                p.1 += w;
            }
        }
    }

    BandwidthAssignment { per_tree: bw, per_edge, max_congestion }
}

/// Runs Algorithm 1 on physical trees: the bandwidth of each tree in
/// `trees` when embedded concurrently in `g` with unit link bandwidth.
///
/// Every tree must be a validated spanning tree of `g` (panics otherwise —
/// validate with [`RootedTree::validate_spanning`] first).
pub fn assign_unit_bandwidth(g: &Graph, trees: &[RootedTree]) -> BandwidthAssignment {
    assign_unit_bandwidth_ids(g, &tree_edge_ids(g, trees))
}

/// [`assign_unit_bandwidth`] on trees given by their edge ids:
/// `trees[i]` lists the links of tree `i` in `g`, each once, in any
/// order. A caller that already holds the ids (a plan repair learns them
/// while it builds the trees) skips the per-edge lookups.
pub(crate) fn assign_unit_bandwidth_ids(g: &Graph, trees: &[Vec<EdgeId>]) -> BandwidthAssignment {
    water_fill(g, trees, |e| (e, 1))
}

/// Each tree's edge ids in `g`, in the tree's child order, from one sweep
/// over the vertices: vertex `v`'s adjacency fills a scratch slot per
/// neighbour with the edge id, and every tree in which `v` has a parent
/// reads its id from the parent's slot. That is `O(|E| + Σ|T_i|)` with no
/// search. Panics if an edge is not in `g`.
pub(crate) fn tree_edge_ids(g: &Graph, trees: &[RootedTree]) -> Vec<Vec<EdgeId>> {
    const NO_EDGE: EdgeId = EdgeId::MAX;
    let mut slot = vec![NO_EDGE; g.num_vertices() as usize];
    let mut ids: Vec<Vec<EdgeId>> =
        trees.iter().map(|t| Vec::with_capacity(t.num_vertices().saturating_sub(1))).collect();
    let span = trees.iter().map(RootedTree::num_vertices).max().unwrap_or(0);
    for v in 0..span as VertexId {
        let adj = if v < g.num_vertices() { g.neighbors_with_edges(v) } else { &[] };
        for &(u, e) in adj {
            slot[u as usize] = e;
        }
        let spanned = trees.iter().zip(&mut ids).filter(|(t, _)| (v as usize) < t.num_vertices());
        for (t, out) in spanned {
            if let Some(p) = t.parent(v) {
                let e = slot.get(p as usize).copied().unwrap_or(NO_EDGE);
                assert!(e != NO_EDGE, "tree edge missing from host graph");
                out.push(e);
            }
        }
        for &(u, _) in adj {
            slot[u as usize] = NO_EDGE;
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::{Budget, ConstructError};
    use crate::plan::AllreducePlan;
    use crate::recovery::{rebuild_degraded, FaultSet};
    use crate::substrates::{backends_for, erdos_renyi_connected, quick_catalog};
    use pf_graph::dsu::Dsu;
    use pf_graph::{builders, Graph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cycle(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    /// Reference for [`assign_bandwidth`]: the scan it replaced, which
    /// forms `L(e)/C(e)` for every live link each round.
    fn assign_bandwidth_by_scan(g: &Graph, trees: &[Vec<(EdgeId, u32)>]) -> BandwidthAssignment {
        let ne = g.num_edges() as usize;
        let nt = trees.len();
        // Edge -> trees crossing it, in index order.
        let mut edge_trees: Vec<Vec<usize>> = vec![Vec::new(); ne];
        let mut congestion = vec![0u32; ne]; // C(e)
        for (ti, edges) in trees.iter().enumerate() {
            for &(e, w) in edges {
                edge_trees[e as usize].push(ti);
                congestion[e as usize] += w;
            }
        }
        // C(e), captured before the water-filling loop decrements it.
        let per_edge = congestion.clone();
        let max_congestion = per_edge.iter().copied().max().unwrap_or(0);

        let mut avail = vec![Rational::ONE; ne]; // L(e)
        let mut bw = vec![Rational::ONE; nt];
        let mut assigned: Vec<bool> = trees.iter().map(Vec::is_empty).collect();
        let mut edge_alive: Vec<bool> = congestion.iter().map(|&c| c > 0).collect();
        let mut remaining = assigned.iter().filter(|&&a| !a).count();

        while remaining > 0 {
            // e_min = argmin L(e) / C(e) over live edges.
            let mut best: Option<(Rational, usize)> = None;
            for e in 0..ne {
                if !edge_alive[e] || congestion[e] == 0 {
                    continue;
                }
                let ratio = avail[e] / Rational::from_int(congestion[e] as i64);
                match best {
                    Some((b, _)) if b <= ratio => {}
                    _ => best = Some((ratio, e)),
                }
            }
            let (share, emin) = best.expect("unassigned trees must still cover live edges");

            // Assign `share` to every unassigned tree through emin, then
            // release that bandwidth on all their links.
            for &ti in &edge_trees[emin] {
                if assigned[ti] {
                    continue;
                }
                bw[ti] = share;
                assigned[ti] = true;
                remaining -= 1;
                for &(e, w) in &trees[ti] {
                    avail[e as usize] -=
                        if w == 1 { share } else { share * Rational::from_int(i64::from(w)) };
                    congestion[e as usize] -= w;
                }
            }
            edge_alive[emin] = false;
        }

        BandwidthAssignment { per_tree: bw, per_edge, max_congestion }
    }

    /// The heap and the scan oracle agree bit for bit on `trees`.
    fn assert_matches_scan(ctx: &str, g: &Graph, trees: &[Vec<(EdgeId, u32)>]) {
        let heap = assign_bandwidth(g, trees);
        let scan = assign_bandwidth_by_scan(g, trees);
        assert_eq!(heap.per_tree, scan.per_tree, "{ctx}: per-tree bandwidth");
        assert_eq!(heap.per_edge, scan.per_edge, "{ctx}: per-edge congestion");
        assert_eq!(heap.max_congestion, scan.max_congestion, "{ctx}: max congestion");
    }

    fn unit(g: &Graph, trees: &[RootedTree]) -> Vec<Vec<(EdgeId, u32)>> {
        trees.iter().map(|t| t.edge_ids(g).into_iter().map(|e| (e, 1)).collect()).collect()
    }

    /// The degraded plan, priced by the heap in
    /// `AllreducePlan::from_tree_set`, against the scan on its trees.
    fn assert_degraded_matches_scan(plan: &AllreducePlan, faults: Vec<EdgeId>) {
        let ctx = format!("q={} faults {faults:?}", plan.q);
        let d = rebuild_degraded(plan, &FaultSet::links(faults)).unwrap();
        let scan = assign_bandwidth_by_scan(&d.graph, &unit(&d.graph, &d.trees));
        assert_eq!(d.bandwidths, scan.per_tree, "{ctx}: per-tree bandwidth");
        assert_eq!(d.edge_congestion, scan.per_edge, "{ctx}: per-edge congestion");
        assert_eq!(d.max_congestion, scan.max_congestion, "{ctx}: max congestion");
    }

    #[test]
    fn heap_matches_the_scan_oracle_on_catalog_plans() {
        for s in quick_catalog() {
            for b in backends_for(&s.name) {
                let trees = match b.build(&s.graph, &Budget::unlimited()) {
                    Ok(trees) => trees,
                    Err(ConstructError::UnsupportedSubstrate(_)) => continue,
                    Err(e) => panic!("{} on {}: {e}", b.name(), s.name),
                };
                let ctx = format!("{} on {}", b.name(), s.name);
                assert_matches_scan(&ctx, &s.graph, &unit(&s.graph, &trees));
            }
        }
    }

    #[test]
    fn heap_matches_the_scan_oracle_on_paper_plans() {
        for q in [3u64, 5, 7, 11, 13] {
            for plan in [AllreducePlan::low_depth(q), AllreducePlan::edge_disjoint(q, 30, 1)] {
                let plan = plan.unwrap();
                let ctx = format!("q={q} {}", plan.solution.label());
                assert_matches_scan(&ctx, &plan.graph, &unit(&plan.graph, &plan.trees));
            }
        }
    }

    #[test]
    fn heap_matches_the_scan_oracle_on_degraded_plans() {
        // Every one-link fault on a used edge at q = 5 and 7.
        for q in [5u64, 7] {
            let plan = AllreducePlan::low_depth(q).unwrap();
            for e in 0..plan.graph.num_edges() {
                if plan.edge_congestion[e as usize] > 0 {
                    assert_degraded_matches_scan(&plan, vec![e]);
                }
            }
        }
        // A seeded sample of two-link faults at q = 11 and 13.
        let mut rng = StdRng::seed_from_u64(0xa1);
        for q in [11u64, 13] {
            let plan = AllreducePlan::low_depth(q).unwrap();
            let used: Vec<EdgeId> = (0..plan.graph.num_edges())
                .filter(|&e| plan.edge_congestion[e as usize] > 0)
                .collect();
            for _ in 0..12 {
                let a = used[rng.random_range(0..used.len())];
                let b = used[rng.random_range(0..used.len())];
                if a != b {
                    assert_degraded_matches_scan(&plan, vec![a, b]);
                }
            }
        }
    }

    /// The per-edge lookup [`tree_edge_ids`] replaced: one adjacency
    /// binary search per tree edge, in the tree's child order.
    fn tree_edge_ids_by_lookup(g: &Graph, trees: &[RootedTree]) -> Vec<Vec<EdgeId>> {
        let id = |(v, p)| g.edge_id(v, p).expect("tree edge missing from host graph");
        trees.iter().map(|t| t.edges().map(id).collect()).collect()
    }

    #[test]
    fn id_sweep_matches_the_lookup() {
        let mut cases: Vec<(String, Graph, Vec<RootedTree>)> = Vec::new();
        for s in quick_catalog() {
            for b in backends_for(&s.name) {
                if let Ok(trees) = b.build(&s.graph, &Budget::unlimited()) {
                    cases.push((format!("{} on {}", b.name(), s.name), s.graph.clone(), trees));
                }
            }
        }
        for q in [3u64, 5, 7, 11, 13, 31] {
            for plan in [AllreducePlan::low_depth(q), AllreducePlan::edge_disjoint(q, 30, 1)] {
                let plan = plan.unwrap();
                cases.push((format!("q={q} {}", plan.solution.label()), plan.graph, plan.trees));
            }
        }
        let plan = AllreducePlan::low_depth(7).unwrap();
        let d = rebuild_degraded(&plan, &FaultSet { edges: vec![3, 40], routers: vec![5] });
        let d = d.unwrap();
        cases.push(("q=7 degraded".into(), d.graph.clone(), d.trees.clone()));
        // Trees of different orders: the sweep runs to the largest.
        let g = builders::complete(5);
        let small = RootedTree::from_parents(1, vec![Some(1), None, Some(0)]).unwrap();
        let full = RootedTree::from_path(&[4, 2, 0, 3, 1], 2).unwrap();
        cases.push(("mixed orders".into(), g, vec![small, full]));
        for (ctx, g, trees) in &cases {
            assert_eq!(tree_edge_ids(g, trees), tree_edge_ids_by_lookup(g, trees), "{ctx}");
        }
    }

    #[test]
    #[should_panic(expected = "tree edge missing from host graph")]
    fn id_sweep_panics_on_a_missing_edge() {
        // The path 0-1-2-3 on a graph without {2, 3}.
        let tree = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let mut g = Graph::new(4);
        for (u, v) in [(0, 1), (1, 2), (0, 3)] {
            g.add_edge(u, v);
        }
        tree_edge_ids(&g, &[tree]);
    }

    #[test]
    #[should_panic(expected = "tree edge missing from host graph")]
    fn id_sweep_panics_on_a_tree_larger_than_the_graph() {
        let tree = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        tree_edge_ids(&builders::complete(3), &[tree]);
    }

    /// A random spanning tree of the connected graph `g`: Kruskal over a
    /// shuffled edge order.
    fn random_spanning_edges(g: &Graph, rng: &mut StdRng) -> Vec<EdgeId> {
        let mut order: Vec<EdgeId> = (0..g.num_edges()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut dsu = Dsu::new(g.num_vertices());
        order.retain(|&e| {
            let (u, v) = g.endpoints(e);
            dsu.union(u, v)
        });
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn heap_matches_the_scan_oracle_on_random_weighted_tree_sets(
            n in 2u32..14,
            extra in 0u32..24,
            k in 0usize..=8,
            seed in any::<u64>(),
        ) {
            let g = erdos_renyi_connected(n, extra, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut trees: Vec<Vec<(EdgeId, u32)>> = Vec::new();
            for _ in 0..k {
                let tree = match rng.random_range(0..8u32) {
                    0 => Vec::new(),
                    // A repeat ties with its original on every link.
                    1 | 2 if !trees.is_empty() => trees[rng.random_range(0..trees.len())].clone(),
                    // Unit weights tie many links at equal ratios.
                    3 | 4 => random_spanning_edges(&g, &mut rng).into_iter().map(|e| (e, 1)).collect(),
                    _ => random_spanning_edges(&g, &mut rng)
                        .into_iter()
                        .map(|e| (e, rng.random_range(1..=3u32)))
                        .collect(),
                };
                trees.push(tree);
            }
            assert_matches_scan(&format!("n={n} extra={extra} seed={seed}"), &g, &trees);
        }
    }

    #[test]
    fn single_tree_gets_full_link_bandwidth() {
        let g = cycle(4);
        let t = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let a = assign_unit_bandwidth(&g, &[t]);
        assert_eq!(a.per_tree, vec![Rational::ONE]);
        assert_eq!(a.aggregate(), Rational::ONE);
        assert_eq!(a.max_congestion, 1);
    }

    #[test]
    fn two_disjoint_trees_get_full_bandwidth_each() {
        // K4 splits into two edge-disjoint spanning paths: 0-1-2-3 (edges
        // 01, 12, 23) and 1-3-0-2 (edges 13, 03, 02).
        let g = builders::complete(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[1, 3, 0, 2], 0).unwrap();
        let a = assign_unit_bandwidth(&g, &[t1, t2]);
        assert_eq!(a.per_tree, vec![Rational::ONE, Rational::ONE]);
        assert_eq!(a.aggregate(), Rational::from_int(2));
        assert_eq!(a.max_congestion, 1);
    }

    #[test]
    fn two_copies_of_one_tree_split_every_link() {
        let g = cycle(4);
        let t = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let a = assign_unit_bandwidth(&g, &[t.clone(), t]);
        assert_eq!(a.per_tree, vec![Rational::new(1, 2), Rational::new(1, 2)]);
        assert_eq!(a.aggregate(), Rational::ONE);
        assert_eq!(a.max_congestion, 2);
    }

    #[test]
    fn partial_overlap_water_filling() {
        // C4: t1 = path 0-1-2-3 (edges 01,12,23), t2 = path 1-0-3-2 (edges 01,03,23).
        // Overlap on edges 01 and 23 (congestion 2); each tree gets 1/2,
        // leaving 1/2 unused on its private edge.
        let g = cycle(4);
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[1, 0, 3, 2], 0).unwrap();
        let a = assign_unit_bandwidth(&g, &[t1, t2]);
        assert_eq!(a.per_tree, vec![Rational::new(1, 2), Rational::new(1, 2)]);
        assert_eq!(a.aggregate(), Rational::ONE);
        assert_eq!(a.max_congestion, 2);
        // Per-edge congestion: 01 and 23 shared (2), 12 and 03 private (1).
        assert_eq!(a.per_edge.iter().filter(|&&c| c == 2).count(), 2);
        assert_eq!(a.per_edge.iter().filter(|&&c| c == 1).count(), 2);
        assert_eq!(a.per_edge.iter().copied().max(), Some(a.max_congestion));
    }

    #[test]
    fn asymmetric_overlap() {
        // Path graph 0-1-2 plus chord? Use K3: trees t1 = 0-1-2 path
        // (edges 01,12), t2 = 1-0, 0-2 star at 0 (edges 01,02).
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let t1 = RootedTree::from_path(&[0, 1, 2], 0).unwrap();
        let t2 = RootedTree::from_parents(0, vec![None, Some(0), Some(0)]).unwrap();
        let t3 = RootedTree::from_parents(2, vec![Some(2), Some(0), None]).unwrap(); // edges 02,01
        // t1: {01,12}, t2: {01,02}, t3: {01,02}: edge 01 congestion 3.
        let a = assign_unit_bandwidth(&g, &[t1, t2, t3]);
        assert_eq!(a.per_tree, vec![Rational::new(1, 3); 3]);
        assert_eq!(a.max_congestion, 3);
        assert_eq!(a.aggregate(), Rational::ONE);
    }

    #[test]
    fn waterfill_gives_leftover_to_uncongested_tree() {
        // K4. t1 and t2 share one edge; t3 edge-disjoint from both.
        let mut g = Graph::new(4);
        for u in 0..4 {
            for v in u + 1..4 {
                g.add_edge(u, v);
            }
        }
        // t1: star at 0 (01, 02, 03); t2: path 1-0, 0-2, 2-3 -> (01, 02, 23);
        // t3: path 2-1, 1-3, 3-0 -> (12, 13, 03)? 03 overlaps t1. Choose
        // t3: 1-2, 1-3 star at 1 plus 3-0? parent: 0<-3, 2<-1, 3<-1, root 1:
        // edges (12, 13, 03).
        let t1 = RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(0)]).unwrap();
        let t2 =
            RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(2)]).unwrap();
        let t3 =
            RootedTree::from_parents(1, vec![Some(3), None, Some(1), Some(1)]).unwrap();
        let a = assign_unit_bandwidth(&g, &[t1, t2, t3]);
        // t1,t2 congestion-2 on (0,1) and (0,2): each gets 1/2.
        // t3 overlaps t1 on (0,3): after t1 takes 1/2 there, t3 gets 1/2.
        assert_eq!(
            a.per_tree,
            vec![Rational::new(1, 2), Rational::new(1, 2), Rational::new(1, 2)]
        );
        assert_eq!(a.aggregate(), Rational::new(3, 2));
    }

    #[test]
    fn a_link_touched_in_two_rounds_before_it_surfaces_keeps_both_shares() {
        // Path 0-1-2-3, links a = 0, b = 1, e = 2. Four trees bottleneck on
        // a at 1/4 and three on b at 1/3; e carries one tree of each, and
        // its key 1/3 ties with b's but loses on edge id, so both rounds
        // pass before e surfaces. Its last tree gets 1 − 1/4 − 1/3.
        let g = builders::path(4);
        let (a, b, e) = (vec![(0, 1)], vec![(1, 1)], vec![(2, 1)]);
        let trees = vec![
            vec![(0, 1), (2, 1)],
            a.clone(),
            a.clone(),
            a,
            vec![(1, 1), (2, 1)],
            b.clone(),
            b,
            e,
        ];
        let got = assign_bandwidth(&g, &trees);
        let (quarter, third) = (Rational::new(1, 4), Rational::new(1, 3));
        assert_eq!(got.per_tree[..4], [quarter; 4]);
        assert_eq!(got.per_tree[4..7], [third; 3]);
        assert_eq!(got.per_tree[7], Rational::new(5, 12));
        assert_matches_scan("two rounds", &g, &trees);
    }

    #[test]
    fn heap_order_survives_cross_product_overflow() {
        // Every cross product below overflows i128, so the order falls
        // back to `Rational`'s: 1/2 both times, then the lower edge id;
        // and about 1/3 below about 1/2.
        let half = |edge, k: u32| Entry { num: 1 << (100 + k), den: 1 << (101 + k), edge };
        assert!(half(3, 0) < half(5, 1));
        assert_eq!(half(4, 0).cmp(&half(4, 2)), Ordering::Equal);
        let third = Entry { num: i128::MAX / 3, den: i128::MAX - 1, edge: 9 };
        assert!(third < half(0, 0));
    }

    #[test]
    fn trees_without_links_stream_at_link_rate() {
        // On a one-vertex network a spanning tree has no edge to share.
        let g = Graph::new(1);
        let t = RootedTree::from_parents(0, vec![None]).unwrap();
        let a = assign_unit_bandwidth(&g, &[t.clone(), t]);
        assert_eq!(a.per_tree, vec![Rational::ONE; 2]);
        assert_eq!(a.aggregate(), Rational::from_int(2));
        assert_eq!(a.max_congestion, 0);
        assert!(a.per_edge.is_empty());
    }

    #[test]
    fn empty_tree_set() {
        let g = cycle(3);
        let a = assign_unit_bandwidth(&g, &[]);
        assert!(a.per_tree.is_empty());
        assert_eq!(a.aggregate(), Rational::ZERO);
        assert_eq!(a.max_congestion, 0);
    }
}
