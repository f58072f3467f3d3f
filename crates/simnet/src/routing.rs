//! Deterministic shortest-path routing and per-link traffic accounting.
//!
//! Host-based baselines send point-to-point messages between compute
//! nodes; on a direct network those messages traverse minimal paths chosen
//! by the routing function. PolarFly has diameter 2 and at most one 2-hop
//! path between non-adjacent routers (Theorem 6.1), so minimal routing is
//! essentially unique — the deterministic BFS tie-break below is exact, not
//! an approximation, on `ER_q`.

use pf_graph::{bfs, subgraph, EdgeId, Graph, VertexId};

/// All-pairs minimal routes, precomputed.
#[derive(Debug, Clone)]
pub struct Routing {
    parents: Vec<Vec<Option<VertexId>>>,
}

impl Routing {
    /// Precomputes BFS trees from every source.
    pub fn new(g: &Graph) -> Self {
        let parents = g.vertices().map(|v| bfs::tree(g, v).1).collect();
        Routing { parents }
    }

    /// Minimal routes avoiding `dead_edges` — routing on the degraded
    /// fabric after link faults. Vertex ids are unchanged (an edge-deleted
    /// subgraph keeps the vertex set), so paths come back in the original
    /// labeling; pairs the faults disconnect have no route
    /// ([`Routing::try_path`] returns `None`).
    pub fn new_avoiding(g: &Graph, dead_edges: &[EdgeId]) -> Self {
        Routing::new(&subgraph::edge_deleted(g, dead_edges).graph)
    }

    /// The vertex path from `src` to `dst` (inclusive), or `None` when
    /// `dst` is unreachable (possible after faults).
    pub fn try_path(&self, src: VertexId, dst: VertexId) -> Option<Vec<VertexId>> {
        // parents[src] is the BFS tree rooted at src; walk dst -> src.
        let mut rev = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = self.parents[src as usize][cur as usize]?;
            rev.push(cur);
        }
        rev.reverse();
        Some(rev)
    }

    /// The vertex path from `src` to `dst` (inclusive). Panics if
    /// unreachable (PolarFly is connected).
    pub fn path(&self, src: VertexId, dst: VertexId) -> Vec<VertexId> {
        self.try_path(src, dst).expect("network must be connected")
    }

    /// Number of hops from `src` to `dst`.
    pub fn hops(&self, src: VertexId, dst: VertexId) -> u32 {
        (self.path(src, dst).len() - 1) as u32
    }
}

/// Accumulates the per-directed-channel load (in elements) of a set of
/// point-to-point messages `(src, dst, elements)` under minimal routing.
/// Channel ids follow [`crate::embedding::channel_id`].
pub fn channel_loads(g: &Graph, routing: &Routing, messages: &[(VertexId, VertexId, u64)]) -> Vec<u64> {
    let mut load = vec![0u64; 2 * g.num_edges() as usize];
    for &(src, dst, m) in messages {
        if src == dst || m == 0 {
            continue;
        }
        let path = routing.path(src, dst);
        for w in path.windows(2) {
            load[crate::embedding::channel_id(g, w[0], w[1]) as usize] += m;
        }
    }
    load
}

/// Observability breakdown of one α–β phase: where its cycles
/// ([`PhaseProfile::time`]) come from, channel by channel.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Per-directed-channel load in elements ([`channel_loads`]).
    pub loads: Vec<u64>,
    /// Load of the most congested channel — the serialization term.
    pub serial: u64,
    /// Deepest routed path, in hops.
    pub depth: u64,
    /// Pipeline latency charged per hop.
    pub hop_latency: u64,
}

impl PhaseProfile {
    /// The phase time under the congestion-aware α–β model: every message
    /// proceeds concurrently; each directed channel serializes its total
    /// load at one element per cycle; the phase ends when the most loaded
    /// channel drains, plus the deepest path's pipeline latency —
    /// `serial + depth·hop_latency`.
    pub fn time(&self) -> u64 {
        self.serial + self.depth * self.hop_latency
    }

    /// Directed channels carrying at least one element.
    pub fn active_channels(&self) -> usize {
        self.loads.iter().filter(|&&l| l > 0).count()
    }
}

/// Computes the congestion breakdown of one communication phase — the
/// model-side counterpart of the engine's measured per-channel flit
/// counters (`docs/OBSERVABILITY.md`).
pub fn phase_profile(
    g: &Graph,
    routing: &Routing,
    messages: &[(VertexId, VertexId, u64)],
    hop_latency: u64,
) -> PhaseProfile {
    let loads = channel_loads(g, routing, messages);
    let serial = loads.iter().copied().max().unwrap_or(0);
    let depth = messages
        .iter()
        .filter(|&&(s, d, m)| s != d && m > 0)
        .map(|&(s, d, _)| routing.hops(s, d) as u64)
        .max()
        .unwrap_or(0);
    PhaseProfile { loads, serial, depth, hop_latency }
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
    fn paths_are_minimal() {
        let g = cycle(8);
        let r = Routing::new(&g);
        assert_eq!(r.path(0, 0), vec![0]);
        assert_eq!(r.hops(0, 4), 4);
        assert_eq!(r.hops(0, 3), 3);
        assert_eq!(r.hops(0, 6), 2);
        let p = r.path(2, 5);
        assert_eq!(p.first(), Some(&2));
        assert_eq!(p.last(), Some(&5));
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn loads_accumulate_per_direction() {
        let g = cycle(4);
        let r = Routing::new(&g);
        // 0 -> 1 and 1 -> 0 use opposite channels of the same edge.
        let loads = channel_loads(&g, &r, &[(0, 1, 10), (1, 0, 7)]);
        let c01 = crate::embedding::channel_id(&g, 0, 1) as usize;
        let c10 = crate::embedding::channel_id(&g, 1, 0) as usize;
        assert_eq!(loads[c01], 10);
        assert_eq!(loads[c10], 7);
    }

    #[test]
    fn phase_time_serializes_contention() {
        let g = cycle(4);
        let r = Routing::new(&g);
        // Two messages forced through channel 0->1 (0->1 and 3->...).
        // In C4, 3 -> 1 routes via 0 (3-0-1) or 3-2-1; BFS from 3 with
        // smallest-parent tie-break: dist(1)=2 via parent 0 or 2; neighbors
        // of 3 are 0 and 2 -> 0 first, so path 3-0-1.
        let t = phase_profile(&g, &r, &[(0, 1, 100), (3, 1, 100)], 5).time();
        assert_eq!(t, 200 + 2 * 5);
    }

    #[test]
    fn phase_profile_explains_phase_time() {
        let g = cycle(4);
        let r = Routing::new(&g);
        let msgs = [(0u32, 1u32, 100u64), (3, 1, 100)];
        let p = phase_profile(&g, &r, &msgs, 5);
        assert_eq!(p.time(), 200 + 2 * 5);
        assert_eq!(p.serial, 200);
        assert_eq!(p.depth, 2);
        assert!(p.active_channels() >= 2);
        assert_eq!(p.loads, channel_loads(&g, &r, &msgs));
    }

    #[test]
    fn phase_time_empty() {
        let g = cycle(3);
        let r = Routing::new(&g);
        assert_eq!(phase_profile(&g, &r, &[], 5).time(), 0);
        assert_eq!(phase_profile(&g, &r, &[(1, 1, 50)], 5).time(), 0);
    }

    #[test]
    fn routing_avoids_dead_edges() {
        let g = cycle(6);
        // Kill edge 0 = (0, 1): the only route 0 -> 1 is now the long way.
        let r = Routing::new_avoiding(&g, &[0]);
        let p = r.try_path(0, 1).unwrap();
        assert_eq!(p.len(), 6, "must route the long way around");
        for w in p.windows(2) {
            assert!(!(w[0].min(w[1]) == 0 && w[0].max(w[1]) == 1));
        }
    }

    #[test]
    fn disconnected_pairs_have_no_route() {
        let mut g = Graph::new(4); // path 0-1-2-3
        for i in 0..3 {
            g.add_edge(i, i + 1);
        }
        let r = Routing::new_avoiding(&g, &[1]); // cut (1, 2)
        assert!(r.try_path(0, 3).is_none());
        assert!(r.try_path(0, 1).is_some());
        assert!(r.try_path(2, 3).is_some());
    }

    #[test]
    fn polarfly_routes_are_at_most_two_hops() {
        let pf = pf_topo::PolarFly::new(5);
        let g = pf.graph();
        let r = Routing::new(g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert!(r.hops(u, v) <= 2, "({u},{v})");
            }
        }
    }
}
