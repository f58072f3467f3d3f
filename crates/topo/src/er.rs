//! Projective-geometry construction of the Erdős–Rényi polarity graph
//! `ER_q` (paper §6.1).
//!
//! Vertices are the left-normalized nonzero 3-vectors over `GF(q)`:
//!
//! ```text
//! { [1, y, z] : y, z ∈ F_q } ∪ { [0, 1, z] : z ∈ F_q } ∪ { [0, 0, 1] }
//! ```
//!
//! so `N = q^2 + q + 1`. An edge joins distinct vertices `u, v` iff their
//! dot product vanishes in `GF(q)`. Self-orthogonal vertices are the
//! *quadrics*; their conceptual self-loops are recorded but not added as
//! graph edges (PolarFly ignores them, §6.1).

use pf_galois::Gf;
use pf_graph::{Graph, VertexId};

/// The PolarFly topology for a prime-power `q`, carrying the field, the
/// point coordinates, the graph, and the quadric markers.
#[derive(Debug, Clone)]
pub struct PolarFly {
    q: u64,
    gf: Gf,
    points: Vec<[u16; 3]>,
    graph: Graph,
    quadric: Vec<bool>,
}

impl PolarFly {
    /// Builds `ER_q`. Panics if `q` is not a prime power (checked by the
    /// field constructor); use [`pf_galois::prime_power`] to pre-validate.
    ///
    /// ```
    /// use pf_topo::PolarFly;
    /// let pf = PolarFly::new(5);
    /// assert_eq!(pf.num_vertices(), 31);       // q^2 + q + 1
    /// assert_eq!(pf.graph().num_edges(), 90);  // q (q+1)^2 / 2
    /// assert_eq!(pf.quadrics().len(), 6);      // q + 1
    /// ```
    pub fn new(q: u64) -> Self {
        let gf = Gf::new(q).unwrap_or_else(|e| panic!("ER_q needs a prime power: {e}"));
        let points = enumerate_points(&gf);
        let n = points.len() as u32;
        debug_assert_eq!(n as u64, q * q + q + 1);

        let quadric: Vec<bool> = points.iter().map(|&p| gf.norm3(p) == 0).collect();
        // Each point's neighbors are the other points of its polar line.
        // Edges go in as ascending `(u, v)`, `u < v`: edge ids and the
        // adjacency lists' capacities follow from that order.
        let mut graph = Graph::new(n);
        let mut line = Vec::with_capacity(q as usize + 1);
        for u in 0..n {
            polar_line(&gf, points[u as usize], &mut line);
            for &v in line.iter().filter(|&&v| v > u) {
                graph.add_edge(u, v);
            }
        }
        PolarFly { q, gf, points, graph, quadric }
    }

    /// Field order `q` (network radix is `q + 1`).
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Number of vertices `N = q^2 + q + 1`.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.q * self.q + self.q + 1
    }

    /// Network radix `q + 1` (max degree including the ignored self-loop).
    #[inline]
    pub fn radix(&self) -> u64 {
        self.q + 1
    }

    /// The underlying field.
    pub fn field(&self) -> &Gf {
        &self.gf
    }

    /// The underlying simple graph (no self-loops).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Projective coordinates of vertex `v`.
    pub fn point(&self, v: VertexId) -> [u16; 3] {
        self.points[v as usize]
    }

    /// Whether `v` is a quadric (self-orthogonal).
    #[inline]
    pub fn is_quadric(&self, v: VertexId) -> bool {
        self.quadric[v as usize]
    }

    /// All quadric vertices, sorted.
    pub fn quadrics(&self) -> Vec<VertexId> {
        (0..self.graph.num_vertices()).filter(|&v| self.quadric[v as usize]).collect()
    }

    /// Looks up the vertex id of a (not necessarily normalized) nonzero
    /// vector, normalizing it first. Returns `None` for the zero vector.
    pub fn vertex_of(&self, vec: [u16; 3]) -> Option<VertexId> {
        let norm = normalize(&self.gf, vec)?;
        self.points.iter().position(|&p| p == norm).map(|i| i as VertexId)
    }
}

/// Left-normalizes a vector (leading nonzero coordinate scaled to 1).
fn normalize(gf: &Gf, v: [u16; 3]) -> Option<[u16; 3]> {
    let lead = v.iter().position(|&c| c != 0)?;
    let inv = gf.inv(v[lead]);
    Some([gf.mul(v[0], inv), gf.mul(v[1], inv), gf.mul(v[2], inv)])
}

/// Fills `line` with the `q + 1` points `v` of the polar line of `u`
/// (`u·v = 0`), as vertex ids in ascending order: each normalized form's
/// equation is solved for its last free coordinate.
fn polar_line(gf: &Gf, [a, b, c]: [u16; 3], line: &mut Vec<VertexId>) {
    let q = u32::from(gf.order());
    line.clear();
    // [1, y, z]: a + b·y + c·z = 0.
    if c != 0 {
        for y in 0..gf.order() {
            let z = gf.div(gf.neg(gf.add(a, gf.mul(b, y))), c);
            line.push(u32::from(y) * q + u32::from(z));
        }
    } else if b != 0 {
        let y = u32::from(gf.div(gf.neg(a), b));
        line.extend((0..q).map(|z| y * q + z));
    }
    // [0, 1, z]: b + c·z = 0.
    if c != 0 {
        line.push(q * q + u32::from(gf.div(gf.neg(b), c)));
    } else if b == 0 {
        line.extend((0..q).map(|z| q * q + z));
    }
    // [0, 0, 1]: c = 0.
    if c == 0 {
        line.push(q * q + q);
    }
    debug_assert_eq!(line.len() as u32, q + 1);
}

/// Enumerates the canonical point order: `[1,y,z]` (lexicographic in `y,z`
/// element labels), then `[0,1,z]`, then `[0,0,1]`.
fn enumerate_points(gf: &Gf) -> Vec<[u16; 3]> {
    let q = gf.order();
    let mut pts = Vec::with_capacity(q as usize * q as usize + q as usize + 1);
    for y in 0..q {
        for z in 0..q {
            pts.push([1, y, z]);
        }
    }
    for z in 0..q {
        pts.push([0, 1, z]);
    }
    pts.push([0, 0, 1]);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn order_and_size() {
        for q in [3u64, 4, 5, 7, 8, 9] {
            let pf = PolarFly::new(q);
            let n = q * q + q + 1;
            assert_eq!(pf.graph().num_vertices() as u64, n, "q={q}");
            // |E| = q (q+1)^2 / 2 (Corollary 7.1's edge count).
            assert_eq!(pf.graph().num_edges() as u64, q * (q + 1) * (q + 1) / 2, "q={q}");
        }
    }

    #[test]
    fn degrees_match_table1() {
        // Quadrics have degree q (self-loop ignored); others q + 1.
        for q in [3u64, 4, 5, 7, 9] {
            let pf = PolarFly::new(q);
            for v in pf.graph().vertices() {
                let expect = if pf.is_quadric(v) { q } else { q + 1 };
                assert_eq!(pf.graph().degree(v) as u64, expect, "q={q} v={v}");
            }
        }
    }

    #[test]
    fn quadric_count() {
        for q in [3u64, 4, 5, 7, 8, 9, 11] {
            let pf = PolarFly::new(q);
            assert_eq!(pf.quadrics().len() as u64, q + 1, "q={q}");
        }
    }

    #[test]
    fn diameter_two_unique_midpoints() {
        // Theorem 6.1: diameter 2, and at most one 2-path between any pair.
        for q in [3u64, 4, 5, 7] {
            let pf = PolarFly::new(q);
            let g = pf.graph();
            assert_eq!(bfs::diameter(g), Some(2), "q={q}");
            for u in g.vertices() {
                for v in u + 1..g.num_vertices() {
                    let paths = bfs::count_two_paths(g, u, v);
                    assert!(paths <= 1, "q={q}: {paths} two-paths between {u},{v}");
                    if !g.has_edge(u, v) {
                        assert_eq!(paths, 1, "q={q}: non-adjacent {u},{v} need a 2-path");
                    }
                }
            }
        }
    }

    /// `ER_q` by testing every pair of points for orthogonality.
    fn graph_by_scan(pf: &PolarFly) -> Graph {
        let gf = pf.field();
        let n = pf.num_vertices() as u32;
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if gf.dot3(pf.point(u), pf.point(v)) == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn polar_lines_build_the_orthogonality_scan_graph() {
        // Equal edge lists mean the same `add_edge` calls in the same
        // order, so the edge ids and the adjacency lists' capacities match
        // too.
        for q in pf_galois::prime_powers_in(2, 32) {
            let pf = PolarFly::new(q);
            let scan = graph_by_scan(&pf);
            let g = pf.graph();
            assert!(g.edges().eq(scan.edges()), "q={q}: edge lists differ");
            for u in g.vertices() {
                assert_eq!(g.neighbors_with_edges(u), scan.neighbors_with_edges(u), "q={q} u={u}");
            }
        }
    }

    #[test]
    fn orthogonality_is_edge_predicate() {
        let pf = PolarFly::new(5);
        let g = pf.graph();
        let gf = pf.field();
        for u in g.vertices() {
            for v in u + 1..g.num_vertices() {
                let dot = gf.dot3(pf.point(u), pf.point(v));
                assert_eq!(g.has_edge(u, v), dot == 0);
            }
        }
    }

    #[test]
    fn points_are_left_normalized_and_distinct() {
        let pf = PolarFly::new(7);
        let mut seen = std::collections::HashSet::new();
        for v in pf.graph().vertices() {
            let p = pf.point(v);
            let lead = p.iter().find(|&&c| c != 0).copied();
            assert_eq!(lead, Some(1), "leading nonzero coordinate must be 1");
            assert!(seen.insert(p), "duplicate point {p:?}");
        }
    }

    #[test]
    fn vertex_lookup_handles_scaling() {
        let pf = PolarFly::new(5);
        let gf = pf.field();
        // [2, 4, 1] normalizes to [1, 2, 3] (multiply by inv(2) = 3).
        let direct = pf.vertex_of([1, 2, 3]).unwrap();
        let scaled = pf.vertex_of([2, 4, 1]).unwrap();
        assert_eq!(direct, scaled);
        assert_eq!(pf.vertex_of([0, 0, 0]), None);
        // Scaling by every nonzero constant maps to the same vertex.
        for c in 1..gf.order() {
            let v = [gf.mul(c, 1), gf.mul(c, 2), gf.mul(c, 3)];
            assert_eq!(pf.vertex_of(v), Some(direct));
        }
    }

    #[test]
    fn connectivity() {
        for q in [3u64, 4, 8, 9] {
            assert!(bfs::is_connected(PolarFly::new(q).graph()), "q={q}");
        }
    }

    #[test]
    fn even_q_also_constructs() {
        // Even prime powers build fine (layout is what's odd-only).
        let pf = PolarFly::new(8);
        assert_eq!(pf.num_vertices(), 73);
        assert_eq!(pf.quadrics().len(), 9);
    }

    #[test]
    #[should_panic(expected = "prime power")]
    fn rejects_non_prime_power() {
        PolarFly::new(6);
    }
}
