//! Singer difference-set construction of PolarFly (paper §6.2).
//!
//! Vertices are residues of `Z_N`, `N = q^2 + q + 1`; `{i, j}` is an edge
//! iff `(i + j) mod N` lies in the Singer difference set `D`. Each edge
//! carries its *edge sum* (Definition 6.4) — an element of `D` acting as an
//! edge color; *reflection points* (`i` with `2i mod N ∈ D`, Definition
//! 6.5) carry self-loops and correspond to the quadrics of `ER_q`
//! (Corollary 6.8).

use pf_galois::{CubicExt, Gf};
use pf_graph::{EdgeId, Graph, VertexId};

/// The Singer graph `S_q` with its difference set and edge coloring.
#[derive(Debug, Clone)]
pub struct Singer {
    q: u64,
    n: u64,
    dset: Vec<u64>,
    graph: Graph,
    reflection: Vec<bool>,
    edge_sum: Vec<u64>,
}

impl Singer {
    /// Builds `S_q` from the canonical difference set (lexicographically
    /// smallest primitive cubic; see [`pf_galois::CubicExt`]). Panics if
    /// `q` is not a prime power.
    ///
    /// ```
    /// use pf_topo::Singer;
    /// let s = Singer::new(4);
    /// assert_eq!(s.difference_set(), &[0, 1, 4, 14, 16]); // paper Fig. 2b
    /// assert_eq!(s.reflection_points(), vec![0, 2, 7, 8, 11]);
    /// ```
    pub fn new(q: u64) -> Self {
        let gf = Gf::new(q).unwrap_or_else(|e| panic!("S_q needs a prime power: {e}"));
        let ext = CubicExt::new(gf);
        let dset = ext.singer_exponents();
        Self::from_difference_set(q, dset).expect("canonical Singer set is perfect")
    }

    /// Builds `S_q` from an explicit difference set, validating the perfect
    /// difference-set property first. Errors when `N = q² + q + 1` does not
    /// fit a [`VertexId`], or when `D` is not a perfect difference set of
    /// `Z_N` (an empty `D` included).
    pub fn from_difference_set(q: u64, mut dset: Vec<u64>) -> Result<Self, String> {
        let n = q
            .checked_mul(q)
            .and_then(|qq| qq.checked_add(q + 1))
            .filter(|&n| n <= u64::from(VertexId::MAX))
            .ok_or_else(|| format!("q = {q} gives more than {} vertices", VertexId::MAX))?;
        dset.sort_unstable();
        dset.dedup();
        verify_difference_set(&dset, n)?;

        let in_d = {
            let mut v = vec![false; n as usize];
            for &d in &dset {
                v[d as usize] = true;
            }
            v
        };
        // O(N·|D|): each edge {i, (d - i) mod N} with i < partner.
        let mut edges = Vec::new();
        let mut edge_sum = Vec::new();
        for i in 0..n {
            for &d in &dset {
                let j = (d + n - i % n) % n;
                if j > i {
                    debug_assert!(in_d[((i + j) % n) as usize]);
                    edges.push((i as VertexId, j as VertexId));
                    edge_sum.push(d);
                }
            }
        }
        let graph = Graph::from_edges(n as u32, edges);
        let reflection: Vec<bool> =
            (0..n).map(|i| in_d[((2 * i) % n) as usize]).collect();
        Ok(Singer { q, n, dset, graph, reflection, edge_sum })
    }

    /// Field order `q`.
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Graph order `N = q^2 + q + 1`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The sorted difference set `D`.
    pub fn difference_set(&self) -> &[u64] {
        &self.dset
    }

    /// The underlying simple graph (self-loops of reflection points are
    /// tracked separately, matching PolarFly's practice of ignoring them).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether `v` is a reflection point (`2v mod N ∈ D`).
    #[inline]
    pub fn is_reflection(&self, v: VertexId) -> bool {
        self.reflection[v as usize]
    }

    /// All reflection points, sorted. There are exactly `q + 1` — one per
    /// difference-set element (Corollary 6.8).
    pub fn reflection_points(&self) -> Vec<VertexId> {
        (0..self.n as VertexId).filter(|&v| self.reflection[v as usize]).collect()
    }

    /// The reflection point carrying the self-loop of color `d`:
    /// `2^{-1}·d mod N` (Corollary 6.8). Panics if `d ∉ D`.
    pub fn reflection_of(&self, d: u64) -> VertexId {
        assert!(self.dset.contains(&d), "{d} is not in the difference set");
        (pf_galois::zmod::half_mod(self.n) as u128 * d as u128 % self.n as u128) as VertexId
    }

    /// The edge sum (color) of edge `e` — an element of `D`.
    #[inline]
    pub fn edge_sum(&self, e: EdgeId) -> u64 {
        self.edge_sum[e as usize]
    }

    /// All edges of a given color `d ∈ D`, as edge ids.
    pub fn edges_of_color(&self, d: u64) -> Vec<EdgeId> {
        (0..self.graph.num_edges())
            .filter(|&e| self.edge_sum[e as usize] == d)
            .collect()
    }
}

/// Checks the perfect difference-set property (Definition 6.2): `|D| = q+1`
/// elements of `Z_N` whose pairwise ordered differences hit every nonzero
/// residue exactly once.
pub fn verify_difference_set(dset: &[u64], n: u64) -> Result<(), String> {
    if dset.is_empty() || n == 0 {
        return Err(format!("|D| = {} cannot be a perfect difference set of Z_{n}", dset.len()));
    }
    let k = dset.len() as u64;
    if k.checked_mul(k - 1) != Some(n - 1) {
        return Err(format!(
            "|D| = {k} gives {} ordered differences; Z_{n} needs {}",
            k * (k - 1),
            n - 1
        ));
    }
    if let Some(&d) = dset.iter().find(|&&d| d >= n) {
        return Err(format!("element {d} out of Z_{n}"));
    }
    let mut seen = vec![false; n as usize];
    for &di in dset {
        for &dj in dset {
            if di == dj {
                continue;
            }
            let diff = ((di + n - dj) % n) as usize;
            if diff == 0 || seen[diff] {
                return Err(format!("difference {diff} repeated (from {di} - {dj})"));
            }
            seen[diff] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::bfs;

    #[test]
    fn q3_matches_paper_figure2a() {
        let s = Singer::new(3);
        assert_eq!(s.difference_set(), &[0, 1, 3, 9]);
        assert_eq!(s.reflection_points(), vec![0, 7, 8, 11]);
        assert_eq!(s.n(), 13);
    }

    #[test]
    fn q4_matches_paper_figure2b() {
        let s = Singer::new(4);
        assert_eq!(s.difference_set(), &[0, 1, 4, 14, 16]);
        assert_eq!(s.reflection_points(), vec![0, 2, 7, 8, 11]);
        assert_eq!(s.n(), 21);
    }

    #[test]
    fn structure_matches_er_counts() {
        for q in [3u64, 4, 5, 7, 8, 9] {
            let s = Singer::new(q);
            let n = q * q + q + 1;
            assert_eq!(s.graph().num_vertices() as u64, n);
            assert_eq!(s.graph().num_edges() as u64, q * (q + 1) * (q + 1) / 2, "q={q}");
            assert_eq!(s.reflection_points().len() as u64, q + 1, "q={q}");
            // Reflection points have degree q; the rest q + 1.
            for v in s.graph().vertices() {
                let expect = if s.is_reflection(v) { q } else { q + 1 };
                assert_eq!(s.graph().degree(v) as u64, expect, "q={q} v={v}");
            }
            assert_eq!(bfs::diameter(s.graph()), Some(2), "q={q}");
        }
    }

    #[test]
    fn reflection_of_matches_halving() {
        for q in [3u64, 4, 5, 7] {
            let s = Singer::new(q);
            let mut rps: Vec<VertexId> =
                s.difference_set().iter().map(|&d| s.reflection_of(d)).collect();
            rps.sort_unstable();
            assert_eq!(rps, s.reflection_points(), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the difference set")]
    fn reflection_of_rejects_non_member() {
        Singer::new(3).reflection_of(2);
    }

    #[test]
    fn edge_sums_partition_edges() {
        let s = Singer::new(4);
        let total: usize = s.difference_set().iter().map(|&d| s.edges_of_color(d).len()).sum();
        assert_eq!(total as u32, s.graph().num_edges());
        // Each color class: (N - 1) / 2 edges (pairs {i, d - i}), i.e. the
        // color's perfect matching minus the self-loop at the reflection point.
        for &d in s.difference_set() {
            assert_eq!(s.edges_of_color(d).len() as u64, (s.n() - 1) / 2, "color {d}");
        }
        // And colors agree with the definition.
        for (e, u, v) in s.graph().edges() {
            assert_eq!(s.edge_sum(e), (u as u64 + v as u64) % s.n());
        }
    }

    #[test]
    fn color_classes_are_matchings() {
        // Edges of one color pair up vertices {i, d-i}: no vertex repeats.
        let s = Singer::new(5);
        for &d in s.difference_set() {
            let mut seen = std::collections::HashSet::new();
            for e in s.edges_of_color(d) {
                let (u, v) = s.graph().endpoints(e);
                assert!(seen.insert(u), "color {d}: vertex {u} repeated");
                assert!(seen.insert(v), "color {d}: vertex {v} repeated");
            }
        }
    }

    #[test]
    fn from_difference_set_rejects_bad_sets() {
        assert!(Singer::from_difference_set(3, vec![0, 1, 2, 3]).is_err()); // not perfect
        assert!(Singer::from_difference_set(3, vec![0, 1, 3]).is_err()); // wrong size
        assert!(Singer::from_difference_set(3, vec![0, 1, 3, 13]).is_err()); // out of range
    }

    #[test]
    fn from_difference_set_rejects_empty_sets() {
        // With k = |D| = 0, k·(k − 1) underflows: a panic in debug, and a
        // one-vertex "Singer graph" for q = 0 in release.
        for q in [0u64, 1, 2, 3] {
            assert!(Singer::from_difference_set(q, vec![]).is_err(), "q={q}");
        }
        assert!(verify_difference_set(&[], 7).is_err());
        assert!(verify_difference_set(&[0], 0).is_err());
    }

    #[test]
    fn from_difference_set_rejects_orders_past_vertex_ids() {
        // N = q² + q + 1 must fit a VertexId: 65 535 is the largest such q.
        // The check comes before any allocation, so these fail fast.
        for q in [65_536u64, 1 << 32, u64::MAX] {
            let err = Singer::from_difference_set(q, vec![0, 1]).unwrap_err();
            assert!(err.contains("vertices"), "q={q}: {err}");
        }
        let err = Singer::from_difference_set(65_535, vec![0, 1]).unwrap_err();
        assert!(err.contains("|D| = 2"), "{err}");
    }

    #[test]
    fn translated_difference_set_also_works() {
        // Difference sets are translation-invariant: D + c is also perfect.
        let base = Singer::new(3);
        let shifted: Vec<u64> =
            base.difference_set().iter().map(|&d| (d + 5) % 13).collect();
        let s = Singer::from_difference_set(3, shifted).unwrap();
        assert_eq!(s.graph().num_edges(), base.graph().num_edges());
    }
}
