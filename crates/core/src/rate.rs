//! Exact allreduce rate upper bounds for arbitrary substrates.
//!
//! *On the Computation Rate of All-Reduce* (PAPERS.md) studies how fast an
//! allreduce can possibly run on a given capacitated network, independent
//! of any particular schedule. Specialized to this repo's model — unit
//! full-duplex links, one spanning-tree set per plan, Algorithm 1
//! water-filling — two information-style cut arguments cap the aggregate
//! rate `Σ B_i` of *any* tree set:
//!
//! * **edge budget** (tree-packing / Nash–Williams shape): every spanning
//!   tree uses at least `n − 1` of the `|E|` unit links and no link can
//!   carry more than unit load in total, so `Σ B_i ≤ |E| / (n − 1)`;
//! * **global min cut** (cut-set shape): every spanning tree crosses every
//!   vertex cut `(S, V∖S)` at least once, and the cut's `|∂S|` links carry
//!   at most `|∂S|` total load, so `Σ B_i ≤ |∂S|` for every cut — i.e.
//!   `Σ B_i ≤ λ(G)`, the edge connectivity. Minimizing over singleton cuts
//!   gives the familiar `δ_min`; the full min cut is never weaker and is
//!   strictly stronger on graphs with a sparse bottleneck that no single
//!   vertex sees (see `lopsided_barbell_cut_beats_the_degree_bound`).
//!
//! [`allreduce_rate_bound`] computes `min` of the two in exact rationals
//! ([`Rational`]) via an exact min cut ([`global_min_cut`]): `δ_min` on a
//! graph of diameter at most 2, where it equals `λ(G)` (Plesník), and
//! contraction everywhere else. Since `λ(G) ≤ δ_min`, it is never above
//! the degree-based `min(|E|/(n−1), δ_min)`, and it is the one
//! aggregate-bandwidth ceiling the repo asserts.
//!
//! Known substrate families have closed forms ([`polarfly_bound`],
//! [`torus_bound`], [`hypercube_bound`], [`complete_bound`]); the property
//! harness asserts the generic computation reproduces each of them, and
//! `tests/paper_claims.rs` holds `achieved ≤ bound` as a standing
//! invariant for every construction backend × catalog substrate. On
//! PolarFly the generic bound lands *exactly* on the Corollary 7.1 optimum
//! `(q + 1)/2` — so the paper's edge-disjoint Hamiltonian plans are
//! certified rate-optimal ([`RateBound::gap`] = 1), and the audit prices
//! how close every other construction comes. Degenerate substrates are
//! typed [`RateError`]s, never a bogus bound.

use crate::rational::Rational;
use pf_graph::dsu::Dsu;
use pf_graph::{bfs, Graph};

/// Why a rate bound could not be computed. Mirrors the degenerate cases of
/// [`crate::construction::ConstructError`]: where no plan can exist, no
/// finite positive bound exists either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateError {
    /// The graph has no vertices.
    EmptyGraph,
    /// A single vertex: the collective is a no-op — there is no link whose
    /// rate the bound could cap, and reporting `0` (or `∞`) would poison
    /// `achieved ≤ bound` comparisons.
    SingleVertex,
    /// No spanning tree exists, so no allreduce plan and no meaningful
    /// rate: the min cut is 0 and the bound would be vacuous.
    Disconnected {
        /// Number of connected components.
        components: u32,
    },
}

impl std::fmt::Display for RateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateError::EmptyGraph => write!(f, "rate bound undefined: graph has no vertices"),
            RateError::SingleVertex => {
                write!(f, "rate bound undefined: single vertex, no links to bound")
            }
            RateError::Disconnected { components } => {
                write!(f, "rate bound undefined: graph is disconnected ({components} components)")
            }
        }
    }
}

impl std::error::Error for RateError {}

/// Which of the two arguments binds the final bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateLimiter {
    /// `|E| / (n − 1)` — the network runs out of total link budget before
    /// any single cut saturates.
    EdgeBudget,
    /// `λ(G)` — a sparsest cut saturates first.
    MinCut,
}

/// The exact allreduce rate upper bound for one substrate, with both
/// constituent terms kept for reporting (the `topo-compare` table and
/// `docs/RATES.md` print them side by side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateBound {
    /// The edge-budget term `|E| / (n − 1)`.
    pub edge_budget: Rational,
    /// The global min cut `λ(G)` (unit capacities).
    pub min_cut: u64,
    /// Minimum degree `δ_min` — the singleton-cut relaxation, kept so
    /// reports can show when the true min cut tightens it.
    pub min_degree: u32,
    /// `min(edge_budget, min_cut)` — the bound every plan must respect.
    pub bound: Rational,
}

impl RateBound {
    /// Which term binds ([`RateLimiter::EdgeBudget`] on ties — the edge
    /// budget is the generic Nash–Williams-shape argument, so ties report
    /// the structure-blind reason).
    #[must_use]
    pub fn limiter(&self) -> RateLimiter {
        if self.edge_budget <= Rational::from_int(self.min_cut as i64) {
            RateLimiter::EdgeBudget
        } else {
            RateLimiter::MinCut
        }
    }

    /// `true` iff `achieved` respects this bound — the standing invariant,
    /// in exact rationals.
    #[must_use]
    pub fn certifies(&self, achieved: Rational) -> bool {
        achieved <= self.bound
    }

    /// The optimality gap `achieved / bound ∈ [0, 1]` as an exact
    /// rational (1 means the plan is certified rate-optimal). Callers
    /// wanting a float rendering use [`Rational::to_f64`] on the result.
    #[must_use]
    pub fn gap(&self, achieved: Rational) -> Rational {
        assert!(self.bound.is_positive(), "a connected substrate has a positive bound");
        achieved / self.bound
    }
}

/// The exact rate upper bound `min(|E|/(n−1), λ(G))` for `g`, or a typed
/// [`RateError`] on degenerate substrates (empty, single-vertex,
/// disconnected).
pub fn allreduce_rate_bound(g: &Graph) -> Result<RateBound, RateError> {
    match g.num_vertices() {
        0 => return Err(RateError::EmptyGraph),
        1 => return Err(RateError::SingleVertex),
        _ => {}
    }
    let (_, components) = bfs::connected_components(g);
    if components != 1 {
        return Err(RateError::Disconnected { components });
    }
    let n = g.num_vertices() as i64;
    let edge_budget = Rational::new(g.num_edges() as i64, n - 1);
    let min_cut = global_min_cut(g);
    let bound = edge_budget.min(Rational::from_int(min_cut as i64));
    Ok(RateBound { edge_budget, min_cut, min_degree: g.min_degree(), bound })
}

/// Global minimum edge cut `λ(G)` of a connected graph with unit
/// capacities (exact integer arithmetic).
///
/// A graph of diameter at most 2 has `λ(G) = δ_min` (J. Plesník, 1975),
/// and PolarFly `ER_q` has diameter 2 (§6), so such a graph gets `δ_min`
/// with no contraction: a cut of `k < δ_min` edges leaves more than
/// `δ_min` vertices on each side, so each side has a vertex with no
/// neighbour across it, and those two are at distance at least 3
/// (`docs/RATES.md` spells out the proof). The diameter check
/// ([`bfs::diameter_at_most_two`]) runs only where the Moore bound
/// `n ≤ Δ_max² + 1` admits diameter 2, so a sparse graph skips it in
/// O(n). Every other graph takes Nagamochi–Ono–Ibaraki contraction
/// (`contraction_min_cut`), the only exact path there.
///
/// Callers must hand in a connected graph with at least two vertices
/// (checked by [`allreduce_rate_bound`]); on a disconnected graph the
/// result is 0, which this module treats as an error upstream.
#[must_use]
pub fn global_min_cut(g: &Graph) -> u64 {
    assert!(g.num_vertices() >= 2, "min cut needs at least two vertices");
    certified_min_cut(g).unwrap_or_else(|| contraction_min_cut(g))
}

/// `δ_min`, which is `λ(G)`, when `g` has diameter at most 2; `None`
/// otherwise, including on every graph the Moore bound rules out.
fn certified_min_cut(g: &Graph) -> Option<u64> {
    let (n, dmax) = (u64::from(g.num_vertices()), u64::from(g.max_degree()));
    (n <= dmax * dmax + 1 && bfs::diameter_at_most_two(g)).then(|| u64::from(g.min_degree()))
}

/// `λ(G)` by Nagamochi–Ono–Ibaraki contraction over sparse adjacency
/// lists: the exact path for graphs [`global_min_cut`] cannot certify.
///
/// `λ̂` starts at `δ_min` and only ever holds the value of a real cut.
/// Each round runs one maximum-adjacency scan over a bucket queue capped
/// at `λ̂`; an edge `{x, y}` whose tightness at scan time reaches `λ̂` has
/// `λ(x, y) ≥ λ̂`, so contracting it loses no cut below `λ̂`. The round
/// contracts every such edge plus the scan's last pair (Stoer–Wagner:
/// `λ(s, t)` is at least the last vertex's weighted degree, capped at
/// `λ̂`), rebuilds the contracted multigraph and lowers `λ̂` to its
/// minimum weighted degree. A round costs O(m + n) for the scan plus an
/// O(m log m) sort to merge parallel edges; the last pair bounds the
/// rounds by `n − 1`, and in practice far fewer run (102 on PolarFly
/// `ER_31`, `n = 993`, which [`global_min_cut`] certifies without
/// contracting). The result is the exact `λ(G)`, so it does not depend on
/// how the scan breaks ties. Returns 0 on a disconnected graph.
fn contraction_min_cut(g: &Graph) -> u64 {
    let mut n = g.num_vertices();
    assert!(n >= 2, "min cut needs at least two vertices");
    let mut edges: Vec<(u32, u32, u64)> = g.edges().map(|(_, u, v)| (u, v, 1)).collect();
    // The first round lowers this to δ_min.
    let mut best = u64::MAX;
    while n > 1 {
        let adj = Multigraph::new(n, &edges);
        best = best.min((0..n).map(|v| adj.weighted_degree(v)).min().unwrap_or(0));
        let Some(mut merged) = adj.certified_pairs(best) else {
            return 0;
        };
        (n, edges) = contract(n, &edges, &mut merged);
    }
    best
}

/// A weighted multigraph in compressed adjacency form: vertex `v`'s
/// `(neighbor, weight)` pairs are `adj[start[v]..start[v + 1]]`.
struct Multigraph {
    start: Vec<usize>,
    adj: Vec<(u32, u64)>,
}

impl Multigraph {
    /// Adjacency of the simple weighted graph on `0..n` with `edges`
    /// (`u < v`, no duplicates).
    fn new(n: u32, edges: &[(u32, u32, u64)]) -> Self {
        let mut start = vec![0usize; n as usize + 1];
        for &(u, v, _) in edges {
            start[u as usize + 1] += 1;
            start[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![(0, 0); 2 * edges.len()];
        for &(u, v, w) in edges {
            adj[fill[u as usize]] = (v, w);
            fill[u as usize] += 1;
            adj[fill[v as usize]] = (u, w);
            fill[v as usize] += 1;
        }
        Multigraph { start, adj }
    }

    fn neighbors(&self, v: u32) -> &[(u32, u64)] {
        &self.adj[self.start[v as usize]..self.start[v as usize + 1]]
    }

    fn weighted_degree(&self, v: u32) -> u64 {
        self.neighbors(v).iter().map(|&(_, w)| w).sum()
    }

    /// One maximum-adjacency scan from vertex 0 with tightness capped at
    /// `bound`. Returns the pairs it certifies `λ(x, y) ≥ bound` for —
    /// every edge whose scan-time tightness reaches `bound`, plus the last
    /// pair — merged in a union-find, or `None` if the scan cannot reach
    /// every vertex (the graph is disconnected). `bound` must not exceed
    /// the minimum weighted degree, so that the last pair qualifies.
    ///
    /// Capping keeps both certificates: the Stoer–Wagner induction over
    /// a cut's active vertices only needs each pick to maximize
    /// `min(r(v), bound)`, and restricted to the scanned prefix plus one
    /// unscanned `y` it gives `λ(x, y) ≥ min(r(y), bound)` for the vertex
    /// `x` scanned last.
    fn certified_pairs(&self, bound: u64) -> Option<Dsu> {
        let n = self.start.len() as u32 - 1;
        let cap = bound as usize;
        // Bucket queue over capped tightness `0..=cap`. Every increase
        // files a fresh entry in a higher bucket, so a vertex's current
        // entry is popped before its stale ones, which then find it
        // scanned.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cap + 1];
        buckets[0].push(0);
        let mut top = 0;
        let mut tightness = vec![0u64; n as usize];
        let mut scanned = vec![false; n as usize];
        let mut merged = Dsu::new(n);
        let (mut prev, mut last, mut count) = (0, 0, 0);
        loop {
            let Some(x) = buckets[top].pop() else {
                if top == 0 {
                    break;
                }
                top -= 1;
                continue;
            };
            if scanned[x as usize] {
                continue;
            }
            scanned[x as usize] = true;
            (prev, last, count) = (last, x, count + 1);
            for &(y, w) in self.neighbors(x) {
                if scanned[y as usize] {
                    continue;
                }
                let r = &mut tightness[y as usize];
                let before = (*r).min(bound);
                *r += w;
                if *r >= bound {
                    merged.union(x, y);
                }
                let after = (*r).min(bound);
                if after > before {
                    buckets[after as usize].push(y);
                    top = top.max(after as usize);
                }
            }
        }
        if count < n {
            return None;
        }
        merged.union(prev, last);
        Some(merged)
    }
}

/// Contracts each set of `merged` to one vertex, numbered in order of its
/// lowest member; parallel edges merge by summing weights and edges inside
/// a set vanish. Returns the new vertex count and edge list.
fn contract(n: u32, edges: &[(u32, u32, u64)], merged: &mut Dsu) -> (u32, Vec<(u32, u32, u64)>) {
    let mut label = vec![u32::MAX; n as usize];
    let mut next = 0;
    let new_id: Vec<u32> = (0..n)
        .map(|v| {
            let r = merged.find(v) as usize;
            if label[r] == u32::MAX {
                label[r] = next;
                next += 1;
            }
            label[r]
        })
        .collect();
    let mut out: Vec<(u32, u32, u64)> = edges
        .iter()
        .filter_map(|&(u, v, w)| {
            let (a, b) = (new_id[u as usize], new_id[v as usize]);
            (a != b).then(|| (a.min(b), a.max(b), w))
        })
        .collect();
    out.sort_unstable_by_key(|&(a, b, _)| (a, b));
    out.dedup_by(|cur, kept| {
        let same = (cur.0, cur.1) == (kept.0, kept.1);
        if same {
            kept.2 += cur.2;
        }
        same
    });
    (next, out)
}

/// Closed form for PolarFly `ER_q`: the Corollary 7.1 optimum
/// `(q + 1)/2`. The edge budget `|E|/(n−1) = q(q+1)²/2 / (q² + q)` reduces
/// to exactly this, and the min cut `λ = q` (the quadric degree) sits
/// above it, so the generic computation reproduces the paper's bound —
/// asserted in the harness. The Singer labeling `S_q` is isomorphic
/// (Theorem 6.6), so the same closed form covers both catalogs.
#[must_use]
pub fn polarfly_bound(q: u64) -> Rational {
    Rational::new(q as i64 + 1, 2)
}

/// Closed form for the `d`-cube (`d ≥ 1`): `d·2^(d−1) / (2^d − 1)` — the
/// edge budget, which sits strictly below the min cut `λ = d`.
#[must_use]
pub fn hypercube_bound(d: u32) -> Rational {
    assert!((1..63).contains(&d), "hypercube dimension out of range");
    Rational::new_i128((d as i128) << (d - 1), (1i128 << d) - 1)
}

/// Closed form for the complete graph `K_n` (`n ≥ 2`): `n/2` — the edge
/// budget `n(n−1)/2 / (n−1)`; the min cut `λ = n − 1` only binds at
/// `n = 2`, where both terms equal 1 (= 2/2, so one formula covers all n).
#[must_use]
pub fn complete_bound(n: u32) -> Rational {
    assert!(n >= 2, "K_n needs n >= 2");
    Rational::new(n as i64, 2)
}

/// Closed form for the torus with the given extents (each `≥ 3`, matching
/// [`pf_topo::torus::Torus`]): `k·n / (n − 1)` for `k` dimensions and
/// `n = ∏ extents` vertices — the edge budget (`|E| = k·n`), strictly
/// below the min cut `λ = 2k` whenever `n > 2`.
#[must_use]
pub fn torus_bound(dims: &[u32]) -> Rational {
    assert!(!dims.is_empty() && dims.iter().all(|&k| k >= 3), "extents must be >= 3");
    let n: i64 = dims.iter().map(|&k| k as i64).product();
    Rational::new(dims.len() as i64 * n, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::builders;
    use proptest::prelude::*;

    /// Reference for [`global_min_cut`]: dense O(n³) Stoer–Wagner over a
    /// weight matrix of merged super-vertices.
    fn stoer_wagner_oracle(g: &Graph) -> u64 {
        let n = g.num_vertices() as usize;
        assert!(n >= 2, "min cut needs at least two vertices");
        let mut w = vec![vec![0u64; n]; n];
        for (_, u, v) in g.edges() {
            w[u as usize][v as usize] += 1;
            w[v as usize][u as usize] += 1;
        }
        let mut vertices: Vec<usize> = (0..n).collect();
        let mut best = u64::MAX;
        while vertices.len() > 1 {
            let m = vertices.len();
            // One minimum-cut phase: grow A from the first active vertex,
            // always adding the most tightly connected remaining vertex.
            let mut added = vec![false; m];
            let mut tightness = vec![0u64; m];
            let mut order = Vec::with_capacity(m);
            for _ in 0..m {
                let mut sel = usize::MAX;
                for i in 0..m {
                    if !added[i] && (sel == usize::MAX || tightness[i] > tightness[sel]) {
                        sel = i;
                    }
                }
                added[sel] = true;
                order.push(sel);
                for i in 0..m {
                    if !added[i] {
                        tightness[i] += w[vertices[sel]][vertices[i]];
                    }
                }
            }
            // The phase cut isolates the last-added vertex `t`; merge `t`
            // into the second-to-last `s`.
            let (s_i, t_i) = (order[m - 2], order[m - 1]);
            best = best.min(tightness[t_i]);
            let (s, t) = (vertices[s_i], vertices[t_i]);
            for &v in &vertices {
                if v != s && v != t {
                    w[s][v] += w[t][v];
                    w[v][s] = w[s][v];
                }
            }
            vertices.remove(t_i);
        }
        best
    }

    /// Two `K_half` cliques joined by `k` disjoint bridges (`k ≤ half`).
    fn barbell(half: u32, k: u32) -> Graph {
        let mut g = Graph::new(2 * half);
        for side in [0, half] {
            for u in side..side + half {
                for v in u + 1..side + half {
                    g.add_edge(u, v);
                }
            }
        }
        for i in 0..k {
            g.add_edge(i, half + i);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn min_cut_matches_the_stoer_wagner_oracle_on_random_graphs(
            n in 2u32..48,
            density in 0u32..8,
            seed in any::<u64>(),
        ) {
            let g = crate::substrates::erdos_renyi_connected(n, density * n / 2, seed);
            prop_assert_eq!(global_min_cut(&g), stoer_wagner_oracle(&g));
        }
    }

    #[test]
    fn min_cut_matches_the_stoer_wagner_oracle_on_structured_graphs() {
        let mut graphs: Vec<(String, Graph)> = Vec::new();
        for half in [3u32, 5, 8] {
            for k in 1..=3 {
                graphs.push((format!("barbell-{half}-{k}"), barbell(half, k)));
            }
            graphs.push((format!("bridged-k{half}"), crate::substrates::bridged_cliques(half)));
        }
        for n in [2u32, 3, 7, 16] {
            graphs.push((format!("path-{n}"), builders::path(n)));
            graphs.push((format!("star-{n}"), builders::star(n)));
        }
        for n in [3u32, 4, 9] {
            graphs.push((format!("cycle-{n}"), builders::cycle(n)));
        }
        for s in crate::substrates::quick_catalog() {
            graphs.push((s.name, s.graph));
        }
        for (name, g) in &graphs {
            assert_eq!(global_min_cut(g), stoer_wagner_oracle(g), "{name}");
        }
    }

    /// The labelled graph on `n` vertices whose edges are the pairs
    /// `u < v` selected by `mask`, one bit per pair in lexicographic order.
    fn labelled_graph(n: u32, mask: u32) -> Graph {
        let mut g = Graph::new(n);
        let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
        for (bit, (u, v)) in pairs.enumerate() {
            if mask >> bit & 1 == 1 {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Every set partition of `0..n` as a restricted growth string
    /// (`a[0] = 0`, `a[i] ≤ 1 + max a[..i]`), given as its part count and
    /// the mask of vertex pairs it separates, in [`labelled_graph`]'s bit
    /// order.
    fn set_partitions(n: u32) -> Vec<(u32, u32)> {
        let n = n as usize;
        let mut a = vec![0u32; n];
        let mut out = Vec::new();
        loop {
            let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
            let separated = pairs
                .enumerate()
                .filter(|&(_, (u, v))| a[u] != a[v])
                .fold(0u32, |m, (bit, _)| m | 1 << bit);
            out.push((a.iter().max().map_or(0, |&p| p + 1), separated));
            // The next string: bump the last position that may grow and
            // zero the tail behind it.
            let Some(i) = (1..n).rev().find(|&i| a[i] <= *a[..i].iter().max().unwrap()) else {
                return out;
            };
            a[i] += 1;
            a[i + 1..].fill(0);
        }
    }

    /// The graph strength σ(G) = min over partitions P with |P| ≥ 2 of
    /// |δ(P)| / (|P| − 1), by brute force over `partitions` (those of
    /// [`set_partitions`]): the fractional tree-packing number.
    fn strength(mask: u32, partitions: &[(u32, u32)]) -> Rational {
        let (cut, parts) = partitions
            .iter()
            .filter(|&&(parts, _)| parts >= 2)
            .map(|&(parts, separated)| ((mask & separated).count_ones(), parts - 1))
            .min_by(|&(c1, p1), &(c2, p2)| (c1 * p2).cmp(&(c2 * p1)))
            .expect("n >= 2 has a two-part partition");
        Rational::new(cut as i64, parts as i64)
    }

    #[test]
    fn every_graph_on_two_to_six_vertices() {
        // (n, graphs, connected, certified, bound above σ) per vertex count.
        let mut counts = Vec::new();
        for n in 2u32..=6 {
            let (mut connected, mut certified, mut gaps) = (0u32, 0u32, 0u32);
            let partitions = set_partitions(n);
            let graphs = 1u32 << (n * (n - 1) / 2);
            for mask in 0..graphs {
                let g = labelled_graph(n, mask);
                let case = format!("n={n} edges={mask:#x}");
                let lambda = stoer_wagner_oracle(&g);
                assert_eq!(global_min_cut(&g), lambda, "{case}");
                let diameter_two = matches!(bfs::diameter(&g), Some(d) if d <= 2);
                assert_eq!(certified_min_cut(&g).is_some(), diameter_two, "{case}");
                certified += u32::from(diameter_two);
                let mut dsu = Dsu::new(n);
                for (_, u, v) in g.edges() {
                    dsu.union(u, v);
                }
                let components = dsu.components();
                match allreduce_rate_bound(&g) {
                    Ok(b) => {
                        assert_eq!(components, 1, "{case}");
                        assert_eq!(contraction_min_cut(&g), lambda, "{case}");
                        assert_eq!((b.min_cut, b.min_degree), (lambda, g.min_degree()), "{case}");
                        assert_eq!(b.bound, b.edge_budget.min(Rational::from_int(lambda as i64)));
                        let sigma = strength(mask, &partitions);
                        assert!(b.bound >= sigma, "{case}: bound {} below σ = {sigma}", b.bound);
                        gaps += u32::from(b.bound > sigma);
                        connected += 1;
                    }
                    Err(e) => {
                        assert!(components > 1, "{case}: {e}");
                        assert_eq!(e, RateError::Disconnected { components }, "{case}");
                    }
                }
            }
            counts.push((n, graphs, connected, certified, gaps));
            // Bell numbers: every set partition, once.
            assert_eq!(partitions.len(), [2, 5, 15, 52, 203][n as usize - 2]);
        }
        assert_eq!(allreduce_rate_bound(&Graph::new(1)), Err(RateError::SingleVertex));
        for (n, graphs, connected, certified, gaps) in &counts {
            println!(
                "n={n}: {graphs} graphs, {connected} connected, {certified} of diameter <= 2, \
                 {gaps} with bound > σ"
            );
        }
        let total: u32 = counts.iter().map(|c| c.1).sum();
        println!("{total} graphs on 2-6 vertices");
        assert_eq!(total, 33_866);
        // Connected labelled graphs on 2..6 vertices (OEIS A001187).
        let connected: Vec<u32> = counts.iter().map(|c| c.2).collect();
        assert_eq!(connected, [1, 4, 38, 728, 26_704]);
        // The first strict gaps between the bound and σ appear at n = 6.
        let gaps: Vec<u32> = counts.iter().map(|c| c.4).collect();
        assert_eq!(gaps, [0, 0, 0, 0, 2_220]);
    }

    #[test]
    fn contraction_finds_lambda_q_on_polarfly() {
        // The certificate answers for ER_q and S_q; contraction must still
        // get λ = q (the quadric degree) on them by itself.
        for q in [2u64, 3, 4, 5, 7, 8, 9, 11, 13] {
            let pf = pf_topo::PolarFly::new(q);
            assert_eq!(certified_min_cut(pf.graph()), Some(q), "q={q}");
            assert_eq!(contraction_min_cut(pf.graph()), q, "q={q}");
            let s = pf_topo::Singer::new(q);
            assert_eq!(certified_min_cut(s.graph()), Some(q), "singer q={q}");
            assert_eq!(contraction_min_cut(s.graph()), q, "singer q={q}");
        }
    }

    #[test]
    fn degenerate_graphs_are_typed_errors() {
        assert_eq!(allreduce_rate_bound(&Graph::new(0)).unwrap_err(), RateError::EmptyGraph);
        assert_eq!(allreduce_rate_bound(&Graph::new(1)).unwrap_err(), RateError::SingleVertex);
        let mut split = Graph::new(4);
        split.add_edge(0, 1);
        split.add_edge(2, 3);
        assert_eq!(
            allreduce_rate_bound(&split).unwrap_err(),
            RateError::Disconnected { components: 2 }
        );
        // Display text is stable (the harness matches on it in failure
        // messages).
        assert!(RateError::SingleVertex.to_string().contains("single vertex"));
    }

    #[test]
    fn min_cut_on_known_graphs() {
        assert_eq!(global_min_cut(&builders::path(5)), 1);
        assert_eq!(global_min_cut(&builders::cycle(6)), 2);
        assert_eq!(global_min_cut(&builders::complete(6)), 5);
        assert_eq!(global_min_cut(&builders::hypercube(4)), 4);
        assert_eq!(global_min_cut(&builders::star(7)), 1);
        // Two K4s joined by one bridge: the bridge is the min cut.
        let g = crate::substrates::bridged_cliques(4);
        assert_eq!(global_min_cut(&g), 1);
        // Disconnected graphs, with or without an isolated vertex, cut at 0.
        let mut split = Graph::new(4);
        split.add_edge(0, 1);
        split.add_edge(2, 3);
        assert_eq!(global_min_cut(&split), 0);
        assert_eq!(global_min_cut(&Graph::new(3)), 0);
    }

    #[test]
    fn min_cut_two_vertices() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        assert_eq!(global_min_cut(&g), 1);
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.bound, Rational::ONE);
        assert_eq!(b.limiter(), RateLimiter::EdgeBudget); // tie reports the edge budget
    }

    #[test]
    fn lopsided_barbell_cut_beats_the_degree_bound() {
        // Two K5s joined by TWO bridges: δ_min = 4 (every vertex sits in a
        // K5; the bridge endpoints have degree 5), |E|/(n−1) = 22/9 > 2,
        // but the min cut is the 2-edge waist. The degree-based
        // min(|E|/(n−1), δ_min) = min(22/9, 4) = 22/9 misses it; the rate
        // bound finds 2.
        let mut g = Graph::new(10);
        for side in [0u32, 5] {
            for u in side..side + 5 {
                for v in u + 1..side + 5 {
                    g.add_edge(u, v);
                }
            }
        }
        g.add_edge(0, 5);
        g.add_edge(1, 6);
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.min_cut, 2);
        assert_eq!(b.min_degree, 4);
        assert_eq!(b.edge_budget, Rational::new(22, 9));
        assert_eq!(b.bound, Rational::from_int(2));
        assert_eq!(b.limiter(), RateLimiter::MinCut);
        let edges_per_tree = Rational::new(g.num_edges() as i64, g.num_vertices() as i64 - 1);
        assert!(b.bound < edges_per_tree.min(Rational::from_int(g.min_degree() as i64)));
    }

    #[test]
    fn rate_bound_refines_the_substrate_bound() {
        // λ ≤ δ_min always, so the rate bound never exceeds the
        // degree-based min(|E|/(n−1), δ_min) — on any graph.
        for g in [
            builders::cycle(7),
            builders::complete(9),
            builders::hypercube(3),
            builders::petersen(),
            builders::star(6),
            crate::substrates::erdos_renyi_connected(18, 25, 3),
            crate::substrates::bridged_cliques(5),
        ] {
            let b = allreduce_rate_bound(&g).unwrap();
            assert!(b.bound <= b.edge_budget.min(Rational::from_int(b.min_degree as i64)));
            assert!(b.min_cut <= b.min_degree as u64);
            assert!(b.bound.is_positive());
        }
    }

    #[test]
    fn closed_forms_match_the_generic_computation() {
        // Every odd prime power up to the largest radix plans are built at;
        // λ = q, the quadric degree, sits above the edge budget.
        for q in [3u64, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31] {
            let pf = pf_topo::PolarFly::new(q);
            let b = allreduce_rate_bound(pf.graph()).unwrap();
            assert_eq!((b.bound, b.min_cut), (polarfly_bound(q), q), "q={q}");
            let s = pf_topo::Singer::new(q);
            let b = allreduce_rate_bound(s.graph()).unwrap();
            assert_eq!((b.bound, b.min_cut), (polarfly_bound(q), q), "singer q={q}");
        }
        for d in [1u32, 2, 3, 4, 5] {
            assert_eq!(
                allreduce_rate_bound(&builders::hypercube(d)).unwrap().bound,
                hypercube_bound(d),
                "d={d}"
            );
        }
        for n in [2u32, 3, 5, 8, 12] {
            assert_eq!(
                allreduce_rate_bound(&builders::complete(n)).unwrap().bound,
                complete_bound(n),
                "n={n}"
            );
        }
        for dims in [vec![3u32, 3], vec![4, 4], vec![3, 4], vec![3, 3, 3]] {
            let t = pf_topo::torus::Torus::new(&dims);
            assert_eq!(
                allreduce_rate_bound(t.graph()).unwrap().bound,
                torus_bound(&dims),
                "{dims:?}"
            );
        }
    }

    #[test]
    fn polarfly_bound_is_the_corollary_7_1_optimum() {
        // (q + 1)/2 link bandwidths, even radices included; it scales
        // linearly with the link bandwidth.
        assert_eq!(polarfly_bound(7), Rational::from_int(4));
        assert_eq!(polarfly_bound(11), Rational::from_int(6));
        assert_eq!(polarfly_bound(4), Rational::new(5, 2));
        assert_eq!(polarfly_bound(3) * Rational::from_int(100), Rational::from_int(200));
    }

    #[test]
    fn gap_and_certification() {
        let g = builders::complete(8);
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.bound, Rational::from_int(4));
        assert!(b.certifies(Rational::from_int(4)));
        assert!(b.certifies(Rational::new(7, 2)));
        assert!(!b.certifies(Rational::new(9, 2)));
        assert_eq!(b.gap(Rational::from_int(3)), Rational::new(3, 4));
        assert_eq!(b.gap(b.bound), Rational::ONE);
        assert_eq!(b.gap(Rational::new(3, 4)).to_f64(), 0.1875);
    }

    #[test]
    fn min_cut_is_deterministic() {
        let g = crate::substrates::erdos_renyi_connected(30, 50, 9);
        let a = allreduce_rate_bound(&g).unwrap();
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(a, b);
    }
}
