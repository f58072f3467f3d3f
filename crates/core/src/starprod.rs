//! Edge-disjoint spanning trees on star products from factor-tree sets —
//! the construction of *Edge-Disjoint Spanning Trees on Star-Product
//! Networks* (PAPERS.md), adapted to this repo's substrate types.
//!
//! Given `s` pairwise edge-disjoint spanning trees of `G` and `t` of `H`,
//! the product `G ∗ H` yields edge-disjoint spanning trees built from two
//! ingredients:
//!
//! * the *lift* of a G-tree: each tree edge `(u, v)` expands to the full
//!   inter-supernode matching it carries. The lift is a forest with
//!   exactly `|V(H)|` components, each containing exactly one vertex per
//!   supernode (compose the per-edge bijections along tree paths);
//! * a *copy* of an H-tree inside one supernode.
//!
//! Two families result:
//!
//! * **A-trees** (one per G-tree `j < s`): the whole lift of `T_G^j`,
//!   stitched together by a copy of `T_H^t` placed at a distinct supernode
//!   `b_j` — the copy's `|V(H)| − 1` edges connect the lift's `|V(H)|`
//!   components;
//! * **B-trees** (one per H-tree `i < t`): a copy of `T_H^i` in *every*
//!   supernode, stitched by one distinct component of the lift of
//!   `T_G^s` — the component touches every supernode exactly once.
//!
//! All of them are pairwise edge-disjoint by construction: distinct lifts
//! come from edge-disjoint G-trees, distinct components of one lift are
//! vertex-disjoint, and H-copies use edge-disjoint H-trees (the A-trees'
//! copies of `T_H^t` sit at distinct supernodes). That guarantees
//! `s + t − 2` trees; when either factor contributes only one tree the
//! leftover lift/copies combine into one more (`s + t − 1`, the Ku-style
//! bound). On edge-rich products a final deterministic Kruskal pass peels
//! additional disjoint trees from the unused edges.

use crate::construction::{check_substrate, Budget, ConstructError, GreedyPeel, TreeConstruction};
use pf_graph::dsu::Dsu;
use pf_graph::{Graph, RootedTree, StarProduct, VertexId};

/// The star-product edge-disjoint construction as a
/// [`TreeConstruction`]. Carries the product structure (factor graphs +
/// bijections); `build` rejects any substrate that is not this product's
/// graph.
#[derive(Debug, Clone)]
pub struct StarProductDisjoint {
    sp: StarProduct,
    /// Seed for the factor-tree peeling.
    pub seed: u64,
}

impl StarProductDisjoint {
    /// Wraps a product. Factor trees are peeled with [`GreedyPeel`] on
    /// each factor.
    pub fn new(sp: StarProduct, seed: u64) -> Self {
        StarProductDisjoint { sp, seed }
    }

    /// The wrapped product.
    pub fn product(&self) -> &StarProduct {
        &self.sp
    }
}

impl TreeConstruction for StarProductDisjoint {
    fn name(&self) -> &'static str {
        "star-disjoint"
    }

    fn claims_edge_disjoint(&self) -> bool {
        true
    }

    fn congestion_bound(&self) -> Option<u32> {
        Some(1)
    }

    fn build(&self, g: &Graph, budget: &Budget) -> Result<Vec<RootedTree>, ConstructError> {
        check_substrate(g)?;
        let p = self.sp.graph();
        if g.num_vertices() != p.num_vertices()
            || g.num_edges() != p.num_edges()
            || !p.edges().all(|(_, u, v)| g.has_edge(u, v))
        {
            return Err(ConstructError::UnsupportedSubstrate(format!(
                "substrate ({} vertices / {} edges) is not this star product ({} / {})",
                g.num_vertices(),
                g.num_edges(),
                p.num_vertices(),
                p.num_edges()
            )));
        }
        // A single vertex is spanned by its empty tree, which the peel (a
        // backend for real substrates) rejects; a disconnected factor
        // contributes no trees.
        let peel = |f: &Graph, seed| match f.num_vertices() {
            1 => vec![RootedTree::from_parents(0, vec![None]).expect("one-vertex tree")],
            _ => GreedyPeel { seed }.build(f, &Budget::unlimited()).unwrap_or_default(),
        };
        let (fg, fh) = self.sp.factors();
        let g_trees = peel(fg, self.seed);
        let h_trees = peel(fh, self.seed.wrapping_add(1));
        let mut trees = star_product_disjoint_trees(&self.sp, &g_trees, &h_trees)?;
        if let Some(cap) = budget.max_trees {
            trees.truncate(cap);
        }
        if trees.is_empty() {
            return Err(ConstructError::NoTrees(
                "no factor spanning trees to lift".to_string(),
            ));
        }
        Ok(trees)
    }
}

/// Re-roots `tree` (a tree over some graph's vertices) at `new_root` by
/// reorienting its edges.
fn reroot(tree: &RootedTree, new_root: VertexId) -> RootedTree {
    let n = tree.num_vertices();
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for (c, p) in tree.edges() {
        adj[c as usize].push(p);
        adj[p as usize].push(c);
    }
    let mut parent = vec![None; n];
    let mut seen = vec![false; n];
    seen[new_root as usize] = true;
    let mut stack = vec![new_root];
    while let Some(u) = stack.pop() {
        for &v in &adj[u as usize] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                parent[v as usize] = Some(u);
                stack.push(v);
            }
        }
    }
    RootedTree::from_parents(new_root, parent).expect("re-rooting preserves tree structure")
}

/// For a G-tree re-rooted at supernode `b`, the H-coordinate each
/// supernode reaches when the lift component starts from local vertex `x`
/// at `b`: follow tree edges away from `b`, applying the per-edge
/// bijections.
fn lift_coords(sp: &StarProduct, g_tree: &RootedTree, b: VertexId, x: VertexId) -> Vec<VertexId> {
    let (fg, _) = sp.factors();
    let n = fg.num_vertices() as usize;
    let mut coord = vec![0; n];
    coord[b as usize] = x;
    // Children in BFS order from b: parents are resolved before children.
    let mut order: Vec<VertexId> = vec![b];
    let children = g_tree.children();
    let mut i = 0;
    while i < order.len() {
        let u = order[i];
        i += 1;
        for &v in &children[u as usize] {
            let e = fg.edge_id(u, v).expect("G-tree edge exists in G");
            coord[v as usize] = sp.across(e, u, coord[u as usize]);
            order.push(v);
        }
    }
    coord
}

/// Builds the edge-disjoint spanning-tree set of `sp` from edge-disjoint
/// factor-tree sets (`g_trees` over factor `G`, `h_trees` over factor
/// `H`). Returns `s + t − 2` guaranteed trees for `s, t ≥ 2` (plus any
/// extra trees a final residual Kruskal pass can peel), and `s + t − 1`
/// when either factor contributes a single tree.
///
/// Errors if either factor set is empty, or if a factor set is too large
/// to place (`s − 1` A-copies need distinct supernodes, `t − 1` B-trees
/// need distinct lift components).
pub fn star_product_disjoint_trees(
    sp: &StarProduct,
    g_trees: &[RootedTree],
    h_trees: &[RootedTree],
) -> Result<Vec<RootedTree>, ConstructError> {
    let (fg, fh) = sp.factors();
    let (ng, nh) = (fg.num_vertices(), fh.num_vertices());
    let n = (ng * nh) as usize;
    let (s, t) = (g_trees.len(), h_trees.len());
    if s == 0 || t == 0 {
        return Err(ConstructError::NoTrees(
            "each factor needs at least one spanning tree".to_string(),
        ));
    }
    // Degenerate factors: the product *is* the other factor.
    if ng == 1 {
        return Ok(h_trees.to_vec());
    }
    if nh == 1 {
        return Ok(g_trees.to_vec());
    }

    let mut trees: Vec<RootedTree> = Vec::new();

    // When a factor contributes a single tree, the leftover lift/copies
    // make one extra tree: fold it in by treating the *last* index as a
    // full member of the other family. (With s = t = 1 only the A-tree
    // exists — its lift and H-copy would collide with a B-tree's.)
    let (a_count, b_count) = match (s, t) {
        (_, 1) => (s, 0), // A-trees consume T_H^1 copies at distinct supernodes
        (1, _) => (0, t), // B-trees consume distinct lift(T_G^1) components
        _ => (s - 1, t - 1),
    };
    if a_count as u32 > ng {
        return Err(ConstructError::NoTrees(format!(
            "{a_count} A-trees need distinct supernodes, factor G has {ng}"
        )));
    }
    if b_count as u32 > nh {
        return Err(ConstructError::NoTrees(format!(
            "{b_count} B-trees need distinct lift components, factor H has {nh}"
        )));
    }

    let h_last = &h_trees[t - 1];

    // A-trees: full lift of T_G^j + copy of T_H^t at supernode b_j = j.
    for (j, g_tree) in g_trees.iter().take(a_count).enumerate() {
        let b = j as VertexId;
        let gt = reroot(g_tree, b);
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        // The H-copy at supernode b, rooted at T_H^t's own root.
        for (c, p) in h_last.edges() {
            parent[sp.vertex(b, c) as usize] = Some(sp.vertex(b, p));
        }
        // Each lift component, oriented away from its vertex at b.
        for x in 0..nh {
            let coord = lift_coords(sp, &gt, b, x);
            for (v, p) in gt.edges() {
                parent[sp.vertex(v, coord[v as usize]) as usize] =
                    Some(sp.vertex(p, coord[p as usize]));
            }
        }
        let root = sp.vertex(b, h_last.root());
        trees.push(
            RootedTree::from_parents(root, parent)
                .map_err(|e| ConstructError::NoTrees(format!("A-tree {j}: {e}")))?,
        );
    }

    // B-trees: copy of T_H^i everywhere + component i of lift(T_G^s).
    let g_last = &g_trees[s - 1];
    let g_root = g_last.root();
    for (i, h_tree) in h_trees.iter().take(b_count).enumerate() {
        let x = i as VertexId; // component index = coordinate at g_root
        let coord = lift_coords(sp, g_last, g_root, x);
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        // One lift component, oriented away from (g_root, x).
        for (v, p) in g_last.edges() {
            parent[sp.vertex(v, coord[v as usize]) as usize] =
                Some(sp.vertex(p, coord[p as usize]));
        }
        // T_H^i at every supernode, re-rooted at the component's vertex.
        for gv in 0..ng {
            let local_root = coord[gv as usize];
            let ht = reroot(h_tree, local_root);
            for (c, p) in ht.edges() {
                parent[sp.vertex(gv, c) as usize] = Some(sp.vertex(gv, p));
            }
        }
        let root = sp.vertex(g_root, x);
        trees.push(
            RootedTree::from_parents(root, parent)
                .map_err(|e| ConstructError::NoTrees(format!("B-tree {i}: {e}")))?,
        );
    }

    // Residual pass: deterministically peel any further spanning trees
    // from the so-far-unused product edges (ascending edge id).
    let g = sp.graph();
    let mut used = vec![false; g.num_edges() as usize];
    for tr in &trees {
        for e in tr.edge_ids(g) {
            used[e as usize] = true;
        }
    }
    loop {
        let mut dsu = Dsu::new(g.num_vertices());
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); g.num_vertices() as usize];
        let mut picked = Vec::new();
        for (e, u, v) in g.edges() {
            if !used[e as usize] && dsu.union(u, v) {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
                picked.push(e);
                if dsu.components() == 1 {
                    break;
                }
            }
        }
        if dsu.components() != 1 {
            break;
        }
        let mut parent = vec![None; g.num_vertices() as usize];
        let mut seen = vec![false; g.num_vertices() as usize];
        seen[0] = true;
        let mut stack = vec![0u32];
        while let Some(u) = stack.pop() {
            for &v in &adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    parent[v as usize] = Some(u);
                    stack.push(v);
                }
            }
        }
        let tr = RootedTree::from_parents(0, parent).expect("Kruskal forest spans");
        for e in &picked {
            used[*e as usize] = true;
        }
        trees.push(tr);
    }

    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::tree::pairwise_edge_disjoint;
    use pf_graph::{builders, cartesian_product, shifted_product};

    fn peel(f: &Graph, seed: u64) -> Vec<RootedTree> {
        GreedyPeel { seed }.build(f, &Budget::unlimited()).unwrap()
    }

    fn check_disjoint_spanning(sp: &StarProduct, trees: &[RootedTree]) {
        assert!(!trees.is_empty());
        for t in trees {
            t.validate_spanning(sp.graph()).unwrap();
        }
        assert!(pairwise_edge_disjoint(trees, sp.graph()));
    }

    #[test]
    fn lift_plus_copies_span_a_twisted_product() {
        // K5 ∗ K4 with shifts, with explicit edge-disjoint Hamiltonian
        // paths as factor trees (s = t = 2).
        let sp = shifted_product(&builders::complete(5), &builders::complete(4));
        let g_trees = vec![
            RootedTree::from_path(&[0, 1, 2, 3, 4], 2).unwrap(), // 01 12 23 34
            RootedTree::from_path(&[1, 3, 0, 2, 4], 2).unwrap(), // 13 03 02 24
        ];
        let h_trees = vec![
            RootedTree::from_path(&[0, 1, 2, 3], 1).unwrap(), // 01 12 23
            RootedTree::from_path(&[1, 3, 0, 2], 1).unwrap(), // 13 03 02
        ];
        let (fg, fh) = sp.factors();
        assert!(pairwise_edge_disjoint(&g_trees, fg));
        assert!(pairwise_edge_disjoint(&h_trees, fh));
        let trees = star_product_disjoint_trees(&sp, &g_trees, &h_trees).unwrap();
        assert!(trees.len() >= g_trees.len() + h_trees.len() - 2);
        check_disjoint_spanning(&sp, &trees);
    }

    #[test]
    fn single_factor_tree_gets_the_ku_bound() {
        // Cycles have exactly one disjoint spanning tree each: s = t = 1,
        // so the construction must still produce s + t − 1 = 1 tree.
        let sp = cartesian_product(&builders::cycle(5), &builders::cycle(4));
        let g_trees = peel(&builders::cycle(5), 1);
        let h_trees = peel(&builders::cycle(4), 2);
        assert_eq!((g_trees.len(), h_trees.len()), (1, 1));
        let trees = star_product_disjoint_trees(&sp, &g_trees, &h_trees).unwrap();
        // s + t − 1 = 1 guaranteed; the residual pass may peel more
        // (C5 □ C4 carries two disjoint spanning trees) but that depends
        // on which factor edges the peeled trees left behind.
        assert!(!trees.is_empty());
        check_disjoint_spanning(&sp, &trees);
    }

    #[test]
    fn mixed_factor_counts() {
        // K4 (2 trees) ∗ C4 (1 tree) and the transpose.
        let k4 = builders::complete(4);
        let c4 = builders::cycle(4);
        for (g, h) in [(&k4, &c4), (&c4, &k4)] {
            let sp = shifted_product(g, h);
            let gt = peel(g, 3);
            let ht = peel(h, 4);
            let trees = star_product_disjoint_trees(&sp, &gt, &ht).unwrap();
            assert!(trees.len() >= gt.len() + ht.len() - 1);
            check_disjoint_spanning(&sp, &trees);
        }
    }

    #[test]
    fn backend_builds_and_rejects_foreign_substrates() {
        let sp = shifted_product(&builders::complete(4), &builders::complete(4));
        let backend = StarProductDisjoint::new(sp.clone(), 7);
        let trees = backend.build(sp.graph(), &Budget::unlimited()).unwrap();
        check_disjoint_spanning(&sp, &trees);

        let err = backend.build(&builders::torus2d(4, 4), &Budget::unlimited()).unwrap_err();
        assert!(matches!(err, ConstructError::UnsupportedSubstrate(_)));
    }

    #[test]
    fn backend_honors_tree_budget() {
        let sp = shifted_product(&builders::complete(5), &builders::complete(5));
        let backend = StarProductDisjoint::new(sp.clone(), 0);
        let trees = backend.build(sp.graph(), &Budget::trees(2)).unwrap();
        assert_eq!(trees.len(), 2);
        check_disjoint_spanning(&sp, &trees);
    }

    #[test]
    fn backend_spans_a_product_with_a_single_vertex_factor() {
        let sp = cartesian_product(&builders::path(1), &builders::complete(4));
        let trees = StarProductDisjoint::new(sp.clone(), 1)
            .build(sp.graph(), &Budget::unlimited())
            .unwrap();
        check_disjoint_spanning(&sp, &trees);
        assert_eq!(trees, peel(&builders::complete(4), 2));
    }

    #[test]
    fn degenerate_single_vertex_factor_collapses_to_the_other() {
        let sp = cartesian_product(&builders::path(1), &builders::complete(4));
        let h_trees = peel(&builders::complete(4), 1);
        // A 1-vertex factor has one (empty) spanning tree.
        let g_trees = vec![RootedTree::from_parents(0, vec![None]).unwrap()];
        let trees = star_product_disjoint_trees(&sp, &g_trees, &h_trees).unwrap();
        check_disjoint_spanning(&sp, &trees);
        assert_eq!(trees.len(), h_trees.len());
    }
}
