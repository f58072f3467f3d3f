//! Spanning-tree allocation: disjoint per-job subsets of one plan's trees.
//!
//! The allocator is the piece that makes multi-tenancy *safe*: because
//! every job runs on a disjoint subset of a single healthy plan's trees,
//! the combined per-edge congestion of all concurrently running jobs is
//! elementwise at most the plan's own `edge_congestion` — and therefore
//! at most its Theorem 7.6 (low-depth, ≤ 2) or Theorem 7.19
//! (edge-disjoint, = 1) bound. This module *asserts* that invariant on
//! every allocation rather than trusting it.

use pf_allreduce::AllreducePlan;
use pf_simnet::CompiledTrees;

/// Hands out disjoint tree subsets of a plan and tracks the combined
/// per-edge congestion of everything currently allocated.
///
/// Allocation is deterministic: the lowest-indexed free trees are handed
/// out first, so the same admission sequence always produces the same
/// tree assignment.
pub struct TreeAllocator<'a> {
    plan: &'a AllreducePlan,
    /// The plan's compiled trees: each tree's edge ids.
    trees: &'a CompiledTrees,
    /// Free tree indices, kept sorted ascending.
    free: Vec<usize>,
    /// Combined per-edge congestion of all currently allocated trees.
    active: Vec<u32>,
}

impl<'a> TreeAllocator<'a> {
    /// A fresh allocator with every tree of `plan` free. `trees` is the
    /// plan's tree list compiled on its graph; the allocator charges each
    /// granted tree's edge ids from it.
    #[must_use]
    pub fn new(plan: &'a AllreducePlan, trees: &'a CompiledTrees) -> Self {
        assert_eq!(trees.num_trees(), plan.trees.len(), "compiled trees must be the plan's");
        TreeAllocator {
            plan,
            trees,
            free: (0..plan.trees.len()).collect(),
            active: vec![0; plan.graph.num_edges() as usize],
        }
    }

    /// How many trees are currently unallocated.
    #[must_use]
    pub fn free_trees(&self) -> usize {
        self.free.len()
    }

    /// Takes the `want` lowest-indexed free trees, or `None` if fewer
    /// than `want` are free (no partial allocation).
    pub fn allocate(&mut self, want: usize) -> Option<Vec<usize>> {
        assert!(want > 0, "an allocation must request at least one tree");
        if self.free.len() < want {
            return None;
        }
        let grant: Vec<usize> = self.free.drain(..want).collect();
        for &ti in &grant {
            for &e in self.trees.tree_edges(ti) {
                self.active[e as usize] += 1;
            }
        }
        // Safety invariant: a disjoint partition of one plan's trees can
        // never congest an edge beyond what the whole plan does.
        for (e, &a) in self.active.iter().enumerate() {
            assert!(
                a <= self.plan.edge_congestion[e],
                "combined congestion {} on edge {} exceeds the plan's {}",
                a,
                e,
                self.plan.edge_congestion[e]
            );
        }
        assert!(
            self.max_combined() <= self.plan.max_congestion,
            "combined congestion exceeds the plan's Theorem 7.6/7.19 bound"
        );
        Some(grant)
    }

    /// Returns trees to the free pool.
    pub fn release(&mut self, trees: &[usize]) {
        for &ti in trees {
            assert!(
                !self.free.contains(&ti),
                "tree {ti} released twice"
            );
            for &e in self.trees.tree_edges(ti) {
                let a = &mut self.active[e as usize];
                assert!(*a > 0, "releasing tree {ti} under-flows edge {e}");
                *a -= 1;
            }
            self.free.push(ti);
        }
        self.free.sort_unstable();
    }

    /// Returns every tree to the free pool, as if freshly constructed.
    /// The scheduler builds one allocator per epoch and resets it between
    /// the epoch's waves. It computes no edge ids of its own: it borrows
    /// them from the compiled trees, which the fabric manager compiles
    /// once per plan and a bare scheduler once per epoch.
    pub fn reset(&mut self) {
        self.free.clear();
        self.free.extend(0..self.plan.trees.len());
        self.active.fill(0);
    }

    /// Peak combined per-edge congestion of the currently allocated trees.
    #[must_use]
    pub fn max_combined(&self) -> u32 {
        self.active.iter().copied().max().unwrap_or(0)
    }

    /// Combined per-edge congestion vector (one entry per graph edge).
    #[must_use]
    pub fn combined_congestion(&self) -> &[u32] {
        &self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> AllreducePlan {
        AllreducePlan::low_depth(3).unwrap()
    }

    fn compiled(p: &AllreducePlan) -> CompiledTrees {
        CompiledTrees::new(&p.graph, &p.trees)
    }

    #[test]
    fn allocates_lowest_free_trees_first() {
        let p = plan();
        let c = compiled(&p);
        let mut a = TreeAllocator::new(&p, &c);
        assert_eq!(a.free_trees(), p.trees.len());
        let g1 = a.allocate(2).unwrap();
        assert_eq!(g1, vec![0, 1]);
        let g2 = a.allocate(1).unwrap();
        assert_eq!(g2, vec![2]);
        assert_eq!(a.free_trees(), p.trees.len() - 3);
    }

    #[test]
    fn refuses_overcommit_without_partial_grants() {
        let p = plan();
        let c = compiled(&p);
        let mut a = TreeAllocator::new(&p, &c);
        let n = p.trees.len();
        let all = a.allocate(n).unwrap();
        assert_eq!(a.free_trees(), 0);
        assert!(a.allocate(1).is_none());
        a.release(&all);
        assert_eq!(a.free_trees(), n);
        assert_eq!(a.max_combined(), 0);
    }

    #[test]
    fn release_reuses_trees_deterministically() {
        let p = plan();
        let c = compiled(&p);
        let mut a = TreeAllocator::new(&p, &c);
        let g1 = a.allocate(2).unwrap();
        let g2 = a.allocate(1).unwrap();
        a.release(&g1);
        // The freed low-index trees come back first.
        assert_eq!(a.allocate(2).unwrap(), g1);
        a.release(&g2);
    }

    #[test]
    fn full_allocation_matches_plan_congestion() {
        let p = plan();
        let c = compiled(&p);
        let mut a = TreeAllocator::new(&p, &c);
        let _all = a.allocate(p.trees.len()).unwrap();
        assert_eq!(a.combined_congestion(), &p.edge_congestion[..]);
        assert_eq!(a.max_combined(), p.max_congestion);
    }

    #[test]
    fn edge_disjoint_partition_never_shares_a_link() {
        let p = AllreducePlan::edge_disjoint(7, 30, 7).unwrap();
        let c = compiled(&p);
        let mut a = TreeAllocator::new(&p, &c);
        let half = p.trees.len() / 2;
        let _g1 = a.allocate(half).unwrap();
        let _g2 = a.allocate(p.trees.len() - half).unwrap();
        // Theorem 7.19: every edge carries at most one tree.
        assert_eq!(a.max_combined(), 1);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_is_a_bug() {
        let p = plan();
        let c = compiled(&p);
        let mut a = TreeAllocator::new(&p, &c);
        let g = a.allocate(1).unwrap();
        a.release(&g);
        a.release(&g);
    }
}
