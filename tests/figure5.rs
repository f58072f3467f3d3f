//! Exact-value regression tests for the Figure 5 sweeps.
//!
//! The constructed solutions must hit the paper's closed forms *exactly*
//! (rational arithmetic, no tolerance): low-depth normalized bandwidth
//! `q/(q+1)`, Hamiltonian `1` (odd q) / `q/(q+1)` (even q), depths `3`
//! and `(N-1)/2`. Run over a moderate radix range here; the full `[3,128]`
//! sweep lives in `stress.rs` behind `--ignored`.

use pf_allreduce::congestion::assign_unit_bandwidth;
use pf_allreduce::disjoint::{find_edge_disjoint, DisjointSolution};
use pf_allreduce::lowdepth::low_depth_trees;
use pf_allreduce::{rate, Rational};
use pf_galois::prime_powers_in;
use pf_topo::{PolarFly, Singer};

const MAX_Q: u64 = 31;

#[test]
fn figure5a_low_depth_exact_values() {
    for q in prime_powers_in(3, MAX_Q).into_iter().filter(|q| q % 2 == 1) {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        let a = assign_unit_bandwidth(pf.graph(), &out.trees);
        // Every tree gets exactly 1/2; aggregate exactly q/2.
        assert_eq!(a.aggregate(), Rational::new(q as i64, 2), "q={q}");
        let norm = a.aggregate() / rate::polarfly_bound(q);
        assert_eq!(norm, Rational::new(q as i64, q as i64 + 1), "q={q}");
    }
}

#[test]
fn figure5a_hamiltonian_exact_values() {
    for q in prime_powers_in(3, MAX_Q) {
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, 30, 0xF5A ^ q);
        assert_eq!(sol.pairs.len(), DisjointSolution::upper_bound(q), "q={q}");
        let a = assign_unit_bandwidth(s.graph(), &sol.trees);
        assert_eq!(a.aggregate(), Rational::from_int(sol.trees.len() as i64), "q={q}");
        let norm = a.aggregate() / rate::polarfly_bound(q);
        let expect = if q % 2 == 1 {
            Rational::ONE
        } else {
            Rational::new(q as i64, q as i64 + 1)
        };
        assert_eq!(norm, expect, "q={q}");
    }
}

#[test]
fn figure5b_exact_depths() {
    for q in prime_powers_in(3, MAX_Q) {
        let n = q * q + q + 1;
        if q % 2 == 1 {
            let pf = PolarFly::new(q);
            let out = low_depth_trees(&pf, None).unwrap();
            let depth = out.trees.iter().map(|t| t.depth()).max().unwrap();
            // Depth is exactly 3 for q >= 3 (a depth-2 tree would need a
            // root adjacent to everything, impossible for N > q + 2).
            assert_eq!(depth, 3, "q={q}");
        }
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, 30, q);
        for t in &sol.trees {
            assert_eq!(t.depth() as u64, (n - 1) / 2, "q={q}");
        }
    }
}

#[test]
fn per_tree_bandwidth_is_exactly_half_for_low_depth() {
    // Sharper than Corollary 7.7's bound: on these instances every tree of
    // Algorithm 3 lands on a congestion-2 edge, so Algorithm 1 assigns
    // exactly B/2 per tree.
    for q in [3u64, 5, 7, 9, 11, 13] {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        let a = assign_unit_bandwidth(pf.graph(), &out.trees);
        for (i, b) in a.per_tree.iter().enumerate() {
            assert_eq!(*b, Rational::new(1, 2), "q={q} tree {i}");
        }
    }
}
