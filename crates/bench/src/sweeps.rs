//! Figure 5 bandwidth/depth sweeps, the §7.3 disjoint-set sweep, and the
//! Corollary 7.20 totient check.

use pf_allreduce::disjoint::{find_edge_disjoint, find_edge_disjoint_exact, DisjointSolution};
use pf_allreduce::hamiltonian::hamiltonian_pairs;
use pf_allreduce::lowdepth::low_depth_trees;
use pf_allreduce::perf;
use pf_allreduce::{congestion, Rational};
use pf_galois::{euler_totient, prime_powers_in};
use pf_topo::{PolarFly, Singer};

/// One point of Figure 5: a radix with both solutions' metrics.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    pub q: u64,
    /// Normalized aggregate bandwidth of the low-depth solution.
    /// Constructed + measured through Algorithm 1 for odd `q`; the paper's
    /// stated formula (optimal) for even `q`, flagged by `low_depth_formula`.
    pub low_depth_norm: Rational,
    pub low_depth_formula: bool,
    /// Normalized aggregate bandwidth of the Hamiltonian solution
    /// (constructed and verified edge-disjoint).
    pub hamiltonian_norm: Rational,
    /// Depth of the low-depth trees (3) and the Hamiltonian trees
    /// ((N-1)/2).
    pub low_depth_depth: u32,
    pub hamiltonian_depth: u32,
}

/// Computes one Figure 5 point. `attempts`/`seed` parameterize the §7.3
/// random search.
pub fn fig5_point(q: u64, attempts: usize, seed: u64) -> Fig5Point {
    let opt = pf_allreduce::rate::polarfly_bound(q);

    let (low_norm, low_formula, low_depth) = if q % 2 == 1 {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).expect("odd q");
        let a = congestion::assign_unit_bandwidth(pf.graph(), &out.trees);
        let depth = out.trees.iter().map(|t| t.depth()).max().unwrap();
        (a.aggregate() / opt, false, depth)
    } else {
        // The paper's even-q variant (not constructed there or here)
        // achieves the optimum (Corollary 7.7's statement for even q).
        (Rational::ONE, true, 3)
    };

    let s = Singer::new(q);
    let sol = find_edge_disjoint(&s, attempts, seed);
    let ham_norm = perf::edge_disjoint_bandwidth(sol.trees.len(), Rational::ONE) / opt;
    let ham_depth = ((s.n() - 1) / 2) as u32;

    Fig5Point {
        q,
        low_depth_norm: low_norm,
        low_depth_formula: low_formula,
        hamiltonian_norm: ham_norm,
        low_depth_depth: low_depth,
        hamiltonian_depth: ham_depth,
    }
}

/// Figure 5a: normalized bandwidth for every prime power in `[lo, hi]`.
pub fn print_fig5a(lo: u64, hi: u64) {
    crate::print_header("Figure 5a: allreduce bandwidth normalized to optimal (q+1)B/2");
    println!(
        "{:>5} {:>7} {:>22} {:>22}",
        "q", "radix", "low-depth (norm)", "Hamiltonian (norm)"
    );
    let qs = prime_powers_in(lo, hi);
    let points = crate::par::parallel_map(&qs, |&q| fig5_point(q, 30, 0x5EED ^ q));
    for (q, p) in qs.iter().copied().zip(points) {
        let tag = if p.low_depth_formula { " (formula)" } else { "" };
        println!(
            "{:>5} {:>7} {:>12.4}{:<10} {:>22.4}",
            q,
            q + 1,
            p.low_depth_norm.to_f64(),
            tag,
            p.hamiltonian_norm.to_f64()
        );
    }
    println!("(low-depth normalized = q/(q+1) for odd q; Hamiltonian = 1 for odd q, q/(q+1) for even q)");
}

/// Figure 5b: tree depth (latency proxy) per radix.
pub fn print_fig5b(lo: u64, hi: u64) {
    crate::print_header("Figure 5b: tree depth (latency) per radix");
    println!("{:>5} {:>7} {:>16} {:>18}", "q", "radix", "low-depth depth", "Hamiltonian depth");
    for q in prime_powers_in(lo, hi) {
        let n = q * q + q + 1;
        let low = if q % 2 == 1 {
            let pf = PolarFly::new(q);
            let out = low_depth_trees(&pf, None).unwrap();
            out.trees.iter().map(|t| t.depth()).max().unwrap()
        } else {
            3
        };
        println!("{:>5} {:>7} {:>16} {:>18}", q, q + 1, low, (n - 1) / 2);
        assert!(low <= 3);
    }
    println!("(low-depth: constant 3; Hamiltonian: (N-1)/2, quadratic in the radix)");
}

/// One row of the §7.3 sweep.
#[derive(Debug, Clone)]
pub struct DisjointSweepRow {
    pub q: u64,
    pub bound: usize,
    pub found: usize,
    pub attempts_used: usize,
    pub hamiltonian_pair_count: u64,
    pub totient: u64,
}

/// Runs the §7.3 protocol for one radix.
pub fn disjoint_sweep_row(q: u64, attempts: usize, seed: u64) -> DisjointSweepRow {
    let s = Singer::new(q);
    let sol = find_edge_disjoint(&s, attempts, seed);
    DisjointSweepRow {
        q,
        bound: DisjointSolution::upper_bound(q),
        found: sol.pairs.len(),
        attempts_used: sol.attempts_used,
        hamiltonian_pair_count: hamiltonian_pairs(&s).len() as u64,
        totient: euler_totient(s.n()),
    }
}

/// §7.3 sweep: the paper's claim that 30 random maximal independent sets
/// suffice to reach ⌊(q+1)/2⌋ for every prime power `q < 128`.
pub fn print_disjoint_sweep(lo: u64, hi: u64, exact: bool) {
    crate::print_header(if exact {
        "§7.3 sweep (exact branch-and-bound ablation)"
    } else {
        "§7.3 sweep: edge-disjoint Hamiltonian sets within 30 random instances"
    });
    println!(
        "{:>5} {:>8} {:>7} {:>10} {:>12}",
        "q", "bound", "found", "attempts", "optimal?"
    );
    let mut all_optimal = true;
    let qs = prime_powers_in(lo, hi);
    let results = crate::par::parallel_map(&qs, |&q| {
        if exact {
            let s = Singer::new(q);
            let sol = find_edge_disjoint_exact(&s);
            (sol.pairs.len(), 1)
        } else {
            let r = disjoint_sweep_row(q, 30, 0xD15C ^ q);
            (r.found, r.attempts_used)
        }
    });
    for (q, (found, used)) in qs.iter().copied().zip(results) {
        let bound = DisjointSolution::upper_bound(q);
        let ok = found >= bound;
        all_optimal &= ok;
        println!("{:>5} {:>8} {:>7} {:>10} {:>12}", q, bound, found, used, ok);
    }
    println!(
        "result: {} (paper: optimum reached within 30 instances for all prime powers q < 128)",
        if all_optimal { "optimum reached at every radix" } else { "OPTIMUM MISSED somewhere!" }
    );
}

/// Corollary 7.20: the number of alternating-sum Hamiltonian paths equals
/// Euler's totient of `N`.
pub fn print_totient(lo: u64, hi: u64) {
    crate::print_header("Corollary 7.20: #Hamiltonian alternating-sum paths = phi(N)");
    println!("{:>5} {:>8} {:>12} {:>10}", "q", "N", "#paths", "phi(N)");
    for q in prime_powers_in(lo, hi) {
        let r = disjoint_sweep_row(q, 1, 0);
        println!(
            "{:>5} {:>8} {:>12} {:>10}",
            q,
            q * q + q + 1,
            r.hamiltonian_pair_count,
            r.totient
        );
        assert_eq!(r.hamiltonian_pair_count, r.totient, "q={q}");
    }
    println!("(equal at every radix — Corollary 7.20 verified)");
}

/// Topology metrics table — the §1.3 network-quality backdrop.
pub fn print_metrics(qs: &[u64]) {
    crate::print_header("PolarFly topology metrics (§1.3)");
    println!(
        "{:>5} {:>8} {:>9} {:>7} {:>9} {:>10} {:>22}",
        "q", "N", "edges", "diam", "radix", "avg path", "pairs at dist 1 / 2"
    );
    for &q in qs {
        let pf = pf_topo::PolarFly::new(q);
        let m = pf_topo::metrics::topology_metrics(pf.graph());
        let f = pf_topo::metrics::path_length_fractions(&m);
        println!(
            "{:>5} {:>8} {:>9} {:>7} {:>9} {:>10.4} {:>10.4} / {:>8.4}",
            q,
            m.vertices,
            m.edges,
            m.diameter,
            q + 1,
            m.avg_path_length,
            f.get(1).copied().unwrap_or(0.0),
            f.get(2).copied().unwrap_or(0.0)
        );
        assert_eq!(m.diameter, 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_point_odd_q() {
        let p = fig5_point(7, 30, 1);
        assert!(!p.low_depth_formula);
        assert_eq!(p.low_depth_norm, Rational::new(7, 8));
        assert_eq!(p.hamiltonian_norm, Rational::ONE);
        assert_eq!(p.low_depth_depth, 3);
        assert_eq!(p.hamiltonian_depth, 28);
    }

    #[test]
    fn fig5_point_even_q() {
        let p = fig5_point(8, 30, 1);
        assert!(p.low_depth_formula);
        assert_eq!(p.low_depth_norm, Rational::ONE);
        // Even q: floor((q+1)/2) = q/2 trees of the (q+1)/2 optimum.
        assert_eq!(p.hamiltonian_norm, Rational::new(8, 9));
    }

    #[test]
    fn disjoint_sweep_rows_small() {
        for q in [3u64, 4, 5, 7, 9] {
            let r = disjoint_sweep_row(q, 30, 42 ^ q);
            assert_eq!(r.found, r.bound, "q={q}");
            assert_eq!(r.hamiltonian_pair_count, r.totient, "q={q}");
        }
    }
}
