//! The Theorem 5.1 performance model and the paper's bandwidth bounds.
//!
//! With trees running concurrently on sub-vectors, the optimal split gives
//! every tree equal finish time, and the aggregate allreduce bandwidth is
//! the sum of per-tree bandwidths. Corollary 7.1 bounds the aggregate for
//! PolarFly at `(q+1)·B/2` ([`crate::rate::polarfly_bound`], the one
//! ceiling); Corollary 7.7 guarantees at least `q·B/2` for the low-depth
//! trees; Theorem 7.19 gives `t·B` for `t` edge-disjoint Hamiltonian
//! trees.

use crate::collective::Collective;
use crate::rational::Rational;

/// Corollary 7.7: the low-depth solution's guaranteed aggregate bandwidth,
/// `q·b/2` for odd `q` (the paper states `(q+1)·b/2` for its even-`q`
/// variant, which it does not construct; we report the odd-`q` bound).
pub fn low_depth_bound(q: u64, b: Rational) -> Rational {
    Rational::new(q as i64, 2) * b
}

/// Theorem 7.19: aggregate bandwidth of `t` edge-disjoint spanning trees.
pub fn edge_disjoint_bandwidth(t: usize, b: Rational) -> Rational {
    Rational::from_int(t as i64) * b
}

/// Theorem 5.1's optimal sub-vector split: `m_i = m·B_i / Σ B_j`, rounded
/// to integers by largest remainder so the sizes sum exactly to `m`.
/// Returns an empty vector when there are no trees.
pub fn optimal_split(m: u64, bandwidths: &[Rational]) -> Vec<u64> {
    if bandwidths.is_empty() {
        return Vec::new();
    }
    let total: Rational = bandwidths.iter().copied().fold(Rational::ZERO, |a, b| a + b);
    assert!(total.is_positive(), "total bandwidth must be positive");
    // Exact shares and floor them.
    let shares: Vec<Rational> = bandwidths
        .iter()
        .map(|&b| Rational::from_int(m as i64) * b / total)
        .collect();
    let mut sizes: Vec<u64> = shares
        .iter()
        .map(|s| (s.numer() / s.denom()) as u64) // floor for non-negative
        .collect();
    let assigned: u64 = sizes.iter().sum();
    // Distribute the remainder to the largest fractional parts.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - Rational::from_int(sizes[a] as i64);
        let fb = shares[b] - Rational::from_int(sizes[b] as i64);
        fb.cmp(&fa).then(a.cmp(&b))
    });
    let mut left = m - assigned;
    for &i in &order {
        if left == 0 {
            break;
        }
        sizes[i] += 1;
        left -= 1;
    }
    sizes
}

/// Execution-time model of Theorem 5.1: `t_i = L_i + m_i / B_i`, overall
/// time `max_i t_i`. Latencies and bandwidths are per-tree; returns the
/// overall time.
pub fn allreduce_time(sizes: &[u64], latencies: &[Rational], bandwidths: &[Rational]) -> Rational {
    assert_eq!(sizes.len(), bandwidths.len());
    assert_eq!(sizes.len(), latencies.len());
    sizes
        .iter()
        .zip(latencies)
        .zip(bandwidths)
        .map(|((&m, &l), &b)| l + Rational::from_int(m as i64) / b)
        .max()
        .unwrap_or(Rational::ZERO)
}

/// In-network allreduce latency of a tree of the given depth: reduction
/// climbs `depth` hops and the broadcast descends `depth` hops, each hop
/// costing `hop_latency`.
pub fn tree_latency(depth: u32, hop_latency: Rational) -> Rational {
    Rational::from_int(2 * depth as i64) * hop_latency
}

/// Cycle-accurate pipeline model of one tree's slice under collective
/// `kind`, matching the `pf-simnet` engine to within a cycle: a fill of
/// `phases·depth·L + 1` cycles (the leaf's inject cycle plus `depth` hops
/// per phase), then a steady-state drain of `m_i` elements. An allreduce
/// traverses the tree twice (reduce up, broadcast down) and drains at the
/// Algorithm 1 rate `b_i` — the Theorem 7.6 / 7.19 congestion-bounded
/// share with both phases counter-flowing on every link. The
/// single-phase collectives — reduce, broadcast, and the sharded-training
/// reduce-scatter / allgather pair — traverse it once
/// ([`Collective::phases`]): they move half an allreduce's volume, and
/// with the opposite direction idle each link's counter-flow share comes
/// back, so the drain rate doubles to `min(2·b_i, 1)` (capped at link
/// capacity; exact for the paper's congestion ≤ 2 plans). This is the
/// per-tree prediction the observability layer compares against measured
/// `tree_completion` cycles.
pub fn predicted_tree_cycles(
    kind: Collective,
    depth: u32,
    hop_latency: u64,
    m_i: u64,
    b_i: Rational,
) -> u64 {
    if m_i == 0 {
        return 0;
    }
    assert!(b_i.is_positive(), "tree bandwidth must be positive");
    let phases = kind.phases();
    let fill = phases * depth as u64 * hop_latency + 1;
    let rate = if phases == 1 { (b_i + b_i).min(Rational::ONE) } else { b_i };
    let drain = Rational::from_int(m_i as i64) / rate;
    // Ceiling of a non-negative rational (numer >= 0, denom > 0).
    fill + ((drain.numer() + drain.denom() - 1) / drain.denom()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::DisjointSolution;

    #[test]
    fn optimal_bandwidth_values() {
        // Corollary 7.1's optimum (q+1)·b/2 is `rate::polarfly_bound` scaled
        // by the link bandwidth b: ⌊(q+1)/2⌋ edge-disjoint Hamiltonian trees
        // reach it at odd q, and the low-depth trees get q/(q+1) of it.
        let optimum = |q: u64, b: Rational| crate::rate::polarfly_bound(q) * b;
        assert_eq!(optimum(7, Rational::ONE), Rational::from_int(4));
        assert_eq!(optimum(3, Rational::from_int(100)), Rational::from_int(200));
        for q in [3u64, 5, 7, 9, 11] {
            for b in [Rational::ONE, Rational::new(5, 2), Rational::from_int(100)] {
                let opt = optimum(q, b);
                let ham = edge_disjoint_bandwidth(DisjointSolution::upper_bound(q), b);
                assert_eq!(ham, opt, "q={q}");
                let low = low_depth_bound(q, b);
                assert_eq!(low, opt * Rational::new(q as i64, q as i64 + 1), "q={q}");
            }
        }
    }

    #[test]
    fn low_depth_bound_values() {
        assert_eq!(low_depth_bound(7, Rational::ONE), Rational::new(7, 2));
        assert_eq!(low_depth_bound(11, Rational::ONE), Rational::new(11, 2));
    }

    #[test]
    fn hamiltonian_bounds() {
        assert_eq!(DisjointSolution::upper_bound(3), 2);
        assert_eq!(DisjointSolution::upper_bound(4), 2);
        assert_eq!(DisjointSolution::upper_bound(7), 4);
        assert_eq!(DisjointSolution::upper_bound(8), 4);
        assert_eq!(edge_disjoint_bandwidth(4, Rational::ONE), Rational::from_int(4));
    }

    #[test]
    fn split_sums_to_m_and_is_proportional() {
        let bw = vec![Rational::ONE, Rational::ONE, Rational::new(1, 2)];
        let sizes = optimal_split(1000, &bw);
        assert_eq!(sizes.iter().sum::<u64>(), 1000);
        assert_eq!(sizes, vec![400, 400, 200]);
    }

    #[test]
    fn split_handles_rounding() {
        let bw = vec![Rational::ONE; 3];
        let sizes = optimal_split(10, &bw);
        assert_eq!(sizes.iter().sum::<u64>(), 10);
        for &s in &sizes {
            assert!(s == 3 || s == 4);
        }
        // Deterministic: remainder goes to the smallest indexes on ties.
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn split_edge_cases() {
        assert!(optimal_split(100, &[]).is_empty());
        assert_eq!(optimal_split(0, &[Rational::ONE; 2]), vec![0, 0]);
        assert_eq!(optimal_split(7, &[Rational::ONE]), vec![7]);
    }

    #[test]
    fn equal_finish_times_under_optimal_split() {
        // With the exact (unrounded) split, all finish times are equal; with
        // integer rounding they differ by at most one element's transfer.
        let bw = vec![Rational::new(3, 2), Rational::ONE, Rational::new(1, 2)];
        let m = 3000;
        let sizes = optimal_split(m, &bw);
        let lat = vec![Rational::ZERO; 3];
        let t = allreduce_time(&sizes, &lat, &bw);
        assert_eq!(t, Rational::from_int(1000));
    }

    #[test]
    fn time_model_maximum() {
        let sizes = [100, 100];
        let lat = [Rational::ZERO, Rational::from_int(1000)];
        let bw = [Rational::ONE, Rational::ONE];
        assert_eq!(allreduce_time(&sizes, &lat, &bw), Rational::from_int(1100));
    }

    #[test]
    fn latency_model() {
        assert_eq!(tree_latency(3, Rational::from_int(10)), Rational::from_int(60));
        assert_eq!(tree_latency(0, Rational::from_int(10)), Rational::ZERO);
    }

    #[test]
    fn predicted_cycles_fill_plus_drain() {
        let all = Collective::Allreduce;
        // depth 28, L = 4, 2500 elements at full rate: 2·28·4 + 1 + 2500.
        assert_eq!(predicted_tree_cycles(all, 28, 4, 2500, Rational::ONE), 2725);
        // Half rate doubles the drain.
        assert_eq!(predicted_tree_cycles(all, 2, 4, 100, Rational::new(1, 2)), 17 + 200);
        // Fractional drains round up.
        assert_eq!(predicted_tree_cycles(all, 0, 4, 10, Rational::new(3, 2)), 1 + 7);
        assert_eq!(predicted_tree_cycles(all, 5, 4, 0, Rational::ONE), 0);
    }

    #[test]
    fn single_phase_collectives_halve_the_fill_and_recover_the_rate() {
        let (rs, ag) = (Collective::ReduceScatter, Collective::Allgather);
        // depth 28, L = 4, 2500 elements at full rate: 28·4 + 1 + 2500 —
        // same drain as the allreduce, half the pipeline fill.
        assert_eq!(predicted_tree_cycles(rs, 28, 4, 2500, Rational::ONE), 2613);
        assert_eq!(predicted_tree_cycles(ag, 28, 4, 2500, Rational::ONE), 2613);
        // Every one-phase collective agrees: the allgather mirrors the
        // reduce-scatter hop for hop, and reduce / broadcast run the same
        // dataflow.
        for (depth, m, b) in [(2u32, 100u64, Rational::new(1, 2)), (7, 999, Rational::new(3, 2))] {
            let rs_cycles = predicted_tree_cycles(rs, depth, 4, m, b);
            for kind in [Collective::Reduce, Collective::Broadcast, ag] {
                assert_eq!(predicted_tree_cycles(kind, depth, 4, m, b), rs_cycles, "{kind:?}");
            }
        }
        // A congestion-2 share (b = 1/2) drains at the recovered full
        // rate: fill 2·4 + 1 = 9, drain 100/1 — half the allreduce's
        // 17 + 200 on the same tree.
        assert_eq!(predicted_tree_cycles(rs, 2, 4, 100, Rational::new(1, 2)), 109);
        // The recovered rate caps at link capacity: b = 3/2 stays at 1.
        assert_eq!(predicted_tree_cycles(ag, 0, 4, 10, Rational::new(3, 2)), 1 + 10);
        assert_eq!(predicted_tree_cycles(rs, 5, 4, 0, Rational::ONE), 0);
    }

    #[test]
    fn normalization() {
        // Low-depth vs optimal: (q/2) / ((q+1)/2) = q / (q+1).
        let norm = low_depth_bound(7, Rational::ONE) / crate::rate::polarfly_bound(7);
        assert_eq!(norm, Rational::new(7, 8));
    }
}
