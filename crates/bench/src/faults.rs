//! Fault-tolerance sweep: achieved bandwidth vs number of failed links.
//!
//! For each radix, injects `k` random permanent link faults mid-run and
//! drives the detect → rebuild → re-run loop (`pf_simnet::faults`),
//! reporting the degraded plan's surviving tree count, the Algorithm 1
//! bandwidth retention on the degraded topology, and the end-to-end
//! goodput including the aborted attempt and the re-run.

use pf_allreduce::AllreducePlan;
use pf_simnet::{run_with_recovery, Collective, FaultSchedule, SimConfig};

/// One sweep point: `k` failed links on the `q` low-depth plan.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    pub q: u64,
    /// Links failed.
    pub k: usize,
    /// Recovery attempts (1 = no fault hit a used link).
    pub rounds: usize,
    /// Spanning trees in the final plan (healthy plan: `q`).
    pub trees: usize,
    /// Trees of the healthy plan that survived untouched.
    pub intact: usize,
    /// Algorithm 1 aggregate-bandwidth retention on the degraded graph.
    pub retention: f64,
    /// End-to-end goodput (elements/cycle) including detection + re-run.
    pub achieved: f64,
    /// Total cycles across all attempts.
    pub total_cycles: u64,
}

/// Runs the sweep: for every `q`, `k` random link faults at a
/// seed-determined cycle, `m`-element vectors. Deterministic in `seed`.
pub fn fault_sweep_rows(qs: &[u64], ks: &[usize], m: u64, seed: u64) -> Vec<FaultSweepRow> {
    let mut rows = Vec::new();
    for &q in qs {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        for &k in ks {
            let schedule = if k == 0 {
                FaultSchedule::none()
            } else {
                FaultSchedule::random_links(&plan.graph, k, 20, 200, seed ^ (q << 8) ^ k as u64)
            };
            let out =
                run_with_recovery(&plan, m, SimConfig::default(), &schedule, Collective::Allreduce)
                    .expect("recovery must complete (random faults cannot partition ER_q here)");
            let (trees, intact, retention) = match &out.degraded {
                None => (plan.trees.len(), plan.trees.len(), 1.0),
                Some(d) => (d.trees.len(), d.intact(), d.bandwidth_retention().to_f64()),
            };
            rows.push(FaultSweepRow {
                q,
                k,
                rounds: out.rounds.len(),
                trees,
                intact,
                retention,
                achieved: out.achieved_bandwidth(),
                total_cycles: out.total_cycles,
            });
        }
    }
    rows
}

/// Prints the sweep (`experiments -- sim-faults`).
pub fn print_sim_faults(qs: &[u64], m: u64) {
    crate::print_header("SIM: achieved bandwidth vs failed links (degraded-tree recovery)");
    println!(
        "{:>4} {:>7} {:>7} {:>7} {:>7} {:>10} {:>10} {:>12}",
        "q", "faults", "rounds", "trees", "intact", "retention", "el/cycle", "total cycles"
    );
    for r in fault_sweep_rows(qs, &[0, 1, 2, 3], m, 0xFA017) {
        println!(
            "{:>4} {:>7} {:>7} {:>7} {:>7} {:>9.1}% {:>10.3} {:>12}",
            r.q,
            r.k,
            r.rounds,
            r.trees,
            r.intact,
            100.0 * r.retention,
            r.achieved,
            r.total_cycles
        );
    }
    println!("(each failed link breaks at most 2 of the q low-depth trees — Theorem 7.6's");
    println!(" congestion bound caps the blast radius; retention is Algorithm 1 re-run on");
    println!(" the surviving subgraph, el/cycle includes detection and re-run overhead)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_are_deterministic_and_monotone_in_shape() {
        let a = fault_sweep_rows(&[5], &[0, 1], 800, 7);
        let b = fault_sweep_rows(&[5], &[0, 1], 800, 7);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_cycles, y.total_cycles);
            assert_eq!(x.rounds, y.rounds);
            assert!((x.achieved - y.achieved).abs() < 1e-12);
        }
        // Zero faults: one round, full retention, all trees intact.
        assert_eq!(a[0].rounds, 1);
        assert_eq!(a[0].retention, 1.0);
        assert_eq!(a[0].intact, a[0].trees);
        // One fault: retention can only drop, never rise.
        assert!(a[1].retention <= 1.0 + 1e-12);
    }
}
