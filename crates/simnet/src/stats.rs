//! Post-run statistics helpers over [`crate::engine::SimReport`] and
//! [`crate::trace::TraceReport`]: utilization roll-ups, per-tree goodput,
//! and measured-vs-theoretical congestion comparison (the runtime check of
//! Theorems 7.6 / 7.19).

use crate::engine::SimReport;
use crate::trace::TraceReport;

/// Summary of per-channel utilization across a run.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSummary {
    /// Channels that carried at least one flit.
    pub active_channels: usize,
    /// Total channels (2 × physical links).
    pub total_channels: usize,
    pub min_active: f64,
    pub mean_active: f64,
    pub max: f64,
}

/// Computes the utilization summary of a report.
pub fn utilization_summary(r: &SimReport) -> UtilizationSummary {
    let cycles = r.cycles.max(1) as f64;
    let active: Vec<f64> = r
        .channel_flits
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| f as f64 / cycles)
        .collect();
    UtilizationSummary {
        active_channels: active.len(),
        total_channels: r.channel_flits.len(),
        min_active: active.iter().copied().fold(f64::INFINITY, f64::min).min(f64::INFINITY),
        mean_active: if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        },
        max: r.max_channel_utilization,
    }
}

/// Per-tree measured bandwidth: slice length over that tree's completion
/// cycle (0 for empty slices).
pub fn per_tree_bandwidth(r: &SimReport, sizes: &[u64]) -> Vec<f64> {
    assert_eq!(sizes.len(), r.tree_completion.len());
    sizes
        .iter()
        .zip(&r.tree_completion)
        .map(|(&m, &c)| if c == 0 { 0.0 } else { m as f64 / c as f64 })
        .collect()
}

/// Measured-vs-theoretical per-link congestion for one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionSummary {
    /// Measured congestion per undirected edge
    /// ([`TraceReport::link_congestion`]).
    pub measured: Vec<u32>,
    /// Maximum measured per-link congestion.
    pub max_measured: u32,
    /// The theoretical bound being checked (e.g. `AllreducePlan::max_congestion`).
    pub bound: u32,
    /// `true` iff no link exceeded the bound — the runtime form of
    /// Theorems 7.6 (≤ 2, low-depth) and 7.19 (= 1, edge-disjoint).
    pub within_bound: bool,
}

/// Compares a trace's measured per-link congestion against a theoretical
/// bound.
pub fn congestion_vs_bound(trace: &TraceReport, bound: u32) -> CongestionSummary {
    let measured = trace.link_congestion();
    let max_measured = measured.iter().copied().max().unwrap_or(0);
    CongestionSummary { measured, max_measured, bound, within_bound: max_measured <= bound }
}

/// Where the run's channel-cycles went, summed over channels that carried
/// traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct StallSummary {
    /// Channel-cycles that moved a flit.
    pub busy_cycles: u64,
    /// Channel-cycles lost to exhausted downstream credit.
    pub credit_stall_cycles: u64,
    /// Channel-cycles with nothing staged (on active channels only).
    pub idle_cycles: u64,
    /// `busy / (busy + stall + idle)` over active channels.
    pub busy_fraction: f64,
}

/// Aggregates per-channel stall attribution over the channels that carried
/// at least one flit.
pub fn stall_summary(trace: &TraceReport) -> StallSummary {
    let (mut busy, mut stall, mut idle) = (0u64, 0u64, 0u64);
    for c in trace.channels.iter().filter(|c| c.flits > 0) {
        busy += c.busy_cycles;
        stall += c.credit_stall_cycles;
        idle += c.idle_cycles;
    }
    let total = busy + stall + idle;
    StallSummary {
        busy_cycles: busy,
        credit_stall_cycles: stall,
        idle_cycles: idle,
        busy_fraction: if total == 0 { 0.0 } else { busy as f64 / total as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collective, MultiTreeEmbedding, SimConfig, Simulator, TraceConfig, Workload};
    use pf_graph::{Graph, RootedTree};

    fn run() -> (SimReport, Vec<u64>) {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[1, 0, 3, 2], 0).unwrap();
        let sizes = vec![1000, 1000];
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &sizes);
        let w = Workload::new(4, 2000);
        (Simulator::new(&g, &emb, SimConfig::default()).run(&w), sizes)
    }

    #[test]
    fn utilization_summary_sane() {
        let (r, _) = run();
        let s = utilization_summary(&r);
        assert!(s.active_channels > 0);
        assert!(s.active_channels <= s.total_channels);
        assert!(s.min_active > 0.0);
        assert!(s.min_active <= s.mean_active);
        assert!(s.mean_active <= s.max + 1e-12);
        assert!(s.max <= 1.0 + 1e-9);
    }

    #[test]
    fn per_tree_bandwidth_positive() {
        let (r, sizes) = run();
        let bw = per_tree_bandwidth(&r, &sizes);
        assert_eq!(bw.len(), 2);
        for b in bw {
            assert!(b > 0.2 && b <= 1.0, "per-tree bw {b}");
        }
    }

    #[test]
    fn congestion_and_stall_summaries() {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        // Two trees over the same path -> per-link congestion 2 on shared
        // edges.
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &[500, 500]);
        let w = Workload::new(4, 1000);
        let run = Simulator::new(&g, &emb, SimConfig::default())
            .with_trace(TraceConfig::counters())
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        assert!(run.report.completed);
        let trace = run.trace.unwrap();

        let c = congestion_vs_bound(&trace, 2);
        assert_eq!(c.max_measured, 2);
        assert!(c.within_bound);
        assert!(!congestion_vs_bound(&trace, 1).within_bound);

        let s = stall_summary(&trace);
        assert!(s.busy_cycles > 0);
        assert!(s.busy_fraction > 0.0 && s.busy_fraction <= 1.0);
        // Congestion-2 channels split their bandwidth, so the run can't be
        // all-busy everywhere.
        assert!(s.busy_fraction < 1.0);
    }

    #[test]
    fn per_tree_bandwidth_zero_slice() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let t1 = RootedTree::from_path(&[0, 1, 2], 1).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2], 0).unwrap();
        let sizes = vec![100, 0];
        let emb = MultiTreeEmbedding::new(&g, &[t1, t2], &sizes);
        let w = Workload::new(3, 100);
        let r = Simulator::new(&g, &emb, SimConfig::default()).run(&w);
        let bw = per_tree_bandwidth(&r, &sizes);
        assert!(bw[0] > 0.0);
        assert_eq!(bw[1], 0.0);
    }
}
