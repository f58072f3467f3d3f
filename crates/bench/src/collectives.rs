//! Sharded-training collectives regime: the `experiments collectives`
//! subcommand.
//!
//! Runs the three sharded-training collectives — allreduce,
//! reduce-scatter, allgather — through the in-network engine on the
//! low-depth plan and compares each against two yardsticks:
//!
//! * the Theorem 5.1 / Algorithm 1 cycle prediction (allreduce fills the
//!   pipe over two phases, the single-phase collectives over one — see
//!   `pf_allreduce::perf::predicted_tree_cycles`), and
//! * the host-based ring model on the same fabric (`2(N-1)` rounds for
//!   the allreduce, `N-1` for each half, so `rs + ag == allreduce`
//!   exactly — see `pf_simnet::hostbased`).
//!
//! Unlike the wall-clock `perf-snapshot` points, every column here is a
//! simulated-cycle integer, so the table is byte-deterministic: two runs
//! of `experiments collectives --out F` produce identical files, which
//! CI checks with a double-run `cmp`. The same rows are embedded in
//! `BENCH_simnet.json` under the `"collectives"` key (schema in
//! `docs/PERFORMANCE.md`).

use crate::print_header;
use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::hostbased::{self, HostParams};
use pf_simnet::json::Value;
use pf_simnet::routing::Routing;
use pf_simnet::{MultiTreeEmbedding, SimConfig, Simulator, Workload};
use std::path::Path;

/// One collective at one radix — all-integer, hence byte-deterministic.
#[derive(Debug, Clone)]
pub struct CollectivePoint {
    /// PolarFly radix.
    pub q: u64,
    /// Vector length.
    pub m: u64,
    /// Collective name (`Collective::name`).
    pub collective: &'static str,
    /// Simulated cycles through the in-network engine.
    pub cycles: u64,
    /// Theorem 5.1 / Algorithm 1 cycle prediction. The model charges the
    /// full pipeline fill before any drain, which real pipelines overlap,
    /// so it bounds the measurement from above: `cycles <= predicted`,
    /// tight (within ~1%) at saturated vector lengths.
    pub predicted_cycles: u64,
    /// Cycle the first element reached its last sink.
    pub first_element_latency: u64,
    /// The host-based ring model's cycles on the same fabric.
    pub host_ring_cycles: u64,
}

/// The collectives the regime covers — the ones with both a phase-model
/// prediction and a host-based ring counterpart.
const KINDS: [Collective; 3] =
    [Collective::Allreduce, Collective::ReduceScatter, Collective::Allgather];

/// Measures the three collectives on the low-depth plan at every radix.
pub fn collect(qs: &[u64], m: u64) -> Vec<CollectivePoint> {
    let cfg = SimConfig::default();
    let mut points = Vec::new();
    for &q in qs {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let routing = Routing::new(&plan.graph);
        let hp = HostParams { hop_latency: cfg.link_latency as u64, phase_overhead: 0 };
        let hop = cfg.link_latency as u64;
        for kind in KINDS {
            let r = Simulator::new(&plan.graph, &emb, cfg)
                .run_jobs_collective(&w, &[], kind)
                .report;
            assert!(
                r.completed && r.mismatches == 0,
                "collectives q={q} {}: run must complete cleanly",
                kind.name()
            );
            // The ring runs the phases the trees run: both for the
            // allreduce, one for either half.
            let predicted = plan.predicted_collective_cycles(kind, m, hop);
            let ring = hostbased::ring(plan.graph.num_vertices(), m, kind.phases());
            let host = hostbased::price(&plan.graph, &routing, &ring, hp).total;
            assert!(
                r.cycles <= predicted,
                "collectives q={q} {}: measured {} above the fill-plus-drain model {predicted}",
                kind.name(),
                r.cycles
            );
            points.push(CollectivePoint {
                q,
                m,
                collective: kind.name(),
                cycles: r.cycles,
                predicted_cycles: predicted,
                first_element_latency: r.first_element_latency,
                host_ring_cycles: host,
            });
        }
    }
    points
}

impl CollectivePoint {
    /// The row as a JSON object — shared by the standalone file and the
    /// `BENCH_simnet.json` embedding, so the two agree.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("q", self.q.into()), ("m", self.m.into()), ("collective", self.collective.into()),
            ("cycles", self.cycles.into()), ("predicted_cycles", self.predicted_cycles.into()),
            ("first_element_latency", self.first_element_latency.into()),
            ("host_ring_cycles", self.host_ring_cycles.into()),
        ])
    }
}

/// Serializes the regime as a standalone `pf-bench-simnet-collectives-v1`
/// document (byte-deterministic — CI double-runs and `cmp`s it).
pub fn to_json(points: &[CollectivePoint]) -> String {
    Value::object([
        ("schema", "pf-bench-simnet-collectives-v1".into()),
        ("points", points.iter().map(CollectivePoint::to_value).collect()),
    ])
    .pretty()
}

/// The `experiments collectives` entry point: measures, prints a table,
/// and writes `out`.
pub fn print_collectives(qs: &[u64], m: u64, out: &Path) {
    print_header("Sharded-training collectives: in-network vs host-based rings");
    let points = collect(qs, m);
    println!(
        "{:>4} {:>8} {:>15} {:>10} {:>10} {:>9} {:>11} {:>7}",
        "q", "m", "collective", "cycles", "predicted", "latency", "host ring", "gain"
    );
    for p in &points {
        println!(
            "{:>4} {:>8} {:>15} {:>10} {:>10} {:>9} {:>11} {:>6.1}x",
            p.q,
            p.m,
            p.collective,
            p.cycles,
            p.predicted_cycles,
            p.first_element_latency,
            p.host_ring_cycles,
            p.host_ring_cycles as f64 / p.cycles.max(1) as f64
        );
    }
    println!("(reduce-scatter and allgather each move half an allreduce: one phase, not two)");
    std::fs::write(out, to_json(&points)).expect("write collectives JSON");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_rows_are_deterministic_and_consistent() {
        let a = collect(&[3], 600);
        let b = collect(&[3], 600);
        assert_eq!(to_json(&a).into_bytes(), to_json(&b).into_bytes());

        assert_eq!(a.len(), 3);
        let by_name = |n: &str| a.iter().find(|p| p.collective == n).unwrap();
        let ar = by_name("allreduce");
        let rs = by_name("reduce_scatter");
        let ag = by_name("allgather");
        // The single-phase halves price identically and below the
        // two-phase allreduce, in both the model and the ring baseline.
        assert_eq!(rs.predicted_cycles, ag.predicted_cycles);
        assert!(rs.predicted_cycles < ar.predicted_cycles);
        assert_eq!(rs.host_ring_cycles + ag.host_ring_cycles, ar.host_ring_cycles);
        // And they measure as halves: each strictly cheaper than the
        // full allreduce.
        assert!(rs.cycles < ar.cycles && ag.cycles < ar.cycles);
        // Measured respects the model ceiling (also asserted in collect).
        for p in &a {
            assert!(p.cycles <= p.predicted_cycles);
            assert!(p.first_element_latency <= p.cycles);
        }

        let json = to_json(&a);
        assert!(json.contains("pf-bench-simnet-collectives-v1"));
        assert!(json.contains("\"collective\": \"reduce_scatter\""));
    }
}
