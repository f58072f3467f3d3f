//! Golden-trace fixtures: committed `pf-simnet-trace-v1` dumps that the
//! engine must reproduce byte for byte.
//!
//! The difftest layer proves the two engines agree with each other; this
//! layer pins them both to history. Any change to engine scheduling,
//! trace serialization, or the digest math shows up as a byte diff
//! against `tests/golden/*.json` — if the change is intentional,
//! regenerate the fixtures (and review the diff) with
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p pf-simnet --test golden_traces
//! ```
//!
//! The fixtures are deliberately small: the q = 3 low-depth plan
//! (13 nodes), a 40-element vector, and a 32-bucket timeline — one
//! allreduce and one reduce-scatter (the sharded-training half whose
//! trace differs most: no broadcast relays, one sink per tree). A second
//! pair pins the first off-PolarFly plan: the kary multitree construction
//! on a 4×4 torus, so generic-substrate embeddings are held to the same
//! byte-for-byte history as the paper's. A third pair pins faulted
//! stepping: the q = 3 allreduce traced with its `faults` table, under a
//! transient link outage that heals and a permanent one that is
//! detected and aborts the run.

use pf_allreduce::{AllreducePlan, Budget, KaryMultitree};
use pf_simnet::engine::Collective;
use pf_simnet::{
    FaultEvent, FaultSchedule, FaultTarget, MultiTreeEmbedding, SimConfig, Simulator,
    TraceConfig, TraceReport, Workload,
};
use std::path::{Path, PathBuf};

const M: u64 = 40;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_trace(kind: Collective) -> TraceReport {
    let plan = AllreducePlan::low_depth(3).expect("q = 3");
    traced_run(&plan, kind)
}

fn golden_torus_trace(kind: Collective) -> TraceReport {
    let g = pf_topo::torus::Torus::new(&[4, 4]).graph().clone();
    let plan = AllreducePlan::construct(&g, &KaryMultitree { k: 3 }, &Budget::unlimited())
        .expect("kary plan on the 4x4 torus");
    traced_run(&plan, kind)
}

fn traced_run(plan: &AllreducePlan, kind: Collective) -> TraceReport {
    let sizes = plan.split(M);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), M);
    let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
        .with_trace(TraceConfig::with_timeline(32))
        .run_jobs_collective(&w, &[], kind);
    assert!(run.report.completed && run.report.mismatches == 0, "{}", kind.name());
    run.trace.expect("tracing was enabled")
}

/// The q = 3 allreduce with the first link a tree uses down from cycle 10
/// — mid-pipeline, with flits on its wires — for `duration` cycles
/// (`None` = for good).
fn golden_faulted_trace(duration: Option<u64>) -> TraceReport {
    let plan = AllreducePlan::low_depth(3).expect("q = 3");
    let e = plan.edge_congestion.iter().position(|&c| c > 0).expect("a used link") as u32;
    let schedule = FaultSchedule {
        events: vec![FaultEvent {
            cycle: 10,
            target: FaultTarget::Link(e),
            duration,
        }],
        abort_on_detection: true,
    };
    let sizes = plan.split(M);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), M);
    let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
        .with_trace(TraceConfig::with_timeline(32))
        .with_faults(&plan.graph, schedule)
        .run_jobs_collective(&w, &[], Collective::Allreduce);
    if duration.is_some() {
        assert!(run.report.completed && run.report.mismatches == 0, "the outage heals");
        assert!(run.faults.failed_edges.is_empty());
    } else {
        assert!(run.faults.aborted && run.faults.failed_edges == vec![e], "detected, aborted");
    }
    run.trace.expect("tracing was enabled")
}

fn check(kind: Collective, file: &str) {
    check_produced(golden_trace(kind), kind, file);
}

fn check_torus(kind: Collective, file: &str) {
    check_produced(golden_torus_trace(kind), kind, file);
}

fn check_produced(trace: TraceReport, kind: Collective, file: &str) {
    let path = golden_dir().join(file);
    let produced = trace.to_json();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &produced).expect("write golden fixture");
        return;
    }

    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {} ({e}); regenerate with GOLDEN_REGEN=1", path.display()));
    assert_eq!(
        produced.into_bytes(),
        committed.into_bytes(),
        "{} trace diverged from {}; if intentional, regenerate with GOLDEN_REGEN=1 and review the diff",
        kind.name(),
        path.display()
    );
}

#[test]
fn allreduce_trace_matches_the_golden_fixture() {
    check(Collective::Allreduce, "allreduce_q3.json");
}

#[test]
fn reduce_scatter_trace_matches_the_golden_fixture() {
    check(Collective::ReduceScatter, "reduce_scatter_q3.json");
}

#[test]
fn torus_allreduce_trace_matches_the_golden_fixture() {
    check_torus(Collective::Allreduce, "allreduce_torus4x4.json");
}

#[test]
fn torus_reduce_scatter_trace_matches_the_golden_fixture() {
    check_torus(Collective::ReduceScatter, "reduce_scatter_torus4x4.json");
}

#[test]
fn transient_link_outage_trace_matches_the_golden_fixture() {
    let trace = golden_faulted_trace(Some(20));
    check_produced(trace, Collective::Allreduce, "allreduce_q3_outage_heals.json");
}

#[test]
fn permanent_link_outage_trace_matches_the_golden_fixture() {
    let trace = golden_faulted_trace(None);
    check_produced(trace, Collective::Allreduce, "allreduce_q3_outage_aborts.json");
}

/// The fixtures also pin the parser: a committed dump must round-trip
/// through `TraceReport::from_json` back to identical bytes.
#[test]
fn golden_fixtures_round_trip_through_the_parser() {
    for file in [
        "allreduce_q3.json",
        "reduce_scatter_q3.json",
        "allreduce_torus4x4.json",
        "reduce_scatter_torus4x4.json",
        "allreduce_q3_outage_heals.json",
        "allreduce_q3_outage_aborts.json",
    ] {
        let path = golden_dir().join(file);
        let Ok(committed) = std::fs::read_to_string(&path) else {
            // First generation: the byte-compare tests report the miss.
            continue;
        };
        let parsed = TraceReport::from_json(&committed)
            .unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
        assert_eq!(parsed.to_json(), committed, "{file} round-trip changed bytes");
    }
}
