//! Simulator performance snapshot: the `experiments perf-snapshot`
//! subcommand.
//!
//! Runs the multi-tree allreduce through the optimized active-set engine
//! and the retained reference stepper (`pf_simnet::engine::reference`,
//! via the `reference-engine` feature), measuring wall time, simulated
//! cycles per wall-clock second, and heap allocation counts, and writes
//! the result to `BENCH_simnet.json`. The file is committed at the repo
//! root, so the engine's performance trajectory is recorded PR-over-PR,
//! and CI uploads each run's copy as an artifact (see
//! `docs/PERFORMANCE.md` for the schema).
//!
//! Each radix is measured in the simulator's four operating regimes,
//! because they stress opposite ends of the engine:
//!
//! * **latency** — short vector over long links (the Figure 5b / SIM2
//!   small-message regime). Activity comes in bursts separated by
//!   multi-cycle wire gaps, so the active sets collapse and the clock
//!   skips; this is where the event-driven design recovers an order of
//!   magnitude or more.
//! * **saturated** — long vector at the default latency (the Figure 5a
//!   bandwidth regime). Nearly every engine fires every cycle, so no
//!   schedule can skip anything and the two engines do the same
//!   fundamental per-flit work; the optimized engine's win here is
//!   bounded (it merely avoids the reference's per-fire allocations).
//! * **fault_retention** — a transient link outage freezes one subtree
//!   for thousands of cycles (the `sim-faults` retention sweep). The
//!   fault layer pins per-cycle stepping, but the active sets drain, so
//!   each frozen cycle costs the optimized engine a few bitset words
//!   instead of a full engine/channel/stream scan.
//! * **contention** — two tenants share the fabric on disjoint halves of
//!   the tree set (the `sched-sweep` regime), exercising the multi-job
//!   accounting path (`Simulator::run_jobs_collective`). The reference stepper has
//!   no job support, so it runs the identical embedding as one plain
//!   collective; with both tenants released at cycle 0 the engine
//!   decisions coincide and simulated cycles must agree exactly.
//!
//! The per-q summary reports the geometric mean across the four
//! regimes — the standard cross-workload aggregate. Each radix also
//! measures the edge-disjoint plan saturated: its trees never share a
//! channel, so they take the engine's closed form instead of the cycle
//! loop, and its geomean across radixes is gated under its own key,
//! [`EDGE_DISJOINT_SATURATED`]. The latency regime takes the closed form
//! too wherever its slices fit the buffer (q ≥ 9).
//!
//! Allocation counts come from [`CountingAllocator`], which the
//! `experiments` binary installs as its `#[global_allocator]`; the
//! optimized engine's steady state allocates nothing, so its per-run
//! count stays flat in the vector length while the reference stepper's
//! grows with every fired reduction.

use crate::print_header;
use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::faults::{FaultEvent, FaultTarget};
use pf_simnet::json::Value;
use pf_simnet::{FaultSchedule, MultiTreeEmbedding, SimConfig, Simulator, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The four operating regimes of the low-depth sweep, in measurement
/// order. Shared by [`collect`], [`regime_geomeans`], the `--gate`
/// regression check and the tests, so adding a regime is a one-line
/// change that every consumer picks up.
pub const REGIMES: [&str; 4] = ["latency", "saturated", "fault_retention", "contention"];

/// The `regime_geomeans` key of the edge-disjoint saturated points — the
/// deep-tree regime, gated beside the four low-depth [`REGIMES`].
pub const EDGE_DISJOINT_SATURATED: &str = "edge_disjoint_saturated";

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `System`-backed allocator that counts every allocation. Installed as
/// the `experiments` binary's `#[global_allocator]`; code linked against
/// the library without it simply reads zero deltas.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Bytes currently live on the heap (allocated − freed) as seen by the
/// counting allocator — 0 when it is not installed. The fabric soak uses
/// deltas of this gauge to prove the manager's memory stays flat across
/// a million jobs; like the allocation counts, the value at a quiesce
/// point is a pure function of the code path, so it is safe to commit in
/// byte-deterministic benchmark JSON.
#[must_use]
pub fn live_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed).saturating_sub(FREED_BYTES.load(Ordering::Relaxed))
}

/// Snapshot of the counters, for before/after deltas around a region.
fn alloc_counters() -> (u64, u64) {
    (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed))
}

/// One engine's measurement at one sweep point.
#[derive(Debug, Clone)]
pub struct EngineMeasurement {
    /// "optimized" or "reference".
    pub engine: &'static str,
    /// Simulated cycles the run took (identical across engines by the
    /// differential guarantee — asserted here too).
    pub cycles: u64,
    /// Best-of-runs wall time for one full simulation, in seconds.
    pub wall_seconds: f64,
    /// `cycles / wall_seconds` — the headline throughput metric.
    pub cycles_per_sec: f64,
    /// Heap allocations during one run (0 when the counting allocator is
    /// not installed, i.e. outside the `experiments` binary).
    pub allocations: u64,
    /// Bytes requested during one run.
    pub allocated_bytes: u64,
}

/// Both engines at one sweep point.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Plan family ("low_depth" / "edge_disjoint").
    pub label: &'static str,
    /// Operating regime (one of [`REGIMES`]).
    pub regime: &'static str,
    /// PolarFly radix.
    pub q: u64,
    /// Vector length.
    pub m: u64,
    /// Measurements, optimized first.
    pub engines: Vec<EngineMeasurement>,
    /// Optimized cycles/sec over reference cycles/sec.
    pub speedup: f64,
}

/// Per-radix aggregate over the low-depth allreduce regimes.
#[derive(Debug, Clone)]
pub struct QSummary {
    /// PolarFly radix.
    pub q: u64,
    /// Geometric mean of the regime speedups at this radix.
    pub allreduce_speedup: f64,
}

fn measure<F: Fn() -> u64>(engine: &'static str, runs: usize, run: F) -> EngineMeasurement {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    let mut allocations = 0;
    let mut allocated_bytes = 0;
    for _ in 0..runs.max(1) {
        let (a0, b0) = alloc_counters();
        let t0 = Instant::now();
        cycles = run();
        let dt = t0.elapsed().as_secs_f64();
        let (a1, b1) = alloc_counters();
        if dt < best {
            best = dt;
            allocations = a1 - a0;
            allocated_bytes = b1 - b0;
        }
    }
    EngineMeasurement {
        engine,
        cycles,
        wall_seconds: best,
        cycles_per_sec: cycles as f64 / best.max(1e-12),
        allocations,
        allocated_bytes,
    }
}

/// Measures one plan / regime / vector length through both engines.
fn measure_point(
    label: &'static str,
    regime: &'static str,
    q: u64,
    plan: &AllreducePlan,
    m: u64,
    cfg: SimConfig,
    faults: Option<&FaultSchedule>,
) -> PerfPoint {
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    let runs = 3;

    let run_engine = |optimized: bool| -> u64 {
        let mut sim = Simulator::new(&plan.graph, &emb, cfg);
        if let Some(f) = faults {
            sim = sim.with_faults(&plan.graph, f.clone());
        }
        let r = if optimized {
            sim.run(&w)
        } else {
            sim.run_reference(&w, Collective::Allreduce).report
        };
        assert!(
            r.completed && r.mismatches == 0,
            "{label}/{regime} q={q}: run must complete cleanly"
        );
        r.cycles
    };
    let optimized = measure("optimized", runs, || run_engine(true));
    let reference = measure("reference", runs, || run_engine(false));
    assert_eq!(
        optimized.cycles, reference.cycles,
        "{label}/{regime} q={q}: engines disagree on simulated cycles"
    );
    let speedup = optimized.cycles_per_sec / reference.cycles_per_sec.max(1e-12);
    PerfPoint { label, regime, q, m, engines: vec![optimized, reference], speedup }
}

/// Measures the two-tenant contention regime: the plan's trees split in
/// half between two concurrent jobs of `m / 2` elements each, executed
/// through [`Simulator::run_jobs_collective`] (optimized) and as one plain
/// collective on the identical embedding (reference).
fn measure_contention(q: u64, plan: &AllreducePlan, m: u64, cfg: SimConfig) -> PerfPoint {
    use pf_simnet::{JobBinding, JobSegment, ReduceKind};

    let half = (plan.trees.len() / 2).max(1);
    let idx_a: Vec<usize> = (0..half).collect();
    let idx_b: Vec<usize> = (half..plan.trees.len()).collect();
    let sub_a = plan.tree_subset(&idx_a);
    let sub_b = plan.tree_subset(&idx_b);
    let (m_a, m_b) = (m / 2, m - m / 2);
    let (split_a, split_b) = (sub_a.split(m_a), sub_b.split(m_b));

    let mut trees = sub_a.trees.clone();
    trees.extend(sub_b.trees.iter().cloned());
    let mut sizes = split_a.clone();
    sizes.extend_from_slice(&split_b);
    let mut offsets = Vec::with_capacity(sizes.len());
    let mut off = 0u64;
    for &len in &split_a {
        offsets.push(off);
        off += len;
    }
    let mut off = m_a;
    for &len in &split_b {
        offsets.push(off);
        off += len;
    }
    let emb = MultiTreeEmbedding::with_offsets(&plan.graph, &trees, &sizes, &offsets);
    let w = Workload::concat(
        plan.graph.num_vertices(),
        &[
            JobSegment::full(m_a, ReduceKind::WrappingU64),
            JobSegment::full(m_b, ReduceKind::WrappingU64),
        ],
    );
    let bindings = [
        JobBinding { trees: 0..half, release: 0 },
        JobBinding { trees: half..trees.len(), release: 0 },
    ];
    let runs = 3;
    let optimized = measure("optimized", runs, || {
        let run = Simulator::new(&plan.graph, &emb, cfg).run_jobs_collective(
            &w,
            &bindings,
            Collective::Allreduce,
        );
        assert!(
            run.report.completed && run.report.mismatches == 0,
            "contention q={q}: run must complete cleanly"
        );
        assert!(run.jobs.iter().all(|j| j.mismatches == 0));
        run.report.cycles
    });
    let reference = measure("reference", runs, || {
        let r = Simulator::new(&plan.graph, &emb, cfg)
            .run_reference(&w, Collective::Allreduce)
            .report;
        assert!(r.completed && r.mismatches == 0);
        r.cycles
    });
    assert_eq!(
        optimized.cycles, reference.cycles,
        "contention q={q}: job accounting must not change engine decisions"
    );
    let speedup = optimized.cycles_per_sec / reference.cycles_per_sec.max(1e-12);
    PerfPoint {
        label: "low_depth",
        regime: "contention",
        q,
        m,
        engines: vec![optimized, reference],
        speedup,
    }
}

/// First edge the plan actually routes flits over — the outage target for
/// the fault-retention regime.
fn used_edge(plan: &AllreducePlan) -> u32 {
    plan.edge_congestion.iter().position(|&c| c > 0).expect("plan uses an edge") as u32
}

/// Runs the sweep: the four [`REGIMES`] of the low-depth plan and the
/// edge-disjoint set saturated, at every radix, with saturated vector
/// length `m`.
pub fn collect(qs: &[u64], m: u64) -> Vec<PerfPoint> {
    // Small-message latency regime: long links and a vector short enough
    // that wire time dominates. Buffers stay small — a few-element slice
    // never accumulates credits, and lean arenas keep the measurement on
    // the stepping loop instead of on setup.
    let latency_cfg = SimConfig { link_latency: 32, vc_buffer: 4, ..SimConfig::default() };
    let mut points = Vec::new();
    for &q in qs {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        points.push(measure_point("low_depth", "latency", q, &plan, 32, latency_cfg, None));
        points.push(measure_point("low_depth", "saturated", q, &plan, m, SimConfig::default(), None));
        // Transient outage on a used link: one subtree freezes for 3000
        // cycles and heals; detection observes but does not abort. The
        // vector is short so the frozen phase, not the warm-up, dominates
        // (matching the retention sweep's many short faulted runs).
        let outage = FaultSchedule {
            events: vec![FaultEvent {
                cycle: 10,
                target: FaultTarget::Link(used_edge(&plan)),
                duration: Some(3_000),
            }],
            abort_on_detection: false,
        };
        points.push(measure_point(
            "low_depth",
            "fault_retention",
            q,
            &plan,
            200,
            SimConfig::default(),
            Some(&outage),
        ));
        points.push(measure_contention(q, &plan, m, SimConfig::default()));
        if let Ok(plan) = AllreducePlan::edge_disjoint(q, 30, 1) {
            points.push(measure_point("edge_disjoint", "saturated", q, &plan, m, SimConfig::default(), None));
        }
    }
    points
}

/// Aggregates the low-depth allreduce regimes into one speedup per radix
/// (geometric mean, the standard cross-workload benchmark aggregate).
pub fn summarize(points: &[PerfPoint]) -> Vec<QSummary> {
    let mut out: Vec<QSummary> = Vec::new();
    for p in points.iter().filter(|p| p.label == "low_depth") {
        match out.iter_mut().find(|s| s.q == p.q) {
            Some(s) => s.allreduce_speedup *= p.speedup,
            None => out.push(QSummary { q: p.q, allreduce_speedup: p.speedup }),
        }
    }
    let regimes =
        points.iter().filter(|p| p.label == "low_depth").map(|p| p.regime).collect::<std::collections::BTreeSet<_>>().len();
    for s in &mut out {
        s.allreduce_speedup = s.allreduce_speedup.powf(1.0 / regimes.max(1) as f64);
    }
    out
}

/// Aggregates the points into one speedup per regime (geometric mean
/// across radixes) — the quantity the `--gate` regression check compares
/// against 1.0: the four low-depth [`REGIMES`] under their own names,
/// then the edge-disjoint saturated points under
/// [`EDGE_DISJOINT_SATURATED`].
pub fn regime_geomeans(points: &[PerfPoint]) -> Vec<(&'static str, f64)> {
    let keys = REGIMES.iter().map(|&r| (r, "low_depth", r));
    keys.chain([(EDGE_DISJOINT_SATURATED, "edge_disjoint", "saturated")])
        .filter_map(|(key, label, regime)| {
            let speedups: Vec<f64> = points
                .iter()
                .filter(|p| p.label == label && p.regime == regime)
                .map(|p| p.speedup)
                .collect();
            if speedups.is_empty() {
                return None;
            }
            let g = speedups.iter().product::<f64>().powf(1.0 / speedups.len() as f64);
            Some((key, g))
        })
        .collect()
}

/// One cell of the routers-per-second scaling curve: an edge-disjoint
/// plan of radix `q` run saturated.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// PolarFly radix.
    pub q: u64,
    /// Routers in the fabric (`q² + q + 1`).
    pub routers: u32,
    /// Vector length.
    pub m: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Best-of-runs wall time, seconds.
    pub wall_seconds: f64,
    /// `routers × cycles / wall_seconds` — router-cycles simulated per
    /// wall-clock second, the scaling-curve metric.
    pub routers_per_sec: f64,
}

/// Measures the scaling curve: one saturated edge-disjoint plan per radix.
/// Its trees never share a channel, so at the default config the engine
/// reports them in closed form.
pub fn collect_scaling(qs: &[u64], m: u64) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for &q in qs {
        let Ok(plan) = AllreducePlan::edge_disjoint(q, 30, 1) else {
            continue;
        };
        let routers = plan.graph.num_vertices();
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(routers, m);
        let meas = measure("optimized", 2, || {
            let r = Simulator::new(&plan.graph, &emb, SimConfig::default()).run(&w);
            assert!(r.completed && r.mismatches == 0, "scaling q={q}: run must complete cleanly");
            r.cycles
        });
        out.push(ScalingPoint {
            q,
            routers,
            m,
            cycles: meas.cycles,
            wall_seconds: meas.wall_seconds,
            routers_per_sec: routers as f64 * meas.cycles as f64 / meas.wall_seconds.max(1e-12),
        });
    }
    out
}

/// Serializes the sweep as `pf-bench-simnet-perf-v3` JSON (schema in
/// `docs/PERFORMANCE.md`; v2 added the `regime_geomeans` and `scaling`
/// arrays to v1, and v3 drops the scaling cells' `threads` key).
/// `collectives` is the byte-deterministic sharded-training regime (see
/// [`crate::collectives`]), embedded under its own key so the wall-clock
/// points stay separate from the cycle-exact rows.
pub fn to_json(
    points: &[PerfPoint],
    collectives: &[crate::collectives::CollectivePoint],
    scaling: &[ScalingPoint],
) -> String {
    let engine = |e: &EngineMeasurement| {
        Value::object([
            ("engine", e.engine.into()), ("cycles", e.cycles.into()),
            ("wall_seconds", Value::fixed(e.wall_seconds, 6)),
            ("cycles_per_sec", Value::fixed(e.cycles_per_sec, 0)),
            ("allocations", e.allocations.into()), ("allocated_bytes", e.allocated_bytes.into()),
        ])
    };
    let point = |p: &PerfPoint| {
        Value::object([
            ("label", p.label.into()), ("regime", p.regime.into()), ("q", p.q.into()),
            ("m", p.m.into()), ("speedup", Value::fixed(p.speedup, 3)),
            ("engines", p.engines.iter().map(engine).collect()),
        ])
    };
    let summary = |s: &QSummary| {
        Value::object([("q", s.q.into()), ("allreduce_speedup", Value::fixed(s.allreduce_speedup, 3))])
    };
    let geomean = |&(regime, g): &(&str, f64)| {
        Value::object([("regime", regime.into()), ("speedup", Value::fixed(g, 3))])
    };
    let scaling_cell = |s: &ScalingPoint| {
        Value::object([
            ("q", s.q.into()), ("routers", s.routers.into()), ("m", s.m.into()),
            ("cycles", s.cycles.into()),
            ("wall_seconds", Value::fixed(s.wall_seconds, 6)),
            ("routers_per_sec", Value::fixed(s.routers_per_sec, 0)),
        ])
    };
    Value::object([
        ("schema", "pf-bench-simnet-perf-v3".into()),
        ("summary", summarize(points).iter().map(summary).collect()),
        ("points", points.iter().map(point).collect()),
        ("regime_geomeans", regime_geomeans(points).iter().map(geomean).collect()),
        ("scaling", scaling.iter().map(scaling_cell).collect()),
        ("collectives", collectives.iter().map(crate::collectives::CollectivePoint::to_value).collect()),
    ])
    .pretty()
}

/// Options for [`print_perf_snapshot`], wired from the `experiments`
/// CLI (`--scaling`, `--gate`).
#[derive(Debug, Clone, Default)]
pub struct SnapshotOptions {
    /// Also measure the routers-per-second scaling curve (edge-disjoint
    /// plans, q up to 31) and embed it in the JSON.
    pub scaling: bool,
    /// After measuring, fail (return `Err`) if any regime's geomean
    /// speedup over the reference drops below 1.0× — the CI perf
    /// regression gate.
    pub gate: bool,
    /// Radix ceiling for the scaling sweep ([`SCALING_QS`] entries above
    /// this are skipped) — wired from the CLI's `--max-q`.
    pub max_q: u64,
}

/// Radixes of the scaling curve (edge-disjoint plans; the PolarFly
/// grows to 993 routers at q = 31).
pub const SCALING_QS: [u64; 5] = [11, 13, 19, 23, 31];

/// The `experiments perf-snapshot` entry point: measures, prints a table,
/// and writes `out`. Returns `Err` with a description when the `--gate`
/// regression check fails (the caller exits nonzero).
pub fn print_perf_snapshot(
    qs: &[u64],
    m: u64,
    out: &Path,
    opts: &SnapshotOptions,
) -> Result<(), String> {
    print_header("PERF simulator engine snapshot (optimized vs reference)");
    let points = collect(qs, m);
    println!(
        "{:<14} {:<16} {:>3} {:>7} {:>13} {:>13} {:>11} {:>9}",
        "plan", "regime", "q", "m", "opt cyc/s", "ref cyc/s", "opt allocs", "speedup"
    );
    for p in &points {
        println!(
            "{:<14} {:<16} {:>3} {:>7} {:>13.0} {:>13.0} {:>11} {:>8.2}x",
            p.label,
            p.regime,
            p.q,
            p.m,
            p.engines[0].cycles_per_sec,
            p.engines[1].cycles_per_sec,
            p.engines[0].allocations,
            p.speedup
        );
    }
    for s in summarize(&points) {
        println!("q={:<3} allreduce speedup (geomean over regimes): {:.2}x", s.q, s.allreduce_speedup);
    }
    let geo = regime_geomeans(&points);
    for (regime, g) in &geo {
        println!("regime {regime:<16} speedup (geomean over q): {g:.2}x");
    }
    let scaling = if opts.scaling {
        let scaling_qs: Vec<u64> = SCALING_QS
            .iter()
            .copied()
            .filter(|&q| q <= opts.max_q)
            .collect();
        let sc = collect_scaling(&scaling_qs, m.max(20_000));
        println!("{:<5} {:>8} {:>8} {:>9} {:>16}", "q", "routers", "m", "cycles", "routers/sec");
        for s in &sc {
            println!(
                "{:<5} {:>8} {:>8} {:>9} {:>16.0}",
                s.q, s.routers, s.m, s.cycles, s.routers_per_sec
            );
        }
        sc
    } else {
        Vec::new()
    };
    let collectives = crate::collectives::collect(qs, m);
    std::fs::write(out, to_json(&points, &collectives, &scaling))
        .expect("write BENCH_simnet.json");
    println!("wrote {}", out.display());
    if opts.gate {
        for (regime, g) in &geo {
            if *g < 1.0 {
                return Err(format!(
                    "perf gate: regime {regime} geomean speedup {g:.3}x < 1.0x vs reference"
                ));
            }
        }
        println!("perf gate: all regime geomeans >= 1.0x");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_points_are_consistent() {
        let points = collect(&[3, 5], 400);
        assert_eq!(points.len(), 10, "per q: 4 low_depth regimes + edge_disjoint");
        for p in &points {
            assert_eq!(p.engines.len(), 2);
            assert_eq!(p.engines[0].engine, "optimized");
            assert_eq!(p.engines[1].engine, "reference");
            assert_eq!(p.engines[0].cycles, p.engines[1].cycles);
            assert!(p.speedup > 0.0);
        }
        let cells: Vec<(&str, &str, u64)> =
            points.iter().map(|p| (p.label, p.regime, p.q)).collect();
        let mut expected = Vec::new();
        for q in [3, 5] {
            expected.extend(REGIMES.iter().map(|&r| ("low_depth", r, q)));
            expected.push(("edge_disjoint", "saturated", q));
        }
        assert_eq!(cells, expected);
        let summary = summarize(&points);
        assert_eq!(summary.iter().map(|s| s.q).collect::<Vec<_>>(), [3, 5]);
        assert!(summary.iter().all(|s| s.allreduce_speedup > 0.0));
        let geo = regime_geomeans(&points);
        let mut keys = REGIMES.to_vec();
        keys.push(EDGE_DISJOINT_SATURATED);
        assert_eq!(geo.iter().map(|&(k, _)| k).collect::<Vec<_>>(), keys);
        assert!(geo.iter().all(|&(_, g)| g > 0.0));
        let scaling = collect_scaling(&[3], 400);
        assert_eq!(scaling.len(), 1);
        assert_eq!((scaling[0].q, scaling[0].routers), (3, 13));
        assert!(scaling[0].cycles > 0 && scaling[0].routers_per_sec > 0.0);
        let collectives = crate::collectives::collect(&[3], 400);
        let json = to_json(&points, &collectives, &scaling);
        assert!(json.contains("pf-bench-simnet-perf-v3"));
        assert!(json.contains("\"regime\": \"latency\""));
        assert!(json.contains("\"allreduce_speedup\""));
        assert!(json.contains("\"regime_geomeans\": ["));
        assert!(json.contains("\"scaling\": ["));
        assert!(json.contains("\"routers_per_sec\""));
        assert!(!json.contains("\"threads\""));
        assert!(json.contains("\"collectives\": ["));
        assert!(json.contains("\"collective\": \"allgather\""));
    }
}
