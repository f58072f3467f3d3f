//! `engine_saturated`: one long allreduce on each of the paper's two
//! solutions at q = 13, straight on the engine — the Figure 5a bandwidth
//! regime, with no scheduler, fabric or cache in the way.

use crate::measure::alloc_counters;
use crate::report::{Outcome, Profile, Timing};
use crate::trace::{self, span, Breakdown};
use crate::Params;
use pf_allreduce::{allreduce_rate_bound, AllreducePlan};
use pf_simnet::{MultiTreeEmbedding, SimConfig, SimReport, Simulator, Workload};
use std::hint::black_box;
use std::time::Instant;

/// The engine workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// PolarFly radix.
    pub q: u64,
    /// Nominal vector length; the seed trims up to 2 % off it.
    pub m: u64,
    /// Engine worker threads (the sharded mode).
    pub threads: usize,
}

/// q = 13 (where `BENCH_simnet.json` records the edge-disjoint plan's
/// weak batch-window speedup), 50 000 elements, one engine thread. At
/// q = 19 the engine's state outgrows the core's private cache and its
/// time swings with the host's cache contention; on a two-core host the
/// sharded mode's time swings with whatever else holds the second core.
pub const SATURATED: Shape = Shape {
    q: 13,
    m: 50_000,
    threads: 1,
};

/// Threads of the sharded run the warm-up compares against.
const SHARDED_THREADS: usize = 2;

/// The two plans with their embeddings and the shared input vector.
struct Setup {
    plans: [AllreducePlan; 2],
    embs: [MultiTreeEmbedding; 2],
    w: Workload,
}

/// The vector length the seed selects: within 2 % below the nominal one,
/// so runs at different seeds reduce different inputs.
fn length(seed: u64, shape: &Shape) -> u64 {
    shape.m - seed % (shape.m / 50).max(1)
}

fn setup(shape: &Shape, m: u64, req: u64) -> Setup {
    let ed = span("construction.edge_disjoint", req, || {
        AllreducePlan::edge_disjoint(shape.q, 30, 1)
    })
    .expect("q is a prime power");
    let ld = span("construction.low_depth", req, || {
        AllreducePlan::low_depth(shape.q)
    })
    .expect("q is an odd prime power");
    let emb = |p: &AllreducePlan| {
        span("simnet.embedding", req, || {
            MultiTreeEmbedding::new(&p.graph, &p.trees, &p.split(m))
        })
    };
    let embs = [emb(&ed), emb(&ld)];
    let w = span("simnet.workload", req, || {
        Workload::new(ed.graph.num_vertices(), m)
    });
    Setup {
        plans: [ed, ld],
        embs,
        w,
    }
}

fn sim_config(threads: usize) -> SimConfig {
    SimConfig {
        threads,
        ..SimConfig::default()
    }
}

/// One allreduce on each plan.
fn run_pair(s: &Setup, threads: usize, req: u64) -> [SimReport; 2] {
    [0, 1].map(|i| {
        let p = &s.plans[i];
        span("simnet.run", req, || {
            Simulator::new(&p.graph, &s.embs[i], sim_config(threads)).run(&s.w)
        })
    })
}

fn check_pair(out: &mut Outcome, reports: &[SimReport; 2]) {
    for r in reports {
        out.check(r.completed && r.mismatches == 0, || {
            format!(
                "allreduce completed {} with {} mismatches",
                r.completed, r.mismatches
            )
        });
    }
}

/// Untraced run: a warm-up pair (whose reports must not change with the
/// engine's sharded mode), then repetitions until `p.seconds` pass, each
/// timing a fresh set-up and then one allreduce per plan.
pub fn run(p: &Params, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let m = length(p.seed, shape);
    let mut t = Timing::new(1);
    let first = setup(shape, m, 0);
    for p in &first.plans {
        let bound = allreduce_rate_bound(&p.graph).expect("PolarFly is connected");
        out.check(bound.certifies(p.aggregate), || {
            format!(
                "{} aggregate {} exceeds the rate bound {}",
                p.solution.label(),
                p.aggregate,
                bound.bound
            )
        });
    }
    let reference = run_pair(&first, shape.threads, 0);
    check_pair(&mut out, &reference);
    let sharded = run_pair(&first, SHARDED_THREADS, 0);
    out.check(sharded == reference, || {
        format!(
            "engine reports differ between {} and {SHARDED_THREADS} threads ({:?} vs {:?} cycles)",
            shape.threads,
            reference.each_ref().map(|r| r.cycles),
            sharded.each_ref().map(|r| r.cycles)
        )
    });
    drop(first);

    let deadline = Instant::now() + p.seconds;
    while t.reps() < p.min_reps || Instant::now() < deadline {
        let t0 = Instant::now();
        let s = black_box(setup(shape, m, 0));
        t.setup_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let reports = run_pair(&s, shape.threads, 0);
        let dt = t0.elapsed().as_secs_f64();
        t.op_us.push(dt * 1e6);
        t.end_rep(dt);
        out.attempted += 2;
        out.failed += reports
            .iter()
            .filter(|r| !r.completed || r.mismatches > 0)
            .count() as u64;
        out.check(reports == reference, || {
            "engine reports differ across repetitions".to_string()
        });
    }
    t.report(&mut out);
    let cycles: u64 = reference.iter().map(|r| r.cycles).sum();
    out.note("latency_cycles", cycles as f64 / 2.0);
    out.note("m", m);
    out.note("threads", shape.threads);
    out
}

/// Traced run: set-up plus one timed pair, traced, alternating with the
/// same work untraced.
pub fn run_traced(p: &Params, shape: &Shape) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let m = length(p.seed, shape);
    let mut prof = Profile::default();
    let mut spans = Vec::new();
    let mut req = 0;
    run_pair(&setup(shape, m, req), shape.threads, req);
    let deadline = Instant::now() + p.seconds;
    while prof.traced_s.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        let reference = run_pair(&setup(shape, m, req), shape.threads, req);
        prof.untraced_s.push(t0.elapsed().as_secs_f64());

        trace::start();
        let t0 = Instant::now();
        let s = setup(shape, m, req);
        let (a0, b0) = alloc_counters();
        let r0 = Instant::now();
        let reports = run_pair(&s, shape.threads, req);
        let run_ns = r0.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc_counters();
        let wall = t0.elapsed().as_nanos() as u64;
        spans = trace::finish();

        check_pair(&mut out, &reports);
        out.check(reports == reference, || {
            "traced engine reports differ from untraced".to_string()
        });
        let c = &mut prof.counts;
        c.runs += 2;
        c.run_ns += run_ns;
        c.allocs += a1 - a0;
        c.alloc_bytes += b1 - b0;
        for (r, p) in reports.iter().zip(&s.plans) {
            c.cycles += r.cycles;
            c.router_cycles += r.cycles * u64::from(p.graph.num_vertices());
        }
        prof.layers.add(&Breakdown::of(&spans, &[], ""));
        prof.path_ns += wall;
        prof.traced_s.push(wall as f64 / 1e9);
        prof.ops += 1;
        out.attempted += 2;
        req += 1;
    }
    prof.report(&mut out);
    (out, spans)
}
