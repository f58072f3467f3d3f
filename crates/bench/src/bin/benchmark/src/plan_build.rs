//! `plan_build`: the write side of plans, with no engine. Bringing plans
//! up (field, topology, the three constructions, the rate certificate) is
//! the set-up; the timed operation is repairing the low-depth plan after
//! two seeded link faults — a full rebuild, an incremental extension and
//! the promotion back to a schedulable plan — at every radix.

use crate::fabric::{fault_edges, rep_seed};
use crate::report::{Outcome, Profile, Timing};
use crate::trace::{self, span, Breakdown};
use crate::Params;
use pf_allreduce::{
    allreduce_rate_bound, extend_degraded, rebuild_degraded, AllreducePlan, Budget, DegradedPlan,
    FaultSet, KaryMultitree, RateBound,
};
use pf_galois::Gf;
use pf_topo::{PolarFly, Singer};
use std::hint::black_box;
use std::time::Instant;

/// The radices one pass covers.
pub const RADICES: [u64; 4] = [11, 19, 23, 31];

/// Bring-up passes before the timed ones.
const WARMUP_SETUPS: usize = 1;
/// Timed bring-up passes.
const SETUPS: usize = 3;
/// Vector length and hop latency of the predicted allreduce that prices
/// every plan a bring-up builds.
const PRICE_M: u64 = 50_000;
const PRICE_HOP: u64 = 4;

/// Everything one radix's bring-up produces.
struct Built {
    q: u64,
    plans: [AllreducePlan; 3],
    bound: RateBound,
}

fn bring_up(q: u64) -> Built {
    span("galois.gf", q, || black_box(Gf::new(q))).expect("q is a prime power");
    let pf = span("topo.polarfly", q, || PolarFly::new(q));
    span("topo.singer", q, || black_box(Singer::new(q)));
    let ld = span("construction.low_depth", q, || AllreducePlan::low_depth(q))
        .expect("q is an odd prime power");
    let ed = span("construction.edge_disjoint", q, || {
        AllreducePlan::edge_disjoint(q, 30, 1)
    })
    .expect("q is a prime power");
    let kary = span("construction.kary", q, || {
        AllreducePlan::construct(pf.graph(), &KaryMultitree { k: 3 }, &Budget::unlimited())
    })
    .expect("ER_q is connected");
    let bound =
        span("rate.bound", q, || allreduce_rate_bound(pf.graph())).expect("ER_q is connected");
    Built {
        q,
        plans: [ld, ed, kary],
        bound,
    }
}

fn bring_up_all(radices: &[u64]) -> Vec<Built> {
    radices.iter().map(|&q| bring_up(q)).collect()
}

/// The faults pass `pass` injects at each radix: two edges the low-depth
/// plan uses. Every pass draws its own, so one run averages the repair
/// cost over many fault pairs.
fn pass_faults(seed: u64, pass: usize, built: &[Built]) -> Vec<[u32; 2]> {
    built
        .iter()
        .map(|b| fault_edges(rep_seed(seed, pass) ^ b.q, &b.plans[0]))
        .collect()
}

/// What one repair produces.
struct Repaired {
    rebuilt: DegradedPlan,
    extended: Option<DegradedPlan>,
    plan: AllreducePlan,
}

fn repair(b: &Built, faults: [u32; 2]) -> Repaired {
    let q = b.q;
    let first = FaultSet::links(vec![faults[0]]);
    let second = FaultSet::links(vec![faults[1]]);
    let ld = &b.plans[0];
    let rebuilt = span("recovery.rebuild", q, || rebuild_degraded(ld, &first))
        .expect("one link cannot partition ER_q");
    let extended = span("recovery.extend", q, || {
        extend_degraded(ld, &first, &rebuilt, &second)
    });
    let plan = span("recovery.to_plan", q, || {
        extended.as_ref().unwrap_or(&rebuilt).to_plan(q)
    });
    Repaired {
        rebuilt,
        extended,
        plan,
    }
}

fn repair_all(built: &[Built], faults: &[[u32; 2]]) -> Vec<Repaired> {
    built
        .iter()
        .zip(faults)
        .map(|(b, &f)| repair(b, f))
        .collect()
}

/// Structural equality of two degraded plans.
fn same(a: &DegradedPlan, b: &DegradedPlan) -> bool {
    a.graph.edges().eq(b.graph.edges())
        && a.trees == b.trees
        && a.origins == b.origins
        && a.dropped == b.dropped
        && a.bandwidths == b.bandwidths
        && a.aggregate == b.aggregate
        && a.edge_congestion == b.edge_congestion
        && a.orig_edge == b.orig_edge
        && a.new_edge == b.new_edge
}

/// Checks a bring-up's plans against the rate certificate; returns their
/// mean predicted allreduce cycles.
fn check_plans(out: &mut Outcome, b: &Built) -> f64 {
    let mut cycles = 0.0;
    for p in &b.plans {
        out.check(b.bound.certifies(p.aggregate), || {
            let (q, label) = (b.q, p.solution.label());
            format!(
                "q={q} {label}: aggregate {} exceeds the rate bound {}",
                p.aggregate, b.bound.bound
            )
        });
        cycles += p.predicted_cycles(PRICE_M, PRICE_HOP) as f64;
    }
    cycles / b.plans.len() as f64
}

/// Checks one repair: the extension must exist and equal the full rebuild
/// on both faults, and the result must respect the congestion and rate
/// bounds.
fn check_repair(out: &mut Outcome, b: &Built, faults: [u32; 2], r: &Repaired) {
    let q = b.q;
    match &r.extended {
        None => out.check(false, || {
            format!("q={q}: extend_degraded refused fault {}", faults[1])
        }),
        Some(ext) => {
            let full = rebuild_degraded(&b.plans[0], &FaultSet::links(faults.to_vec()))
                .expect("two links cannot partition ER_q");
            out.check(same(ext, &full), || {
                format!("q={q}: extend_degraded differs from the full rebuild for {faults:?}")
            });
        }
    }
    out.check(
        r.rebuilt.max_congestion <= r.rebuilt.congestion_bound,
        || {
            let d = &r.rebuilt;
            format!(
                "q={q}: degraded congestion {} exceeds {}",
                d.max_congestion, d.congestion_bound
            )
        },
    );
    out.check(b.bound.certifies(r.plan.aggregate), || {
        format!(
            "q={q}: repaired aggregate {} exceeds the rate bound {}",
            r.plan.aggregate, b.bound.bound
        )
    });
}

/// Untraced run: timed bring-up passes (the set-up), then repair passes
/// over every radix, each with its own faults, until `p.seconds` pass.
pub fn run(p: &Params, radices: &[u64]) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Timing::new(1);
    let mut built = Vec::new();
    for i in 0..WARMUP_SETUPS + SETUPS {
        let t0 = Instant::now();
        built = black_box(bring_up_all(radices));
        if i >= WARMUP_SETUPS {
            t.setup_s.push(t0.elapsed().as_secs_f64());
            t.calibrate();
        }
    }
    let predicted: Vec<f64> = built.iter().map(|b| check_plans(&mut out, b)).collect();
    let reference = repair_all(&built, &pass_faults(p.seed, 0, &built));

    let deadline = Instant::now() + p.seconds;
    while t.reps() < p.min_reps || Instant::now() < deadline {
        let pass = t.reps();
        let faults = pass_faults(p.seed, pass, &built);
        let t0 = Instant::now();
        let repaired = repair_all(&built, &faults);
        let dt = t0.elapsed().as_secs_f64();
        t.op_us.push(dt * 1e6);
        t.end_rep(dt);
        out.attempted += repaired.len() as u64;
        out.failed += repaired.iter().filter(|r| r.extended.is_none()).count() as u64;
        for ((b, &f), r) in built.iter().zip(&faults).zip(&repaired) {
            check_repair(&mut out, b, f, r);
        }
        if pass == 0 {
            let same_plans = repaired
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.plan.trees == b.plan.trees);
            out.check(same_plans, || {
                "two repairs of one fault pair differ".to_string()
            });
        }
    }
    t.report(&mut out);
    out.note(
        "latency_cycles",
        format!(
            "{:.3}",
            predicted.iter().sum::<f64>() / predicted.len() as f64
        ),
    );
    out.note("radices", format!("{radices:?}").replace(' ', ""));
    out
}

/// Traced run: a bring-up pass plus one repair pass, traced, alternating
/// with the same work untraced. Span request ids are the radix.
pub fn run_traced(p: &Params, radices: &[u64]) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let mut prof = Profile::default();
    let mut spans = Vec::new();
    let warm = bring_up_all(radices);
    repair_all(&warm, &pass_faults(p.seed, 0, &warm));
    drop(warm);
    let deadline = Instant::now() + p.seconds;
    while prof.traced_s.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        let built = bring_up_all(radices);
        let faults = pass_faults(p.seed, 0, &built);
        let reference = repair_all(&built, &faults);
        prof.untraced_s.push(t0.elapsed().as_secs_f64());

        trace::start();
        let t0 = Instant::now();
        let built = bring_up_all(radices);
        let faults = pass_faults(p.seed, 0, &built);
        let repaired = repair_all(&built, &faults);
        let wall = t0.elapsed().as_nanos() as u64;
        spans = trace::finish();

        for ((b, &f), r) in built.iter().zip(&faults).zip(&repaired) {
            check_plans(&mut out, b);
            check_repair(&mut out, b, f, r);
        }
        let same_plans = repaired
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.plan.trees == b.plan.trees);
        out.check(same_plans, || {
            "traced repairs differ from untraced".to_string()
        });
        prof.layers.add(&Breakdown::of(&spans, &[], ""));
        prof.path_ns += wall;
        prof.traced_s.push(wall as f64 / 1e9);
        prof.ops += 1;
        out.attempted += repaired.len() as u64;
    }
    prof.report(&mut out);
    (out, spans)
}
