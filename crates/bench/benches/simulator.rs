//! Cycle-level simulator throughput benchmarks: how many simulated cycles
//! per wall-clock second the engine sustains under each tree set, and how
//! the optimized active-set engine scales against the retained reference
//! stepper (see docs/PERFORMANCE.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pf_allreduce::AllreducePlan;
use pf_simnet::engine::Collective;
use pf_simnet::{CompiledTrees, MultiTreeEmbedding, SimConfig, Simulator, Workload};
use std::hint::black_box;
use std::sync::Arc;

fn simulate(plan: &AllreducePlan, m: u64) -> u64 {
    let sizes = plan.split(m);
    let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
    let w = Workload::new(plan.graph.num_vertices(), m);
    let r = Simulator::new(&plan.graph, &emb, SimConfig::default()).run(&w);
    assert!(r.completed && r.mismatches == 0);
    r.cycles
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let m = 4000u64;
    for q in [5u64, 7, 11] {
        let low = AllreducePlan::low_depth(q).unwrap();
        let ham = AllreducePlan::edge_disjoint(q, 30, 1).unwrap();
        g.throughput(Throughput::Elements(m));
        g.bench_with_input(BenchmarkId::new("low_depth", q), &low, |b, p| {
            b.iter(|| simulate(black_box(p), m))
        });
        g.bench_with_input(BenchmarkId::new("edge_disjoint", q), &ham, |b, p| {
            b.iter(|| simulate(black_box(p), m))
        });
    }
    g.finish();
}

/// Optimized vs reference on the same sweep point, so a Criterion run
/// shows the speedup directly (the committed trajectory lives in
/// `BENCH_simnet.json` via `experiments perf-snapshot`).
fn bench_engine_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    let m = 4000u64;
    for q in [5u64, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        g.throughput(Throughput::Elements(m));
        g.bench_with_input(BenchmarkId::new("optimized", q), &emb, |b, emb| {
            b.iter(|| {
                Simulator::new(&plan.graph, black_box(emb), SimConfig::default()).run(&w).cycles
            })
        });
        g.bench_with_input(BenchmarkId::new("reference", q), &emb, |b, emb| {
            b.iter(|| {
                Simulator::new(&plan.graph, black_box(emb), SimConfig::default())
                    .run_reference(&w, Collective::Allreduce)
                    .report
                    .cycles
            })
        });
    }
    g.finish();
}

/// How the optimized engine scales with the modeled fabric: radix up at
/// fixed vector length (scan overhead) and vector length up at fixed
/// radix (steady-state throughput).
fn bench_engine_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scaling");
    g.sample_size(10);
    for q in [5u64, 7, 9, 11, 13] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let m = 4000u64;
        g.throughput(Throughput::Elements(m));
        g.bench_with_input(BenchmarkId::new("radix", q), &plan, |b, p| {
            b.iter(|| simulate(black_box(p), m))
        });
    }
    let plan = AllreducePlan::low_depth(11).unwrap();
    for m in [1000u64, 4000, 16_000] {
        g.throughput(Throughput::Elements(m));
        g.bench_with_input(BenchmarkId::new("vector", m), &plan, |b, p| {
            b.iter(|| simulate(black_box(p), m))
        });
    }
    g.finish();
}

/// A run's router configuration, in its two parts: compiling a plan's
/// trees (once per plan) and slicing the compiled form (once per run).
fn bench_embedding_setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("embedding_setup");
    for q in [7u64, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let sizes = plan.split(4000);
        let offsets: Vec<u64> = sizes
            .iter()
            .scan(0, |off, &len| {
                *off += len;
                Some(*off - len)
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("compile", q), &plan, |b, p| {
            b.iter(|| CompiledTrees::new(black_box(&p.graph), black_box(&p.trees)))
        });
        let compiled = Arc::new(CompiledTrees::new(&plan.graph, &plan.trees));
        g.bench_with_input(BenchmarkId::new("slice", q), &compiled, |b, c| {
            b.iter(|| MultiTreeEmbedding::from_compiled(Arc::clone(black_box(c)), &sizes, &offsets))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_engine_comparison,
    bench_engine_scaling,
    bench_embedding_setup
);
criterion_main!(benches);
