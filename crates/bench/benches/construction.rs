//! Construction micro-benchmarks: fields, topologies, layouts, the kary
//! multitree, and the min cut of the rate certificate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_allreduce::{global_min_cut, Budget, KaryMultitree, TreeConstruction};
use pf_galois::{CubicExt, Gf};
use pf_graph::{builders, Graph};
use pf_topo::torus::Torus;
use pf_topo::{Layout, PolarFly, Singer};
use std::hint::black_box;

fn bench_field(c: &mut Criterion) {
    let mut g = c.benchmark_group("field");
    for q in [9u64, 27, 49, 128] {
        g.bench_with_input(BenchmarkId::new("gf_tables", q), &q, |b, &q| {
            b.iter(|| Gf::new(black_box(q)).unwrap())
        });
    }
    for q in [9u64, 27, 49] {
        g.bench_with_input(BenchmarkId::new("singer_difference_set", q), &q, |b, &q| {
            b.iter(|| {
                let ext = CubicExt::new(Gf::new(black_box(q)).unwrap());
                ext.singer_exponents()
            })
        });
    }
    g.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology");
    g.sample_size(20);
    for q in [11u64, 19, 27, 31] {
        g.bench_with_input(BenchmarkId::new("er_projective", q), &q, |b, &q| {
            b.iter(|| PolarFly::new(black_box(q)))
        });
        g.bench_with_input(BenchmarkId::new("singer_graph", q), &q, |b, &q| {
            b.iter(|| Singer::new(black_box(q)))
        });
    }
    g.finish();
}

fn bench_layout(c: &mut Criterion) {
    let mut g = c.benchmark_group("layout");
    for q in [11u64, 19, 27] {
        let pf = PolarFly::new(q);
        g.bench_with_input(BenchmarkId::new("algorithm2", q), &pf, |b, pf| {
            b.iter(|| Layout::new(black_box(pf), None).unwrap())
        });
    }
    g.finish();
}

/// The kary multitree (`k = 3`, `δ_min` trees) on `ER_q`, as plan
/// bring-up builds it.
fn bench_kary(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction");
    g.sample_size(10);
    for q in [19u64, 31] {
        let pf = PolarFly::new(q);
        g.bench_with_input(BenchmarkId::new("kary", format!("er_{q}")), pf.graph(), |b, graph| {
            b.iter(|| KaryMultitree { k: 3 }.build(black_box(graph), &Budget::unlimited()).unwrap())
        });
    }
    g.finish();
}

/// `λ(G)` as the rate bound computes it. `ER_31` and `S_31` have diameter
/// 2 and take the degree certificate; the torus and the hypercube take
/// contraction.
fn bench_min_cut(c: &mut Criterion) {
    let mut g = c.benchmark_group("rate");
    g.sample_size(10);
    let graphs: [(&str, Graph); 4] = [
        ("er_31", PolarFly::new(31).graph().clone()),
        ("singer_31", Singer::new(31).graph().clone()),
        ("torus_32x32", Torus::new(&[32, 32]).graph().clone()),
        ("hypercube_10", builders::hypercube(10)),
    ];
    for (name, graph) in &graphs {
        g.bench_with_input(BenchmarkId::new("min_cut", name), graph, |b, graph| {
            b.iter(|| global_min_cut(black_box(graph)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_field, bench_topology, bench_layout, bench_kary, bench_min_cut);
criterion_main!(benches);
