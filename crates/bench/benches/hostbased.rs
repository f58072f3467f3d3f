//! Host-based baseline benchmarks: each schedule built and priced by the
//! α–β model, and executed flit by flit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_simnet::hostbased::{self, price, HostParams};
use pf_simnet::p2p::simulate_schedule;
use pf_simnet::routing::Routing;
use pf_simnet::SimConfig;
use pf_topo::PolarFly;
use std::hint::black_box;

fn bench_models(c: &mut Criterion) {
    let pf = PolarFly::new(11);
    let g = pf.graph().clone();
    let r = Routing::new(&g);
    let hp = HostParams::default();
    let n = g.num_vertices();
    let m = 10_000u64;
    let mut grp = c.benchmark_group("hostbased_models");
    grp.bench_function("ring", |b| {
        b.iter(|| price(black_box(&g), &r, &hostbased::ring(n, m, 2), hp).total)
    });
    grp.bench_function("recursive_doubling", |b| {
        b.iter(|| price(black_box(&g), &r, &hostbased::recursive_doubling(n, m), hp).total)
    });
    grp.bench_function("rabenseifner", |b| {
        b.iter(|| price(black_box(&g), &r, &hostbased::rabenseifner(n, m), hp).total)
    });
    grp.bench_function("blueconnect", |b| {
        b.iter(|| price(black_box(&g), &r, &hostbased::blueconnect(n, m), hp).total)
    });
    grp.finish();
}

fn bench_flit_level(c: &mut Criterion) {
    let pf = PolarFly::new(5);
    let g = pf.graph().clone();
    let r = Routing::new(&g);
    let cfg = SimConfig::default();
    let n = g.num_vertices();
    let mut grp = c.benchmark_group("hostbased_flit");
    grp.sample_size(10);
    for (name, s) in [
        ("ring_sim", hostbased::ring(n, 3100, 2)),
        ("doubling_sim", hostbased::recursive_doubling(n, 500)),
        ("blueconnect_sim", hostbased::blueconnect(n, 3100)),
    ] {
        grp.bench_with_input(BenchmarkId::new(name, 5), &g, |b, g| {
            b.iter(|| simulate_schedule(black_box(g), &r, &s, cfg, 0).unwrap())
        });
    }
    grp.finish();
}

fn bench_routing(c: &mut Criterion) {
    let pf = PolarFly::new(19);
    let g = pf.graph().clone();
    c.bench_function("routing_apsp_q19", |b| b.iter(|| Routing::new(black_box(&g))));
}

criterion_group!(benches, bench_models, bench_flit_level, bench_routing);
criterion_main!(benches);
