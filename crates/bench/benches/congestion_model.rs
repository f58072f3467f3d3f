//! Algorithm 1 (water-filling bandwidth assignment) benchmarks — the
//! analytic model behind every Figure 5 point — and the plan repairs that
//! price a degraded plan with it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_allreduce::congestion::assign_unit_bandwidth;
use pf_allreduce::disjoint::find_edge_disjoint;
use pf_allreduce::lowdepth::low_depth_trees;
use pf_allreduce::perf::optimal_split;
use pf_allreduce::{rebuild_degraded, AllreducePlan, FaultSet, Rational};
use pf_graph::EdgeId;
use pf_topo::{PolarFly, Singer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_algorithm1(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm1");
    g.sample_size(10);
    for q in [11u64, 19, 27, 31] {
        let pf = PolarFly::new(q);
        let low = low_depth_trees(&pf, None).unwrap();
        g.bench_with_input(BenchmarkId::new("low_depth_trees", q), &q, |b, _| {
            b.iter(|| assign_unit_bandwidth(black_box(pf.graph()), black_box(&low.trees)))
        });
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, 30, 1);
        g.bench_with_input(BenchmarkId::new("disjoint_trees", q), &q, |b, _| {
            b.iter(|| assign_unit_bandwidth(black_box(s.graph()), black_box(&sol.trees)))
        });
    }
    // A repair's pricing: the low-depth plan rebuilt around two failed
    // links of its first tree.
    let plan = AllreducePlan::low_depth(31).unwrap();
    let used = plan.trees[0].edge_ids(&plan.graph);
    let faults = FaultSet::links(vec![used[0], used[used.len() / 2]]);
    let d = rebuild_degraded(&plan, &faults).unwrap();
    g.bench_with_input(BenchmarkId::new("degraded_low_depth_trees", 31), &31, |b, _| {
        b.iter(|| assign_unit_bandwidth(black_box(&d.graph), black_box(&d.trees)))
    });
    g.finish();
}

/// Two distinct links the plan routes a tree over, drawn from `seed`.
fn two_used_links(plan: &AllreducePlan, seed: u64) -> [EdgeId; 2] {
    let used: Vec<EdgeId> = (0..plan.graph.num_edges())
        .filter(|&e| plan.edge_congestion[e as usize] > 0)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let first = used[rng.random_range(0..used.len())];
    loop {
        let second = used[rng.random_range(0..used.len())];
        if second != first {
            return [first, second];
        }
    }
}

/// A whole plan repair: the low-depth plan rebuilt around two seeded link
/// faults.
fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    g.sample_size(10);
    for q in [11u64, 31] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        let both = FaultSet::links(two_used_links(&plan, 2026 ^ q).to_vec());
        g.bench_with_input(BenchmarkId::new("rebuild", q), &q, |bch, _| {
            bch.iter(|| rebuild_degraded(black_box(&plan), black_box(&both)))
        });
    }
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    let bw: Vec<Rational> = (1..=64).map(|i| Rational::new(i, i + 1)).collect();
    c.bench_function("optimal_split_64_trees", |b| {
        b.iter(|| optimal_split(black_box(1 << 20), black_box(&bw)))
    });
}

criterion_group!(benches, bench_algorithm1, bench_recovery, bench_split);
criterion_main!(benches);
