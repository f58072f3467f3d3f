//! The fabric-manager service end to end: a seeded Poisson job stream
//! pours into an always-on [`pf_fabric::FabricManager`], two link faults
//! land in separate bursts mid-stream — the second on the already-degraded
//! fabric, where the plan is rebuilt for both — and the fabric keeps
//! serving, then heals.
//!
//! ```text
//! cargo run --release --example fabric_service -- [q] [jobs] [seed]
//! ```
//!
//! Prints the admission ledger, throughput in virtual time, the latency
//! distribution and the plan-cache hit rate — the numbers the
//! `experiments fabric-sweep` benchmark measures at 10^6-job scale.
//! Everything is virtual-time deterministic: rerunning with the same
//! arguments reproduces every line.

use pf_allreduce::AllreducePlan;
use pf_fabric::{FabricConfig, FabricEvent, FabricManager, PoissonJobs};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let q: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let jobs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);

    let plan = AllreducePlan::low_depth(q).expect("valid PolarFly order");
    println!(
        "ER_{q}: {} routers, {} spanning trees, congestion bound {}",
        plan.num_nodes(),
        plan.trees.len(),
        plan.max_congestion
    );

    let cfg = FabricConfig {
        queue_capacity: 512,
        max_outstanding_elems: 64 * 1024,
        epoch_max_jobs: 32,
        cache_capacity: 64,
        ..FabricConfig::default()
    };
    let mut fabric = FabricManager::new(plan, cfg);

    // The trace: `jobs` Poisson arrivals; link 2 dies a third of the way
    // in, link 5 at the half (a second burst on the degraded fabric, which
    // `incremental_repairs` counts), and the fabric heals at two thirds.
    let stream: Vec<FabricEvent> =
        PoissonJobs::new(seed, 250, 32, 512).take(jobs).map(FabricEvent::Submit).collect();
    let fault_at = stream[jobs / 3].at();
    let second_at = stream[jobs / 2].at();
    let heal_at = stream[2 * jobs / 3].at();
    println!(
        "streaming {jobs} jobs (seed {seed}); link 2 fails at cycle {fault_at}, \
         link 5 at cycle {second_at}, fabric heals at cycle {heal_at}\n"
    );

    let mut events = stream;
    events.insert(jobs / 3 + 1, FabricEvent::LinkFaults { at: fault_at, edges: vec![2] });
    events.insert(jobs / 2 + 2, FabricEvent::LinkFaults { at: second_at, edges: vec![5] });
    events.insert(2 * jobs / 3 + 3, FabricEvent::Heal { at: heal_at });
    let rep = fabric.play(events);

    assert_eq!(rep.mismatches, 0, "every job's reduction must validate");
    println!("admission ledger:");
    println!("  submitted {:>8}", rep.submitted);
    println!("  accepted  {:>8}", rep.accepted);
    println!("  deferred  {:>8}  (parked by the outstanding-work cap)", rep.deferred);
    println!("  rejected  {:>8}  (dropped by backpressure)", rep.rejected);
    println!("  completed {:>8}", rep.completed);
    println!();
    println!("service:");
    println!("  epochs {}  waves {}  makespan {} cycles", rep.epochs, rep.waves, rep.makespan);
    println!(
        "  throughput {:.2} jobs / kilocycle ({} elements reduced)",
        rep.completed as f64 * 1000.0 / rep.makespan.max(1) as f64,
        rep.total_elems
    );
    println!(
        "  latency p50 {}  p99 {}  max {}  mean {:.0}  (mean queueing {:.0})",
        rep.p50_latency,
        rep.p99_latency,
        rep.max_latency,
        rep.mean_latency,
        rep.mean_queueing_delay
    );
    println!(
        "  peak combined congestion {}/{}",
        rep.max_combined_congestion, rep.congestion_bound
    );
    println!();
    println!("resilience:");
    println!(
        "  fault events {}  incremental repairs {}  full rebuilds {}  heals {}",
        rep.fault_events, rep.incremental_repairs, rep.full_rebuilds, rep.heals
    );
    println!(
        "  plan cache: {} hits, {} misses, {} evictions ({:.1}% hit rate)",
        rep.cache.hits,
        rep.cache.misses,
        rep.cache.evictions,
        rep.cache.hit_rate() * 100.0
    );
    println!("\nreport digest {:#018x} (rerun with the same args to reproduce)", rep.digest);
}
