//! Fuzzes the two readers of foreign documents, `TraceReport::from_json`
//! and `FabricManager::restore`: starting from a golden trace and from a
//! mid-stream checkpoint, every truncation, random byte flips and random
//! splices must come back as `Ok` or a typed `Err` — never a panic or a
//! hang.

use pf_allreduce::AllreducePlan;
use pf_fabric::{FabricConfig, FabricManager, PoissonJobs};
use pf_simnet::TraceReport;
use proptest::prelude::*;

fn golden_trace() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../simnet/tests/golden/allreduce_q3.json");
    std::fs::read(path).expect("golden trace")
}

fn plan() -> AllreducePlan {
    AllreducePlan::low_depth(5).expect("q=5")
}

fn cfg() -> FabricConfig {
    FabricConfig { queue_capacity: 8, max_outstanding_elems: 1024, ..FabricConfig::default() }
}

/// A checkpoint with active faults and both queues loaded.
fn mid_stream_checkpoint() -> Vec<u8> {
    let mut m = FabricManager::new(plan(), cfg());
    let mut last = 0;
    for spec in PoissonJobs::new(3, 40, 64, 512).take(24) {
        last = spec.arrival;
        m.submit(spec);
    }
    m.inject_link_faults(last, &[1, 4]).expect("non-partitioning");
    let c = m.checkpoint();
    assert!(c.contains(r#""ready":[{"#) && c.contains(r#""deferred":[{"#), "{c}");
    c.into_bytes()
}

/// Feeds a mutated trace and a mutated checkpoint to their readers. The
/// results are ignored: returning at all is the property.
fn read(trace: &[u8], checkpoint: &[u8]) {
    let _ = TraceReport::from_json(&String::from_utf8_lossy(trace));
    let _ = FabricManager::restore(plan(), cfg(), &String::from_utf8_lossy(checkpoint));
}

fn flip(doc: &[u8], flips: &[(usize, u8)]) -> Vec<u8> {
    let mut out = doc.to_vec();
    for &(at, byte) in flips {
        let i = at % out.len();
        out[i] = byte;
    }
    out
}

/// `doc[..cut]`, then a copy of `doc[lo..hi]`, then `doc[resume..]`.
fn splice(doc: &[u8], (a, b, c, d): (usize, usize, usize, usize)) -> Vec<u8> {
    let n = doc.len() + 1;
    let ordered = |x: usize, y: usize| ((x % n).min(y % n), (x % n).max(y % n));
    let ((lo, hi), (cut, resume)) = (ordered(a, b), ordered(c, d));
    [&doc[..cut], &doc[lo..hi], &doc[resume..]].concat()
}

#[test]
fn every_truncation_is_refused() {
    let trace = golden_trace();
    for end in 0..trace.len() {
        assert!(TraceReport::from_json(&String::from_utf8_lossy(&trace[..end])).is_err());
    }
    let ckpt = mid_stream_checkpoint();
    let plan = plan();
    for end in 0..ckpt.len() {
        let text = String::from_utf8_lossy(&ckpt[..end]);
        assert!(FabricManager::restore(plan.clone(), cfg(), &text).is_err());
    }
}

#[test]
fn a_million_open_brackets_are_refused() {
    let deep = "[".repeat(1_000_000);
    assert!(TraceReport::from_json(&deep).is_err());
    assert!(FabricManager::restore(plan(), cfg(), &deep).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn byte_flips_never_panic(flips in proptest::collection::vec((0usize..1 << 20, any::<u8>()), 1..6)) {
        read(&flip(&golden_trace(), &flips), &flip(&mid_stream_checkpoint(), &flips));
    }

    #[test]
    fn splices_never_panic(cuts in (0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20)) {
        read(&splice(&golden_trace(), cuts), &splice(&mid_stream_checkpoint(), cuts));
    }
}
