//! Golden fixture for the host-based allreduce baselines (§8 of the
//! paper): the α–β model's cycles for every algorithm, the multiported
//! torus closed form, and the flit-level executor's cycles.
//!
//! The table is committed at `tests/golden/host_baselines.txt` and must
//! reproduce byte for byte. Any change to a schedule's rounds, the α–β
//! pricing, or the flit-level executor shows up as a byte diff; if the
//! change is intentional, regenerate (and review the diff) with
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p pf-simnet --test golden_host_baselines
//! ```
//!
//! The flit-level rows stop at q = 5 and m = 4000 so the debug-build
//! test stays fast.

use pf_simnet::hostbased::{
    self, multiported_torus_memory_elems, multiported_torus_time, price, HostParams, Schedule,
};
use pf_simnet::p2p::simulate_schedule;
use pf_simnet::routing::Routing;
use pf_simnet::SimConfig;
use pf_topo::torus::Torus;
use pf_topo::PolarFly;
use std::fmt::Write;
use std::path::{Path, PathBuf};

const MS: [u64; 4] = [1, 130, 4000, 99_991];
const OVERHEADS: [u64; 2] = [0, 200];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/host_baselines.txt")
}

fn render() -> String {
    let mut out = String::new();
    let cfg = SimConfig::default();
    let hop = cfg.link_latency as u64;
    for q in [3u64, 5, 7] {
        let pf = PolarFly::new(q);
        let g = pf.graph();
        let r = Routing::new(g);
        let n = g.num_vertices();
        for o in OVERHEADS {
            let p = HostParams { hop_latency: hop, phase_overhead: o };
            let model = |s: Schedule| price(g, &r, &s, p).total;
            for m in MS {
                // The reduce-scatter and the allgather are one ring phase
                // each, the allreduce both.
                writeln!(
                    out,
                    "model q={q} o={o} m={m} ring={} rs={} ag={} rd={} rab={} bc={}",
                    model(hostbased::ring(n, m, 2)),
                    model(hostbased::ring(n, m, 1)),
                    model(hostbased::ring(n, m, 1)),
                    model(hostbased::recursive_doubling(n, m)),
                    model(hostbased::rabenseifner(n, m)),
                    model(hostbased::blueconnect(n, m)),
                )
                .unwrap();
            }
        }
    }
    for dims in [vec![4u32, 4], vec![12, 11], vec![5, 5, 5]] {
        let t = Torus::new(&dims);
        for o in OVERHEADS {
            let p = HostParams { hop_latency: hop, phase_overhead: o };
            for m in MS {
                writeln!(
                    out,
                    "torus {dims:?} o={o} m={m} time={} mem={}",
                    multiported_torus_time(&t, m, p),
                    multiported_torus_memory_elems(&t, m),
                )
                .unwrap();
            }
        }
    }
    for q in [3u64, 5] {
        let pf = PolarFly::new(q);
        let g = pf.graph();
        let r = Routing::new(g);
        let n = g.num_vertices();
        for o in OVERHEADS {
            let run = |s: Schedule| {
                simulate_schedule(g, &r, &s, cfg, o).expect("flit-level schedule completes")
            };
            for m in MS.into_iter().filter(|&m| m <= 4000) {
                writeln!(
                    out,
                    "flit q={q} o={o} m={m} ring={} rd={} rab={}",
                    run(hostbased::ring(n, m, 2)),
                    run(hostbased::recursive_doubling(n, m)),
                    run(hostbased::rabenseifner(n, m)),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn host_baselines_match_the_golden_fixture() {
    let produced = render();
    let path = golden_path();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &produced).expect("write golden fixture");
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); regenerate with GOLDEN_REGEN=1", path.display())
    });
    assert_eq!(
        produced.into_bytes(),
        committed.into_bytes(),
        "host baselines diverged from {}; if intentional, regenerate with GOLDEN_REGEN=1 \
         and review the diff",
        path.display()
    );
}
