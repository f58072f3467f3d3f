//! The committed `BENCH_*.json` files, read back through
//! `pf_simnet::json`.
//!
//! * Every file is exactly `pretty(parse(file))`: one layout rule for all
//!   of them, and each stays machine-readable.
//! * The `points` cells of `BENCH_fabric.json` are recomputed at the
//!   `experiments fabric-sweep` defaults (q = 7, 400 jobs, seed 2026) and
//!   compared as values. The soak is too long for a test; CI double-runs a
//!   scaled-down one instead.
//! * The `collectives` cells of `BENCH_simnet.json` are recomputed the
//!   same way: the simulated and predicted cycles of all three
//!   sharded-training collectives. The wall-clock cells are not.

use pf_allreduce::AllreducePlan;
use pf_bench::{collectives, fabric_sweep};
use pf_simnet::json::{self, Value};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(name: &str) -> String {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_bench_files_are_pretty_printed() {
    let mut names: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repo root")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "committed bench files: {names:?}");
    for name in &names {
        let text = read(name);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(doc.pretty() == text, "{name} is not in the pretty layout");
    }
}

#[test]
fn fabric_points_reproduce_the_committed_cells() {
    let committed = json::parse(&read("BENCH_fabric.json")).expect("BENCH_fabric.json parses");
    let doc = committed.document("pf-bench-fabric-v1").expect("fabric bench schema");
    let (q, jobs, seed) = (doc.get_u64("q").unwrap(), doc.get_u64("jobs").unwrap(), doc.get_u64("seed").unwrap());
    assert_eq!((q, jobs, seed), (7, 400, 2026), "the committed file uses the defaults");
    let plan = AllreducePlan::low_depth(q).expect("odd prime power");
    let cells = fabric_sweep::collect(&plan, jobs as usize, seed);
    let want = Value::Array(doc.get_array("points").unwrap().to_vec());
    assert_eq!(fabric_sweep::points_value(&cells), want);
}

#[test]
fn collective_cells_reproduce_the_committed_cells() {
    let committed = json::parse(&read("BENCH_simnet.json")).expect("BENCH_simnet.json parses");
    let doc = committed.document("pf-bench-simnet-perf-v3").expect("simnet bench schema");
    let cells = doc.get_array("collectives").unwrap();
    let (mut qs, mut ms) = (Vec::new(), Vec::new());
    for cell in cells {
        let cell = cell.as_object().expect("a collectives cell is an object");
        let (q, m) = (cell.get_u64("q").unwrap(), cell.get_u64("m").unwrap());
        if qs.last() != Some(&q) {
            qs.push(q);
        }
        if !ms.contains(&m) {
            ms.push(m);
        }
    }
    assert_eq!((qs.as_slice(), ms.as_slice()), ([5, 7, 9, 11, 13].as_slice(), [4000].as_slice()));
    let points = collectives::collect(&qs, ms[0]);
    let got: Vec<Value> = points.iter().map(collectives::CollectivePoint::to_value).collect();
    assert_eq!(Value::Array(got), Value::Array(cells.to_vec()));
}
