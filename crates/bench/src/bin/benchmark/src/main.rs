//! The request-path benchmark: the fabric service, the engine and plan
//! bring-up, timed end to end in host time and, in a separate traced run,
//! per layer.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! With `--workload` it runs that workload once and prints a metric table
//! and, last, one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (spans are written to `--spans`, by default
//! `$CARGO_TARGET_DIR/benchmark-spans/<workload>.csv`). Without it, every
//! workload runs untraced and traced, each in its own child process. The
//! exit code is nonzero when any output check fails. See `README.md`.

mod engine;
mod fabric;
mod measure;
mod plan_build;
mod report;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOC: measure::CountingAllocator = measure::CountingAllocator;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "fabric_small",
    "fabric_bulk",
    "engine_saturated",
    "plan_build",
];

/// Run parameters every workload takes.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Timed repetitions to make even past `seconds`.
    pub min_reps: usize,
}

/// Runs one workload, at toy sizes for the tests; `None` for an unknown
/// name.
fn run_workload(
    name: &str,
    p: &Params,
    toy: bool,
    traced: bool,
) -> Option<(Outcome, Vec<trace::Span>)> {
    let small = if toy {
        fabric::Shape {
            q: 3,
            jobs: 50,
            ..fabric::SMALL
        }
    } else {
        fabric::SMALL
    };
    let bulk = if toy {
        fabric::Shape {
            q: 5,
            elems: (64, 256),
            jobs: 50,
            ..fabric::BULK
        }
    } else {
        fabric::BULK
    };
    let sat = if toy {
        engine::Shape {
            q: 5,
            m: 400,
            ..engine::SATURATED
        }
    } else {
        engine::SATURATED
    };
    let radices: &[u64] = if toy { &[3, 5] } else { &plan_build::RADICES };
    let untraced = |o: Outcome| (o, Vec::new());
    Some(match (name, traced) {
        ("fabric_small", false) => untraced(fabric::run(p, &small)),
        ("fabric_small", true) => fabric::run_traced(p, &small),
        ("fabric_bulk", false) => untraced(fabric::run(p, &bulk)),
        ("fabric_bulk", true) => fabric::run_traced(p, &bulk),
        ("engine_saturated", false) => untraced(engine::run(p, &sat)),
        ("engine_saturated", true) => engine::run_traced(p, &sat),
        ("plan_build", false) => untraced(plan_build::run(p, radices)),
        ("plan_build", true) => plan_build::run_traced(p, radices),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2026,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every workload, untraced then traced, each in a child process.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{w} (trace {trace}) failed: {s}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{w} (trace {trace}) did not start: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = a.workload.clone() else {
        return run_all(&a);
    };
    let pinned = measure::pin_malloc();
    let p = Params {
        seed: a.seed,
        seconds: Duration::from_secs_f64(a.seconds),
        min_reps: 3,
    };
    let Some((mut out, spans)) = run_workload(&name, &p, false, a.trace) else {
        eprintln!("unknown workload {name}; expected one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    let expected: Vec<String> = if a.trace {
        report::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    };
    let printed: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    out.check(printed == expected, || {
        format!("metric names {printed:?} differ from {expected:?}")
    });
    out.notes.insert(0, ("seed", a.seed.to_string()));
    out.notes.insert(1, ("nproc", nproc().to_string()));
    out.notes.insert(
        2,
        (
            "malloc",
            if pinned { "pinned" } else { "default" }.to_string(),
        ),
    );
    if a.trace {
        let path = a.spans.clone().unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("target"), PathBuf::from);
            dir.join("benchmark-spans").join(format!("{name}.csv"))
        });
        match trace::write_csv(&path, &spans) {
            Ok(()) => out.note("spans", path.display()),
            Err(e) => out.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            }),
        }
    }
    print!("{}", out.render(&name));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{per_layer_names, END_TO_END};

    const BENCHMARK_JSON: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../../../../BENCHMARK.json"
    ));

    /// Values of `"field": "…"` inside the array under `"key"` in the
    /// benchmark manifest (whose arrays hold flat objects only).
    fn manifest_list(key: &str, field: &str) -> Vec<String> {
        let at = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .expect("key present");
        let body = &BENCHMARK_JSON[at..];
        let body = &body[body.find('[').expect("array")..=body.find(']').expect("array end")];
        let pat = format!("\"{field}\": \"");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &body[i + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_matches_the_program() {
        assert_eq!(manifest_list("workloads", "name"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(manifest_list("end_to_end", "name"), e2e);
        let e2e_units: Vec<&str> = END_TO_END.iter().map(|(_, u)| *u).collect();
        assert_eq!(manifest_list("end_to_end", "unit"), e2e_units);
        let layers = per_layer_names();
        let names: Vec<String> = layers.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(manifest_list("per_layer", "name"), names);
        let units: Vec<&str> = layers.iter().map(|(_, u)| *u).collect();
        assert_eq!(manifest_list("per_layer", "unit"), units);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload plan_build --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("plan_build"), 7, 3.0, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }

    /// Every workload at toy size, untraced and traced: all checks pass and
    /// the printed names are exactly the manifest's.
    #[test]
    fn every_workload_runs_at_toy_size() {
        let p = Params {
            seed: 11,
            seconds: Duration::ZERO,
            min_reps: 2,
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        for w in WORKLOADS {
            for traced in [false, true] {
                let (out, spans) = run_workload(w, &p, true, traced).expect("known workload");
                assert!(out.correct(), "{w} traced={traced}: {:?}", out.failures);
                assert!(
                    out.attempted >= 1 && out.failed == 0,
                    "{w}: {} of {} failed",
                    out.failed,
                    out.attempted
                );
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                assert!(names.iter().all(|n| valid_name(n)), "{w}: {names:?}");
                if traced {
                    assert_eq!(names, layers, "{w}");
                    assert!(!spans.is_empty(), "{w}: no spans");
                } else {
                    assert_eq!(names, e2e, "{w}");
                    assert!(
                        out.metrics.iter().all(|m| m.value > 0.0),
                        "{w}: {:?}",
                        out.metrics
                    );
                }
                let json = out.render(w);
                assert!(json
                    .lines()
                    .last()
                    .unwrap()
                    .starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn virtual_results_repeat_for_a_seed() {
        let p = Params {
            seed: 5,
            seconds: Duration::ZERO,
            min_reps: 1,
        };
        let virt = |w: &str| {
            let (out, _) = run_workload(w, &p, true, false).unwrap();
            out.notes
                .iter()
                .find(|(k, _)| *k == "latency_cycles")
                .expect("noted")
                .1
                .clone()
        };
        for w in WORKLOADS {
            assert_eq!(virt(w), virt(w), "{w}");
        }
    }
}
