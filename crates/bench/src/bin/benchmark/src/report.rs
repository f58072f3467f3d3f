//! What one workload run reports: its metrics, its operation ledger and
//! the checks it failed, printed as a table and a final JSON line.

use crate::measure::{median, peak_rss_mb, percentile, reference_kernel, REFERENCE_KERNEL_S};
use crate::trace::{Breakdown, LAYERS};
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), as `(name, unit)`. Every workload
/// reports all of them; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics beyond the `<layer>.self_pct` / `<layer>.calls` pair
/// every layer in [`LAYERS`] reports, as `(name, unit)`.
pub const LAYER_EXTRAS: [(&str, &str); 15] = [
    ("simnet.runs", "count"),
    ("simnet.cycles_per_run", "cycles"),
    ("simnet.router_cycles_per_us", "1/us"),
    ("simnet.allocs_per_run", "count"),
    ("simnet.alloc_bytes_per_run", "B"),
    ("cache.hit_pct", "%"),
    ("cache.evictions", "count"),
    ("sched.waves_per_epoch", "count"),
    ("sched.jobs_per_wave", "count"),
    ("fabric.epochs", "count"),
    ("fabric.queueing_delay_mean_cycles", "cycles"),
    ("fabric.job_latency_mean_cycles", "cycles"),
    ("trace.path_ms_per_op", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        out.push((format!("{layer}.self_pct"), "%"));
        out.push((format!("{layer}.calls"), "count"));
    }
    out.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (refused jobs, incomplete runs, repairs the
    /// incremental path could not make).
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Run parameters worth recording (seed, nproc, threads, reps).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a run parameter.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable table followed by the one-line JSON result.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let notes: Vec<String> = self.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "# {workload}: {}", notes.join(" "));
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>16.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite JSON number with every digit the f64 carries.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// The host-side samples of an untraced run, reduced to the end-to-end
/// metrics by [`Timing::report`].
///
/// Host time on a shared machine drifts with its neighbours' load, so
/// every sample is normalized to the reference host's speed: scaled by how
/// fast the reference kernel ran when the sample was taken
/// ([`Timing::calibrate`]). A normalized second is a wall second on the
/// reference host at rest.
#[derive(Debug, Default)]
pub struct Timing {
    /// Operations one repetition performs.
    pub ops_per_rep: u64,
    /// Normalized seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Normalized µs per operation, pooled over the repetitions.
    pub op_us: Vec<f64>,
    /// Normalized seconds per repetition.
    rep_s: Vec<f64>,
    /// Wall seconds per repetition.
    wall_s: Vec<f64>,
    /// Host speed relative to the reference host, per calibration.
    speed: Vec<f64>,
    /// Set-up and operation samples already normalized.
    normalized: (usize, usize),
}

impl Timing {
    /// Timing for repetitions of `ops_per_rep` operations.
    pub fn new(ops_per_rep: u64) -> Self {
        Timing {
            ops_per_rep,
            ..Timing::default()
        }
    }

    /// Repetitions so far.
    pub fn reps(&self) -> usize {
        self.rep_s.len()
    }

    /// Times the reference kernel and normalizes every set-up and
    /// operation sample recorded since the last calibration; returns the
    /// host's current speed relative to the reference host.
    pub fn calibrate(&mut self) -> f64 {
        let speed = REFERENCE_KERNEL_S / reference_kernel();
        let (setups, ops) = self.normalized;
        self.setup_s[setups..].iter_mut().for_each(|x| *x *= speed);
        self.op_us[ops..].iter_mut().for_each(|x| *x *= speed);
        self.normalized = (self.setup_s.len(), self.op_us.len());
        self.speed.push(speed);
        speed
    }

    /// Closes a repetition that took `wall_s` seconds, normalizing it and
    /// its samples.
    pub fn end_rep(&mut self, wall_s: f64) {
        let speed = self.calibrate();
        self.wall_s.push(wall_s);
        self.rep_s.push(wall_s * speed);
    }

    /// Adds the end-to-end metrics to `out`, with the raw wall-time
    /// throughput and the host speed as notes.
    pub fn report(mut self, out: &mut Outcome) {
        assert!(!self.rep_s.is_empty() && !self.setup_s.is_empty() && !self.op_us.is_empty());
        let per_s =
            |xs: &[f64]| -> Vec<f64> { xs.iter().map(|s| self.ops_per_rep as f64 / s).collect() };
        let ops_per_s = per_s(&self.rep_s);
        out.metric("setup_s", median(&self.setup_s), "s", self.setup_s.len());
        out.metric("ops_per_s", median(&ops_per_s), "1/s", ops_per_s.len());
        let n = self.op_us.len();
        out.metric("op_p50_us", percentile(&mut self.op_us, 50.0), "us", n);
        out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
        out.note("reps", self.rep_s.len());
        out.note("host_speed", format!("{:.3}", median(&self.speed)));
        out.note(
            "wall_ops_per_s",
            format!("{:.3}", median(&per_s(&self.wall_s))),
        );
        // The tail is printed, not gated: it is set by rare operations
        // (fault repairs, the longest epochs) and by host noise.
        out.note(
            "op_p99_us",
            format!("{:.1}", percentile(&mut self.op_us, 99.0)),
        );
    }
}

/// Layer counters a traced run gathers beside its spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Engine runs timed.
    pub runs: u64,
    /// Simulated cycles over those runs.
    pub cycles: u64,
    /// Σ routers × cycles over those runs.
    pub router_cycles: u64,
    /// Wall ns of those runs.
    pub run_ns: u64,
    /// Heap allocations during those runs.
    pub allocs: u64,
    /// Heap bytes requested during those runs.
    pub alloc_bytes: u64,
    /// Plan-cache hits, misses and evictions.
    pub cache: (u64, u64, u64),
    /// Scheduler epochs dispatched.
    pub epochs: u64,
    /// Waves executed.
    pub waves: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Σ cycles jobs spent queued before release.
    pub queueing_cycles: u64,
    /// Σ cycles from arrival to completion over the jobs.
    pub latency_cycles: u64,
}

impl LayerCounts {
    /// Adds another repetition's counters into these.
    pub fn add(&mut self, o: &LayerCounts) {
        self.runs += o.runs;
        self.cycles += o.cycles;
        self.router_cycles += o.router_cycles;
        self.run_ns += o.run_ns;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.cache.0 += o.cache.0;
        self.cache.1 += o.cache.1;
        self.cache.2 += o.cache.2;
        self.epochs += o.epochs;
        self.waves += o.waves;
        self.jobs += o.jobs;
        self.queueing_cycles += o.queueing_cycles;
        self.latency_cycles += o.latency_cycles;
    }
}

/// The traced run's host-side totals.
#[derive(Debug, Default)]
pub struct Profile {
    /// Per-layer self time and calls, summed over traced repetitions.
    pub layers: Breakdown,
    /// Traced request-path wall ns (replays excluded), summed.
    pub path_ns: u64,
    /// Operations the traced repetitions performed.
    pub ops: u64,
    /// Wall seconds per traced repetition (request path only).
    pub traced_s: Vec<f64>,
    /// Wall seconds per untraced repetition run alongside.
    pub untraced_s: Vec<f64>,
    /// Layer counters.
    pub counts: LayerCounts,
}

impl Profile {
    /// Adds every per-layer metric to `out`, and fails the run when the
    /// spans cover less than 90 % of the traced request path.
    pub fn report(&self, out: &mut Outcome) {
        let path = self.path_ns.max(1) as f64;
        let reps = self.traced_s.len();
        for layer in LAYERS {
            let ns = self.layers.self_ns.get(layer).copied().unwrap_or(0);
            let calls = self.layers.calls.get(layer).copied().unwrap_or(0);
            out.metric(
                format!("{layer}.self_pct"),
                100.0 * ns as f64 / path,
                "%",
                reps,
            );
            out.metric(format!("{layer}.calls"), calls as f64, "count", reps);
        }
        let c = &self.counts;
        let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        let (hits, misses, evictions) = c.cache;
        let rows = [
            ("simnet.runs", c.runs as f64, "count", reps as u64),
            (
                "simnet.cycles_per_run",
                per(c.cycles, c.runs),
                "cycles",
                c.runs,
            ),
            (
                "simnet.router_cycles_per_us",
                per(c.router_cycles * 1000, c.run_ns),
                "1/us",
                c.runs,
            ),
            (
                "simnet.allocs_per_run",
                per(c.allocs, c.runs),
                "count",
                c.runs,
            ),
            (
                "simnet.alloc_bytes_per_run",
                per(c.alloc_bytes, c.runs),
                "B",
                c.runs,
            ),
            (
                "cache.hit_pct",
                100.0 * per(hits, hits + misses),
                "%",
                hits + misses,
            ),
            ("cache.evictions", evictions as f64, "count", reps as u64),
            (
                "sched.waves_per_epoch",
                per(c.waves, c.epochs),
                "count",
                c.epochs,
            ),
            (
                "sched.jobs_per_wave",
                per(c.jobs, c.waves),
                "count",
                c.waves,
            ),
            ("fabric.epochs", c.epochs as f64, "count", reps as u64),
            (
                "fabric.queueing_delay_mean_cycles",
                per(c.queueing_cycles, c.jobs),
                "cycles",
                c.jobs,
            ),
            (
                "fabric.job_latency_mean_cycles",
                per(c.latency_cycles, c.jobs),
                "cycles",
                c.jobs,
            ),
        ];
        for (name, value, unit, samples) in rows {
            out.metric(name, value, unit, samples as usize);
        }
        out.metric(
            "trace.path_ms_per_op",
            path / 1e6 / self.ops.max(1) as f64,
            "ms",
            reps,
        );
        let overhead = median(&self.traced_s) / median(&self.untraced_s) - 1.0;
        out.metric("trace.overhead_pct", 100.0 * overhead, "%", reps);
        let covered = self.layers.total_ns() as f64 / path;
        out.metric("trace.unattributed_pct", 100.0 * (1.0 - covered), "%", reps);
        out.check(covered >= 0.9, || {
            format!(
                "layer self times cover {:.1}% of the traced wall time (< 90%)",
                100.0 * covered
            )
        });
        out.note("traced_reps", reps);
    }
}
