//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`layer.call`), start and end (ns since the
//! tracer started), its parent span and the request it serves. Spans live
//! in a thread-local buffer while the traced run executes and are written
//! out once it ends. A layer's self time is the summed duration of its
//! spans minus the part their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Layers, named after the modules they time.
pub const LAYERS: [&str; 10] = [
    "galois",
    "topo",
    "construction",
    "congestion",
    "rate",
    "recovery",
    "fabric",
    "cache",
    "sched",
    "simnet",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `sched.run_epoch`.
    pub name: &'static str,
    /// Start, ns since the tracer started.
    pub start: u64,
    /// End, ns since the tracer started.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (job, collective or repair pass) the span serves.
    pub request: u64,
}

impl Span {
    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name
            .split('.')
            .next()
            .expect("split yields at least one piece")
    }

    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding anything unfinished).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording and returns the spans, in opening order.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// Runs `f` inside a span named `name` serving `request`. Without an
/// active tracer this is a plain call.
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let id = tr.spans.len();
            let start = tr.origin.elapsed().as_nanos() as u64;
            let parent = tr.open.last().copied();
            tr.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                request,
            });
            tr.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut guard = t.borrow_mut();
            let tr = guard.as_mut().expect("the tracer outlives its open spans");
            tr.spans[id].end = tr.origin.elapsed().as_nanos() as u64;
            assert_eq!(tr.open.pop(), Some(id), "spans close in LIFO order");
        });
    }
    out
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Self ns per layer (signed: see [`Breakdown::of`]).
    pub self_ns: BTreeMap<&'static str, i64>,
    /// Span count per layer.
    pub calls: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Self time and call counts per layer. Spans named in `replays` re-run
    /// work that happened, unspanned, inside `replayed_in` spans (the
    /// fabric re-executes each wave to time the engine apart from the
    /// scheduler): their time is moved out of `replayed_in`'s self time
    /// instead of being counted twice. That makes `replayed_in`'s self time
    /// an estimate, which can dip below zero when its true share is smaller
    /// than the run-to-run noise of the replayed work.
    pub fn of(spans: &[Span], replays: &[&str], replayed_in: &'static str) -> Breakdown {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut b = Breakdown::default();
        let mut replay_ns = 0u64;
        for (s, &c) in spans.iter().zip(&child_ns) {
            *b.self_ns.entry(s.layer()).or_default() += (s.ns() - c) as i64;
            *b.calls.entry(s.layer()).or_default() += 1;
            if replays.contains(&s.name) {
                replay_ns += s.ns();
            }
        }
        if replay_ns > 0 {
            *b.self_ns.entry(replayed_in).or_default() -= replay_ns as i64;
        }
        b
    }

    /// Summed self time of every layer.
    pub fn total_ns(&self) -> i64 {
        self.self_ns.values().sum()
    }

    /// Adds another breakdown's totals into this one.
    pub fn add(&mut self, other: &Breakdown) {
        for (k, v) in &other.self_ns {
            *self.self_ns.entry(k).or_default() += v;
        }
        for (k, v) in &other.calls {
            *self.calls.entry(k).or_default() += v;
        }
    }
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Writes spans as CSV (`id,parent,request,name,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{i},{parent},{},{},{},{}",
            s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_replays() {
        start();
        span("sched.run_epoch", 1, || {
            span("cache.lookup", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        span("simnet.run", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let plain = Breakdown::of(&spans, &[], "sched");
        assert_eq!(plain.total_ns(), (spans[0].ns() + spans[2].ns()) as i64);
        let moved = Breakdown::of(&spans, &["simnet.run"], "sched");
        assert_eq!(
            moved.self_ns["sched"],
            plain.self_ns["sched"] - spans[2].ns() as i64
        );
        assert_eq!(moved.total_ns(), plain.total_ns() - spans[2].ns() as i64);
        assert_eq!(moved.calls["cache"], 1);
        assert!(finish().is_empty(), "finish stops recording");
    }
}
