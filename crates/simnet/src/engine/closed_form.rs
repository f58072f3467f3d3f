//! Trees that never meet, in closed form: reports without stepping.
//!
//! When no flit of a tree ever waits for arbitration, every flit it
//! delivers moves on a cycle that is an affine function of its element
//! index `e` and of its sink's depth `d`. With `s = max(release, 1)` the
//! tree's first cycle, `L` the link latency, `h(v)` a node's height
//! (above the deepest leaf below it) and `H` the root's height — which is
//! also the tree's maximum depth, both being its longest root-to-leaf
//! path:
//!
//! * reduce family: node `v` fires element `e` no earlier than
//!   `s + e + h(v)·L` (its slowest child's flit must cross one more link),
//!   and the root fires — and delivers — exactly then, at `s + e + H·L`;
//! * allreduce: the root's fire turns around into the broadcast, so a node
//!   at depth `d` receives element `e` at `s + e + (H + d)·L`;
//! * broadcast and allgather: the root emits element `e` at `s + e` and a
//!   node at depth `d` receives it at `s + e + d·L`.
//!
//! This is Theorem 5.1's `depth·L + m/B` made exact per flit. The report
//! follows from these times: a tree completes at the last delivery of its
//! last element, the first-element latency is the latest delivery of an
//! element 0, every live stream carries the slice once, and values come
//! from the blockwise value pass the batch replay uses, run over the whole
//! slice.
//!
//! # Stalled children never delay their parent
//!
//! A child `c` lower than its tallest sibling fires `slack·L` cycles
//! before its parent `v` consumes, `slack = h(v) − h(c)`, so its stream
//! would hold `min(len, slack·L)` flits, and the buffer may hold fewer.
//! The child then waits for credits, and its own staging queue may stall
//! its subtree, but the root's times hold as long as `L ≤ vc_buffer`.
//! Give every node a latest fire offset: `ψ(root) = H·L` and, going down,
//! `ψ(c) = max(h(c)·L, ψ(v) − vc_buffer)` when `len > vc_buffer`, else
//! `h(c)·L`. Firing element `e` at `s + e + ψ(c)` and sending it at once
//! meets every rule of the stepper: the flit arrives by `s + e + ψ(v)`
//! (`ψ(c) + L ≤ ψ(v)`, because `ψ(v) ≥ h(v)·L` and `vc_buffer ≥ L`), the
//! credit it needs returns when `v` fires element `e − vc_buffer`, at
//! `s + e − vc_buffer + ψ(v) ≤ s + e + ψ(c)`, and a staging queue that
//! drains the cycle it fills never blocks. The stepper fires each node as
//! early as its inputs, credits and queue allow, so it fires no later
//! than that schedule and no earlier than `s + e + h(v)·L`; at the root
//! the two bounds coincide. A stream's peak occupancy is
//! `min(len, slack·L, vc_buffer)`: a stream that reaches the buffer was
//! credit-bound, and if none does every node fires at its lower bound.
//!
//! # The gate
//!
//! Trees linked by a channel that carries a live stream of each (a stream
//! of a non-empty tree in a phase the collective runs) form a component.
//! [`ClosedForm::select`] admits a component, whole, when all of these
//! hold:
//!
//! * no tracer, fault layer or per-node cap is attached (a tracer keeps
//!   one timeline, a fault layer one detector clock, and caps share
//!   budgets across trees);
//! * every tree in it has `min(len, L) ≤ vc_buffer` and its last delivery
//!   fits inside `max_cycles`;
//! * no two live streams on any of its channels have overlapping transmit
//!   windows. A reduce stream from `c` holds flits only within
//!   `[s + h(c)·L, s + len − 1 + ψ(c)]`, exact for a child on a longest
//!   path. A broadcast stream from a node at depth `d` holds them within
//!   `[s + b + d·L, s + len − 1 + b + d·L]`, with `b = H·L` under
//!   allreduce and `0` under broadcast and allgather. Windows that do not
//!   overlap mean a channel never has two streams with staged flits in
//!   one cycle, so arbitration never runs and each tree moves as if
//!   alone.
//!
//! A whole component is needed because a stepped tree that contention
//! delays could move into the window of a closed-form neighbour. Every
//! other tree steps as before, in one run masked to the stepped trees,
//! and the engine merges that run's report with the closed-form part.

use super::{
    tree_components, Collective, JobBinding, JobOutcome, SimReport, Simulator, SingleRun,
    BATCH_BLOCK,
};
use crate::embedding::{MultiTreeEmbedding, Phase};
use crate::kernels;
use crate::workload::Workload;

/// One closed-form tree's delivery times.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// Cycle of the tree's first delivery (element 0 at the root).
    first: u64,
    /// Cycle of element 0's last delivery; element `e`'s last delivery
    /// is `e` cycles later.
    last0: u64,
    /// Peak receiver occupancy over the tree's live streams.
    peak: u64,
}

/// The first and last cycle in which a stream can hold a staged flit.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    lo: u64,
    hi: u64,
}

impl Window {
    /// Do the two windows share a cycle?
    fn meets(self, other: Window) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// The trees of one run that take the closed form, with their timing.
pub(crate) struct ClosedForm {
    /// Per embedded tree: `Some` when it takes the closed form.
    timing: Vec<Option<Timing>>,
    /// Peak receiver occupancy over the closed-form trees' live streams.
    max_vc_occupancy: u64,
}

impl ClosedForm {
    /// The gate (see the module doc): the trees of `sim`'s embedding that
    /// take the closed form under `kind` and `bindings`, or `None` when no
    /// tree does.
    pub(crate) fn select(
        sim: &Simulator<'_>,
        kind: Collective,
        bindings: Option<&[JobBinding]>,
    ) -> Option<ClosedForm> {
        if sim.couples_trees() {
            return None;
        }
        let (emb, cfg) = (sim.emb, sim.cfg);
        let (l, vc) = (u64::from(cfg.link_latency), cfg.vc_buffer as u64);
        let slices = emb.slices();
        let fits = |ti: usize| {
            let len = slices[ti].len;
            len > 0 && len.min(l) <= vc
        };
        if !(0..slices.len()).any(fits) {
            return None;
        }

        let order = &emb.order;
        let n = emb.num_nodes() as usize;
        // Per node of the tree at hand: the latest fire offset ψ. Per
        // (tree, node) pair: the windows of the node's reduce stream and
        // of its broadcast streams.
        let mut psi = vec![0u64; n];
        let mut win = vec![[Window::default(); 2]; slices.len() * n];
        let mut timing = vec![None; slices.len()];
        let mut binding = bindings.unwrap_or_default().iter().peekable();
        for (ti, t) in slices.iter().enumerate() {
            while binding.next_if(|b| b.trees.end <= ti).is_some() {}
            if !fits(ti) {
                continue;
            }
            // A node's height·L.
            let hl = |v: u32| u64::from(emb.height(ti, v)) * l;
            // Element 0 climbs the tree (H·L) before the root delivers it,
            // then descends to the deepest sink (H·L) when it broadcasts.
            let root = emb.root(ti);
            let hl_root = hl(root);
            let s = binding.peek().map_or(0, |b| b.release).max(1);
            let first = s.saturating_add(if kind.reduces() { hl_root } else { 0 });
            let last0 = first.saturating_add(if kind.broadcasts() { hl_root } else { 0 });
            if last0.saturating_add(t.len - 1) > cfg.max_cycles {
                continue;
            }

            // Parents before children: ψ and the broadcast's arrival times
            // flow down the tree.
            let (base, last) = (ti * n, t.len - 1);
            let turn = if kind == Collective::Allreduce { hl_root } else { 0 };
            psi[root as usize] = hl_root;
            win[base + root as usize][1] = Window { lo: s + turn, hi: s + turn + last };
            let mut peak = 0;
            for i in order.span(ti).rev() {
                let v = order.nodes[i];
                let (hl_v, psi_v) = (hl(v), psi[v as usize]);
                let below = win[base + v as usize][1].lo + l;
                for &c in order.children(i) {
                    let hl_c = hl(c);
                    let psi_c = if t.len > vc { hl_c.max(psi_v.saturating_sub(vc)) } else { hl_c };
                    let c = c as usize;
                    psi[c] = psi_c;
                    win[base + c] = [
                        Window { lo: s + hl_c, hi: s + last + psi_c },
                        Window { lo: below, hi: below + last },
                    ];
                    if kind.reduces() {
                        peak = peak.max(t.len.min(hl_v - hl_c).min(vc));
                    }
                    if kind.broadcasts() {
                        peak = peak.max(t.len.min(l));
                    }
                }
            }
            timing[ti] = Some(Timing { first, last0, peak });
        }

        // A component with a refused tree steps whole; so does one where
        // two live streams on a channel may hold flits in the same cycle.
        let comp = tree_components(emb, kind);
        let mut refused = vec![false; slices.len()];
        for (ti, t) in slices.iter().enumerate() {
            if t.len > 0 && timing[ti].is_none() {
                refused[comp[ti] as usize] = true;
            }
        }
        // The window of a live stream of a tree still in the running.
        let window = |s: u32| {
            let s = &emb.streams()[s as usize];
            let ti = s.tree as usize;
            let phase = usize::from(s.phase == Phase::Broadcast);
            let live = timing[ti].is_some() && s.phase.runs_under(kind);
            live.then(|| (ti, win[ti * n + s.src as usize][phase]))
        };
        for c in 0..emb.num_channels() {
            let members = emb.channel_streams(c);
            for (i, &a) in members.iter().enumerate() {
                let Some((ti, wa)) = window(a) else { continue };
                let mut later = members[i + 1..].iter().filter_map(|&b| window(b));
                if later.any(|(_, wb)| wa.meets(wb)) {
                    refused[comp[ti] as usize] = true;
                    break;
                }
            }
        }

        let mut max_vc_occupancy = 0;
        for (ti, tm) in timing.iter_mut().enumerate() {
            if refused[comp[ti] as usize] {
                *tm = None;
            } else if let Some(tm) = tm {
                max_vc_occupancy = max_vc_occupancy.max(tm.peak);
            }
        }
        let any = timing.iter().any(Option::is_some);
        any.then_some(ClosedForm { timing, max_vc_occupancy })
    }

    /// Does tree `ti` take the closed form?
    pub(crate) fn takes(&self, ti: usize) -> bool {
        self.timing[ti].is_some()
    }

    /// The closed-form trees' part of the run: their report and per-job
    /// outcomes, exactly what stepping them would have produced.
    pub(super) fn run(
        &self,
        emb: &MultiTreeEmbedding,
        w: &Workload,
        kind: Collective,
        bindings: Option<&[JobBinding]>,
    ) -> SingleRun {
        let n = emb.num_nodes() as usize;
        let sinks = kind.sinks_per_tree(n as u64);
        // Every sink validates what it receives except a root that sources
        // the broadcast.
        let validations = sinks - u64::from(kind.root_sources_broadcast());
        let mut rows = vec![0u64; (n + 1) * BATCH_BLOCK];
        let mut tree_completion = vec![0u64; emb.num_trees()];
        let (mut cycles, mut fel, mut live_pairs, mut elems) = (0u64, 0u64, 0u64, 0u64);
        let (mut mismatches, mut value_digest) = (0u64, 0u64);
        let mut jobs = vec![JobOutcome::default(); bindings.map_or(0, <[JobBinding]>::len)];
        for (ti, t) in emb.slices().iter().enumerate() {
            let Some(tm) = self.timing[ti] else { continue };
            let completion = tm.last0 + t.len - 1;
            tree_completion[ti] = completion;
            cycles = cycles.max(completion);
            fel = fel.max(tm.last0);
            live_pairs += sinks;
            elems += t.len;

            let root = emb.root(ti) as usize;
            let (mut tree_mismatches, mut tree_hash) = (0u64, 0u64);
            let mut e = 0;
            while e < t.len {
                let bw = ((t.len - e) as usize).min(BATCH_BLOCK);
                let ge = t.offset + e;
                emb.order.fill_block(ti, w, kind, ge, bw, &mut rows);
                let vals = &rows[root * BATCH_BLOCK..root * BATCH_BLOCK + bw];
                let keys = &rows[n * BATCH_BLOCK..n * BATCH_BLOCK + bw];
                for (k, (&val, &key)) in vals.iter().zip(keys).enumerate() {
                    let g = ge + k as u64;
                    let expect = match kind {
                        Collective::Broadcast => w.input(root as u32, g),
                        _ => w.expected(g),
                    };
                    if !w.value_close_at(g, val, expect) {
                        tree_mismatches += validations;
                    }
                    tree_hash = tree_hash.wrapping_add(key);
                }
                let sink_nodes = if kind.broadcasts() { 0..n } else { root..root + 1 };
                for v in sink_nodes {
                    value_digest = value_digest.wrapping_add(kernels::digest(v as u64, keys));
                }
                e += bw as u64;
            }
            mismatches += tree_mismatches;
            if let Some(j) = bindings.and_then(|bs| bs.iter().position(|b| b.trees.contains(&ti))) {
                let o = &mut jobs[j];
                o.first_delivery =
                    if o.first_delivery == 0 { tm.first } else { o.first_delivery.min(tm.first) };
                o.completion = o.completion.max(completion);
                o.deliveries += t.len * sinks;
                o.elems += t.len;
                o.value_hash = o.value_hash.wrapping_add(tree_hash);
                o.mismatches += tree_mismatches;
            }
        }

        let channel_flits: Vec<u64> = (0..emb.num_channels())
            .map(|c| {
                emb.channel_streams(c)
                    .iter()
                    .map(|&s| &emb.streams()[s as usize])
                    .filter(|s| self.takes(s.tree as usize) && s.phase.runs_under(kind))
                    .map(|s| emb.slices()[s.tree as usize].len)
                    .sum()
            })
            .collect();
        let max_channel_utilization =
            channel_flits.iter().map(|&f| f as f64 / cycles.max(1) as f64).fold(0.0, f64::max);
        let report = SimReport {
            cycles,
            total_elems: elems,
            completed: true,
            mismatches,
            value_digest,
            measured_bandwidth: elems as f64 / cycles.max(1) as f64,
            tree_completion,
            first_element_latency: fel,
            channel_flits,
            max_channel_utilization,
            max_vc_occupancy: self.max_vc_occupancy as usize,
        };
        SingleRun { report, trace: None, faults: None, jobs, live_pairs, stepped: 0 }
    }
}
