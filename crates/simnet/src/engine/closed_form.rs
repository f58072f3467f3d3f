//! Contention-free trees in closed form: reports without stepping.
//!
//! When a tree is the only live stream on every directed channel it uses,
//! nothing arbitrates its flits, and when its credit window cannot
//! back-pressure, nothing delays them either. Every flit then moves on a
//! cycle that is an affine function of its element index `e` and of its
//! node's height `h(v)` (above the deepest leaf below it) and depth `d`.
//! With `s = max(release, 1)` the tree's first cycle, `L` the link
//! latency and `H` the root's height — which is also the tree's maximum
//! depth, both being its longest root-to-leaf path:
//!
//! * reduce family: node `v` fires element `e` at `s + e + h(v)·L` (each
//!   node fires once its slowest child's flit has crossed one more link),
//!   and the root delivers at its own fire;
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
//! # The gate
//!
//! [`ClosedForm::select`] admits a tree when all of these hold:
//!
//! * no tracer, fault layer or per-node cap is attached (they couple the
//!   trees, exactly as for sharding);
//! * the tree is the only live stream — a stream of a non-empty tree in a
//!   phase the collective runs — on every directed channel it uses;
//! * its credit window cannot back-pressure. The receiver returns a credit
//!   in the cycle it consumes a flit and the sender may spend it that
//!   cycle, so a stream whose receiver consumes element `e` `slack·L`
//!   cycles after the sender fires it holds at most `min(len, slack·L)`
//!   flits. That must not exceed `vc_buffer`. A broadcast stream has
//!   slack 1; a reduce stream from child `c` to parent `v` has slack
//!   `h(v) − h(c)`, so a child lower than its tallest sibling waits for
//!   credits unless the buffer covers the gap;
//! * its last delivery fits inside `max_cycles`.
//!
//! Every other tree steps as before; the closed-form trees join the run
//! as one more part of the shard merge.

use super::{
    hash_entry, Collective, JobBinding, JobOutcome, SimReport, Simulator, SingleRun, TreeOrder,
    BATCH_BLOCK,
};
use crate::embedding::{MultiTreeEmbedding, Phase};
use crate::workload::Workload;

/// One closed-form tree's delivery times.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// Cycle of the tree's first delivery (element 0 at the root).
    first: u64,
    /// Cycle of element 0's last delivery; element `e`'s last delivery
    /// is `e` cycles later.
    last0: u64,
}

/// The trees of one run that take the closed form, with their timing.
pub(crate) struct ClosedForm {
    /// Per embedded tree: `Some` when it takes the closed form.
    timing: Vec<Option<Timing>>,
    order: TreeOrder,
    /// Peak receiver occupancy over the closed-form trees' live streams.
    max_vc_occupancy: u64,
}

/// Does stream phase `phase` carry flits under `kind`?
fn phase_runs(kind: Collective, phase: Phase) -> bool {
    match phase {
        Phase::Reduce => kind.reduces(),
        Phase::Broadcast => kind.broadcasts(),
    }
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
        let live = |s: u32| {
            let s = &emb.streams[s as usize];
            emb.trees[s.tree as usize].len > 0 && phase_runs(kind, s.phase)
        };
        let mut alone: Vec<bool> = emb.trees.iter().map(|t| t.len > 0).collect();
        for members in &emb.channel_streams {
            if members.iter().filter(|&&s| live(s)).count() > 1 {
                for &s in members.iter().filter(|&&s| live(s)) {
                    alone[emb.streams[s as usize].tree as usize] = false;
                }
            }
        }
        if !alone.contains(&true) {
            return None;
        }

        let mut release = vec![0u64; emb.trees.len()];
        for b in bindings.unwrap_or_default() {
            release[b.trees.clone()].fill(b.release);
        }
        let order = TreeOrder::new(emb, |ti| alone[ti]);
        let n = emb.num_nodes as usize;
        let (l, vc) = (u64::from(cfg.link_latency), cfg.vc_buffer as u64);
        let mut height = vec![0u64; n];
        let mut timing = vec![None; emb.trees.len()];
        let mut max_vc_occupancy = 0;
        for (ti, t) in emb.trees.iter().enumerate() {
            if !alone[ti] {
                continue;
            }
            let span = order.span(ti);
            for i in span.clone() {
                let v = order.nodes[i] as usize;
                height[v] =
                    order.children(i).iter().map(|&c| height[c as usize] + 1).max().unwrap_or(0);
            }
            // Peak occupancy of the tree's live streams: `min(len, slack·L)`.
            let mut occupancy = 0;
            for i in span.clone() {
                let v = order.nodes[i] as usize;
                for &c in order.children(i) {
                    if kind.reduces() {
                        let slack = height[v] - height[c as usize];
                        occupancy = occupancy.max(t.len.min(slack * l));
                    }
                    if kind.broadcasts() {
                        occupancy = occupancy.max(t.len.min(l));
                    }
                }
            }
            // Element 0 climbs the tree (H·L) before the root delivers it,
            // then descends to the deepest sink (H·L) when it broadcasts.
            let hl = height[t.root as usize] * l;
            let first = release[ti].max(1).saturating_add(if kind.reduces() { hl } else { 0 });
            let last0 = first.saturating_add(if kind.broadcasts() { hl } else { 0 });
            if occupancy <= vc && last0.saturating_add(t.len - 1) <= cfg.max_cycles {
                timing[ti] = Some(Timing { first, last0 });
                max_vc_occupancy = max_vc_occupancy.max(occupancy);
            }
        }
        timing.iter().any(Option::is_some).then_some(ClosedForm { timing, order, max_vc_occupancy })
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
        let n = emb.num_nodes as usize;
        let sinks = kind.sinks_per_tree(n as u64);
        // Every sink validates what it receives except a root that sources
        // the broadcast.
        let validations = sinks - u64::from(kind.root_sources_broadcast());
        let mut rows = vec![0u64; (n + 1) * BATCH_BLOCK];
        let mut tree_completion = vec![0u64; emb.trees.len()];
        let (mut cycles, mut fel, mut live_pairs, mut elems) = (0u64, 0u64, 0u64, 0u64);
        let (mut mismatches, mut value_digest) = (0u64, 0u64);
        let mut jobs = vec![JobOutcome::default(); bindings.map_or(0, <[JobBinding]>::len)];
        for (ti, t) in emb.trees.iter().enumerate() {
            let Some(tm) = self.timing[ti] else { continue };
            let completion = tm.last0 + t.len - 1;
            tree_completion[ti] = completion;
            cycles = cycles.max(completion);
            fel = fel.max(tm.last0);
            live_pairs += sinks;
            elems += t.len;

            let root = t.root as usize;
            let (mut tree_mismatches, mut tree_hash) = (0u64, 0u64);
            let mut e = 0;
            while e < t.len {
                let bw = ((t.len - e) as usize).min(BATCH_BLOCK);
                let ge = t.offset + e;
                self.order.fill_block(ti, w, kind, ge, bw, &mut rows);
                let vals = &rows[root * BATCH_BLOCK..root * BATCH_BLOCK + bw];
                let keys = &rows[n * BATCH_BLOCK..n * BATCH_BLOCK + bw];
                for (k, (&val, &key)) in vals.iter().zip(keys).enumerate() {
                    let g = ge + k as u64;
                    let expect = match kind {
                        Collective::Broadcast => w.input(t.root, g),
                        _ => w.expected(g),
                    };
                    if !w.value_close_at(g, val, expect) {
                        tree_mismatches += validations;
                    }
                    tree_hash = tree_hash.wrapping_add(key);
                }
                let sink_nodes = if kind.broadcasts() { 0..n } else { root..root + 1 };
                for v in sink_nodes {
                    for &key in keys {
                        value_digest = value_digest.wrapping_add(hash_entry(v as u64, key));
                    }
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

        let channel_flits: Vec<u64> = emb
            .channel_streams
            .iter()
            .map(|members| {
                members
                    .iter()
                    .map(|&s| &emb.streams[s as usize])
                    .filter(|s| self.takes(s.tree as usize) && phase_runs(kind, s.phase))
                    .map(|s| emb.trees[s.tree as usize].len)
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
        SingleRun { report, trace: None, faults: None, jobs, live_pairs }
    }
}
