//! The pre-optimization stepper, retained verbatim as the differential
//! oracle for the active-set engine.
//!
//! This module is the hot loop as it existed before the active-set /
//! cycle-skip rewrite: per-cycle full scans over every (tree, node)
//! engine, every stream and every directed channel, `VecDeque` queues,
//! eagerly refilled budgets, and per-fire `Vec` clones. It is compiled
//! only for tests and under the `reference-engine` feature (the
//! `experiments perf-snapshot` harness measures the optimized engine's
//! speedup against it); production code always gets the optimized engine.
//!
//! The differential suite (`crate::difftest`) asserts that both steppers
//! produce byte-identical [`SimReport`]s, trace JSON and [`FaultReport`]s
//! — any behavioral change to one side must be made to both.

use super::{Collective, SimReport, Simulator};
use crate::embedding::Phase;
use crate::faults::FaultReport;
use crate::trace::{EngineStall, TraceReport};
use crate::workload::Workload;
use std::collections::VecDeque;

/// Per-(tree, node) dataflow wiring and progress.
#[derive(Debug, Clone)]
struct Engine {
    reduce_in: Vec<u32>,
    reduce_out: Option<u32>,
    bcast_in: Option<u32>,
    bcast_out: Vec<u32>,
    /// Local elements consumed by the reduction (0..len).
    reduced: u64,
    /// Broadcast elements delivered locally (0..len).
    delivered: u64,
}

/// One logical stream's queues.
#[derive(Debug, Clone)]
struct StreamState {
    sendq: VecDeque<u64>,
    inflight: VecDeque<(u64, u64)>, // (arrival cycle, value)
    recvq: VecDeque<u64>,
}

/// Runs `w` on the reference stepper, consuming the simulator (including
/// its tracer and fault layer, exactly like the optimized `run_inner_jobs`).
pub(super) fn run(
    sim: Simulator<'_>,
    w: &Workload,
    kind: Collective,
) -> (SimReport, Option<TraceReport>, Option<FaultReport>) {
    let Simulator { emb, cfg, tracer, faults } = sim;
    assert_eq!(w.nodes(), emb.num_nodes());
    assert!(
        w.len() >= emb.elem_end(),
        "workload must cover every tree slice's global element range"
    );

    let n = emb.num_nodes() as usize;
    let mut engines: Vec<Vec<Engine>> = (0..emb.num_trees())
        .map(|_| {
            (0..n)
                .map(|_| Engine {
                    reduce_in: Vec::new(),
                    reduce_out: None,
                    bcast_in: None,
                    bcast_out: Vec::new(),
                    reduced: 0,
                    delivered: 0,
                })
                .collect()
        })
        .collect();
    for (si, s) in emb.streams().iter().enumerate() {
        let si = si as u32;
        match s.phase {
            Phase::Reduce => {
                engines[s.tree as usize][s.dst as usize].reduce_in.push(si);
                engines[s.tree as usize][s.src as usize].reduce_out = Some(si);
            }
            Phase::Broadcast => {
                engines[s.tree as usize][s.src as usize].bcast_out.push(si);
                engines[s.tree as usize][s.dst as usize].bcast_in = Some(si);
            }
        }
    }
    let mut streams = vec![
        StreamState {
            sendq: VecDeque::new(),
            inflight: VecDeque::new(),
            recvq: VecDeque::new(),
        };
        emb.streams().len()
    ];
    let mut rr = vec![0usize; emb.num_channels()];
    let mut channel_flits = vec![0u64; emb.num_channels()];
    let mut max_vc_occupancy = 0usize;

    // Deliveries per tree: every node when the collective broadcasts
    // down, the root shard only for reduce / reduce-scatter.
    let per_tree_sinks = kind.sinks_per_tree(emb.num_nodes() as u64);
    let total_deliveries: u64 = emb.slices().iter().map(|t| t.len * per_tree_sinks).sum();
    let live_pairs: u64 = emb
        .slices()
        .iter()
        .map(|t| if t.len > 0 { per_tree_sinks } else { 0 })
        .sum();
    let mut first_done_pairs = 0u64;
    let mut first_element_latency = 0u64;
    let mut deliveries = 0u64;
    let mut mismatches = 0u64;
    let mut value_digest = 0u64;
    let mut tree_completion = vec![0u64; emb.num_trees()];
    let mut tree_deliveries = vec![0u64; emb.num_trees()];
    let mut inject_budget = vec![0u32; n];
    let mut tracer = tracer;
    let mut faults = faults;

    let mut cycle = 0u64;
    while deliveries < total_deliveries
        && cycle < cfg.max_cycles
        && !faults.as_ref().is_some_and(|f| f.should_abort())
    {
        cycle += 1;
        if let Some(fs) = faults.as_mut() {
            fs.begin_cycle(cycle);
        }
        if let Some(cap) = cfg.max_injections_per_node {
            inject_budget.fill(cap);
        }

        // 1. Arrivals. Flits in flight on a dead channel are stuck on the
        // wire: they arrive only after the fault heals (transient outages
        // delay, they never drop data).
        for (s, st) in streams.iter_mut().enumerate() {
            if faults.as_ref().is_some_and(|f| f.arrivals_frozen(s)) {
                continue;
            }
            while st.inflight.front().is_some_and(|&(t, _)| t <= cycle) {
                let (_, v) = st.inflight.pop_front().unwrap();
                st.recvq.push_back(v);
            }
        }

        // 2. Compute.
        // Rotate tree priority per cycle so shared per-node injection
        // budgets are served max-min fairly instead of starving
        // high-index trees.
        let ntrees = emb.num_trees();
        for ti in (0..ntrees).map(|i| (i + cycle as usize) % ntrees.max(1)) {
            let tree = emb.slices()[ti];
            let root = emb.root(ti);
            if tree.len == 0 {
                continue;
            }
            // The broadcast's expected payload: the global reduction for
            // allreduce/allgather, the root's own input for a pure
            // broadcast.
            let expected = |elem: u64| match kind {
                Collective::Broadcast => w.input(root, tree.offset + elem),
                _ => w.expected(tree.offset + elem),
            };
            let mut deliver = |eng: &mut Engine,
                               node: u32,
                               val: u64,
                               deliveries: &mut u64,
                               tree_deliveries: &mut [u64]| {
                value_digest = value_digest.wrapping_add(super::delivery_digest_entry(
                    node as u64,
                    tree.offset + eng.delivered,
                    val,
                ));
                eng.delivered += 1;
                if eng.delivered == 1 {
                    first_done_pairs += 1;
                    if first_done_pairs == live_pairs {
                        first_element_latency = cycle;
                    }
                }
                *deliveries += 1;
                tree_deliveries[ti] += 1;
                if tree_deliveries[ti] == tree.len * per_tree_sinks {
                    tree_completion[ti] = cycle;
                }
            };
            for v in 0..emb.num_nodes() {
                // A dead router's engines and relays are halted.
                if faults.as_ref().is_some_and(|f| f.router_is_down(v as usize)) {
                    continue;
                }
                let is_root = root == v;

                // -- Reduction engine (allreduce / reduce / reduce-scatter) --
                let eng = &engines[ti][v as usize];
                if kind.reduces() && eng.reduced < tree.len {
                    let inject_free =
                        cfg.max_injections_per_node.is_none() || inject_budget[v as usize] > 0;
                    let inputs_ready =
                        eng.reduce_in.iter().all(|&s| !streams[s as usize].recvq.is_empty());
                    let out_ok = match eng.reduce_out {
                        Some(s) => streams[s as usize].sendq.len() < cfg.source_queue,
                        None => true,
                    };
                    // An allreduce root turns the result straight into the
                    // broadcast, so it needs space on every down stream.
                    let bcast_ok = !(is_root && kind == Collective::Allreduce)
                        || eng
                            .bcast_out
                            .iter()
                            .all(|&s| streams[s as usize].sendq.len() < cfg.source_queue);
                    if let Some(tr) = tracer.as_mut() {
                        if !(inject_free && inputs_ready && out_ok && bcast_ok) {
                            // Attribute the stall: missing inputs first
                            // (most fundamental), then budget, then a
                            // blocked output path.
                            let why = if !inputs_ready {
                                EngineStall::InputStarved
                            } else if !inject_free {
                                EngineStall::Budget
                            } else {
                                EngineStall::OutputBlocked
                            };
                            tr.engine_stalled(v as usize, why);
                        } else {
                            tr.reduction_fired(v as usize);
                        }
                    }
                    if inject_free && inputs_ready && out_ok && bcast_ok {
                        if cfg.max_injections_per_node.is_some() {
                            inject_budget[v as usize] -= 1;
                        }
                        let eng = &mut engines[ti][v as usize];
                        let elem = eng.reduced;
                        eng.reduced += 1;
                        let mut acc = w.input(v, tree.offset + elem);
                        let ins: Vec<u32> = eng.reduce_in.clone();
                        for s in ins {
                            let x = streams[s as usize].recvq.pop_front().unwrap();
                            acc = w.combine_at(tree.offset + elem, acc, x);
                        }
                        let eng = &engines[ti][v as usize];
                        if is_root {
                            if !w.value_close_at(tree.offset + elem, acc, w.expected(tree.offset + elem)) {
                                mismatches += 1;
                            }
                            if kind == Collective::Allreduce {
                                let outs: Vec<u32> = eng.bcast_out.clone();
                                for s in outs {
                                    streams[s as usize].sendq.push_back(acc);
                                }
                            }
                            deliver(
                                &mut engines[ti][v as usize],
                                v,
                                acc,
                                &mut deliveries,
                                &mut tree_deliveries,
                            );
                        } else {
                            let s = eng.reduce_out.unwrap();
                            streams[s as usize].sendq.push_back(acc);
                        }
                    }
                }

                // -- Broadcast source (broadcast / allgather root) --
                let eng = &engines[ti][v as usize];
                if kind.root_sources_broadcast() && is_root && eng.delivered < tree.len {
                    let space = eng
                        .bcast_out
                        .iter()
                        .all(|&s| streams[s as usize].sendq.len() < cfg.source_queue);
                    if let Some(tr) = tracer.as_mut() {
                        if space {
                            tr.relay_fired(v as usize);
                        } else {
                            tr.engine_stalled(v as usize, EngineStall::OutputBlocked);
                        }
                    }
                    if space {
                        let eng = &mut engines[ti][v as usize];
                        let elem = eng.delivered;
                        // A broadcast root sends its own contribution; an
                        // allgather root sends its slice of the global
                        // reduction — the state a preceding reduce-scatter
                        // left it with.
                        let val = match kind {
                            Collective::Broadcast => w.input(v, tree.offset + elem),
                            _ => w.expected(tree.offset + elem),
                        };
                        let outs: Vec<u32> = eng.bcast_out.clone();
                        for s in outs {
                            streams[s as usize].sendq.push_back(val);
                        }
                        deliver(eng, v, val, &mut deliveries, &mut tree_deliveries);
                    }
                }

                // -- Broadcast relay (allreduce / broadcast / allgather) --
                let eng = &engines[ti][v as usize];
                if kind.broadcasts() {
                    if let Some(bin) = eng.bcast_in {
                        let input_ready = !streams[bin as usize].recvq.is_empty();
                        let out_ok = eng
                            .bcast_out
                            .iter()
                            .all(|&s| streams[s as usize].sendq.len() < cfg.source_queue);
                        if eng.delivered < tree.len {
                            if let Some(tr) = tracer.as_mut() {
                                if input_ready && out_ok {
                                    tr.relay_fired(v as usize);
                                } else {
                                    tr.engine_stalled(
                                        v as usize,
                                        if !input_ready {
                                            EngineStall::InputStarved
                                        } else {
                                            EngineStall::OutputBlocked
                                        },
                                    );
                                }
                            }
                        }
                        if eng.delivered < tree.len && input_ready && out_ok {
                            let val = streams[bin as usize].recvq.pop_front().unwrap();
                            let eng = &mut engines[ti][v as usize];
                            let elem = eng.delivered;
                            if !w.value_close_at(tree.offset + elem, val, expected(elem)) {
                                mismatches += 1;
                            }
                            let outs: Vec<u32> = eng.bcast_out.clone();
                            for s in outs {
                                streams[s as usize].sendq.push_back(val);
                            }
                            deliver(eng, v, val, &mut deliveries, &mut tree_deliveries);
                        }
                    }
                }
            }
        }

        // 3. Transmit: one flit per directed channel per cycle. The winner
        // — first resident stream in round-robin order with both data and
        // credit — is found first and the flit moved after, so the tracer
        // can observe every member without changing arbitration (with
        // tracing off the scan stops at the winner, which is the identical
        // decision).
        for c in 0..emb.num_channels() {
            let members = emb.channel_streams(c);
            if members.is_empty() {
                continue;
            }
            // A downed channel transmits nothing this cycle, and charges a
            // stall to every resident stream with staged data — the
            // timeout/retry detector. (Tracer channel/stream hooks are
            // skipped: the channel is physically dead, not arbitrating.)
            if let Some(fs) = faults.as_mut() {
                if fs.channel_down(c) {
                    let streams = &streams;
                    fs.observe_outage(c, members, |s| !streams[s].sendq.is_empty(), cycle);
                    continue;
                }
            }
            let k = members.len();
            let start = rr[c];
            let mut winner: Option<(usize, usize)> = None; // (rr offset, stream)
            if let Some(tr) = tracer.as_mut() {
                let mut any_data = false;
                for off in 0..k {
                    let s = members[(start + off) % k] as usize;
                    let st = &streams[s];
                    let occupancy = st.recvq.len() + st.inflight.len();
                    let has_data = !st.sendq.is_empty();
                    let has_credit = occupancy < cfg.vc_buffer;
                    if winner.is_none() && has_data && has_credit {
                        winner = Some((off, s));
                    }
                    any_data |= has_data;
                    let won = winner.is_some_and(|(_, w)| w == s);
                    tr.observe_stream(
                        s,
                        st.sendq.len() as u64,
                        (occupancy + won as usize) as u64,
                        has_data,
                        has_credit,
                        won,
                    );
                }
                tr.observe_channel(c, winner.is_some(), any_data);
            } else {
                for off in 0..k {
                    let s = members[(start + off) % k] as usize;
                    let st = &streams[s];
                    if !st.sendq.is_empty() && st.recvq.len() + st.inflight.len() < cfg.vc_buffer {
                        winner = Some((off, s));
                        break;
                    }
                }
            }
            if let Some((off, s)) = winner {
                let st = &mut streams[s];
                let occupancy = st.recvq.len() + st.inflight.len();
                let v = st.sendq.pop_front().unwrap();
                st.inflight.push_back((cycle + cfg.link_latency as u64, v));
                channel_flits[c] += 1;
                max_vc_occupancy = max_vc_occupancy.max(occupancy + 1);
                rr[c] = (start + off + 1) % k;
                if let Some(fs) = faults.as_mut() {
                    fs.note_progress(s);
                }
            }
        }

        if let Some(tr) = tracer.as_mut() {
            if tr.timeline_due(cycle) {
                tr.sample_timeline(cycle, deliveries);
            }
        }
    }

    let completed = deliveries == total_deliveries;
    let max_util =
        channel_flits.iter().map(|&f| f as f64 / cycle.max(1) as f64).fold(0.0, f64::max);
    let fault_report = faults.map(|f| f.finish(completed));
    let mut trace = tracer.map(|mut tr| {
        tr.sample_timeline(cycle, deliveries); // final sample (timeline runs only)
        tr.finish(emb, cycle)
    });
    if let Some(t) = trace.as_mut() {
        t.collective = kind.name().to_string();
    }
    if let (Some(t), Some(fr)) = (trace.as_mut(), fault_report.as_ref()) {
        t.faults = fr.records.clone();
    }
    let report = SimReport {
        cycles: cycle,
        total_elems: emb.total_len(),
        completed,
        mismatches,
        value_digest,
        measured_bandwidth: emb.total_len() as f64 / cycle.max(1) as f64,
        tree_completion,
        first_element_latency,
        channel_flits,
        max_channel_utilization: max_util,
        max_vc_occupancy,
    };
    (report, trace, fault_report)
}
