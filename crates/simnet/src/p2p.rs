//! Flit-level point-to-point execution of host-based schedules — the
//! executed counterpart of the analytic [`crate::hostbased::price`] model.
//!
//! Host-based allreduce algorithms (§4.2) run in synchronous rounds of
//! point-to-point messages ([`crate::hostbased::Schedule`]). Here each
//! message is streamed flit by flit along its minimal route with per-hop
//! relay buffers and credit flow control, and contended channels
//! arbitrate round-robin — exactly the machinery the in-network engine
//! uses, so in-network and host-based numbers are directly comparable.
//! Rounds execute back to back with a per-round software overhead (the
//! protocol/staging cost in-network computing avoids).

use crate::engine::SimConfig;
use crate::hostbased::Schedule;
use crate::routing::Routing;
use pf_graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Result of one simulated phase.
#[derive(Debug, Clone)]
pub struct P2PReport {
    /// Cycles until the last flit of the last message arrived.
    pub cycles: u64,
    /// `true` iff everything was delivered before `max_cycles`.
    pub completed: bool,
    /// Flits carried per directed channel.
    pub channel_flits: Vec<u64>,
    /// Per-channel cycle attribution, when the phase ran traced.
    pub trace: Option<P2PTrace>,
}

/// Per-hop stream state of one message.
#[derive(Debug, Clone)]
struct HopState {
    channel: u32,
    /// Flits staged at the hop's source router.
    sendq: u64,
    /// Flits in flight, by arrival cycle.
    inflight: VecDeque<u64>,
    /// Flits buffered at the hop's destination router.
    recvq: u64,
}

/// Per-channel cycle attribution of one traced phase (see
/// `docs/OBSERVABILITY.md`). Indexed like `P2PReport::channel_flits`.
#[derive(Debug, Clone, PartialEq)]
pub struct P2PTrace {
    /// Cycles the phase ran.
    pub cycles: u64,
    /// Cycles each directed channel moved a flit.
    pub busy_cycles: Vec<u64>,
    /// Cycles each directed channel had a flit staged but every staged
    /// hop was out of downstream credit.
    pub credit_stall_cycles: Vec<u64>,
}

impl P2PTrace {
    /// Cycles channel `c` had nothing staged.
    pub fn idle_cycles(&self, c: usize) -> u64 {
        self.cycles
            .saturating_sub(self.busy_cycles[c] + self.credit_stall_cycles[c])
    }
}

/// Simulates one phase of concurrent `(src, dst, len)` messages at flit
/// granularity. Payloads are not modeled (host-based reductions happen in
/// host memory between rounds); the flit *count* and congestion behavior
/// are. With `traced`, every channel-cycle is also attributed as busy,
/// credit-stalled, or idle; tracing is observational, so the rest of the
/// report is identical to the untraced run's.
pub fn simulate_phase(
    g: &Graph,
    routing: &Routing,
    messages: &[(VertexId, VertexId, u64)],
    cfg: SimConfig,
    traced: bool,
) -> P2PReport {
    let nc = 2 * g.num_edges() as usize;
    let mut trace = traced
        .then(|| P2PTrace { cycles: 0, busy_cycles: vec![0; nc], credit_stall_cycles: vec![0; nc] });
    let mut channel_flits = vec![0u64; nc];
    // Hop chains, and the flits each message has left to inject.
    let (mut chains, mut pending): (Vec<Vec<HopState>>, Vec<u64>) = messages
        .iter()
        .map(|&(src, dst, len)| {
            if src == dst || len == 0 {
                return (Vec::new(), 0);
            }
            let hops = routing
                .path(src, dst)
                .windows(2)
                .map(|w| HopState {
                    channel: crate::embedding::channel_id(g, w[0], w[1]),
                    sendq: 0,
                    inflight: VecDeque::new(),
                    recvq: 0,
                })
                .collect();
            (hops, len)
        })
        .unzip();
    let total: u64 = pending.iter().sum();
    let mut done: u64 = 0;

    // Per-channel membership: (message index, hop index).
    let mut members: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nc];
    for (mi, hops) in chains.iter().enumerate() {
        for (hi, h) in hops.iter().enumerate() {
            members[h.channel as usize].push((mi as u32, hi as u32));
        }
    }
    let mut rr = vec![0usize; members.len()];

    let mut cycle = 0u64;
    while done < total && cycle < cfg.max_cycles {
        cycle += 1;
        // 1. Arrivals.
        for hops in &mut chains {
            for h in hops.iter_mut() {
                while h.inflight.front().is_some_and(|&t| t <= cycle) {
                    h.inflight.pop_front();
                    h.recvq += 1;
                }
            }
        }
        // 2. Inject, relay, deliver (one flit per message per stage per cycle).
        for (mi, hops) in chains.iter_mut().enumerate() {
            if hops.is_empty() {
                continue;
            }
            // Deliver at the last hop.
            let last = hops.len() - 1;
            if hops[last].recvq > 0 {
                hops[last].recvq -= 1;
                done += 1;
            }
            // Relay between hops (front to back so a flit moves one stage
            // per cycle).
            for hi in (1..hops.len()).rev() {
                if hops[hi - 1].recvq > 0 && hops[hi].sendq < cfg.source_queue as u64 {
                    hops[hi - 1].recvq -= 1;
                    hops[hi].sendq += 1;
                }
            }
            // Inject at the source.
            if pending[mi] > 0 && hops[0].sendq < cfg.source_queue as u64 {
                pending[mi] -= 1;
                hops[0].sendq += 1;
            }
        }
        // 3. Transmit: one flit per channel, round-robin with credits. The
        // scan stops at the winner; when there is none it has seen every
        // member, so the tracer can tell a credit stall from an idle cycle.
        for (c, mem) in members.iter().enumerate() {
            if mem.is_empty() {
                continue;
            }
            let k = mem.len();
            let start = rr[c];
            let mut winner: Option<(usize, u32, u32)> = None; // (offset, msg, hop)
            let mut any_data = false;
            for off in 0..k {
                let (mi, hi) = mem[(start + off) % k];
                let h = &chains[mi as usize][hi as usize];
                if h.sendq > 0 {
                    any_data = true;
                    if h.recvq + (h.inflight.len() as u64) < cfg.vc_buffer as u64 {
                        winner = Some((off, mi, hi));
                        break;
                    }
                }
            }
            if let Some(tr) = trace.as_mut() {
                if winner.is_some() {
                    tr.busy_cycles[c] += 1;
                } else if any_data {
                    tr.credit_stall_cycles[c] += 1;
                }
            }
            if let Some((off, mi, hi)) = winner {
                let h = &mut chains[mi as usize][hi as usize];
                h.sendq -= 1;
                h.inflight.push_back(cycle + cfg.link_latency as u64);
                channel_flits[c] += 1;
                rr[c] = (start + off + 1) % k;
            }
        }
    }

    if let Some(tr) = trace.as_mut() {
        tr.cycles = cycle;
    }
    P2PReport { cycles: cycle, completed: done == total, channel_flits, trace }
}

/// Executes a host-based schedule round by round, charging
/// `phase_overhead` cycles per executed round (software/protocol cost).
/// A repeated round is simulated once: its runs are identical. Returns
/// total cycles, or `None` if any round failed to complete.
pub fn simulate_schedule(
    g: &Graph,
    routing: &Routing,
    s: &Schedule,
    cfg: SimConfig,
    phase_overhead: u64,
) -> Option<u64> {
    let mut total = 0u64;
    for round in &s.rounds {
        let r = simulate_phase(g, routing, &round.messages, cfg, false);
        if !r.completed {
            return None;
        }
        total += round.repeat * (r.cycles + phase_overhead);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostbased::{self, price, HostParams};
    use proptest::prelude::*;

    fn path_graph(n: u32) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    fn phase(g: &Graph, msgs: &[(VertexId, VertexId, u64)], cfg: SimConfig) -> P2PReport {
        simulate_phase(g, &Routing::new(g), msgs, cfg, false)
    }

    /// Flit-level and α–β cycles of one schedule on PolarFly `ER_q`, with
    /// no per-round overhead.
    fn flit_and_model(q: u64, s: &Schedule) -> (u64, u64) {
        let pf = pf_topo::PolarFly::new(q);
        let g = pf.graph();
        let r = Routing::new(g);
        let cfg = SimConfig::default();
        let hp = HostParams { hop_latency: cfg.link_latency as u64, phase_overhead: 0 };
        (simulate_schedule(g, &r, s, cfg, 0).unwrap(), price(g, &r, s, hp).total)
    }

    #[test]
    fn single_message_streams_at_link_rate() {
        let rep = phase(&path_graph(3), &[(0, 2, 1000)], SimConfig::default());
        assert!(rep.completed);
        // Two hops of latency 4 plus ~1000 cycles of streaming.
        assert!(rep.cycles >= 1000 && rep.cycles < 1100, "cycles {}", rep.cycles);
    }

    #[test]
    fn contended_channel_halves_throughput() {
        // Two messages into the same directed channel 1 -> 2.
        let rep = phase(&path_graph(4), &[(0, 2, 1000), (1, 3, 1000)], SimConfig::default());
        assert!(rep.completed);
        assert!(rep.cycles >= 2000 && rep.cycles < 2200, "cycles {}", rep.cycles);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let rep = phase(&path_graph(3), &[(0, 2, 1000), (2, 0, 1000)], SimConfig::default());
        assert!(rep.completed);
        assert!(rep.cycles < 1100, "cycles {}", rep.cycles);
    }

    #[test]
    fn degenerate_messages_ignored() {
        let rep = phase(&path_graph(2), &[(0, 0, 50), (1, 0, 0)], SimConfig::default());
        assert!(rep.completed);
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn flit_level_ring_matches_phase_model_shape() {
        let (sim, model) = flit_and_model(5, &hostbased::ring(31, 3100, 2)); // 100 per node
        // The analytic model charges serialized load + path latency per
        // phase; the flit simulation pipelines within a phase, so it is
        // close but not identical. Within 35%.
        let ratio = sim as f64 / model as f64;
        assert!((0.65..=1.35).contains(&ratio), "sim {sim} vs model {model}");
    }

    #[test]
    fn flit_level_doubling_matches_phase_model_shape() {
        let (sim, model) = flit_and_model(3, &hostbased::recursive_doubling(13, 500));
        let ratio = sim as f64 / model as f64;
        assert!((0.5..=1.5).contains(&ratio), "sim {sim} vs model {model}");
    }

    #[test]
    fn flit_level_rabenseifner_matches_phase_model_shape() {
        let (sim, model) = flit_and_model(3, &hostbased::rabenseifner(13, 2000));
        let ratio = sim as f64 / model as f64;
        assert!((0.5..=1.5).contains(&ratio), "sim {sim} vs model {model}");
        // Bandwidth-optimal: beats recursive doubling at this size.
        let (rd, _) = flit_and_model(3, &hostbased::recursive_doubling(13, 2000));
        assert!(sim < rd, "rab {sim} vs rdbl {rd}");
    }

    #[test]
    fn schedule_adds_overhead_per_phase() {
        let g = path_graph(3);
        let r = Routing::new(&g);
        let round = hostbased::Round { messages: vec![(0, 2, 10)], repeat: 1 };
        let s = Schedule { rounds: vec![round.clone(), round] };
        let base = simulate_schedule(&g, &r, &s, SimConfig::default(), 0).unwrap();
        let with = simulate_schedule(&g, &r, &s, SimConfig::default(), 500).unwrap();
        assert_eq!(with - base, 1000);
    }

    #[test]
    fn traced_phase_matches_untraced_and_accounts_every_cycle() {
        let g = path_graph(4);
        let r = Routing::new(&g);
        let msgs = [(0, 2, 500), (1, 3, 500)];
        let cfg = SimConfig::default();
        let plain = simulate_phase(&g, &r, &msgs, cfg, false);
        let traced = simulate_phase(&g, &r, &msgs, cfg, true);
        assert!(plain.trace.is_none());
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.channel_flits, traced.channel_flits);
        let trace = traced.trace.expect("traced run");
        assert_eq!(trace.cycles, traced.cycles);
        for (c, &flits) in traced.channel_flits.iter().enumerate() {
            // A channel is busy exactly when it moves a flit.
            assert_eq!(trace.busy_cycles[c], flits);
            assert_eq!(
                trace.busy_cycles[c] + trace.credit_stall_cycles[c] + trace.idle_cycles(c),
                trace.cycles
            );
        }
        // The shared channel 1 -> 2 is the bottleneck: it must be busy most
        // of the run.
        let c12 = crate::embedding::channel_id(&g, 1, 2) as usize;
        assert!(trace.busy_cycles[c12] as f64 > 0.9 * trace.cycles as f64);
    }

    #[test]
    fn incomplete_on_cycle_cap() {
        let g = path_graph(3);
        let cfg = SimConfig { max_cycles: 5, ..Default::default() };
        assert!(!phase(&g, &[(0, 2, 1000)], cfg).completed);
        // A schedule with an unfinished round has no total.
        let s = hostbased::ring(3, 3000, 2);
        assert_eq!(simulate_schedule(&g, &Routing::new(&g), &s, cfg, 0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Both pricers see the same rounds: raising the per-round
        /// overhead by `o` raises the α–β time and the executed time by
        /// exactly `rounds × o`, for every algorithm.
        #[test]
        fn overhead_costs_rounds_times_o_in_model_and_executor(
            q in proptest::sample::select(vec![3u64, 5]),
            m in 1u64..2000,
            o in 1u64..1000,
        ) {
            let pf = pf_topo::PolarFly::new(q);
            let g = pf.graph();
            let r = Routing::new(g);
            let n = g.num_vertices();
            let cfg = SimConfig::default();
            let hop = cfg.link_latency as u64;
            let p0 = HostParams { hop_latency: hop, phase_overhead: 0 };
            let p1 = HostParams { hop_latency: hop, phase_overhead: o };
            for s in [
                hostbased::ring(n, m, 2),
                hostbased::ring(n, m, 1),
                hostbased::recursive_doubling(n, m),
                hostbased::rabenseifner(n, m),
                hostbased::blueconnect(n, m),
            ] {
                let extra = s.num_rounds() * o;
                prop_assert!(s.num_rounds() > 0);
                prop_assert_eq!(price(g, &r, &s, p1).total, price(g, &r, &s, p0).total + extra);
                let run = |o| simulate_schedule(g, &r, &s, cfg, o).expect("completes");
                prop_assert_eq!(run(o), run(0) + extra);
            }
        }
    }
}
