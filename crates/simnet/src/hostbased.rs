//! Host-based allreduce baselines (§4.2, §8 of the paper): one schedule
//! per algorithm, priced by the congestion-aware α–β model here and
//! executed flit by flit by [`crate::p2p::simulate_schedule`].
//!
//! Host-based algorithms proceed in synchronous communication rounds. A
//! [`Schedule`] lists them, each as point-to-point messages with a repeat
//! count. [`price`] routes every round's messages minimally over the
//! physical topology and lets contended channels serialize (see
//! [`crate::routing::phase_profile`]). On top of link time, every executed
//! round pays a per-phase software overhead — the protocol/memory-copy
//! cost that in-network computing eliminates (§4.3: a single transfer from
//! application memory to the network). Both pricers read the same value,
//! so the model and the executor always compare the same rounds.
//!
//! Schedules:
//! * [`ring`] (reduce-scatter + allgather around a ring) —
//!   bandwidth-optimal per node, `2(N-1)` rounds, or either half alone,
//! * [`recursive_doubling`] — latency-optimal, `log2 N` rounds of
//!   full-vector exchanges,
//! * [`rabenseifner`] (recursive halving reduce-scatter + recursive
//!   doubling allgather) — bandwidth-optimal on powers of two,
//! * [`blueconnect`] — hierarchical rings over `≈ √N` groups.
//!
//! The multiported torus ([`multiported_torus_time`]) stays a closed form:
//! its dimension rings run concurrently with unequal round counts, so its
//! time is a max over dimensions, not a sum of rounds.

use crate::routing::{phase_profile, PhaseProfile, Routing};
use pf_graph::{Graph, VertexId};

/// Cost parameters of the host-based models.
#[derive(Debug, Clone, Copy)]
pub struct HostParams {
    /// Per-hop pipeline latency (same unit as the cycle-level simulator).
    pub hop_latency: u64,
    /// Fixed software cost charged to every round (protocol stack, memory
    /// staging). In-network trees pay this once, not per round.
    pub phase_overhead: u64,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams { hop_latency: 4, phase_overhead: 200 }
    }
}

/// One synchronous round of concurrent point-to-point messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// `(src, dst, len)`: `len` elements from `src` to `dst`. Self-messages
    /// and empty messages move nothing.
    pub messages: Vec<(VertexId, VertexId, u64)>,
    /// How many times the round runs back to back.
    pub repeat: u64,
}

/// A host-based collective as synchronous rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The rounds, in execution order.
    pub rounds: Vec<Round>,
}

impl Schedule {
    /// Rounds executed, repeats included; each pays the per-round
    /// overhead once.
    pub fn num_rounds(&self) -> u64 {
        self.rounds.iter().map(|r| r.repeat).sum()
    }

    /// Appends `repeat` runs of a round; a round without messages or runs
    /// is no round at all.
    fn push(&mut self, repeat: u64, messages: Vec<(VertexId, VertexId, u64)>) {
        if repeat > 0 && !messages.is_empty() {
            self.rounds.push(Round { messages, repeat });
        }
    }
}

/// The α–β price of a [`Schedule`], round by round.
#[derive(Debug, Clone, PartialEq)]
pub struct Pricing {
    /// Congestion profile of each schedule round, in schedule order.
    pub rounds: Vec<PhaseProfile>,
    /// Software overhead charged per executed round.
    pub round_overhead: u64,
    /// Total cycles: `Σ repeat · (round time + round_overhead)`.
    pub total: u64,
}

/// Prices `s` under the congestion-aware α–β model: within a round every
/// message proceeds concurrently and the round ends when its most loaded
/// channel drains, plus the deepest path's pipeline latency; rounds run
/// back to back, each paying `p.phase_overhead`.
pub fn price(g: &Graph, routing: &Routing, s: &Schedule, p: HostParams) -> Pricing {
    let rounds: Vec<PhaseProfile> = s
        .rounds
        .iter()
        .map(|r| phase_profile(g, routing, &r.messages, p.hop_latency))
        .collect();
    let total = s
        .rounds
        .iter()
        .zip(&rounds)
        .map(|(r, prof)| r.repeat * (prof.time() + p.phase_overhead))
        .sum();
    Pricing { rounds, round_overhead: p.phase_overhead, total }
}

/// Ring collectives on nodes `0..n` in id order: `phases` back-to-back
/// `(N-1)`-round phases in which every node passes a `⌈m/N⌉` chunk to its
/// ring successor. `phases = 2` is the allreduce: a reduce-scatter, after
/// which node `i` holds slice `i` of the global reduction, then an
/// allgather circulating the reduced slices until every node holds all
/// `m` elements. `phases = 1` is either half alone — the two are mirror
/// images with one round pattern, so each costs exactly half the
/// allreduce, which makes the ring the like-for-like host-based baseline
/// for the in-network `Collective::ReduceScatter` and
/// `Collective::Allgather`.
pub fn ring(n: u32, m: u64, phases: u64) -> Schedule {
    let mut s = Schedule::default();
    if n > 1 && m > 0 {
        let chunk = m.div_ceil(u64::from(n));
        s.push(phases * u64::from(n - 1), (0..n).map(|i| (i, (i + 1) % n, chunk)).collect());
    }
    s
}

/// Recursive doubling: `log2(p)` rounds of full-`m` pairwise exchanges
/// with partner `i XOR 2^k` on the power-of-two core, stragglers folded.
pub fn recursive_doubling(n: u32, m: u64) -> Schedule {
    fold_stragglers(n, m, |pow, s| {
        for k in 0..pow.trailing_zeros() {
            s.push(1, exchange(pow, 1 << k, m));
        }
    })
}

/// Rabenseifner's algorithm: recursive-halving reduce-scatter (partner
/// distances `p/2, …, 1`, sizes `⌈m/2⌉, ⌈⌈m/2⌉/2⌉, …`) followed by a
/// recursive-doubling allgather (distances `1, …, p/2`, sizes
/// `⌈m/p⌉, 2⌈m/p⌉, …`), stragglers folded.
pub fn rabenseifner(n: u32, m: u64) -> Schedule {
    fold_stragglers(n, m, |pow, s| {
        let log = pow.trailing_zeros();
        let mut size = m;
        for k in (0..log).rev() {
            size = size.div_ceil(2);
            s.push(1, exchange(pow, 1 << k, size));
        }
        let size = m.div_ceil(u64::from(pow));
        for k in 0..log {
            s.push(1, exchange(pow, 1 << k, size << k));
        }
    })
}

/// The power-of-two algorithms run on the largest power of two `p ≤ n`:
/// the `n - p` stragglers first send their full vector down to nodes
/// `0..n-p`, `core(p, s)` appends the power-of-two rounds, and the
/// stragglers get the result back last.
fn fold_stragglers(n: u32, m: u64, core: impl FnOnce(u32, &mut Schedule)) -> Schedule {
    let mut s = Schedule::default();
    if n <= 1 || m == 0 {
        return s;
    }
    let pow = 1u32 << n.ilog2();
    s.push(1, (0..n - pow).map(|i| (pow + i, i, m)).collect());
    core(pow, &mut s);
    s.push(1, (0..n - pow).map(|i| (i, pow + i, m)).collect());
    s
}

/// One pairwise-exchange round on `0..pow`: node `i` sends `len` elements
/// to partner `i XOR dist`.
fn exchange(pow: u32, dist: u32, len: u64) -> Vec<(VertexId, VertexId, u64)> {
    (0..pow).map(|i| (i, i ^ dist, len)).collect()
}

/// BlueConnect-style hierarchical allreduce (§8): split the nodes into
/// `g = ⌊√N⌋` contiguous groups; run reduce-scatter rings inside every
/// group concurrently, an allreduce ring across same-rank members of the
/// groups per chunk, then the mirrored allgather rings inside each group.
/// On a *flat* network with uniform links this stays gated by a single
/// link's bandwidth — the §8 point the multi-tree solutions overcome.
pub fn blueconnect(n: u32, m: u64) -> Schedule {
    let mut s = Schedule::default();
    if n <= 1 || m == 0 {
        return s;
    }
    let ids: Vec<VertexId> = (0..n).collect();
    // Every group but possibly the last has the full size.
    let max_group = n.div_ceil(n.isqrt()) as usize;
    let groups: Vec<&[VertexId]> = ids.chunks(max_group).collect();
    let chunk = m.div_ceil(max_group as u64);
    let intra: Vec<_> = groups
        .iter()
        .flat_map(|ms| (0..ms.len()).map(move |i| (ms[i], ms[(i + 1) % ms.len()], chunk)))
        .collect();
    let cross_chunk = chunk.div_ceil(groups.len() as u64);
    let cross = (0..max_group)
        .flat_map(|rank| {
            let next = groups.iter().cycle().skip(1);
            groups
                .iter()
                .zip(next)
                .filter_map(move |(a, b)| Some((*a.get(rank)?, *b.get(rank)?, cross_chunk)))
        })
        .collect();
    let intra_rounds = max_group as u64 - 1;
    s.push(intra_rounds, intra.clone());
    s.push(2 * (groups.len() as u64 - 1), cross);
    s.push(intra_rounds, intra);
    s
}

/// Multiported torus allreduce (§1.2's prior work [25, 30, 53]): the
/// vector is split into `2n` slices, one per (dimension, direction) port;
/// each slice runs a ring reduce-scatter + allgather along its
/// dimension's rings, all ports concurrently. Dimension-partitioned links
/// mean the concurrent rings never contend, so the schedule's time is the
/// slowest dimension's ring time.
///
/// This is host-based: every node stages the full `m`-element working
/// vector in memory each round — the "prohibitive for in-network
/// computation" footprint the paper contrasts with the
/// latency-bandwidth-product buffers of pipelined trees.
pub fn multiported_torus_time(t: &pf_topo::torus::Torus, m: u64, p: HostParams) -> u64 {
    if m == 0 {
        return 0;
    }
    let g = t.graph();
    let routing = Routing::new(g);
    let slice = m.div_ceil(u64::from(t.radix()));
    let dimension_time = |(d, &k): (usize, &u32)| {
        // One ring round along dimension d: every node sends its chunk of
        // the slice to its +1 neighbor (the -1 direction's slice uses the
        // opposite channels of the same links, also concurrently);
        // reduce-scatter + allgather take 2(k - 1) rounds.
        let chunk = slice.div_ceil(u64::from(k));
        let mut s = Schedule::default();
        s.push(2 * u64::from(k - 1), g.vertices().map(|v| (v, t.step(v, d), chunk)).collect());
        price(g, &routing, &s, p).total
    };
    t.dims().iter().enumerate().map(dimension_time).max().unwrap_or(0)
}

/// Host-side working-memory footprint of the multiported torus schedule:
/// each node holds its `m`-element vector plus a receive staging buffer of
/// the largest in-flight chunk per port — `Θ(m)` overall.
pub fn multiported_torus_memory_elems(t: &pf_topo::torus::Torus, m: u64) -> u64 {
    let ports = t.radix() as u64;
    let slice = m.div_ceil(ports.max(1));
    let max_chunk = t
        .dims()
        .iter()
        .map(|&k| slice.div_ceil(k as u64))
        .max()
        .unwrap_or(0);
    m + ports * max_chunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_topo::PolarFly;

    fn setup(q: u64) -> (Graph, Routing) {
        let pf = PolarFly::new(q);
        let g = pf.graph().clone();
        let r = Routing::new(&g);
        (g, r)
    }

    fn time(g: &Graph, r: &Routing, s: &Schedule, p: HostParams) -> u64 {
        price(g, r, s, p).total
    }

    #[test]
    fn zero_cases() {
        for (n, m) in [(0, 100), (1, 100), (13, 0)] {
            for s in [ring(n, m, 2), recursive_doubling(n, m), rabenseifner(n, m)] {
                assert_eq!(s, Schedule::default(), "n={n} m={m}");
            }
        }
        let (g, r) = setup(3);
        assert_eq!(time(&g, &r, &Schedule::default(), HostParams::default()), 0);
    }

    #[test]
    fn ring_scales_linearly_in_n_rounds() {
        let (g, r) = setup(3); // N = 13
        let p = HostParams { hop_latency: 1, phase_overhead: 0 };
        let t = time(&g, &r, &ring(13, 1300, 2), p);
        // 24 rounds; chunk 100. Each round's bottleneck channel carries at
        // least one chunk.
        assert!(t >= 24 * 100, "t = {t}");
    }

    #[test]
    fn recursive_doubling_fewer_rounds_but_full_vectors() {
        let (g, r) = setup(3);
        let p = HostParams { hop_latency: 1, phase_overhead: 0 };
        let small = 16;
        // For small vectors, recursive doubling beats ring (fewer rounds).
        let rd = time(&g, &r, &recursive_doubling(13, small), p);
        let ring = time(&g, &r, &ring(13, small, 2), p);
        assert!(rd < ring, "rd {rd} vs ring {ring}");
    }

    #[test]
    fn ring_beats_doubling_for_large_vectors() {
        let (g, r) = setup(5); // N = 31
        let p = HostParams { hop_latency: 1, phase_overhead: 0 };
        let big = 1_000_000;
        let rd = time(&g, &r, &recursive_doubling(31, big), p);
        let ring = time(&g, &r, &ring(31, big, 2), p);
        assert!(ring < rd, "ring {ring} vs rd {rd}");
    }

    #[test]
    fn rabenseifner_beats_doubling_for_large_vectors() {
        let (g, r) = setup(5);
        let p = HostParams { hop_latency: 1, phase_overhead: 0 };
        let big = 1_000_000;
        let rab = time(&g, &r, &rabenseifner(31, big), p);
        let rd = time(&g, &r, &recursive_doubling(31, big), p);
        assert!(rab < rd, "rab {rab} vs rd {rd}");
    }

    #[test]
    fn straggler_fold_brackets_the_power_of_two_core() {
        // N = 13: 5 stragglers above the core of 8, folded first and last.
        for s in [recursive_doubling(13, 40), rabenseifner(13, 40)] {
            let first = &s.rounds[0].messages;
            let last = &s.rounds[s.rounds.len() - 1].messages;
            assert_eq!(first, &(0..5).map(|i| (8 + i, i, 40)).collect::<Vec<_>>());
            assert_eq!(last, &(0..5).map(|i| (i, 8 + i, 40)).collect::<Vec<_>>());
        }
        assert_eq!(recursive_doubling(13, 40).num_rounds(), 2 + 3);
        assert_eq!(rabenseifner(13, 40).num_rounds(), 2 + 2 * 3);
        // A power of two folds nothing.
        assert_eq!(recursive_doubling(16, 40).num_rounds(), 4);
        // Halving sizes on the way down, doubling on the way up.
        let sizes: Vec<u64> =
            rabenseifner(8, 100).rounds.iter().map(|r| r.messages[0].2).collect();
        assert_eq!(sizes, [50, 25, 13, 13, 26, 52]);
    }

    #[test]
    fn multiported_torus_basics() {
        use pf_topo::torus::Torus;
        let t = Torus::new(&[4, 4]);
        let p = HostParams { hop_latency: 1, phase_overhead: 0 };
        assert_eq!(multiported_torus_time(&t, 0, p), 0);
        // m elements over 4 ports, rings of 4: chunk = m/16 per round,
        // 6 rounds -> ~6m/16 plus latency.
        let m = 16_000;
        let time = multiported_torus_time(&t, m, p);
        let expect = 6 * (m / 16 + 1);
        assert!(
            (time as i64 - expect as i64).unsigned_abs() < 50,
            "time {time} vs ~{expect}"
        );
        // Effective per-node bandwidth approaches radix-limited 16m/6m ≈ 2.67
        // elements/cycle — below PolarFly's (q+1)/2 at comparable size.
        let bw = m as f64 / time as f64;
        assert!(bw > 2.2 && bw < 3.0, "bw {bw}");
    }

    #[test]
    fn multiported_memory_is_order_m() {
        use pf_topo::torus::Torus;
        let t = Torus::new(&[4, 4]);
        let m = 10_000;
        let mem = multiported_torus_memory_elems(&t, m);
        assert!(mem >= m);
        assert!(mem < 2 * m);
    }

    #[test]
    fn asymmetric_torus_gated_by_longest_dimension() {
        use pf_topo::torus::Torus;
        let p = HostParams { hop_latency: 1, phase_overhead: 0 };
        let square = Torus::new(&[4, 4]);
        let long = Torus::new(&[8, 3]); // longest ring 8 -> more rounds
        let m = 24_000;
        assert!(
            multiported_torus_time(&long, m, p) > multiported_torus_time(&square, m, p),
            "longer rings mean more rounds"
        );
    }

    #[test]
    fn blueconnect_zero_cases() {
        assert_eq!(blueconnect(13, 0), Schedule::default());
        assert_eq!(blueconnect(1, 100), Schedule::default());
    }

    #[test]
    fn blueconnect_improves_on_flat_ring_rounds_but_not_past_link_rate() {
        // §8: hierarchical decomposition reduces round count versus a flat
        // ring, but per-node goodput stays bounded by a single link — the
        // limitation in-network multi-tree allreduce removes.
        let (g, r) = setup(5); // N = 31
        let p = HostParams { hop_latency: 1, phase_overhead: 100 };
        let m = 100_000u64;
        let bc = time(&g, &r, &blueconnect(31, m), p);
        let ring = time(&g, &r, &ring(31, m, 2), p);
        assert!(bc < ring, "blueconnect {bc} vs ring {ring}");
        // Still gated near/below one element per cycle per node: total time
        // can't beat m cycles by more than a small constant factor.
        assert!(bc as f64 > 0.5 * m as f64, "bc {bc} too fast for a flat network");
        // 5 groups of at most 7: 6 + 8 + 6 rounds, the intra-group rings
        // mirrored around the cross-group ring.
        let s = blueconnect(31, m);
        assert_eq!(s.rounds.iter().map(|r| r.repeat).collect::<Vec<_>>(), [6, 8, 6]);
        assert_eq!(s.rounds[0], s.rounds[2]);
    }

    #[test]
    fn ring_profile_explains_ring_time() {
        let (g, r) = setup(3);
        let p = HostParams::default();
        let s = ring(13, 1300, 2);
        let priced = price(&g, &r, &s, p);
        assert_eq!(s.num_rounds(), 2 * (g.num_vertices() as u64 - 1));
        assert_eq!(priced.rounds.len(), 1, "every ring round shares one pattern");
        let round = &priced.rounds[0];
        assert_eq!(priced.total, s.num_rounds() * (round.time() + priced.round_overhead));
        assert!(round.active_channels() > 0);
        assert!(ring(13, 0, 2).rounds.is_empty());
    }

    #[test]
    fn overhead_charged_per_phase() {
        let (g, r) = setup(3);
        let p0 = HostParams { hop_latency: 1, phase_overhead: 0 };
        let p1 = HostParams { hop_latency: 1, phase_overhead: 1000 };
        let n = g.num_vertices() as u64;
        let s = ring(13, 130, 2);
        assert_eq!(time(&g, &r, &s, p1) - time(&g, &r, &s, p0), 2 * (n - 1) * 1000);
    }

    #[test]
    fn ring_phases_compose_into_the_allreduce() {
        // The defining formula: reduce-scatter and allgather are each one
        // (N-1)-round phase of the 2(N-1)-round ring allreduce, with the
        // identical per-round pattern, so their times sum exactly.
        for q in [3u64, 5] {
            let (g, r) = setup(q);
            let n = g.num_vertices();
            let p = HostParams::default();
            for m in [1u64, 130, 1300, 99_991] {
                let half = time(&g, &r, &ring(n, m, 1), p);
                let ar = time(&g, &r, &ring(n, m, 2), p);
                assert_eq!(2 * half, ar, "q={q} m={m}");
            }
        }
    }

    #[test]
    fn ring_half_pins_the_cycle_formula() {
        let (g, r) = setup(3); // N = 13
        let n = g.num_vertices() as u64;
        let p = HostParams::default();
        let s = ring(13, 1300, 1);
        let priced = price(&g, &r, &s, p);
        assert_eq!(s.num_rounds(), n - 1);
        assert_eq!(priced.total, (n - 1) * (priced.rounds[0].time() + priced.round_overhead));
        assert_eq!(priced.round_overhead, p.phase_overhead);
        // Chunk ⌈1300/13⌉ = 100 to the ring successor: one hop or two on
        // ER_3, so the round's time is its bottleneck load plus two hops.
        assert_eq!(s.rounds[0].messages[0], (0, 1, 100));
        assert_eq!(priced.rounds[0].time(), priced.rounds[0].serial + 2 * p.hop_latency);
        // Degenerate inputs schedule nothing and cost nothing.
        assert!(ring(13, 0, 1).rounds.is_empty());
        assert_eq!(time(&g, &r, &ring(1, 1300, 1), p), 0);
    }

    #[test]
    fn ring_phase_overhead_charged_per_round() {
        let (g, r) = setup(3);
        let p0 = HostParams { hop_latency: 1, phase_overhead: 0 };
        let p1 = HostParams { hop_latency: 1, phase_overhead: 1000 };
        let n = g.num_vertices() as u64;
        let half = ring(13, 130, 1);
        assert_eq!(time(&g, &r, &half, p1) - time(&g, &r, &half, p0), (n - 1) * 1000);
    }
}
