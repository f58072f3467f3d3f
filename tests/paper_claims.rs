//! Every theorem, lemma and corollary of the paper, executed.
//!
//! One test per claim, swept over enough radixes to cover both parities
//! and both prime and prime-power fields. This file is the claim-by-claim
//! reproduction index referenced from EXPERIMENTS.md.

use pf_allreduce::congestion::assign_unit_bandwidth;
use pf_allreduce::disjoint::{find_edge_disjoint, DisjointSolution};
use pf_allreduce::hamiltonian::{
    alternating_path, hamiltonian_pairs, non_hamiltonian_paths,
};
use pf_allreduce::lowdepth::low_depth_trees;
use pf_allreduce::{perf, rate, verify, Rational};
use pf_galois::zmod::{gcd, sub_mod};
use pf_galois::{euler_totient, prime_powers_in};
use pf_graph::bfs;
use pf_topo::{Layout, PolarFly, Singer};

const ODD_QS: [u64; 6] = [3, 5, 7, 9, 11, 13];
const ALL_QS: [u64; 9] = [3, 4, 5, 7, 8, 9, 11, 13, 16];

#[test]
fn theorem_6_1_diameter_two_unique_paths() {
    for q in ALL_QS {
        let pf = PolarFly::new(q);
        let g = pf.graph();
        assert_eq!(bfs::diameter(g), Some(2), "q={q}");
        for u in g.vertices() {
            for v in u + 1..g.num_vertices() {
                assert!(bfs::count_two_paths(g, u, v) <= 1, "q={q} ({u},{v})");
            }
        }
    }
}

#[test]
fn table_1_census() {
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let quad: Vec<bool> = pf.graph().vertices().map(|v| pf.is_quadric(v)).collect();
        let cls = pf_topo::classify(pf.graph(), &quad);
        pf_topo::classify::verify_table1(pf.graph(), &cls, q)
            .unwrap_or_else(|e| panic!("q={q}: {e}"));
    }
}

#[test]
fn properties_1_2_3_of_the_layout() {
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let l = Layout::new(&pf, None).unwrap();
        l.verify_property1(&pf).unwrap_or_else(|e| panic!("q={q} P1: {e}"));
        l.verify_property2(&pf).unwrap_or_else(|e| panic!("q={q} P2: {e}"));
        l.verify_property3(&pf).unwrap_or_else(|e| panic!("q={q} P3: {e}"));
    }
}

#[test]
fn theorem_6_6_singer_isomorphic_to_er() {
    // Explicit isomorphism for tiny q, structural invariants beyond.
    for q in [2u64, 3, 4, 5] {
        let s = Singer::new(q);
        let pf = PolarFly::new(q);
        assert!(
            pf_topo::iso::find_singer_er_isomorphism(&s, &pf).is_some(),
            "q={q}"
        );
    }
    for q in [7u64, 8, 9, 11, 13, 16, 25] {
        let s = Singer::new(q);
        let pf = PolarFly::new(q);
        pf_topo::iso::structural_invariants_match(&s, &pf)
            .unwrap_or_else(|e| panic!("q={q}: {e}"));
    }
}

#[test]
fn corollary_6_8_reflection_points_are_halved_difference_elements() {
    for q in ALL_QS {
        let s = Singer::new(q);
        let mut predicted: Vec<u32> =
            s.difference_set().iter().map(|&d| s.reflection_of(d)).collect();
        predicted.sort_unstable();
        assert_eq!(predicted, s.reflection_points(), "q={q}");
    }
}

#[test]
fn lemma_7_2_and_corollary_7_3_center_quadrics() {
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let l = Layout::new(&pf, None).unwrap();
        l.verify_center_quadric_bijection().unwrap_or_else(|e| panic!("q={q}: {e}"));
    }
}

#[test]
fn theorems_7_4_to_7_6_low_depth_trees() {
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        assert_eq!(out.trees.len() as u64, q, "q={q}: q trees");
        verify::verify_spanning_set(pf.graph(), &out.trees)
            .unwrap_or_else(|e| panic!("q={q} (7.4): {e}"));
        verify::verify_max_depth(&out.trees, 3).unwrap_or_else(|e| panic!("q={q} (7.5): {e}"));
        verify::verify_max_congestion(pf.graph(), &out.trees, 2)
            .unwrap_or_else(|e| panic!("q={q} (7.6): {e}"));
    }
}

#[test]
fn corollary_7_7_low_depth_bandwidth() {
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        verify::verify_low_depth_bandwidth(pf.graph(), &out.trees, q)
            .unwrap_or_else(|e| panic!("q={q}: {e}"));
        // And bounded by the Corollary 7.1 optimum.
        let a = assign_unit_bandwidth(pf.graph(), &out.trees);
        assert!(a.aggregate() <= rate::polarfly_bound(q), "q={q}");
    }
}

#[test]
fn lemma_7_8_opposite_reduction_flows() {
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        verify::verify_lemma_7_8(pf.graph(), &out.trees)
            .unwrap_or_else(|e| panic!("q={q}: {e}"));
    }
}

#[test]
fn theorem_7_6_case_analysis_is_exhaustive() {
    // The proof of Theorem 7.6 classifies every doubly-used edge into
    // three categories; check every congested edge falls into exactly the
    // predicted taxonomy (no uncategorized edge, starter-quadric edges
    // never congested beyond the centers case).
    for q in ODD_QS {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        let layout = &out.layout;
        let g = pf.graph();
        let congestion = pf_graph::tree::edge_congestion(&out.trees, g);
        let (mut case1, mut case2, mut case3) = (0u64, 0u64, 0u64);
        for (e, &c) in congestion.iter().enumerate() {
            if c < 2 {
                continue;
            }
            let (u, v) = g.endpoints(e as u32);
            let is_center = |x| layout.is_center(x);
            let is_quad = |x| pf.is_quadric(x);
            if is_center(u) || is_center(v) {
                case1 += 1; // case 1: an endpoint is a cluster center
            } else if is_quad(u) || is_quad(v) {
                // case 2: a non-starter quadric endpoint, no center.
                let w = if is_quad(u) { u } else { v };
                assert_ne!(w, layout.starter(), "q={q}: starter edges reach only centers");
                case2 += 1;
            } else {
                // case 3: two non-center cluster vertices from distinct
                // clusters.
                assert_ne!(
                    layout.cluster_of(u),
                    layout.cluster_of(v),
                    "q={q}: intra-cluster edges are used once"
                );
                case3 += 1;
            }
        }
        assert!(case1 > 0, "q={q}: popped center edges must exist");
        // The taxonomy is exhaustive by construction of the classifier;
        // record that all three kinds actually occur at q >= 5.
        if q >= 5 {
            assert!(case2 + case3 > 0, "q={q}: non-center congestion expected");
        }
    }
}

#[test]
fn lemma_7_12_endpoints_and_odd_length() {
    for q in ALL_QS {
        let s = Singer::new(q);
        let d = s.difference_set().to_vec();
        for (i, &d0) in d.iter().enumerate() {
            for &d1 in &d[i + 1..] {
                let p = alternating_path(&s, d0, d1);
                assert_eq!(p.len() % 2, 1, "q={q}: k odd");
                assert_eq!(p.source(), s.reflection_of(d1), "q={q}");
                assert_eq!(p.sink(), s.reflection_of(d0), "q={q}");
            }
        }
    }
}

#[test]
fn theorem_7_13_path_cardinality() {
    for q in ALL_QS {
        let s = Singer::new(q);
        let n = s.n();
        let d = s.difference_set().to_vec();
        for (i, &d0) in d.iter().enumerate() {
            for &d1 in &d[i + 1..] {
                let p = alternating_path(&s, d0, d1);
                assert_eq!(p.len() as u64, n / gcd(sub_mod(d0, d1, n), n), "q={q}");
            }
        }
    }
}

#[test]
fn corollary_7_15_hamiltonicity_criterion() {
    for q in ALL_QS {
        let s = Singer::new(q);
        let n = s.n();
        let d = s.difference_set().to_vec();
        for (i, &d0) in d.iter().enumerate() {
            for &d1 in &d[i + 1..] {
                let p = alternating_path(&s, d0, d1);
                assert_eq!(
                    p.is_hamiltonian(n),
                    gcd(sub_mod(d0, d1, n), n) == 1,
                    "q={q} ({d0},{d1})"
                );
            }
        }
    }
}

#[test]
fn lemma_7_17_midpoint_root_depth() {
    for q in [3u64, 4, 5, 7] {
        let s = Singer::new(q);
        for &(d0, d1) in hamiltonian_pairs(&s).iter().take(6) {
            let t = alternating_path(&s, d0, d1).midpoint_tree();
            assert_eq!(t.depth() as u64, (s.n() - 1) / 2, "q={q}");
        }
    }
}

#[test]
fn lemma_7_18_upper_bound_is_respected_and_met() {
    for q in ALL_QS {
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, 30, 0xB0B ^ q);
        let bound = DisjointSolution::upper_bound(q);
        assert!(sol.pairs.len() <= bound, "q={q}");
        assert_eq!(sol.pairs.len(), bound, "q={q}: §7.3 says the bound is met");
    }
}

#[test]
fn theorem_7_19_disjoint_bandwidth() {
    for q in [3u64, 5, 7, 9] {
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, 30, 3);
        verify::verify_edge_disjoint(s.graph(), &sol.trees).unwrap();
        verify::verify_full_bandwidth_per_tree(s.graph(), &sol.trees).unwrap();
        let a = assign_unit_bandwidth(s.graph(), &sol.trees);
        assert_eq!(
            a.aggregate(),
            perf::edge_disjoint_bandwidth(sol.trees.len(), Rational::ONE),
            "q={q}"
        );
        // Odd q: this equals the Corollary 7.1 optimum.
        if q % 2 == 1 {
            assert_eq!(a.aggregate(), rate::polarfly_bound(q), "q={q}");
        }
    }
}

#[test]
fn corollary_7_20_totient_count() {
    for q in prime_powers_in(3, 32) {
        let s = Singer::new(q);
        assert_eq!(
            hamiltonian_pairs(&s).len() as u64,
            euler_totient(s.n()),
            "q={q}"
        );
    }
}

#[test]
fn corollary_7_14_paths_unique_and_reversal_distinct() {
    // Every ordered pair gives a unique maximal path; reversed pairs give
    // the reversed vertex sequence (distinct as directed paths).
    for q in [3u64, 4, 5, 7] {
        let s = Singer::new(q);
        let d = s.difference_set().to_vec();
        let mut seen = std::collections::HashSet::new();
        for &d0 in &d {
            for &d1 in &d {
                if d0 == d1 {
                    continue;
                }
                let p = alternating_path(&s, d0, d1);
                assert!(seen.insert(p.vertices.clone()), "q={q}: duplicate path ({d0},{d1})");
                let mut rev = alternating_path(&s, d1, d0).vertices;
                rev.reverse();
                assert_eq!(p.vertices, rev, "q={q}: reversal mismatch ({d0},{d1})");
            }
        }
        assert_eq!(seen.len(), d.len() * (d.len() - 1));
    }
}

#[test]
fn section_7_2_totient_bounds() {
    // "Even when N is composite, there are between (q+1)/2 and q^2/2
    // alternating-sum Hamiltonian paths to choose from" — via
    // sqrt(N) <= phi(N) <= N - sqrt(N) for composite N != 6.
    for q in prime_powers_in(3, 64) {
        let n = q * q + q + 1;
        let phi = euler_totient(n);
        assert!(phi as f64 >= (n as f64).sqrt() - 1e-9, "q={q}");
        if !pf_galois::is_prime(n) {
            assert!(phi as f64 <= n as f64 - (n as f64).sqrt() + 1e-9, "q={q}");
        }
        // The paper's looser phrasing in tree counts.
        assert!(phi >= q.div_ceil(2), "q={q}");
    }
}

#[test]
fn corollary_7_1_edge_count_argument() {
    // |E| = q(q+1)^2/2 and each spanning tree uses q^2+q edges, so at most
    // (q+1)/2 edge-disjoint spanning trees fit.
    for q in ALL_QS {
        let pf = PolarFly::new(q);
        let edges = pf.graph().num_edges() as u64;
        assert_eq!(edges, q * (q + 1) * (q + 1) / 2, "q={q}");
        let per_tree = q * q + q;
        assert_eq!(edges / per_tree, q.div_ceil(2), "q={q}");
    }
}

#[test]
fn theorems_7_6_and_7_19_congestion_holds_at_runtime() {
    // The congestion bounds are proved over the static embeddings; this
    // re-checks them on the executing system. A traced simulation counts
    // the distinct streams that actually crossed each link, and no link
    // may carry more than the theoretical congestion: <= 2 for the
    // low-depth trees (Theorem 7.6), exactly <= 1 for the edge-disjoint
    // Hamiltonian trees (Theorem 7.19).
    use pf_allreduce::AllreducePlan;
    use pf_simnet::stats::congestion_vs_bound;
    use pf_simnet::{Collective, MultiTreeEmbedding, SimConfig, Simulator, TraceConfig, Workload};

    let run = |plan: &AllreducePlan, m: u64| {
        let sizes = plan.split(m);
        let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
        let w = Workload::new(plan.graph.num_vertices(), m);
        let run = Simulator::new(&plan.graph, &emb, SimConfig::default())
            .with_trace(TraceConfig::counters())
            .run_jobs_collective(&w, &[], Collective::Allreduce);
        assert!(run.report.completed && run.report.mismatches == 0);
        run.trace.expect("tracing was enabled")
    };

    for q in [3u64, 7, 11] {
        let low = AllreducePlan::low_depth(q).unwrap();
        let trace = run(&low, 2000);
        let c = congestion_vs_bound(&trace, 2);
        assert!(c.within_bound, "q={q} low-depth: measured {} > 2", c.max_measured);
        // Stronger: the simulator never exceeds the plan's own per-link
        // congestion vector, edge by edge.
        for (e, (&measured, &bound)) in
            c.measured.iter().zip(&low.edge_congestion).enumerate()
        {
            assert!(measured <= bound, "q={q} low-depth edge {e}: {measured} > {bound}");
        }

        let ham = AllreducePlan::edge_disjoint(q, 30, 0x715 ^ q).unwrap();
        let trace = run(&ham, 2000);
        let c = congestion_vs_bound(&trace, 1);
        assert!(c.within_bound, "q={q} edge-disjoint: measured {} > 1", c.max_measured);
        for (e, (&measured, &bound)) in
            c.measured.iter().zip(&ham.edge_congestion).enumerate()
        {
            assert!(measured <= bound, "q={q} edge-disjoint edge {e}: {measured} > {bound}");
        }
    }
}

#[test]
fn theorem_5_1_pipeline_model_predicts_simulated_cycles() {
    // The congestion check above re-proves the *bandwidth* side of the
    // embedding at runtime; this is the *latency* side. For every
    // fault-free configuration the analytic fill-plus-drain model
    // (`AllreducePlan::predicted_cycles`) must agree with the simulated
    // cycle count to within one pipeline fill, `2·depth·L + 1` cycles —
    // the model charges a full fill and drain while the simulator
    // overlaps them with the steady-state stream (docs/OBSERVABILITY.md
    // derives the model; at m = 10_000 the gap is a single cycle).
    //
    // On the edge-disjoint plan the model is exact per tree: every channel
    // carries one stream and each Hamiltonian path's midpoint root has two
    // equal arms, so nothing waits on arbitration or credits. Tree t then
    // completes one cycle before
    // `predicted_tree_cycles(Allreduce, depth, L, m_t, 1)` (the model
    // counts the first element in both the fill and the drain), and
    // element 0 lands everywhere after exactly one fill.
    use pf_allreduce::perf::predicted_tree_cycles;
    use pf_allreduce::rational::Rational;
    use pf_allreduce::{AllreducePlan, Collective, Solution};
    use pf_simnet::{MultiTreeEmbedding, SimConfig, Simulator, Workload};

    let cfg = SimConfig::default();
    let hop = cfg.link_latency as u64;
    let allreduce = Collective::Allreduce;
    let m = 2000;
    for q in [3u64, 7, 11] {
        let plans =
            [AllreducePlan::low_depth(q).unwrap(), AllreducePlan::edge_disjoint(q, 30, 0x715 ^ q).unwrap()];
        for plan in &plans {
            let sizes = plan.split(m);
            let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
            let w = Workload::new(plan.graph.num_vertices(), m);
            let r = Simulator::new(&plan.graph, &emb, cfg).run(&w);
            assert!(r.completed && r.mismatches == 0, "q={q}");

            let predicted = plan.predicted_cycles(m, hop);
            let tolerance = 2 * plan.depth as u64 * hop + 1;
            let gap = predicted.abs_diff(r.cycles);
            assert!(
                gap <= tolerance,
                "q={q} {}: predicted {predicted} vs measured {} (gap {gap} > fill {tolerance})",
                plan.solution.label(),
                r.cycles,
            );
            if plan.solution == Solution::EdgeDisjoint {
                for (t, (tree, &m_t)) in plan.trees.iter().zip(&sizes).enumerate() {
                    if m_t > 0 {
                        let model =
                            predicted_tree_cycles(allreduce, tree.depth(), hop, m_t, Rational::ONE);
                        assert_eq!(r.tree_completion[t] + 1, model, "q={q} edge-disjoint tree {t}");
                    }
                }
                assert_eq!(r.first_element_latency, 2 * plan.depth as u64 * hop + 1, "q={q}");
            }
        }
    }
}

#[test]
fn figure_5b_low_depth_short_vectors_meet_the_pipeline_model_exactly() {
    // Figure 5b's regime: a few elements per tree. The low-depth trees
    // share links, but a short slice holds each link only for a few
    // cycles, and the engine proves no two streams on a link ever hold a
    // flit in the same cycle. Every tree then runs at its contention-free
    // rate, so the Theorem 5.1 model is exact per tree — completion one
    // cycle before `predicted_tree_cycles(Allreduce, depth, L, m_t, 1)` —
    // and element 0 reaches every node after one fill, three hops up and
    // three down.
    use pf_allreduce::perf::predicted_tree_cycles;
    use pf_allreduce::rational::Rational;
    use pf_allreduce::{AllreducePlan, Collective};
    use pf_simnet::{MultiTreeEmbedding, SimConfig, Simulator, Workload};

    let cfg = SimConfig::default();
    let hop = cfg.link_latency as u64;
    let allreduce = Collective::Allreduce;
    for q in [7u64, 11] {
        let plan = AllreducePlan::low_depth(q).unwrap();
        assert_eq!(plan.depth, 3, "q={q}");
        for per_tree in [1u64, 2, 5] {
            let m = per_tree * plan.trees.len() as u64;
            let sizes = plan.split(m);
            let emb = MultiTreeEmbedding::new(&plan.graph, &plan.trees, &sizes);
            let w = Workload::new(plan.graph.num_vertices(), m);
            let r = Simulator::new(&plan.graph, &emb, cfg).run(&w);
            assert!(r.completed && r.mismatches == 0, "q={q} m={m}");
            assert_eq!(r.first_element_latency, 2 * 3 * hop + 1, "q={q} m={m}");
            for (t, (tree, &m_t)) in plan.trees.iter().zip(&sizes).enumerate() {
                assert_eq!(
                    r.tree_completion[t] + 1,
                    predicted_tree_cycles(allreduce, tree.depth(), hop, m_t, Rational::ONE),
                    "q={q} m={m} low-depth tree {t}"
                );
            }
        }
    }
}

#[test]
fn every_construction_respects_the_exact_rate_bound() {
    // The standing rate-optimality invariant (docs/RATES.md): on every
    // catalog substrate, the Algorithm 1 aggregate of every construction
    // is capped by the exact rate upper bound min(|E|/(n−1), λ(G)) — the
    // edge-budget argument meets the cut-set argument (every spanning
    // tree crosses every cut, so Σ B_i ≤ |∂S| for all S, hence ≤ the
    // global min cut). All comparisons in exact rationals. The nightly
    // full-catalog sweep runs the same clause over all paper radices via
    // the tree harness.
    use pf_allreduce::plan::AllreducePlan;
    use pf_allreduce::rate::allreduce_rate_bound;
    use pf_allreduce::substrates::{backends_for, closed_form_rate_bound, quick_catalog};
    use pf_allreduce::{Budget, ConstructError};

    let mut checked = 0;
    for sub in &quick_catalog() {
        let rate = allreduce_rate_bound(&sub.graph).unwrap_or_else(|e| panic!("{}: {e}", sub.name));
        if let Some(closed) = closed_form_rate_bound(&sub.name) {
            assert_eq!(rate.bound, closed, "{}: closed form disagrees", sub.name);
        }
        for backend in backends_for(&sub.name) {
            let plan =
                match AllreducePlan::construct(&sub.graph, backend.as_ref(), &Budget::unlimited())
                {
                    Ok(plan) => plan,
                    Err(ConstructError::UnsupportedSubstrate(_)) => continue,
                    Err(e) => panic!("{} on {}: {e}", backend.name(), sub.name),
                };
            assert!(
                rate.certifies(plan.aggregate),
                "{} on {}: aggregate {} beats the rate bound {}",
                backend.name(),
                sub.name,
                plan.aggregate,
                rate.bound
            );
            assert_eq!(plan.rate_bound(), rate.bound, "{}", sub.name);
            let gap = plan.optimality_gap();
            assert!(gap.is_positive() && gap <= Rational::ONE, "{}: gap {gap}", sub.name);
            checked += 1;
        }
    }
    assert!(checked >= 15, "only {checked} backend × substrate pairs ran");
}

#[test]
fn polarfly_rate_bound_is_the_corollary_7_1_optimum_and_disjoint_plans_reach_it() {
    // On ER_q the generic rate bound lands exactly on (q+1)/2: the edge
    // budget q(q+1)²/2 / (q²+q) reduces to it and the min cut λ = q sits
    // above. The paper's edge-disjoint Hamiltonian plans at odd q achieve
    // floor((q+1)/2) trees at unit bandwidth each — for odd q that IS the
    // bound, so their optimality gap is exactly 1: the plans are
    // certified rate-optimal, not merely bound-respecting.
    use pf_allreduce::plan::AllreducePlan;
    use pf_allreduce::rate::{allreduce_rate_bound, polarfly_bound};

    for q in [3u64, 5, 7, 11] {
        let pf = PolarFly::new(q);
        let rate = allreduce_rate_bound(pf.graph()).unwrap();
        assert_eq!(rate.bound, polarfly_bound(q), "q={q}");
        assert_eq!(rate.min_cut, q, "q={q}: min cut is the quadric degree");

        let ham = AllreducePlan::edge_disjoint(q, 30, 0xC0FFEE).unwrap();
        assert_eq!(ham.optimality_gap(), Rational::ONE, "q={q}: disjoint plans are optimal");
        // The low-depth plans price at q/2 against (q+1)/2: gap q/(q+1).
        let low = AllreducePlan::low_depth(q).unwrap();
        assert_eq!(low.optimality_gap(), Rational::new(q as i64, q as i64 + 1), "q={q}");
    }
}

#[test]
fn section_7_3_non_hamiltonian_paths_exist_iff_n_composite() {
    for q in ALL_QS {
        let s = Singer::new(q);
        let n = s.n();
        let has_non_ham = !non_hamiltonian_paths(&s).is_empty();
        assert_eq!(has_non_ham, !pf_galois::is_prime(n), "q={q}, N={n}");
    }
}
