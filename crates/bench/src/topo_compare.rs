//! `experiments topo-compare` — the cross-topology construction table.
//!
//! For every substrate in the shared quick catalog
//! ([`pf_allreduce::substrates::quick_catalog`]) and every applicable
//! [`pf_allreduce::TreeConstruction`] backend
//! ([`pf_allreduce::substrates::backends_for`]), the table reports what
//! the construction found and what Algorithm 1 makes of it:
//!
//! * trees found and maximum tree depth;
//! * the Algorithm 1 aggregate bandwidth `Σ B_i`, in exact rationals;
//! * the exact rate bound `min(|E|/(n−1), λ(G))` it must respect
//!   ([`pf_allreduce::rate::allreduce_rate_bound`], see `docs/RATES.md`)
//!   and the optimality gap `Σ B_i / rate bound` — as an exact rational
//!   and a float rendering (`1` = the construction is certified
//!   rate-optimal on that substrate);
//! * measured worst-case link congestion next to the backend's claimed
//!   bound (Theorem 7.6 gives 2 for low-depth, Theorem 7.19 gives 1 for
//!   edge-disjoint sets; `-` when the backend claims nothing).
//!
//! Everything is deterministic — same catalog, same seeds, same
//! tie-breaking — so two runs print byte-identical tables (pinned by
//! `rows_are_deterministic` and the golden fixture in
//! `tests/golden_topo_compare.rs`). Pass `--full` to sweep the nightly
//! catalog instead (all paper radices q ∈ {3, 5, 7, 9, 11} and both
//! labelings).

use pf_allreduce::plan::AllreducePlan;
use pf_allreduce::rate::allreduce_rate_bound;
use pf_allreduce::rational::Rational;
use pf_allreduce::substrates::{backends_for, closed_form_rate_bound, full_catalog, quick_catalog};
use pf_allreduce::{Budget, ConstructError};
use std::fmt::Write as _;

/// One backend × substrate line of the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoCompareRow {
    /// Catalog substrate name.
    pub substrate: String,
    /// Substrate order / size.
    pub vertices: u32,
    /// Substrate edge count.
    pub edges: u32,
    /// Backend name (the plan label).
    pub backend: &'static str,
    /// Trees the construction produced.
    pub trees: usize,
    /// Maximum tree depth.
    pub depth: u32,
    /// Algorithm 1 aggregate bandwidth `Σ B_i`.
    pub aggregate: Rational,
    /// The exact rate bound `min(|E|/(n−1), λ(G))`.
    pub rate_bound: Rational,
    /// Optimality gap `aggregate / rate_bound ∈ (0, 1]`, exact.
    pub gap: Rational,
    /// Measured worst-case link congestion.
    pub max_congestion: u32,
    /// The backend's claimed congestion bound, when it has one.
    pub congestion_bound: Option<u32>,
}

/// Builds the table rows over the given catalog tier. Backends that
/// (correctly) reject a substrate as unsupported contribute no row;
/// any other construction error is a bug and panics.
pub fn topo_compare_rows(full: bool) -> Vec<TopoCompareRow> {
    let catalog = if full { full_catalog() } else { quick_catalog() };
    let mut rows = Vec::new();
    for sub in &catalog {
        // One min-cut run per substrate; every backend row reuses it.
        let rate = allreduce_rate_bound(&sub.graph)
            .unwrap_or_else(|e| panic!("{}: {e}", sub.name));
        if let Some(closed) = closed_form_rate_bound(&sub.name) {
            assert_eq!(
                rate.bound, closed,
                "{}: generic rate bound disagrees with the closed form",
                sub.name
            );
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
                "{} on {}: aggregate beats the rate bound",
                backend.name(),
                sub.name
            );
            if let Some(bound) = backend.congestion_bound() {
                assert!(
                    plan.max_congestion <= bound,
                    "{} on {}: congestion bound broken",
                    backend.name(),
                    sub.name
                );
            }
            rows.push(TopoCompareRow {
                substrate: sub.name.clone(),
                vertices: sub.graph.num_vertices(),
                edges: sub.graph.num_edges(),
                backend: backend.name(),
                trees: plan.trees.len(),
                depth: plan.depth,
                aggregate: plan.aggregate,
                rate_bound: rate.bound,
                gap: rate.gap(plan.aggregate),
                max_congestion: plan.max_congestion,
                congestion_bound: backend.congestion_bound(),
            });
        }
    }
    rows
}

/// Renders the full table (header, rows, legend) as one string — the
/// golden fixture in `tests/golden_topo_compare.rs` pins this byte for
/// byte, and [`print_topo_compare`] prints it.
pub fn render_topo_compare(full: bool) -> String {
    let rows = topo_compare_rows(full);
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>5} {:>5}  {:<14} {:>5} {:>5} {:>10} {:>8} {:>9} {:>7} {:>5} {:>6}",
        "substrate", "n", "|E|", "construction", "trees", "depth", "agg bw", "rate bd", "gap",
        "gap~", "cong", "claim"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<16} {:>5} {:>5}  {:<14} {:>5} {:>5} {:>10} {:>8} {:>9} {:>7.4} {:>5} {:>6}",
            r.substrate,
            r.vertices,
            r.edges,
            r.backend,
            r.trees,
            r.depth,
            r.aggregate.to_string(),
            r.rate_bound.to_string(),
            r.gap.to_string(),
            r.gap.to_f64(),
            r.max_congestion,
            r.congestion_bound.map_or_else(|| "-".to_string(), |c| c.to_string()),
        )
        .unwrap();
    }
    out.push_str("\n(agg bw = Algorithm 1 aggregate Σ B_i in exact rationals;\n");
    out.push_str(
        " rate bd = min(|E|/(n−1), λ(G)) — the exact rate upper bound, docs/RATES.md; \
         gap = agg bw / rate bd\n",
    );
    out.push_str(
        " as an exact rational, gap~ its float rendering, 1 = certified rate-optimal;\n",
    );
    out.push_str(
        " cong = measured worst-case link congestion; claim = the backend's guaranteed bound —\n",
    );
    out.push_str(" Theorem 7.6 gives 2 for low-depth trees, Theorem 7.19 gives 1 for disjoint sets)\n");
    out
}

/// Prints the table.
pub fn print_topo_compare(full: bool) {
    crate::print_header("topology-agnostic construction comparison");
    print!("{}", render_topo_compare(full));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deterministic() {
        let a = topo_compare_rows(false);
        let b = topo_compare_rows(false);
        assert_eq!(a, b);
    }

    #[test]
    fn quick_tier_covers_three_by_three() {
        // The acceptance floor: at least 3 constructions × 3 substrates,
        // with every row honest about its bounds (asserted during
        // construction).
        let rows = topo_compare_rows(false);
        let substrates: std::collections::BTreeSet<_> =
            rows.iter().map(|r| r.substrate.as_str()).collect();
        let backends: std::collections::BTreeSet<_> =
            rows.iter().map(|r| r.backend).collect();
        assert!(substrates.len() >= 3, "substrates: {substrates:?}");
        assert!(backends.len() >= 3, "backends: {backends:?}");
        // The specializations appear on their home substrates.
        assert!(rows.iter().any(|r| r.backend == "low-depth"));
        assert!(rows.iter().any(|r| r.backend == "star-disjoint"));
        assert!(rows.iter().any(|r| r.backend == "kary-multitree"));
    }

    #[test]
    fn gap_columns_are_well_formed() {
        for r in topo_compare_rows(false) {
            assert!(r.gap.is_positive(), "{}/{}", r.substrate, r.backend);
            assert!(r.gap <= Rational::ONE, "{}/{}", r.substrate, r.backend);
            assert_eq!(r.gap * r.rate_bound, r.aggregate, "{}/{}", r.substrate, r.backend);
        }
    }
}
