//! CSV export of the main result series, for external plotting.
//!
//! `experiments -- csv [--out DIR]` writes `fig5a.csv`, `fig5b.csv` and
//! `crossover.csv` (the SIM2 series) into `DIR` (default `results/`),
//! plus one traced simulator run exported as `trace_edge_disjoint.json`
//! and `trace_channels.csv` (schema: `docs/OBSERVABILITY.md`).

use crate::sims::crossover_rows;
use crate::sweeps::fig5_point;
use pf_galois::prime_powers_in;
use std::io::Write;
use std::path::{Path, PathBuf};

fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    f.flush()
}

/// Writes all CSV series into `dir`; returns the paths written.
pub fn write_all(dir: &Path, max_q: u64) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    // Figure 5a/5b series.
    let qs = prime_powers_in(3, max_q);
    let points = crate::par::parallel_map(&qs, |&q| fig5_point(q, 30, 0x5EED ^ q));
    let fig5a: Vec<Vec<String>> = qs
        .iter()
        .zip(&points)
        .map(|(&q, p)| {
            vec![
                q.to_string(),
                (q + 1).to_string(),
                format!("{:.6}", p.low_depth_norm.to_f64()),
                p.low_depth_formula.to_string(),
                format!("{:.6}", p.hamiltonian_norm.to_f64()),
            ]
        })
        .collect();
    let p = dir.join("fig5a.csv");
    write_csv(&p, "q,radix,low_depth_norm,low_depth_is_formula,hamiltonian_norm", &fig5a)?;
    written.push(p);

    let fig5b: Vec<Vec<String>> = qs
        .iter()
        .zip(&points)
        .map(|(&q, p)| {
            vec![
                q.to_string(),
                (q + 1).to_string(),
                p.low_depth_depth.to_string(),
                p.hamiltonian_depth.to_string(),
            ]
        })
        .collect();
    let p = dir.join("fig5b.csv");
    write_csv(&p, "q,radix,low_depth_depth,hamiltonian_depth", &fig5b)?;
    written.push(p);

    // SIM2 crossover series (q = 11, or a small instance when the sweep
    // ceiling is low — keeps debug-mode tests fast).
    let (cq, ms): (u64, &[u64]) = if max_q >= 11 {
        (11, &[1, 16, 256, 1024, 4096, 16_384, 65_536])
    } else {
        (5, &[1, 16, 256, 1024])
    };
    let rows: Vec<Vec<String>> = crossover_rows(cq, ms)
        .into_iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                r.low_depth.map_or(String::new(), |v| v.to_string()),
                r.edge_disjoint.to_string(),
                r.single_tree.to_string(),
                r.ring.to_string(),
                r.recursive_doubling.to_string(),
                r.rabenseifner.to_string(),
                r.blueconnect.to_string(),
            ]
        })
        .collect();
    let p = dir.join("crossover.csv");
    write_csv(
        &p,
        "m,low_depth,edge_disjoint,single_tree,ring,recursive_doubling,rabenseifner,blueconnect",
        &rows,
    )?;
    written.push(p);

    // One traced edge-disjoint run on the crossover instance: the full
    // JSON trace plus its per-channel CSV flattening, next to the series
    // they explain (schema: docs/OBSERVABILITY.md).
    let plan = pf_allreduce::AllreducePlan::edge_disjoint(cq, 30, 0xC0DE ^ cq).unwrap();
    let (_, trace) =
        crate::sims::simulate_plan_traced(&plan, *ms.last().unwrap(), Default::default());
    let p = dir.join("trace_edge_disjoint.json");
    std::fs::write(&p, trace.to_json())?;
    written.push(p);
    let p = dir.join("trace_channels.csv");
    std::fs::write(&p, trace.channels_csv())?;
    written.push(p);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_parsable_csv() {
        let dir = std::env::temp_dir().join("pf_csv_test");
        let written = write_all(&dir, 9).unwrap();
        assert_eq!(written.len(), 5);
        for p in &written {
            let body = std::fs::read_to_string(p).unwrap();
            if p.extension().is_some_and(|e| e == "json") {
                // The trace dump must round-trip through the documented
                // schema parser.
                let trace = pf_simnet::TraceReport::from_json(&body).unwrap();
                assert!(trace.total_flits > 0);
                std::fs::remove_file(p).ok();
                continue;
            }
            let mut lines = body.lines();
            let header = lines.next().unwrap();
            let cols = header.split(',').count();
            let mut data_rows = 0;
            for l in lines {
                assert_eq!(l.split(',').count(), cols, "{p:?}: ragged row {l}");
                data_rows += 1;
            }
            assert!(data_rows > 0, "{p:?} has no data");
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_produce_identical_csv_bytes() {
        // The CSV exporter runs the radix sweep through parallel_map;
        // scheduling must never leak into the output bytes.
        let qs = prime_powers_in(3, 9);
        let render = |points: &[crate::sweeps::Fig5Point]| -> String {
            qs.iter()
                .zip(points)
                .map(|(&q, p)| {
                    format!(
                        "{},{},{:.6},{},{:.6}\n",
                        q,
                        q + 1,
                        p.low_depth_norm.to_f64(),
                        p.low_depth_formula,
                        p.hamiltonian_norm.to_f64(),
                    )
                })
                .collect()
        };
        let parallel = crate::par::parallel_map(&qs, |&q| fig5_point(q, 30, 0x5EED ^ q));
        let serial: Vec<_> = qs.iter().map(|&q| fig5_point(q, 30, 0x5EED ^ q)).collect();
        assert_eq!(render(&parallel).into_bytes(), render(&serial).into_bytes());
    }
}
