//! Small fork-join helper for embarrassingly parallel work.
//!
//! The radix sweeps (Fig. 5a, the disjoint-solution sweep and the CSV
//! exporter) map independent points, each building its own topology and
//! trees, over a scoped worker pool. Workers steal *chunks* of indices
//! from a shared atomic cursor (`std::thread::scope` scoped threads) into
//! pre-sized per-worker buffers, merged in order at join — no shared lock
//! on the hot path, one `fetch_add` per chunk instead of per item, and the
//! output is identical to the serial map regardless of scheduling. The
//! simulator itself is single-threaded.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on a scoped worker pool sized from
/// `available_parallelism`, preserving input order in the output. `f`
/// must be `Sync` (it runs concurrently).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    parallel_map_workers(workers, items, f)
}

/// [`parallel_map`] with an explicit worker count; `workers <= 1` runs
/// serially on the calling thread.
fn parallel_map_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    // Chunked stealing: grab several indices per CAS so cheap sweep points
    // don't serialize on cursor contention, but keep chunks small enough
    // (≥ 4 per worker on average) that uneven per-item cost still
    // load-balances across workers.
    let chunk = (n / (4 * workers)).max(1);
    let cursor = AtomicUsize::new(0);
    // Each worker accumulates (index, result) locally; taking the output
    // mutex once per item would serialize cheap maps on lock traffic.
    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::with_capacity(n / workers + chunk);
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        for (i, item) in items[lo..hi].iter().enumerate() {
                            local.push((lo + i, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buffers.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "index {i} produced twice");
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("all slots filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_boundaries_cover_every_index() {
        // Sizes straddling chunk-size breakpoints (n / (4 * workers)
        // rounding, final partial chunk): every index must be produced
        // exactly once — the debug_assert in the merge loop catches
        // duplicates, the expect catches holes.
        for n in [1usize, 2, 3, 5, 7, 8, 15, 16, 17, 31, 63, 64, 65, 127, 129, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let out = parallel_map(&items, |&x| x + 1);
            assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_worker_counts_match_serial() {
        let items: Vec<u64> = (0..257).collect();
        let ser: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for workers in [0usize, 1, 2, 3, 4, 8, 16] {
            let out = parallel_map_workers(workers, &items, |&x| x.wrapping_mul(x) ^ 17);
            assert_eq!(out, ser, "workers={workers}");
        }
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Wildly uneven per-item cost shuffles completion order across
        // workers; the merged output must still be the serial one.
        let items: Vec<u64> = (0..64).rev().collect();
        let heavy = |&x: &u64| {
            let mut acc = 0u64;
            for i in 0..(x * 2_000) {
                acc = acc.wrapping_add(i ^ x);
            }
            acc ^ x
        };
        let out = parallel_map(&items, heavy);
        let ser: Vec<u64> = items.iter().map(heavy).collect();
        assert_eq!(out, ser);
    }
}
