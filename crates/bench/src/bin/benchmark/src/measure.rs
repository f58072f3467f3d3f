//! Host-side measurement: a counting global allocator, the allocator
//! pinning, the process's peak resident set, the reference kernel host
//! times are normalized by, and the order statistics every metric is
//! reported with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `System`-backed allocator that counts allocations and requested bytes
/// (`pf-bench`'s own counters are private to its `experiments` binary).
/// The counters are statistics that publish no other data, hence `Relaxed`.
pub struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only read
// `layout.size()` / `new_size`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes requested)` so far, for before/after deltas.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// Keeps glibc malloc from handing freed memory back to the kernel:
/// allocations below 32 MiB come from the heap instead of fresh `mmap`s,
/// and the heap is never trimmed. Without this every engine run maps and
/// faults in new pages, and on a shared virtual machine the cost of a page
/// fault swings by ~1.7x with the host's memory pressure for tens of
/// seconds at a time, drowning the program's own costs. Returns whether
/// both settings took.
pub fn pin_malloc() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two plain integers and only changes
        // allocator tuning; glibc serializes it against concurrent
        // allocation. Both parameters and values are documented ones.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds [`reference_kernel`] takes on a quiet reference host (a
/// two-vCPU virtualized Intel Xeon, family 6 model 143): the speed host
/// times are normalized to.
pub const REFERENCE_KERNEL_S: f64 = 0.0021;

/// Times a fixed reference kernel — sorting 32 768 integers, then building
/// and probing an 8 192-key B-tree: the branches, allocation and pointer
/// chasing the workloads are made of — three times, and returns the
/// fastest run in seconds. Its ratio to [`REFERENCE_KERNEL_S`] is how fast
/// the host runs right now.
pub fn reference_kernel() -> f64 {
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let input: Vec<u64> = (0..32_768u64).map(|i| key(i) ^ (i << 7)).collect();
    (0..3)
        .map(|_| {
            let mut v = input.clone();
            let t0 = Instant::now();
            v.sort_unstable();
            let mut tree = BTreeMap::new();
            for i in 0..8192u64 {
                tree.insert(key(i) >> 40, i);
            }
            let found: u64 = (0..8192u64).filter_map(|i| tree.get(&(key(i) >> 40))).sum();
            black_box((&v, found));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `p` ∈ (0, 100] of `xs` (sorted in place).
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "a percentile needs at least one sample");
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

/// The median as the midpoint of the two central samples.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "a median needs at least one sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 100.0);
        assert_eq!(percentile(&mut xs, 99.0), 198.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }
}
