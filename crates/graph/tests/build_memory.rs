//! The construction memory contract, measured by the allocator.
//!
//! `GraphBuilder::build` holds its edge list, the CSR it returns and
//! `O(n)`, and nothing else; `Graph::transpose` holds the CSR it returns
//! and `O(n)`. A counting global allocator tracks live and peak heap
//! bytes, and each construction's peak above the bytes live when it starts
//! must stay within the returned graph's `heap_bytes()` plus `8·(n + 1)`
//! (room for two `O(n)` arrays) plus 64 KiB (one row's sort buffer and
//! slack). A copied arc list or a map of pairs breaks it several times
//! over.
//!
//! One `#[test]` in its own binary: nothing else allocates while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rkranks_graph::{DedupPolicy, EdgeDirection, Graph, GraphBuilder};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's arguments,
// so `System` upholds each method's contract; only the counters are added.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // `new_size` meets `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                // a growing realloc may copy: count the old and new blocks
                // as live together for the peak
                PEAK.fetch_max(LIVE.load(Relaxed) + new_size, Relaxed);
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NODES: u32 = 50_000;
const EDGES: usize = 300_000;

/// `f`'s result and its peak heap bytes above those live when it started.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let entry = LIVE.load(Relaxed);
    PEAK.store(entry, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - entry)
}

fn check(what: &str, g: &Graph, peak: usize) {
    let budget = g.heap_bytes() + 8 * (g.num_nodes() as usize + 1) + 64 * 1024;
    eprintln!(
        "{what}: peak {peak} B above entry, budget {budget} B (graph {} B)",
        g.heap_bytes()
    );
    assert!(
        peak <= budget,
        "{what} peaked {peak} B above entry, over its {budget} B budget"
    );
}

#[test]
fn build_and_transpose_hold_only_the_graph_they_return() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let edges: Vec<(u32, u32, f64)> = (0..EDGES)
        .map(|_| loop {
            let (u, v) = (rng.random_range(0..NODES), rng.random_range(0..NODES));
            if u != v {
                break (u, v, rng.random_range(1..100u32) as f64);
            }
        })
        .collect();
    for (direction, policy) in [
        (EdgeDirection::Undirected, DedupPolicy::KeepMin),
        (EdgeDirection::Directed, DedupPolicy::KeepMin),
        (EdgeDirection::Directed, DedupPolicy::KeepLast),
        (EdgeDirection::Undirected, DedupPolicy::KeepAll),
    ] {
        let what = format!("{direction:?} {policy:?}");
        let mut b = GraphBuilder::with_capacity(direction, EDGES).dedup_policy(policy);
        b.reserve_nodes(NODES);
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w).unwrap();
        }
        let (g, peak) = peak_above_entry(|| b.build().unwrap());
        check(&format!("{what} build"), &g, peak);
        if g.is_directed() {
            let (t, peak) = peak_above_entry(|| g.transpose());
            check(&format!("{what} transpose"), &t, peak);
        }
    }
}
