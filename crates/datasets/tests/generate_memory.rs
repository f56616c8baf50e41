//! The collaboration generator's memory contract, measured by the allocator.
//!
//! `collab_graph` holds sequential vectors only: one packed `u64` key per
//! co-authorship beside the `u32` preferential-attachment slots while the
//! papers arrive, then one `(u, v, papers)` triple per distinct pair, then
//! the builder's edge list and the graph it returns. The triples are freed
//! before `GraphBuilder::build` runs. A counting global allocator tracks
//! live and peak heap bytes, and `dblp_like(Small, 42)`'s peak above the
//! bytes live when it starts must stay within the larger of
//!
//! - the key vector plus the slots, and
//! - the builder's edge list plus the returned graph's `heap_bytes()`,
//!   plus `O(n)` and 64 KiB of slack.
//!
//! A map of pairs, or triples kept alive through the build, breaks it.
//!
//! One `#[test]` in its own binary: nothing else allocates while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rkranks_datasets::{dblp_like, Scale};

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

/// `dblp_like(Small, 42)`'s co-authorships (keys) and authorships (slots);
/// the digest below pins the fixture they were counted on.
const KEYS: usize = 57_390;
const SLOTS: usize = 47_140;
const DIGEST: u64 = 0x0f27_d9ac_f6b7_a6a4;

/// Peak bytes of a `Vec` grown one push at a time to `len` elements: its
/// capacity doubles, and the last growth holds the old and the new buffer.
fn pushed_vec_peak(len: usize, elem: usize) -> usize {
    len.next_power_of_two() * elem * 3 / 2
}

#[test]
fn generation_holds_sequential_vectors_only() {
    let entry = LIVE.load(Relaxed);
    PEAK.store(entry, Relaxed);
    let g = dblp_like(Scale::Small, 42);
    let peak = PEAK.load(Relaxed) - entry;
    assert_eq!(
        g.digest(),
        DIGEST,
        "the fixture moved: recount KEYS and SLOTS"
    );

    let n = g.num_nodes() as usize;
    let simulation = pushed_vec_peak(KEYS, 8) + pushed_vec_peak(SLOTS, 4);
    // the builder's `(u, v, weight)` list, sized to the pair count
    let edge_list = g.num_edges() * std::mem::size_of::<(u32, u32, u64)>();
    // the builder's `8·(n + 1)` and the generator's degree array
    let linear = 8 * (n + 1) + 4 * n;
    let build = edge_list + g.heap_bytes() + linear + 64 * 1024;
    let budget = simulation.max(build);
    eprintln!(
        "dblp_like(Small, 42): peak {peak} B above entry, budget {budget} B \
         (keys + slots {simulation} B; edge list {edge_list} B + graph {} B + O(n) + 64 KiB)",
        g.heap_bytes()
    );
    assert!(
        peak <= budget,
        "generation peaked {peak} B above entry, over its {budget} B budget"
    );
}
