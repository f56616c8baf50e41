//! The wire codec's allocation contract, counted by the allocator.
//!
//! The codec writes a message straight onto its line and reads a line in
//! place, building no `Json` tree on the way. So encoding a `k = 10`
//! query reply or a `query` request allocates only the line, decoding
//! the request allocates nothing, and decoding the reply allocates only
//! its entries. A codec that goes through a tree again allocates a node
//! per value and fails here by an order of magnitude (45, 23, 10 and 5
//! allocations respectively with the tree).
//!
//! One `#[test]` in its own binary: nothing else allocates while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rkranks_server::{QueryReply, Reply, Request};

struct Counting;

/// Calls that handed out a fresh or regrown block.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with the caller's arguments,
// so `System` upholds each method's contract; only the counter is added.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // `new_size` meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Relaxed) - before)
}

fn check(what: &str, made: usize, bound: usize) {
    eprintln!("{what}: {made} allocations (bound {bound})");
    assert!(
        made <= bound,
        "{what} made {made} allocations, over {bound}"
    );
}

#[test]
fn the_codec_allocates_only_the_line_and_the_entries() {
    // A served hit: k = 10 entries with five-digit node ids.
    let reply = Reply::Query(QueryReply {
        entries: (0..10).map(|i| (24_000 + 97 * i, 1 + i / 3)).collect(),
        cached: true,
        epoch: 1,
        graph_epoch: 3,
        partial: false,
    });
    let request = Request::Query {
        node: 24_117,
        k: 10,
        cache: true,
        strategy: None,
        deadline_ms: None,
    };
    for _ in 0..3 {
        let (line, made) = counted(|| reply.to_line());
        check("k = 10 reply encode", made, 1);
        let (decoded, made) = counted(|| Reply::from_line(&line));
        check("k = 10 reply decode", made, 2);
        assert_eq!(decoded.as_ref(), Ok(&reply));

        let (line, made) = counted(|| request.to_line());
        check("query request encode", made, 1);
        let (decoded, made) = counted(|| Request::from_line(&line));
        check("query request decode", made, 1);
        assert_eq!(decoded.as_ref(), Ok(&request));
    }
}
