//! One-CPU pinning.
//!
//! The harness binds itself to the first CPU of its allowed mask before it
//! spawns anything, so every thread it later starts — daemon workers, the
//! merger, the coordinator, shard daemons, clients — inherits the mask.
//! On a 2-vCPU host the same hit-path code measured 14k–71k queries/s
//! unpinned (cross-vCPU wake-ups) and 73k–78k/s pinned; see the README.
//!
//! Raw `sched_getaffinity`/`sched_setaffinity` externs against symbols
//! libstd already links, the way `crates/server/src/event.rs` binds
//! `epoll` — no new dependency.

/// Words in the affinity mask (16 × 64 = 1024 CPUs, the kernel default).
const WORDS: usize = 16;

/// Index of the lowest set bit across `mask`, if any.
fn first_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
}

/// Pin the calling thread (and everything it spawns afterwards) to the
/// first CPU of its allowed mask. `None` when the platform has no such
/// call or the kernel refuses it: the caller records `"pinned": false`
/// and continues unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_first_allowed() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the kernel is told it may fill; pid 0 is the caller.
    if unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = first_cpu(&mask)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes the kernel only reads.
    if unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Non-Linux hosts run unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_first_allowed() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_is_the_lowest_set_bit() {
        assert_eq!(first_cpu(&[0b1000, 0]), Some(3));
        assert_eq!(first_cpu(&[0, 0b10]), Some(65));
    }

    #[test]
    fn an_empty_mask_falls_back_to_unpinned() {
        assert_eq!(first_cpu(&[0; WORDS]), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        // Runs on its own test thread, so the mask it narrows dies with it.
        let cpu = pin_to_first_allowed().expect("the sandbox allows sched_setaffinity");
        let mut mask = [0u64; WORDS];
        // SAFETY: as in `pin_to_first_allowed`.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0);
        assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(first_cpu(&mask), Some(cpu));
    }
}
