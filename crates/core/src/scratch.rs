//! Generation-stamped per-node scratch arrays.
//!
//! A reverse k-ranks query touches per-node state (SDS-tree parents, depth
//! counters, `lcount` visit tallies, result membership flags) that must be
//! logically cleared between queries. Clearing `O(|V|)` arrays per query
//! would dominate small queries, and the paper's `O(visited)`-space hash
//! table costs a hash per access in the hottest loop. A stamp array gives
//! O(1) logical reset and branch-cheap reads: a slot is valid only when its
//! stamp equals the current generation.
//!
//! Each stamp sits beside its value — one `(stamp, value)` pair per node —
//! so a read, a write or an increment touches one cache line, not two
//! arrays (`lcount` is bumped on every refinement push).

/// A dense `Vec<T>` whose entries reset to `default` on [`Stamped::reset`]
/// in O(1).
#[derive(Debug)]
pub struct Stamped<T: Copy> {
    /// `(stamp, value)`; the value counts only while the stamp is current.
    slots: Vec<(u32, T)>,
    generation: u32,
    default: T,
}

impl<T: Copy> Stamped<T> {
    /// Create with capacity `n` and the given default value.
    pub fn new(n: usize, default: T) -> Self {
        Stamped {
            slots: vec![(0, default); n],
            generation: 0,
            default,
        }
    }

    /// Logically reset every slot to the default.
    pub fn reset(&mut self) {
        if self.generation == u32::MAX {
            for slot in &mut self.slots {
                slot.0 = 0;
            }
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Grow to hold at least `n` slots (new slots default-valued).
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, (0, self.default));
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Read slot `i` (default if untouched since the last reset).
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        let (stamp, v) = self.slots[i];
        if stamp == self.generation {
            v
        } else {
            self.default
        }
    }

    /// Write slot `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: T) {
        self.slots[i] = (self.generation, v);
    }

    /// Read-modify-write slot `i`.
    #[inline(always)]
    pub fn update(&mut self, i: usize, f: impl FnOnce(T) -> T) {
        let cur = self.get(i);
        self.set(i, f(cur));
    }
}

impl Stamped<u32> {
    /// Increment slot `i`, returning the new value.
    #[inline(always)]
    pub(crate) fn increment(&mut self, i: usize) -> u32 {
        let v = self.get(i) + 1;
        self.set(i, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_until_set() {
        let mut s: Stamped<u32> = Stamped::new(4, 7);
        s.reset();
        assert_eq!(s.get(2), 7);
        s.set(2, 42);
        assert_eq!(s.get(2), 42);
        assert_eq!(s.get(3), 7);
    }

    #[test]
    fn reset_is_logical_clear() {
        let mut s: Stamped<u32> = Stamped::new(4, 0);
        s.reset();
        s.set(1, 10);
        s.reset();
        assert_eq!(s.get(1), 0);
        s.set(1, 5);
        assert_eq!(s.get(1), 5);
    }

    #[test]
    fn increment_counts_from_default() {
        let mut s: Stamped<u32> = Stamped::new(2, 0);
        s.reset();
        assert_eq!(s.increment(0), 1);
        assert_eq!(s.increment(0), 2);
        s.reset();
        assert_eq!(s.increment(0), 1);
    }

    #[test]
    fn update_closure() {
        let mut s: Stamped<u32> = Stamped::new(2, 3);
        s.reset();
        s.update(0, |v| v * 2);
        assert_eq!(s.get(0), 6);
    }

    #[test]
    fn bool_flags() {
        let mut s: Stamped<bool> = Stamped::new(3, false);
        s.reset();
        assert!(!s.get(0));
        s.set(0, true);
        assert!(s.get(0));
        s.reset();
        assert!(!s.get(0));
    }

    #[test]
    fn ensure_capacity_preserves_semantics() {
        let mut s: Stamped<u32> = Stamped::new(2, 9);
        s.reset();
        s.set(1, 1);
        s.ensure_capacity(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(1), 1);
        assert_eq!(s.get(4), 9);
    }

    #[test]
    fn generation_wrap_forgets_every_value() {
        let mut s: Stamped<u32> = Stamped::new(3, 7);
        // generation 1 stamps slot 0
        s.reset();
        s.set(0, 1);
        // the last generation before the wrap stamps slots 1 and 2
        s.generation = u32::MAX - 1;
        s.reset();
        s.set(1, 2);
        assert_eq!(s.increment(2), 8);
        assert_eq!((s.get(0), s.get(1), s.get(2)), (7, 2, 8));
        // the wrap: generation 1 again, and neither generation survives
        s.reset();
        assert_eq!(s.generation, 1);
        assert_eq!((s.get(0), s.get(1), s.get(2)), (7, 7, 7));
        assert_eq!(s.increment(0), 8);
    }

    #[test]
    fn many_resets_stay_correct() {
        let mut s: Stamped<u32> = Stamped::new(1, 0);
        for i in 0..10_000u32 {
            s.reset();
            assert_eq!(s.get(0), 0);
            s.set(0, i);
            assert_eq!(s.get(0), i);
        }
    }
}
