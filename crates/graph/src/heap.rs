//! Indexed binary min-heap with decrease-key.
//!
//! Algorithms 1–4 of the paper all maintain a priority queue in which a
//! node's tentative distance can shrink while queued ("if t ∈ Q and
//! t.dis > dis then t.dis ← dis"). A position-indexed binary heap gives
//! O(log n) decrease-key without the duplicate entries a lazy-deletion heap
//! would allocate.
//!
//! Items are `u32` node ids. The position array is sized once for the graph
//! and reset in O(heap size) on [`IndexedHeap::clear`], so a long-lived
//! workspace never pays an O(n) sweep per query.

use crate::weight::{cmp_dist, Distance};
use std::cmp::Ordering;

const ABSENT: u32 = u32::MAX;

/// Result of [`IndexedHeap::push_or_decrease`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushOutcome {
    /// The item was not queued; it has been inserted.
    Inserted,
    /// The item was queued with a larger key; its key has been decreased.
    Decreased,
    /// The item was queued with an equal or smaller key; nothing changed.
    Unchanged,
}

/// A binary min-heap over `(key: Distance, item: u32)` with decrease-key.
#[derive(Debug)]
pub struct IndexedHeap {
    keys: Vec<Distance>,
    items: Vec<u32>,
    /// `pos[item]` = slot in `keys`/`items`, or `ABSENT`.
    pos: Vec<u32>,
}

impl IndexedHeap {
    /// Create a heap able to hold items `0..capacity`.
    pub fn new(capacity: u32) -> Self {
        IndexedHeap {
            keys: Vec::with_capacity(64),
            items: Vec::with_capacity(64),
            pos: vec![ABSENT; capacity as usize],
        }
    }

    /// Number of queued items.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing is queued.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` if `item` is currently queued.
    #[inline(always)]
    pub fn contains(&self, item: u32) -> bool {
        self.pos[item as usize] != ABSENT
    }

    /// Current key of a queued item.
    #[inline]
    pub fn key_of(&self, item: u32) -> Option<Distance> {
        let p = self.pos[item as usize];
        (p != ABSENT).then(|| self.keys[p as usize])
    }

    /// Insert `item` or decrease its key; larger keys are ignored.
    pub fn push_or_decrease(&mut self, item: u32, key: Distance) -> PushOutcome {
        let p = self.pos[item as usize];
        if p == ABSENT {
            let slot = self.items.len();
            self.keys.push(key);
            self.items.push(item);
            self.pos[item as usize] = slot as u32;
            self.sift_up(slot);
            PushOutcome::Inserted
        } else if cmp_dist(key, self.keys[p as usize]) == Ordering::Less {
            self.keys[p as usize] = key;
            self.sift_up(p as usize);
            PushOutcome::Decreased
        } else {
            PushOutcome::Unchanged
        }
    }

    /// Smallest `(item, key)` without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u32, Distance)> {
        self.items.first().map(|&it| (it, self.keys[0]))
    }

    /// Remove and return the smallest `(item, key)`.
    pub fn pop(&mut self) -> Option<(u32, Distance)> {
        if self.items.is_empty() {
            return None;
        }
        let item = self.items[0];
        let key = self.keys[0];
        self.pos[item as usize] = ABSENT;
        let last = self.items.len() - 1;
        if last > 0 {
            self.items.swap(0, last);
            self.keys.swap(0, last);
            self.pos[self.items[0] as usize] = 0;
        }
        self.items.pop();
        self.keys.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        Some((item, key))
    }

    /// Empty the heap in O(len) (not O(capacity)).
    pub fn clear(&mut self) {
        for &it in &self.items {
            self.pos[it as usize] = ABSENT;
        }
        self.items.clear();
        self.keys.clear();
    }

    /// Grow the item universe (used when a workspace is reused on a larger
    /// graph).
    pub fn ensure_capacity(&mut self, capacity: u32) {
        if self.pos.len() < capacity as usize {
            self.pos.resize(capacity as usize, ABSENT);
        }
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        cmp_dist(self.keys[a], self.keys[b]) == Ordering::Less
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.items.swap(a, b);
        self.keys.swap(a, b);
        self.pos[self.items[a] as usize] = a as u32;
        self.pos[self.items[b] as usize] = b as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut smallest = i;
            if self.less(l, smallest) {
                smallest = l;
            }
            if r < n && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap_slots(i, smallest);
            i = smallest;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for i in 1..self.items.len() {
            let parent = (i - 1) / 2;
            assert!(
                cmp_dist(self.keys[parent], self.keys[i]) != Ordering::Greater,
                "heap order violated at slot {i}"
            );
        }
        for (slot, &it) in self.items.iter().enumerate() {
            assert_eq!(
                self.pos[it as usize], slot as u32,
                "pos map stale for item {it}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn push_pop_sorted() {
        let mut h = IndexedHeap::new(10);
        for (i, k) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            assert_eq!(h.push_or_decrease(i as u32, *k), PushOutcome::Inserted);
        }
        h.check_invariants();
        let mut out = Vec::new();
        while let Some((_, k)) = h.pop() {
            out.push(k);
        }
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn decrease_key_moves_item_up() {
        let mut h = IndexedHeap::new(4);
        h.push_or_decrease(0, 10.0);
        h.push_or_decrease(1, 20.0);
        h.push_or_decrease(2, 30.0);
        assert_eq!(h.push_or_decrease(2, 5.0), PushOutcome::Decreased);
        h.check_invariants();
        assert_eq!(h.pop(), Some((2, 5.0)));
    }

    #[test]
    fn larger_key_is_ignored() {
        let mut h = IndexedHeap::new(2);
        h.push_or_decrease(0, 1.0);
        assert_eq!(h.push_or_decrease(0, 2.0), PushOutcome::Unchanged);
        assert_eq!(h.key_of(0), Some(1.0));
    }

    #[test]
    fn equal_key_is_unchanged() {
        let mut h = IndexedHeap::new(2);
        h.push_or_decrease(0, 1.0);
        assert_eq!(h.push_or_decrease(0, 1.0), PushOutcome::Unchanged);
    }

    #[test]
    fn contains_and_key_of_track_membership() {
        let mut h = IndexedHeap::new(3);
        assert!(!h.contains(1));
        h.push_or_decrease(1, 7.0);
        assert!(h.contains(1));
        assert_eq!(h.key_of(1), Some(7.0));
        h.pop();
        assert!(!h.contains(1));
        assert_eq!(h.key_of(1), None);
    }

    #[test]
    fn clear_resets_membership_cheaply() {
        let mut h = IndexedHeap::new(8);
        for i in 0..8 {
            h.push_or_decrease(i, i as f64);
        }
        h.clear();
        assert!(h.is_empty());
        for i in 0..8 {
            assert!(!h.contains(i));
        }
        // reusable after clear
        h.push_or_decrease(3, 1.0);
        assert_eq!(h.pop(), Some((3, 1.0)));
    }

    #[test]
    fn ensure_capacity_grows() {
        let mut h = IndexedHeap::new(1);
        h.ensure_capacity(5);
        h.push_or_decrease(4, 2.0);
        assert_eq!(h.pop(), Some((4, 2.0)));
    }

    #[test]
    fn randomized_against_reference_sort() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let n = 1 + (trial % 64) as u32;
            let mut h = IndexedHeap::new(n);
            let mut best: Vec<Option<f64>> = vec![None; n as usize];
            // random pushes and decreases
            for _ in 0..200 {
                let item = rng.random_range(0..n);
                let key: f64 = rng.random_range(0.0..100.0);
                h.push_or_decrease(item, key);
                let e = &mut best[item as usize];
                *e = Some(e.map_or(key, |old: f64| old.min(key)));
            }
            h.check_invariants();
            let mut expected: Vec<(f64, u32)> = best
                .iter()
                .enumerate()
                .filter_map(|(i, k)| k.map(|k| (k, i as u32)))
                .collect();
            expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut got: Vec<(f64, u32)> = Vec::new();
            while let Some((it, k)) = h.pop() {
                got.push((k, it));
            }
            // keys must come out sorted; per-item keys must match the minimum seen
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            let mut got_sorted = got.clone();
            got_sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(got_sorted, expected);
        }
    }
}
