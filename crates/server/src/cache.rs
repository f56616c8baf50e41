//! The serving-side result cache: a hand-rolled O(1) LRU keyed by
//! `(node, k, strategy, index epoch, graph epoch)`. `rkrd` serves one
//! strategy and reads no index, so it fills the strategy byte with a
//! constant and the index epoch with [`EPOCH_INDEPENDENT`]: in effect its
//! entries are keyed by `(node, k, graph epoch)`.
//!
//! Because both epochs are part of the key, a committed graph update —
//! which bumps the graph epoch and retires the index — makes every older
//! entry unreachable *immediately*: a lookup for the new epochs can never
//! return a result computed against staler state, so cached answers are
//! exactly as fresh as recomputed ones. The unreachable entries are
//! reclaimed two ways: lazily by ordinary LRU eviction, and eagerly by
//! [`ResultCache::purge_stale`], which the daemon calls right after
//! publishing a new snapshot.
//!
//! The two components invalidate *different* things. A new index changes
//! no answers (the index only prunes work), so answers that never read
//! the index are keyed [`EPOCH_INDEPENDENT`] and ignore the index epoch. Graph
//! commits change the answers themselves, so the graph epoch is part of
//! *every* key — there is no graph-independent result — and a graph-epoch
//! bump strands the whole cache.
//!
//! The cache keeps no counters of its own. Each operation reports its
//! outcome to the caller, and `rkrd` records it in its registry where it
//! happens: [`ResultCache::get`] returning `None` is a miss (a hit is the
//! `rkrd_query_seconds{outcome="hit"}` sample the daemon records anyway),
//! [`ResultCache::insert`] returning `true` is an LRU eviction, and
//! [`ResultCache::purge_stale`] returns how many stale entries it dropped.

use std::collections::HashMap;

/// Sentinel *index* epoch for answers that do not depend on the index at
/// all (naive/static/dynamic strategies read only the graph snapshot):
/// entries keyed with it are never considered stale by an index-epoch
/// change. They still carry a real graph epoch — every answer depends on
/// the graph — and a graph-epoch bump evicts them like everything else.
pub const EPOCH_INDEPENDENT: u64 = u64::MAX;

/// Everything that distinguishes one cacheable answer from another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query node.
    pub node: u32,
    /// Result size.
    pub k: u32,
    /// Encoded strategy: entries of different strategies must not share
    /// a key. `rkrd` serves one strategy and always writes `0`.
    pub strategy: u8,
    /// Index epoch the answer was computed against, or
    /// [`EPOCH_INDEPENDENT`] for strategies that never read the index.
    pub epoch: u64,
    /// Graph epoch the answer was computed against. Part of every key:
    /// a graph commit changes answers, so nothing survives it.
    pub graph_epoch: u64,
}

/// One cached `(node, rank)` result list.
type Entry = Vec<(u32, u32)>;

const NIL: usize = usize::MAX;

/// Fixed per-entry bookkeeping cost charged to [`ResultCache::approx_bytes`]
/// on top of the payload: the slot struct, the map key + index, and the
/// map's own per-entry overhead (approximated as one more key-sized cell).
const ENTRY_OVERHEAD: usize = std::mem::size_of::<Slot>()
    + 2 * std::mem::size_of::<CacheKey>()
    + std::mem::size_of::<usize>();

fn entry_cost(value: &Entry) -> usize {
    ENTRY_OVERHEAD + value.capacity() * std::mem::size_of::<(u32, u32)>()
}

struct Slot {
    key: CacheKey,
    value: Entry,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from [`CacheKey`] to result lists.
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot (NIL when empty).
    head: usize,
    /// Least recently used slot (NIL when empty).
    tail: usize,
    /// Running approximate heap footprint of the live entries.
    bytes: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a disabled cache is represented by not
    /// constructing one at all, so a zero here is a caller bug.
    pub fn new(capacity: usize) -> ResultCache {
        assert!(capacity > 0, "use no cache instead of a zero-capacity one");
        ResultCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Approximate heap footprint of the live entries in bytes: each
    /// entry's payload capacity plus fixed per-entry bookkeeping. Kept as
    /// a running total, so reading it is O(1).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Look `key` up, refreshing its recency on a hit; `None` is a miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<&Entry> {
        let slot = *self.map.get(key)?;
        self.detach(slot);
        self.push_front(slot);
        Some(&self.slots[slot].value)
    }

    /// Insert (or refresh) an entry, evicting the least recently used one
    /// if the cache is full. Returns `true` when it evicted one.
    pub fn insert(&mut self, key: CacheKey, value: Entry) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            self.bytes -= entry_cost(&self.slots[slot].value);
            self.bytes += entry_cost(&value);
            self.slots[slot].value = value;
            self.detach(slot);
            self.push_front(slot);
            return false;
        }
        let evicted = self.map.len() == self.capacity;
        if evicted {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            self.map.remove(&self.slots[lru].key);
            self.bytes -= entry_cost(&self.slots[lru].value);
            self.slots[lru].value = Vec::new();
            self.free.push(lru);
        }
        self.bytes += entry_cost(&value);
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    /// Drop every entry that is stale for `(current_graph_epoch,
    /// current_epoch)`, returning how many were dropped. Called by the
    /// daemon after a graph commit so stale entries release their memory
    /// immediately instead of waiting to age out of the LRU order.
    ///
    /// An entry is stale when its graph epoch differs (the graph changed;
    /// *every* answer is invalid) or when its index epoch differs and is
    /// not [`EPOCH_INDEPENDENT`] (a new index strands only index-derived
    /// answers).
    pub fn purge_stale(&mut self, current_graph_epoch: u64, current_epoch: u64) -> usize {
        let stale: Vec<CacheKey> = self
            .map
            .keys()
            .filter(|k| {
                k.graph_epoch != current_graph_epoch
                    || (k.epoch != current_epoch && k.epoch != EPOCH_INDEPENDENT)
            })
            .copied()
            .collect();
        for key in &stale {
            let slot = self.map.remove(key).expect("key just listed");
            self.detach(slot);
            self.bytes -= entry_cost(&self.slots[slot].value);
            self.slots[slot].value = Vec::new();
            self.free.push(slot);
        }
        stale.len()
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            if self.head == slot {
                self.head = next;
            }
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            if self.tail == slot {
                self.tail = prev;
            }
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(node: u32, epoch: u64) -> CacheKey {
        gkey(node, epoch, 0)
    }

    fn gkey(node: u32, epoch: u64, graph_epoch: u64) -> CacheKey {
        CacheKey {
            node,
            k: 2,
            strategy: 3,
            epoch,
            graph_epoch,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = ResultCache::new(4);
        assert!(c.is_empty());
        assert_eq!(c.get(&key(1, 0)), None);
        assert!(!c.insert(key(1, 0), vec![(2, 1)]), "room left: no eviction");
        assert_eq!(c.get(&key(1, 0)), Some(&vec![(2, 1)]));
        assert_eq!(c.len(), 1);
        assert!(
            !c.insert(key(1, 0), vec![(3, 1)]),
            "a refresh evicts nothing"
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ResultCache::new(3);
        for n in 0..3 {
            assert!(!c.insert(key(n, 0), vec![(n, 1)]));
        }
        // touch 0 so 1 becomes the LRU
        assert!(c.get(&key(0, 0)).is_some());
        assert!(c.insert(key(3, 0), vec![(3, 1)]), "a full cache evicts");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&key(1, 0)), None, "LRU entry should be gone");
        assert!(c.get(&key(0, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_some());
        assert!(c.get(&key(3, 0)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = ResultCache::new(2);
        c.insert(key(1, 0), vec![(9, 9)]);
        c.insert(key(2, 0), vec![(8, 8)]);
        c.insert(key(1, 0), vec![(7, 7)]); // refresh: 2 is now LRU
        c.insert(key(3, 0), vec![(6, 6)]);
        assert_eq!(c.get(&key(1, 0)), Some(&vec![(7, 7)]));
        assert_eq!(c.get(&key(2, 0)), None);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let mut c = ResultCache::new(4);
        c.insert(key(1, 0), vec![(1, 1)]);
        assert_eq!(c.get(&key(1, 1)), None, "new epoch must miss");
        c.insert(key(1, 1), vec![(2, 2)]);
        assert_eq!(c.get(&key(1, 0)), Some(&vec![(1, 1)]));
        assert_eq!(c.get(&key(1, 1)), Some(&vec![(2, 2)]));
    }

    #[test]
    fn purge_stale_drops_only_old_epochs() {
        let mut c = ResultCache::new(8);
        for n in 0..3 {
            c.insert(key(n, 0), vec![(n, 1)]);
        }
        c.insert(key(9, 1), vec![(9, 1)]);
        assert_eq!(c.purge_stale(0, 1), 3);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key(9, 1)).is_some());
    }

    #[test]
    fn graph_epoch_bump_strands_everything() {
        let mut c = ResultCache::new(8);
        c.insert(gkey(1, 0, 0), vec![(1, 1)]);
        c.insert(gkey(2, EPOCH_INDEPENDENT, 0), vec![(2, 1)]);
        // a new graph epoch must miss on both keys...
        assert_eq!(c.get(&gkey(1, 0, 1)), None);
        assert_eq!(c.get(&gkey(2, EPOCH_INDEPENDENT, 1)), None);
        // ...and the purge drops even the index-epoch-independent entry
        assert_eq!(c.purge_stale(1, 0), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn epoch_independent_entries_survive_purges() {
        let mut c = ResultCache::new(8);
        c.insert(key(1, EPOCH_INDEPENDENT), vec![(1, 1)]);
        c.insert(key(2, 0), vec![(2, 1)]);
        assert_eq!(c.purge_stale(0, 5), 1, "only the epoch-0 entry is stale");
        assert!(
            c.get(&key(1, EPOCH_INDEPENDENT)).is_some(),
            "graph-only answers survive an index-epoch change"
        );
        // purged slots are reused
        for n in 0..7 {
            c.insert(key(n, 5), vec![(n, 1)]);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn single_slot_cache() {
        let mut c = ResultCache::new(1);
        c.insert(key(1, 0), vec![(1, 1)]);
        c.insert(key(2, 0), vec![(2, 2)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(2, 0)), Some(&vec![(2, 2)]));
        assert_eq!(c.get(&key(1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_a_bug() {
        let _ = ResultCache::new(0);
    }

    #[test]
    fn byte_accounting_tracks_live_entries() {
        let mut c = ResultCache::new(2);
        assert_eq!(c.approx_bytes(), 0);
        c.insert(key(1, 0), vec![(1, 1); 10]);
        let one = c.approx_bytes();
        assert!(one >= 10 * std::mem::size_of::<(u32, u32)>());
        // refresh with a smaller payload shrinks the total
        c.insert(key(1, 0), vec![(1, 1)]);
        assert!(c.approx_bytes() < one);
        c.insert(key(2, 0), vec![(2, 2)]);
        let two = c.approx_bytes();
        // eviction at capacity keeps the total at two live entries
        c.insert(key(3, 0), vec![(3, 3)]);
        assert_eq!(c.approx_bytes(), two);
        // purging everything returns to zero
        assert_eq!(c.purge_stale(9, 9), 2);
        assert_eq!(c.approx_bytes(), 0);
    }

    /// Exercise the linked-list bookkeeping hard: a pseudo-random
    /// insert/get/purge storm must keep map and list consistent.
    #[test]
    fn stress_consistency() {
        let mut c = ResultCache::new(7);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for i in 0..2000 {
            let n = (step() % 20) as u32;
            let e = step() % 3;
            match step() % 4 {
                0 | 1 => {
                    c.insert(gkey(n, e, e % 2), vec![(n, 1)]);
                }
                2 => {
                    let _ = c.get(&gkey(n, e, e % 2));
                }
                _ => {
                    let _ = c.purge_stale(e % 2, e);
                }
            }
            assert!(c.len() <= 7, "overfull at step {i}");
            // walk the list forward and compare against the map
            let mut count = 0;
            let mut slot = c.head;
            let mut prev = NIL;
            while slot != NIL {
                assert_eq!(c.slots[slot].prev, prev, "broken back-link");
                assert_eq!(c.map.get(&c.slots[slot].key), Some(&slot));
                prev = slot;
                slot = c.slots[slot].next;
                count += 1;
            }
            assert_eq!(prev, c.tail);
            assert_eq!(count, c.len(), "list/map diverged at step {i}");
        }
    }
}
