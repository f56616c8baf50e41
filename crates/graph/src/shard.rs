//! Consistent-hashing node→shard assignment.
//!
//! Reverse k-ranks answers are global shortest-path facts, so every
//! shard of a serving fleet is a full replica of the graph and answers
//! every query in full. The map names each node's *owning* replica: `rkr
//! shard-plan` prints it, and routing a query to its owner is the use it
//! is kept for. The one consumer of a [`ShardSlice`] as a candidate
//! filter is `rkranks_core`'s sharded context, which only the engine
//! probe and its tests build; serving never narrows a context to a
//! slice.
//!
//! The assignment is Jump Consistent Hash (Lamping & Veach, "A Fast,
//! Minimal Memory, Consistent Hash Algorithm") over a seeded
//! splitmix64 of the node id:
//!
//! * **deterministic across processes** — pure integer arithmetic on
//!   `(seed, node, shards)`, no tables, no allocation, so a planner, a
//!   shard, and a coordinator built at different times agree exactly;
//! * **balanced** — assignments are statistically uniform, so shard
//!   loads stay within a small factor of each other;
//! * **minimal movement** — growing `n` shards to `n + 1` moves only
//!   `~1/(n+1)` of the keys, all of them onto the new shard; shrinking
//!   moves only the removed shard's keys.

use crate::node::NodeId;

/// A deterministic, seeded node→shard map (Jump Consistent Hash).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    seed: u64,
}

impl ShardMap {
    /// A map over `shards` shards (must be ≥ 1) mixed with `seed`.
    ///
    /// Two processes constructing a `ShardMap` with the same arguments
    /// agree on every assignment — that is the contract the coordinator
    /// relies on.
    pub fn new(shards: u32, seed: u64) -> ShardMap {
        assert!(shards >= 1, "a shard map needs at least one shard");
        ShardMap { shards, seed }
    }

    /// Number of shards this map distributes over.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The seed mixed into every assignment.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `node`, in `0..shards`.
    #[inline]
    pub(crate) fn shard_of(&self, node: NodeId) -> u32 {
        jump_hash(splitmix64(self.seed ^ u64::from(node.0)), self.shards)
    }

    /// The slice of this map owned by shard `index`.
    ///
    /// Panics if `index` is out of range.
    pub fn slice(&self, index: u32) -> ShardSlice {
        assert!(
            index < self.shards,
            "shard index {index} out of range for {} shards",
            self.shards
        );
        ShardSlice {
            index,
            shards: self.shards,
            seed: self.seed,
        }
    }

    /// Per-shard owned-node counts over `0..num_nodes` — the balance
    /// profile `rkr shard-plan` reports.
    pub fn load_profile(&self, num_nodes: u32) -> Vec<u64> {
        let mut counts = vec![0u64; self.shards as usize];
        for v in 0..num_nodes {
            counts[self.shard_of(NodeId(v)) as usize] += 1;
        }
        counts
    }
}

/// One shard's view of a [`ShardMap`]: "am I the owner of this node?"
///
/// `Copy` and three words wide, so the query engine can carry it into
/// the per-pop candidate gate without indirection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSlice {
    index: u32,
    shards: u32,
    seed: u64,
}

impl ShardSlice {
    /// The slice for shard `index` of `shards` under `seed`.
    ///
    /// Panics unless `index < shards`.
    pub fn new(index: u32, shards: u32, seed: u64) -> ShardSlice {
        ShardMap::new(shards, seed).slice(index)
    }

    /// This shard's index, in `0..shards`.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total shard count in the map this slice came from.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The map's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The whole map this slice belongs to.
    pub fn map(&self) -> ShardMap {
        ShardMap::new(self.shards, self.seed)
    }

    /// `true` when this shard owns `node` (may refine/return it).
    #[inline]
    pub fn owns(&self, node: NodeId) -> bool {
        self.shards == 1 || self.map().shard_of(node) == self.index
    }
}

/// SplitMix64 finalizer — a fast, well-mixed 64-bit hash.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Jump Consistent Hash: maps `key` to a bucket in `0..buckets` such
/// that growing the bucket count only ever moves keys into the new
/// last bucket.
#[inline]
fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        // The original algorithm's floating-point step: (b + 1) *
        // (2^31 / (top 31 bits of key + 1)), exact in f64.
        j = (((b + 1) as f64) * ((1u64 << 31) as f64 / ((key >> 33) + 1) as f64)) as i64;
    }
    b as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_shard_owns_everything() {
        let m = ShardMap::new(1, 42);
        let s = m.slice(0);
        for v in 0..1000 {
            assert_eq!(m.shard_of(NodeId(v)), 0);
            assert!(s.owns(NodeId(v)));
        }
    }

    #[test]
    fn slices_partition_the_node_space() {
        let m = ShardMap::new(4, 0xC0FFEE);
        let slices: Vec<_> = (0..4).map(|i| m.slice(i)).collect();
        for v in 0..5000 {
            let owners = slices.iter().filter(|s| s.owns(NodeId(v))).count();
            assert_eq!(owners, 1, "node {v} owned by {owners} shards");
        }
    }

    #[test]
    fn load_profile_matches_shard_of() {
        let m = ShardMap::new(3, 7);
        let profile = m.load_profile(4096);
        assert_eq!(profile.iter().sum::<u64>(), 4096);
        for (i, &c) in profile.iter().enumerate() {
            let direct = (0..4096)
                .filter(|&v| m.shard_of(NodeId(v)) == i as u32)
                .count() as u64;
            assert_eq!(c, direct);
        }
    }

    #[test]
    fn known_vectors_pin_the_hash_across_builds() {
        // Frozen outputs: a silent change to the mixing or jump loop
        // would strand every persisted shard plan, so these exact
        // values are part of the format.
        let m = ShardMap::new(8, 0xDEAD_BEEF);
        let got: Vec<u32> = (0..16).map(|v| m.shard_of(NodeId(v))).collect();
        assert_eq!(got, vec![6, 0, 0, 1, 1, 3, 1, 0, 1, 4, 2, 6, 3, 1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardMap::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_is_rejected() {
        ShardMap::new(2, 1).slice(2);
    }

    proptest! {
        /// Balance: with thousands of keys over a handful of shards the
        /// max/min shard load ratio stays small.
        #[test]
        fn prop_balance_bounded(seed in any::<u64>(), shards in 2u32..8) {
            let m = ShardMap::new(shards, seed);
            let profile = m.load_profile(20_000);
            let max = *profile.iter().max().unwrap() as f64;
            let min = *profile.iter().min().unwrap() as f64;
            prop_assert!(min > 0.0, "an empty shard at 20k keys");
            prop_assert!(
                max / min < 1.35,
                "imbalanced: profile {profile:?} ratio {}",
                max / min
            );
        }

        /// Determinism: a freshly constructed map (as another process
        /// would build it from the same plan) agrees on every key.
        #[test]
        fn prop_deterministic_across_constructions(
            seed in any::<u64>(),
            shards in 1u32..16,
            node in 0u32..1_000_000,
        ) {
            let a = ShardMap::new(shards, seed);
            let b = ShardMap::new(shards, seed);
            prop_assert_eq!(a.shard_of(NodeId(node)), b.shard_of(NodeId(node)));
            let s = b.slice(a.shard_of(NodeId(node)));
            prop_assert!(s.owns(NodeId(node)));
        }

        /// Minimal movement: adding one shard only moves keys onto the
        /// new shard; removing it moves only that shard's keys back.
        #[test]
        fn prop_minimal_movement_on_resize(seed in any::<u64>(), shards in 1u32..8) {
            let before = ShardMap::new(shards, seed);
            let after = ShardMap::new(shards + 1, seed);
            let mut moved = 0u32;
            const N: u32 = 10_000;
            for v in 0..N {
                let (a, b) = (before.shard_of(NodeId(v)), after.shard_of(NodeId(v)));
                if a != b {
                    // every move lands on the newly added shard
                    prop_assert_eq!(b, shards, "key {} moved {} -> {}", v, a, b);
                    moved += 1;
                }
            }
            // ~N/(shards+1) keys move; allow a wide statistical margin.
            let expected = N / (shards + 1);
            prop_assert!(moved > expected / 2, "moved {moved}, expected ~{expected}");
            prop_assert!(moved < expected * 2, "moved {moved}, expected ~{expected}");
        }

        /// Different seeds shuffle assignments (maps are genuinely
        /// seeded, not seed-blind).
        #[test]
        fn prop_seed_changes_assignments(seed in any::<u64>()) {
            let a = ShardMap::new(4, seed);
            let b = ShardMap::new(4, seed ^ 0x5DEECE66D);
            let differing = (0..2_000)
                .filter(|&v| a.shard_of(NodeId(v)) != b.shard_of(NodeId(v)))
                .count();
            prop_assert!(differing > 500, "only {differing}/2000 assignments changed");
        }
    }
}
