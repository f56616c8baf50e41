//! Query results and the `R` / `kRank` top-k collector.
//!
//! Algorithms 1 and 3 maintain "the set R of the nodes with the lowest
//! Rank values" and its k-th value `kRank`, which doubles as the global
//! pruning bound. [`TopKCollector`] implements exactly that: a bounded
//! max-heap keyed by rank where only *strict* improvements displace
//! entries, so earlier-discovered nodes win rank ties (Definition 2 allows
//! any tie-break; ours is deterministic given the traversal order).
//!
//! A collector may also carry a **guess** `G` for the final `kRank` (the
//! SDS driver's kRank ladder, see [`crate::context`]): pruning then
//! uses [`TopKCollector::prune_bound`] = `min(kRank, G + 1)` — "act as if
//! `R` already proved `kRank ≤ G`" — while [`TopKCollector::k_rank`] keeps
//! reporting the real k-th rank, and [`TopKCollector::proves_guess`] says
//! whether `R` ended up proving what was assumed.

use std::collections::BinaryHeap;

use rkranks_graph::NodeId;

use crate::stats::QueryStats;

/// One result entry: a node and its exact `Rank(node, q)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultEntry {
    /// The result node (ranks `q` at position `rank`).
    pub node: NodeId,
    /// `Rank(node, q)`.
    pub rank: u32,
}

/// The answer to a reverse k-ranks query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Up to `k` entries, sorted by `(rank, node)`. Fewer than `k` only if
    /// fewer than `k` candidates can reach the query node.
    pub entries: Vec<ResultEntry>,
    /// Performance counters for this query.
    pub stats: QueryStats,
}

impl QueryResult {
    /// The result nodes in `(rank, node)` order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.node).collect()
    }

    /// The multiset of ranks in ascending order.
    pub fn ranks(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.rank).collect()
    }

    /// `true` if `node` is among the results.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }
}

/// Bounded collector for the `k` smallest-rank nodes.
#[derive(Debug)]
pub struct TopKCollector {
    k: usize,
    /// Assumed upper bound on the final `kRank` (`u32::MAX`: none).
    guess: u32,
    // max-heap on (rank, node): the root is the current kRank entry.
    heap: BinaryHeap<(u32, NodeId)>,
}

impl TopKCollector {
    /// Collector for `k ≥ 1` results.
    pub fn new(k: u32) -> Self {
        Self::with_guess(k, u32::MAX)
    }

    /// Collector for `k ≥ 1` results whose pruning bound is clamped as if
    /// the final `kRank` were known to be at most `guess`. The caller must
    /// discard the pass unless [`TopKCollector::proves_guess`] holds at its
    /// end. `u32::MAX` means no guess.
    pub(crate) fn with_guess(k: u32, guess: u32) -> Self {
        TopKCollector {
            k: k as usize,
            guess,
            heap: BinaryHeap::with_capacity(k as usize + 1),
        }
    }

    /// Current `kRank` bound: the k-th smallest rank seen so far, or
    /// `u32::MAX` while fewer than `k` entries are held.
    ///
    /// Refinements may run while their running count is ≤ `kRank`
    /// (Algorithm 2 prunes strictly above it).
    #[inline]
    pub fn k_rank(&self) -> u32 {
        if self.heap.len() < self.k {
            u32::MAX
        } else {
            self.heap.peek().map_or(u32::MAX, |&(r, _)| r)
        }
    }

    /// The bound candidates are pruned against: the real `kRank`, clamped
    /// to `guess + 1` so that exactly the candidates ranked above the
    /// guess become useless (pruning is `lower bound ≥ bound`, refinement
    /// aborts strictly above it — the same semantics `kRank` has).
    #[inline]
    pub(crate) fn prune_bound(&self) -> u32 {
        self.k_rank().min(self.guess.saturating_add(1))
    }

    /// `true` when every prune made under [`TopKCollector::prune_bound`]
    /// is justified in hindsight: `R` is full and its real k-th rank is
    /// within the guess, so each bound used was ≥ the final `kRank`.
    /// Always `true` without a guess.
    pub(crate) fn proves_guess(&self) -> bool {
        self.guess == u32::MAX || self.k_rank() <= self.guess
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer a `(node, rank)` pair. Returns `true` if it entered `R`
    /// (callers must not offer the same node twice — the SDS traversal
    /// visits each candidate at most once, and index-known nodes are never
    /// re-refined).
    pub fn offer(&mut self, node: NodeId, rank: u32) -> bool {
        debug_assert!(
            !self.heap.iter().any(|&(_, n)| n == node),
            "node {node} offered twice to the collector"
        );
        if self.heap.len() < self.k {
            self.heap.push((rank, node));
            true
        } else if rank < self.k_rank() {
            self.heap.pop();
            self.heap.push((rank, node));
            true
        } else {
            false
        }
    }

    /// Finish: produce the sorted result with the given stats.
    pub fn into_result(self, stats: QueryStats) -> QueryResult {
        let mut entries: Vec<ResultEntry> = self
            .heap
            .into_iter()
            .map(|(rank, node)| ResultEntry { node, rank })
            .collect();
        entries.sort_unstable_by_key(|e| (e.rank, e.node));
        QueryResult { entries, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_k_smallest() {
        let mut c = TopKCollector::new(2);
        assert_eq!(c.k_rank(), u32::MAX);
        assert!(c.offer(NodeId(10), 5));
        assert!(c.offer(NodeId(11), 9));
        assert_eq!(c.k_rank(), 9);
        assert!(c.offer(NodeId(12), 3)); // displaces rank 9
        assert_eq!(c.k_rank(), 5);
        assert!(!c.offer(NodeId(13), 6)); // not better than kRank
        let r = c.into_result(QueryStats::default());
        assert_eq!(r.ranks(), vec![3, 5]);
        assert_eq!(r.nodes(), vec![NodeId(12), NodeId(10)]);
    }

    #[test]
    fn ties_do_not_displace() {
        let mut c = TopKCollector::new(1);
        assert!(c.offer(NodeId(1), 4));
        assert!(!c.offer(NodeId(2), 4)); // tie: first stays
        let r = c.into_result(QueryStats::default());
        assert_eq!(r.nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn result_ordering_breaks_rank_ties_by_node() {
        let mut c = TopKCollector::new(3);
        c.offer(NodeId(9), 2);
        c.offer(NodeId(3), 2);
        c.offer(NodeId(5), 1);
        let r = c.into_result(QueryStats::default());
        assert_eq!(r.nodes(), vec![NodeId(5), NodeId(3), NodeId(9)]);
        assert_eq!(r.ranks(), vec![1, 2, 2]);
    }

    #[test]
    fn under_filled_collector() {
        let mut c = TopKCollector::new(5);
        c.offer(NodeId(0), 7);
        assert_eq!(c.len(), 1);
        assert_eq!(c.k_rank(), u32::MAX);
        let r = c.into_result(QueryStats::default());
        assert_eq!(r.entries.len(), 1);
    }

    #[test]
    fn result_helpers() {
        let mut c = TopKCollector::new(2);
        c.offer(NodeId(4), 1);
        c.offer(NodeId(6), 2);
        let r = c.into_result(QueryStats::default());
        assert!(r.contains(NodeId(4)));
        assert!(!r.contains(NodeId(5)));
    }
}
