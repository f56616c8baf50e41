//! The dynamically refined reverse k-ranks index (§5).
//!
//! Components (Figure 3):
//!
//! * **Hubs** — `H` nodes selected by one of three strategies (§5.1); each
//!   hub's `M`-prefix of its distance-ordered node list is precomputed.
//! * **Check Dictionary** — `check[u]` is a proven lower bound on
//!   `Rank(u, v)` for every `v` that `u`'s (possibly truncated) SSSP runs
//!   have *not* yet enumerated: "if `u` is not in the Reverse Rank
//!   Dictionary of `q` and `check[u] ≥ kRank`, `u` can be pruned" (§5.3).
//! * **Reverse Rank Dictionary** — `rrd[v]` holds the best `K` known exact
//!   `(rank, source)` pairs for `v` ("the current reverse K-ranks result
//!   list of `v`"), seeding `R` and `kRank` at query time.
//!
//! The index is *dynamic*: every rank refinement executed by a query feeds
//! its discoveries back (Algorithm 4), so the index sharpens as queries
//! flow (Table 14).
//!
//! ### Soundness of the check-dictionary prune (ties included)
//!
//! Invariant maintained by every writer: if `(u → v)` was never offered to
//! `rrd[v]`, then `Rank(u, v) ≥ check[u]`. The prune needs one more case:
//! `u` *was* offered to `rrd[q]` but later evicted. Eviction means `K`
//! entries with ranks ≤ `Rank(u, q)` remain, and since queries require
//! `k ≤ K`, the seeded `kRank` is at most the K-th of those, hence
//! `Rank(u, q) ≥ kRank` — `u` still cannot strictly improve the result.
//! Both cases make the §5.3 prune safe; this is why [`RkrIndex`] refuses
//! queries with `k > k_max`.
//!
//! ### The build stops at its `M`-th nearest node
//!
//! [`RkrIndex::build`] runs each hub's `M`-truncated SSSP (§5.2) on
//! [`BoundedBrowser`] with `limit = M` and `counted = spec.is_counted`: a
//! settled node's row is relaxed only while `d + w ≤ τ`, where `τ` is the
//! `M`-th smallest insertion-time tentative distance among the counted
//! nodes discovered so far (`∞` before there are `M`), so the frontier
//! that a truncated run throws away at its `M`-th settle is never built.
//! The bound is exact: `M` distinct counted nodes have final distance ≤
//! `τ`, so the `M`-th nearest is within `τ`; every node within `τ` has all
//! its shortest-path prefixes within `τ` and is found with its exact
//! distance; hence the first `M` counted settles carry the distances and
//! ranks of the unbounded run. **Tie rule:** the cut is strict, so the tie
//! group at the `M`-th distance is discovered whole and the frontier peek
//! behind every Check-dictionary value sees a pending tie exactly when the
//! unbounded run would; *which* members of a tie group straddling the cut
//! are enumerated is heap order, arbitrary with and without the bound.
//! [`IndexBuildStats::relaxations`] and [`IndexBuildStats::pushes`] report
//! the work next to the settle count.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rkranks_graph::centrality::{closeness_sampled, top_by_score, top_degree_nodes};
use rkranks_graph::RankCounter;
use rkranks_graph::{BoundedBrowser, DijkstraWorkspace, Graph, NodeId};

use crate::spec::QuerySpec;

/// Hub-selection strategies (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HubStrategy {
    /// Uniformly random hubs (the paper's baseline).
    Random,
    /// Highest out-degree first — the paper's overall winner (Table 10).
    DegreeFirst,
    /// Highest (sampled) closeness centrality first.
    ClosenessFirst,
}

impl HubStrategy {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            HubStrategy::Random => "Random",
            HubStrategy::DegreeFirst => "Degree First",
            HubStrategy::ClosenessFirst => "Closeness First",
        }
    }
}

/// Index construction parameters (Table 5: `h`, `m`, `K`, strategy).
#[derive(Clone, Debug)]
pub struct IndexParams {
    /// Hub fraction `h = H / |V|` (paper default 0.1).
    pub hub_fraction: f64,
    /// Prefix fraction `m = M / |V|` (paper default 0.1).
    pub prefix_fraction: f64,
    /// Largest supported query `k` (the paper's `K`).
    pub k_max: u32,
    /// Hub-selection strategy (paper default Degree First).
    pub strategy: HubStrategy,
    /// Source samples for the closeness approximation (§5.1 cites sampling
    /// because exact closeness costs `O(|V|·|E|)`).
    pub closeness_samples: usize,
    /// RNG seed (Random strategy and closeness sampling).
    pub seed: u64,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            hub_fraction: 0.1,
            prefix_fraction: 0.1,
            k_max: 100,
            strategy: HubStrategy::DegreeFirst,
            closeness_samples: 16,
            seed: 0x5eed,
        }
    }
}

/// Construction-time statistics (Table 15's data).
#[derive(Clone, Debug, Default)]
pub struct IndexBuildStats {
    /// Number of hubs selected (`H`).
    pub hubs: u32,
    /// Per-hub SSSP prefix length (`M`).
    pub prefix: u32,
    /// Wall-clock build time.
    pub build_time: Duration,
    /// Total nodes settled across all hub SSSPs (the hubs themselves
    /// excluded).
    pub settles: u64,
    /// Total edges relaxed across all hub SSSPs. Each settle also pays at
    /// most one failed cut-off test, which is not an edge relaxed.
    pub relaxations: u64,
    /// Total frontier insertions across all hub SSSPs.
    pub pushes: u64,
}

impl IndexBuildStats {
    /// Edges relaxed per settled node — the build's waste gauge: an
    /// unbounded traversal pays the mean degree of the settled nodes (≈ 200
    /// from degree-first hubs), the bounded one little more than the edges
    /// that feed its `M` settles.
    pub fn edges_per_settle(&self) -> f64 {
        self.relaxations as f64 / self.settles.max(1) as f64
    }
}

impl std::fmt::Display for IndexBuildStats {
    /// `H hubs x prefix M: S settles, E edges/settle, built in T`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hubs x prefix {}: {} settles, {:.2} edges/settle, built in {:.2?}",
            self.hubs,
            self.prefix,
            self.settles,
            self.edges_per_settle(),
            self.build_time
        )
    }
}

/// The two-dictionary index of §5.2.
#[derive(Clone, Debug)]
pub struct RkrIndex {
    k_max: u32,
    /// `check[u]`: every unenumerated `v` has `Rank(u,v) ≥ check[u]`.
    check: Vec<u32>,
    /// `rrd[v]`: best `K` known `(rank, source)` pairs, sorted ascending.
    rrd: Vec<Vec<(u32, NodeId)>>,
    hubs: Vec<NodeId>,
    /// Version counter: bumped once per [`RkrIndex::merge_delta`] that
    /// changed index state. Serving layers key result caches on it, so
    /// every state-changing merge invalidates exactly the entries computed
    /// against older index states — while no-op merges (warm queries
    /// re-discovering known ranks) leave caches warm.
    epoch: u64,
    /// The graph epoch (`rkranks_graph::GraphStore::graph_epoch`) this
    /// index's knowledge is valid for. Every entry is a claim about *one*
    /// graph; see [`RkrIndex::graph_epoch`] for the invalidation rule.
    graph_epoch: u64,
}

impl RkrIndex {
    /// An empty index (every query falls back to pure dynamic search, but
    /// still records its discoveries — useful for the Table 14 study).
    pub fn empty(num_nodes: u32, k_max: u32) -> RkrIndex {
        RkrIndex {
            k_max,
            check: vec![0; num_nodes as usize],
            rrd: vec![Vec::new(); num_nodes as usize],
            hubs: Vec::new(),
            epoch: 0,
            graph_epoch: 0,
        }
    }

    /// Build the index by running an `M`-truncated SSSP from each hub
    /// (§5.2). `spec` controls the bichromatic variant: hubs come from the
    /// candidate class and only counted nodes are enumerated/ranked.
    pub fn build(
        graph: &Graph,
        spec: QuerySpec<'_>,
        params: &IndexParams,
    ) -> (RkrIndex, IndexBuildStats) {
        Self::build_parallel(graph, spec, params, 1)
    }

    /// [`RkrIndex::build`] with the hub SSSPs fanned out over `threads`
    /// worker threads.
    ///
    /// The result is bit-identical to the sequential build: the Reverse
    /// Rank Dictionary keeps the K smallest `(rank, source)` pairs (a
    /// set, not an order-sensitive structure) and the Check Dictionary is
    /// a per-node max, so merge order cannot matter.
    pub fn build_parallel(
        graph: &Graph,
        spec: QuerySpec<'_>,
        params: &IndexParams,
        threads: usize,
    ) -> (RkrIndex, IndexBuildStats) {
        let start = Instant::now();
        let n = graph.num_nodes();
        let hub_count = ((n as f64 * params.hub_fraction).round() as u32).clamp(1, n);
        let prefix = ((n as f64 * params.prefix_fraction).round() as u32).clamp(1, n);

        let hubs = select_hubs(graph, spec, params, hub_count);
        let threads = threads.clamp(1, hubs.len().max(1));
        let chunk = hubs.len().div_ceil(threads).max(1);
        let mut partials: Vec<(RkrIndex, IndexBuildStats)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = hubs
                .chunks(chunk)
                .map(|chunk| {
                    s.spawn(move || {
                        let mut part = RkrIndex::empty(n, params.k_max);
                        let mut ws = DijkstraWorkspace::new(n);
                        let mut work = IndexBuildStats::default();
                        for &hub in chunk {
                            part.enumerate_from(graph, spec, &mut ws, hub, prefix, &mut work);
                        }
                        (part, work)
                    })
                })
                .collect();
            for h in handles {
                partials.push(h.join().expect("index build worker panicked"));
            }
        });
        // The first worker's index is the base, taken whole; the rest
        // merge into it, and the work counters sum over workers.
        let mut partials = partials.into_iter();
        let (mut index, mut stats) = partials
            .next()
            .unwrap_or_else(|| (RkrIndex::empty(n, params.k_max), IndexBuildStats::default()));
        for (part, work) in partials {
            stats.settles += work.settles;
            stats.relaxations += work.relaxations;
            stats.pushes += work.pushes;
            index.merge_from(&part);
        }
        index.hubs = hubs;
        stats.hubs = hub_count;
        stats.prefix = prefix;
        stats.build_time = start.elapsed();
        (index, stats)
    }

    /// Apply a write-log produced by snapshot-mode queries
    /// ([`IndexAccess::Snapshot`]).
    ///
    /// Merge order cannot affect the merged state: the Reverse Rank
    /// Dictionary keeps the K smallest `(rank, source)` pairs and the
    /// Check Dictionary is a per-node max. Soundness of the §5.3 prune is
    /// preserved too — every check raise logged by a refinement of `p` is
    /// accompanied by offers for all newly enumerated nodes below it, and
    /// nodes below the *snapshot's* `check[p]` were already offered to the
    /// snapshot (that is the check dictionary's own invariant), so the
    /// merged index never claims a bound it cannot prove.
    ///
    /// **Precondition:** `self` must contain the knowledge of the snapshot
    /// the delta was logged against — i.e. be that snapshot's owner, or an
    /// index that has since absorbed more offers/raises. Merging into an
    /// unrelated index of the same dimensions (e.g. a fresh
    /// [`RkrIndex::empty`]) imports check raises whose below-the-raise rrd
    /// offers live only in the original snapshot, which breaks the prune
    /// invariant above. The shape asserts below cannot detect that misuse.
    ///
    /// **Graph-epoch soundness.** Order-independence (above) holds only
    /// *within one graph*. A delta logged against a different graph epoch
    /// is **silently dropped** here, and that is the only sound choice:
    /// index entries are claims of the form "`Rank(p, q) = r` on graph
    /// `G`" (exact-rank dictionary hits) and "`Rank(u, v) ≥ check[u]` for
    /// every unenumerated `v`" (check prunes). An edge insertion can only
    /// *shrink* shortest-path distances, so a rank recorded on the old
    /// graph can be wrong in either direction on the new one — stale
    /// entries would be served as exact answers and stale check bounds
    /// would prune true results. There is no delta that "repairs" an index
    /// across a graph change, which is why a graph-epoch bump must
    /// **retire** the index (start a fresh [`RkrIndex::empty`] tagged with
    /// the new epoch via [`RkrIndex::set_graph_epoch`]) rather than merge
    /// into it — dropping knowledge is always sound, the index being a
    /// pure prune-accelerator that queries never *depend* on for
    /// correctness of the search itself.
    pub fn merge_delta(&mut self, delta: &IndexDelta) {
        assert_eq!(self.num_nodes(), delta.num_nodes, "node universe mismatch");
        assert_eq!(self.k_max, delta.k_max, "k_max mismatch");
        if delta.graph_epoch != self.graph_epoch {
            // Logged against a different graph: unsound to merge, safe to
            // drop (see the doc-comment above).
            return;
        }
        let mut changed = false;
        for (&u, &c) in &delta.check_raises {
            changed |= self.raise_check(u, c);
        }
        for &(target, source, rank) in &delta.offers {
            changed |= self.offer(target, source, rank);
        }
        // A no-op merge (a warm query re-discovering known ranks) must not
        // advance the epoch: downstream caches key on it, and invalidating
        // them over a merge that changed nothing would churn them forever
        // on a steady-state workload.
        if changed {
            self.epoch += 1;
        }
    }

    /// Fold another index's knowledge into this one (both must cover the
    /// same node universe and `k_max`).
    pub(crate) fn merge_from(&mut self, other: &RkrIndex) {
        assert_eq!(
            self.num_nodes(),
            other.num_nodes(),
            "node universe mismatch"
        );
        assert_eq!(self.k_max, other.k_max, "k_max mismatch");
        for (u, c) in other.check_entries() {
            self.raise_check(u, c);
        }
        for (target, list) in other.rrd_lists() {
            for &(rank, source) in list {
                self.offer(target, source, rank);
            }
        }
    }

    /// Run a truncated SSSP from `source`, enumerating up to `limit`
    /// counted nodes, offering each to the Reverse Rank Dictionary and
    /// raising `check[source]`. The traversal is bounded by its own
    /// `limit`-th nearest counted node (module docs); its settles, edges
    /// relaxed and pushes are added to `work`.
    ///
    /// This is the build-time primitive; query-time refinements use the
    /// incremental hooks ([`RkrIndex::offer`] / [`RkrIndex::raise_check`])
    /// because their traversal is interleaved with pruning logic.
    fn enumerate_from(
        &mut self,
        graph: &Graph,
        spec: QuerySpec<'_>,
        ws: &mut DijkstraWorkspace,
        source: NodeId,
        limit: u32,
        work: &mut IndexBuildStats,
    ) {
        let mut counter = RankCounter::new();
        let mut browser =
            BoundedBrowser::new(graph, ws, source, limit as usize, |v| spec.is_counted(v));
        loop {
            let Some((v, d)) = browser.next() else {
                // Nothing left within the cut-off. Short of `limit` that is
                // the whole reachable set; at `limit` the loop has left
                // below.
                self.raise_check(source, counter.unsettled_rank_lower_bound(None));
                break;
            };
            work.settles += 1;
            if !spec.is_counted(v) {
                continue;
            }
            let r = counter.on_settle(d);
            self.offer(v, source, r);
            if counter.settled() >= limit {
                let next = browser.workspace().peek_frontier().map(|(_, d)| d);
                self.raise_check(source, counter.unsettled_rank_lower_bound(next));
                break;
            }
        }
        work.relaxations += browser.relaxations();
        work.pushes += browser.pushes();
    }

    /// Largest query `k` this index supports.
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// Index version: the number of state-changing write-log merges this
    /// index has absorbed via [`RkrIndex::merge_delta`].
    ///
    /// The epoch orders index states for serving-side caches: a result
    /// computed (or cached) at epoch `e` reflects everything the index knew
    /// through its `e`-th effective merge, and an unchanged epoch
    /// guarantees an unchanged index. It is runtime state —
    /// [`save_index`](crate::save_index) does not persist it, so a freshly
    /// loaded index restarts at 0 — and build-time merges
    /// (`RkrIndex::merge_from`) leave it alone.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The graph epoch this index is valid for (0 for indexes built or
    /// loaded against a static graph).
    ///
    /// The invalidation rule: when the serving graph commits to a new
    /// epoch, this index — and every unmerged [`IndexDelta`] logged
    /// against it — is *retired*, never merged forward (the soundness
    /// argument lives on [`RkrIndex::merge_delta`]).
    /// [`save_index`](crate::save_index) does not persist this tag: a
    /// loaded index belongs to whatever graph the caller loads next, which
    /// restarts at epoch 0.
    pub fn graph_epoch(&self) -> u64 {
        self.graph_epoch
    }

    /// Tag this index as valid for graph epoch `e` (used when retiring an
    /// index after a graph commit: the replacement `empty` index carries
    /// the new epoch so stale deltas can never fold into it).
    pub fn set_graph_epoch(&mut self, e: u64) {
        self.graph_epoch = e;
    }

    /// Restore the version counter ([`RkrIndex::epoch`]) to `e`.
    ///
    /// Only snapshot restore uses this: the epoch is runtime state keying
    /// serving-side caches, and a restarted daemon that resumes at the
    /// persisted epoch keeps the "unchanged epoch ⇒ unchanged index"
    /// guarantee across the restart. Everything else lets the counter
    /// advance through [`RkrIndex::merge_delta`] alone.
    pub(crate) fn set_epoch(&mut self, e: u64) {
        self.epoch = e;
    }

    /// The hub nodes used at build time.
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }

    /// Check-dictionary value for `u`.
    #[inline]
    pub fn check(&self, u: NodeId) -> u32 {
        self.check[u.index()]
    }

    /// Raise `check[u]` to at least `val` (check values only ever grow).
    /// Returns whether the stored value actually moved.
    #[inline]
    pub fn raise_check(&mut self, u: NodeId, val: u32) -> bool {
        let slot = &mut self.check[u.index()];
        if val > *slot {
            *slot = val;
            true
        } else {
            false
        }
    }

    /// Exact `Rank(source, target)` if the index knows it.
    #[inline]
    pub fn lookup(&self, target: NodeId, source: NodeId) -> Option<u32> {
        self.rrd[target.index()]
            .iter()
            .find(|&&(_, s)| s == source)
            .map(|&(r, _)| r)
    }

    /// The best `limit` known `(rank, source)` pairs for `target`.
    pub fn top_entries(&self, target: NodeId, limit: u32) -> &[(u32, NodeId)] {
        let list = &self.rrd[target.index()];
        &list[..list.len().min(limit as usize)]
    }

    /// Offer an exact `(source, rank)` observation for `target`, keeping
    /// the best `K` entries. Duplicate sources keep their (identical —
    /// ranks are exact) first entry. Returns whether the list changed.
    pub fn offer(&mut self, target: NodeId, source: NodeId, rank: u32) -> bool {
        let list = &mut self.rrd[target.index()];
        // Fast reject: full and not better than the current worst — listed
        // already or not, `source` leaves the list as it is.
        if list.len() == self.k_max as usize && list.last().is_some_and(|&(worst, _)| rank >= worst)
        {
            return false;
        }
        if list.iter().any(|&(_, s)| s == source) {
            return false;
        }
        let pos = list.partition_point(|&(r, s)| (r, s) < (rank, source));
        list.insert(pos, (rank, source));
        list.truncate(self.k_max as usize);
        true
    }

    /// Number of entries across all Reverse Rank Dictionary lists.
    pub fn rrd_entries(&self) -> usize {
        self.rrd.iter().map(Vec::len).sum()
    }

    /// Number of nodes this index covers.
    pub fn num_nodes(&self) -> u32 {
        self.check.len() as u32
    }

    /// Iterate non-zero Check Dictionary entries (for serialization and
    /// diagnostics).
    pub(crate) fn check_entries(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.check
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (NodeId(i as u32), c))
    }

    /// Iterate non-empty Reverse Rank Dictionary lists.
    pub(crate) fn rrd_lists(&self) -> impl Iterator<Item = (NodeId, &[(u32, NodeId)])> + '_ {
        self.rrd
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, l)| (NodeId(i as u32), l.as_slice()))
    }

    /// Record the hub set (used by deserialization; normal construction
    /// goes through [`RkrIndex::build`]).
    pub(crate) fn set_hubs(&mut self, hubs: Vec<NodeId>) {
        self.hubs = hubs;
    }

    /// Approximate heap footprint in bytes (Tables 6–9 report index size).
    pub fn heap_bytes(&self) -> usize {
        self.check.len() * size_of::<u32>()
            + self.rrd.capacity() * size_of::<Vec<(u32, NodeId)>>()
            + self
                .rrd
                .iter()
                .map(|l| l.capacity() * size_of::<(u32, NodeId)>())
                .sum::<usize>()
    }
}

/// A per-query (or per-worker) write-log of index discoveries.
///
/// Snapshot-mode queries read a frozen [`RkrIndex`] and append every
/// would-be mutation here; [`RkrIndex::merge_delta`] folds the log back
/// in. Logs from concurrent workers can be merged in any order — the
/// index state they produce is identical. No product path runs snapshot
/// mode (the paper's §5 stream binds [`IndexAccess::Live`]); the
/// benchmark's probe times it.
#[derive(Clone, Debug)]
pub struct IndexDelta {
    k_max: u32,
    num_nodes: u32,
    /// Graph epoch of the snapshot this delta was logged against
    /// (inherited by [`IndexDelta::for_index`]). A delta only ever merges
    /// into an index of the same graph epoch — see
    /// [`RkrIndex::merge_delta`].
    graph_epoch: u64,
    /// `(target, source, rank)` exact-rank observations (Algorithm 4's
    /// Reverse Rank Dictionary writes).
    offers: Vec<(NodeId, NodeId, u32)>,
    /// Max Check Dictionary raise per node. Kept as a per-node max (not a
    /// log) so the worker's own raises can suppress re-offers of already
    /// enumerated nodes within an epoch, like the live index's check does.
    check_raises: HashMap<NodeId, u32>,
}

impl IndexDelta {
    /// An empty delta compatible with `index` (same node universe and `K`).
    pub fn for_index(index: &RkrIndex) -> IndexDelta {
        IndexDelta {
            k_max: index.k_max(),
            num_nodes: index.num_nodes(),
            graph_epoch: index.graph_epoch(),
            offers: Vec::new(),
            check_raises: HashMap::new(),
        }
    }

    /// Log an exact `(source, rank)` observation for `target`.
    #[inline]
    pub fn offer(&mut self, target: NodeId, source: NodeId, rank: u32) {
        self.offers.push((target, source, rank));
    }

    /// Log a Check Dictionary raise for `u` (per-node max).
    #[inline]
    pub fn raise_check(&mut self, u: NodeId, val: u32) {
        let slot = self.check_raises.entry(u).or_insert(0);
        if val > *slot {
            *slot = val;
        }
    }

    /// The max raise logged for `u` (0 when none).
    #[inline]
    pub(crate) fn check_raise(&self, u: NodeId) -> u32 {
        self.check_raises.get(&u).copied().unwrap_or(0)
    }

    /// Number of logged entries (offers + check raises).
    pub fn len(&self) -> usize {
        self.offers.len() + self.check_raises.len()
    }

    /// `true` when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.offers.is_empty() && self.check_raises.is_empty()
    }
}

/// How a query touches index state: the live paper-faithful mode mutates
/// the one [`RkrIndex`] in place; snapshot mode reads a frozen index and
/// logs writes to a private [`IndexDelta`].
#[derive(Debug)]
pub enum IndexAccess<'a> {
    /// §5 as written: reads and writes go to the same evolving index.
    Live(&'a mut RkrIndex),
    /// Frozen reads: reads come from an immutable snapshot, writes go to
    /// the worker's delta for a later [`RkrIndex::merge_delta`].
    Snapshot {
        /// The frozen index all reads consult.
        snapshot: &'a RkrIndex,
        /// The private write-log.
        delta: &'a mut IndexDelta,
    },
}

impl IndexAccess<'_> {
    fn read(&self) -> &RkrIndex {
        match self {
            IndexAccess::Live(idx) => idx,
            IndexAccess::Snapshot { snapshot, .. } => snapshot,
        }
    }

    /// Check-dictionary value for `u`, as usable for the §5.3 *prune*.
    ///
    /// Snapshot reads deliberately ignore the delta here: a delta raise's
    /// below-the-raise offers are not in the snapshot's rrd, so pruning on
    /// them could drop a true result. A stale bound only costs pruning
    /// power, never soundness.
    #[inline]
    pub fn check(&self, u: NodeId) -> u32 {
        self.read().check(u)
    }

    /// The floor below which refinements of `u` skip re-offering
    /// enumerations (the §5.3 "until the rank value exceeds `Check[u]`"
    /// rule). Unlike [`IndexAccess::check`], this *does* consult the
    /// delta's own raises: anything below a raise this worker logged was
    /// already offered to this same delta, so suppressing the duplicate is
    /// safe — and keeps the delta O(distinct discoveries) instead of
    /// O(total refinement settles) within an epoch.
    #[inline]
    pub(crate) fn offer_floor(&self, u: NodeId) -> u32 {
        match self {
            IndexAccess::Live(idx) => idx.check(u),
            IndexAccess::Snapshot { snapshot, delta } => {
                snapshot.check(u).max(delta.check_raise(u))
            }
        }
    }

    /// Largest query `k` the readable index supports
    /// ([`RkrIndex::k_max`]).
    #[inline]
    pub fn k_max(&self) -> u32 {
        self.read().k_max()
    }

    /// Exact `Rank(source, target)` if the readable index knows it.
    #[inline]
    pub fn lookup(&self, target: NodeId, source: NodeId) -> Option<u32> {
        self.read().lookup(target, source)
    }

    /// The best `limit` known `(rank, source)` pairs for `target`.
    pub fn top_entries(&self, target: NodeId, limit: u32) -> &[(u32, NodeId)] {
        self.read().top_entries(target, limit)
    }

    /// Record an exact `(source, rank)` observation for `target`.
    #[inline]
    pub fn offer(&mut self, target: NodeId, source: NodeId, rank: u32) {
        match self {
            IndexAccess::Live(idx) => {
                idx.offer(target, source, rank);
            }
            IndexAccess::Snapshot { delta, .. } => delta.offer(target, source, rank),
        }
    }

    /// Raise `check[u]` to at least `val`.
    #[inline]
    pub fn raise_check(&mut self, u: NodeId, val: u32) {
        match self {
            IndexAccess::Live(idx) => {
                idx.raise_check(u, val);
            }
            IndexAccess::Snapshot { delta, .. } => delta.raise_check(u, val),
        }
    }
}

/// Select `count` hubs from the candidate class by the configured strategy.
fn select_hubs(
    graph: &Graph,
    spec: QuerySpec<'_>,
    params: &IndexParams,
    count: u32,
) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = graph.nodes().filter(|&v| spec.is_candidate(v)).collect();
    let count = (count as usize).min(candidates.len());
    match params.strategy {
        HubStrategy::Random => {
            let mut rng = StdRng::seed_from_u64(params.seed);
            let mut pool = candidates;
            pool.shuffle(&mut rng);
            pool.truncate(count);
            pool.sort_unstable();
            pool
        }
        HubStrategy::DegreeFirst => {
            if spec.is_bichromatic() {
                let scores: Vec<f64> = graph
                    .nodes()
                    .map(|u| {
                        if spec.is_candidate(u) {
                            graph.degree(u) as f64
                        } else {
                            -1.0
                        }
                    })
                    .collect();
                top_by_score(&scores, count)
            } else {
                top_degree_nodes(graph, count)
            }
        }
        HubStrategy::ClosenessFirst => {
            let mut scores = closeness_sampled(graph, params.closeness_samples, params.seed);
            for v in graph.nodes() {
                if !spec.is_candidate(v) {
                    scores[v.index()] = -1.0;
                }
            }
            top_by_score(&scores, count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn line() -> Graph {
        // 0 - 1 - 2 - 3 - 4, unit weights
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn offer_keeps_k_best_sorted() {
        let mut idx = RkrIndex::empty(3, 2);
        idx.offer(NodeId(0), NodeId(1), 5);
        idx.offer(NodeId(0), NodeId(2), 3);
        idx.offer(NodeId(0), NodeId(1), 5); // duplicate source ignored
        assert_eq!(
            idx.top_entries(NodeId(0), 10),
            &[(3, NodeId(2)), (5, NodeId(1))]
        );
        // better entry evicts the worst
        idx.offer(NodeId(0), NodeId(0), 1);
        assert_eq!(
            idx.top_entries(NodeId(0), 10),
            &[(1, NodeId(0)), (3, NodeId(2))]
        );
        // worse entry rejected
        idx.offer(NodeId(0), NodeId(1), 9);
        assert_eq!(idx.rrd_entries(), 2);
    }

    #[test]
    fn lookup_finds_exact_ranks() {
        let mut idx = RkrIndex::empty(2, 4);
        idx.offer(NodeId(1), NodeId(0), 7);
        assert_eq!(idx.lookup(NodeId(1), NodeId(0)), Some(7));
        assert_eq!(idx.lookup(NodeId(1), NodeId(1)), None);
        assert_eq!(idx.lookup(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn check_only_grows() {
        let mut idx = RkrIndex::empty(1, 2);
        idx.raise_check(NodeId(0), 5);
        idx.raise_check(NodeId(0), 3);
        assert_eq!(idx.check(NodeId(0)), 5);
    }

    #[test]
    fn build_on_line_graph() {
        let g = line();
        let params = IndexParams {
            hub_fraction: 0.4,    // 2 hubs
            prefix_fraction: 0.4, // prefix 2
            k_max: 3,
            strategy: HubStrategy::DegreeFirst,
            ..Default::default()
        };
        let (idx, stats) = RkrIndex::build(&g, QuerySpec::Mono, &params);
        assert_eq!(stats.hubs, 2);
        assert_eq!(stats.prefix, 2);
        // degree-first hubs on the line: interior nodes first (1, 2, 3 all
        // degree 2 — tie-break by id picks 1 and 2)
        assert_eq!(idx.hubs(), &[NodeId(1), NodeId(2)]);
        // hub 1 enumerated its 2 nearest (0 and 2 at distance 1, shared rank 1)
        assert_eq!(idx.lookup(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(idx.lookup(NodeId(2), NodeId(1)), Some(1));
        // check dictionary: ties at the truncation boundary handled safely
        assert!(idx.check(NodeId(1)) >= 1);
        assert!(idx.check(NodeId(2)) >= 1);
    }

    #[test]
    fn build_enumerates_exact_ranks() {
        let g = line();
        let params = IndexParams {
            hub_fraction: 0.2,    // 1 hub
            prefix_fraction: 1.0, // full enumeration
            k_max: 5,
            strategy: HubStrategy::DegreeFirst,
            ..Default::default()
        };
        let (idx, _) = RkrIndex::build(&g, QuerySpec::Mono, &params);
        let hub = idx.hubs()[0];
        assert_eq!(hub, NodeId(1));
        // Rank(1, v): 0 and 2 tie at rank 1; 3 at rank 3; 4 at rank 4.
        assert_eq!(idx.lookup(NodeId(0), hub), Some(1));
        assert_eq!(idx.lookup(NodeId(2), hub), Some(1));
        assert_eq!(idx.lookup(NodeId(3), hub), Some(3));
        assert_eq!(idx.lookup(NodeId(4), hub), Some(4));
        // exhausted frontier: check = settled + 1
        assert_eq!(idx.check(hub), 5);
    }

    #[test]
    fn random_strategy_is_deterministic_per_seed() {
        let g = line();
        let mk = |seed| {
            let params = IndexParams {
                hub_fraction: 0.4,
                strategy: HubStrategy::Random,
                seed,
                ..Default::default()
            };
            RkrIndex::build(&g, QuerySpec::Mono, &params)
                .0
                .hubs()
                .to_vec()
        };
        assert_eq!(mk(1), mk(1));
    }

    #[test]
    fn closeness_strategy_prefers_center() {
        let g = line();
        let params = IndexParams {
            hub_fraction: 0.2, // 1 hub
            strategy: HubStrategy::ClosenessFirst,
            closeness_samples: 5,
            ..Default::default()
        };
        let (idx, _) = RkrIndex::build(&g, QuerySpec::Mono, &params);
        // node 2 is the exact center of the line
        assert_eq!(idx.hubs(), &[NodeId(2)]);
    }

    #[test]
    fn bichromatic_build_ranks_only_v2() {
        use crate::spec::Partition;
        let g = line();
        // V2 = {0, 4} (the endpoints); candidates are 1, 2, 3.
        let p = Partition::from_v2_nodes(5, &[NodeId(0), NodeId(4)]);
        let spec = QuerySpec::Bichromatic(&p);
        let params = IndexParams {
            hub_fraction: 1.0,
            prefix_fraction: 1.0,
            k_max: 3,
            strategy: HubStrategy::DegreeFirst,
            ..Default::default()
        };
        let (idx, _) = RkrIndex::build(&g, spec, &params);
        // hubs are candidates only
        assert!(idx.hubs().iter().all(|&h| !p.is_v2(h)));
        // Rank(1, 0) counts only V2 nodes: 0 is 1's nearest V2 node -> 1
        assert_eq!(idx.lookup(NodeId(0), NodeId(1)), Some(1));
        // Rank(1, 4): V2 node 0 is closer -> rank 2
        assert_eq!(idx.lookup(NodeId(4), NodeId(1)), Some(2));
        // V2 targets only ever hold candidate sources
        for v in g.nodes() {
            for &(_, s) in idx.top_entries(v, 10) {
                assert!(!p.is_v2(s));
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = line();
        let params = IndexParams {
            hub_fraction: 1.0,
            prefix_fraction: 0.6,
            k_max: 3,
            strategy: HubStrategy::DegreeFirst,
            ..Default::default()
        };
        let (seq, s1) = RkrIndex::build(&g, QuerySpec::Mono, &params);
        let (par, s2) = RkrIndex::build_parallel(&g, QuerySpec::Mono, &params, 3);
        assert_eq!(s1.settles, s2.settles);
        assert_eq!(
            (s1.relaxations, s1.pushes),
            (s2.relaxations, s2.pushes),
            "work counters sum over workers"
        );
        assert!(s1.pushes > 0 && s1.pushes <= s1.relaxations);
        assert_eq!(seq.hubs(), par.hubs());
        assert_eq!(seq.rrd_entries(), par.rrd_entries());
        for u in g.nodes() {
            assert_eq!(seq.check(u), par.check(u), "check[{u}]");
            assert_eq!(seq.top_entries(u, 10), par.top_entries(u, 10), "rrd[{u}]");
        }
    }

    #[test]
    fn merge_combines_knowledge() {
        let mut a = RkrIndex::empty(3, 2);
        a.offer(NodeId(0), NodeId(1), 2);
        a.raise_check(NodeId(1), 3);
        let mut b = RkrIndex::empty(3, 2);
        b.offer(NodeId(0), NodeId(2), 1);
        b.raise_check(NodeId(1), 5);
        a.merge_from(&b);
        assert_eq!(
            a.top_entries(NodeId(0), 10),
            &[(1, NodeId(2)), (2, NodeId(1))]
        );
        assert_eq!(a.check(NodeId(1)), 5);
    }

    #[test]
    fn delta_logs_and_merges() {
        let mut idx = RkrIndex::empty(3, 2);
        let mut delta = IndexDelta::for_index(&idx);
        assert!(delta.is_empty());
        delta.offer(NodeId(0), NodeId(1), 2);
        delta.offer(NodeId(0), NodeId(2), 1);
        delta.raise_check(NodeId(1), 2);
        delta.raise_check(NodeId(1), 5); // coalesced with the previous raise
        delta.raise_check(NodeId(2), 4);
        assert_eq!(delta.len(), 4);
        idx.merge_delta(&delta);
        assert_eq!(
            idx.top_entries(NodeId(0), 10),
            &[(1, NodeId(2)), (2, NodeId(1))]
        );
        assert_eq!(idx.check(NodeId(1)), 5);
        assert_eq!(idx.check(NodeId(2)), 4);
    }

    #[test]
    fn offer_floor_includes_own_delta_raises() {
        let snapshot = RkrIndex::empty(3, 4);
        let mut delta = IndexDelta::for_index(&snapshot);
        {
            let access = IndexAccess::Snapshot {
                snapshot: &snapshot,
                delta: &mut delta,
            };
            assert_eq!(access.offer_floor(NodeId(1)), 0);
        }
        delta.raise_check(NodeId(1), 5);
        let access = IndexAccess::Snapshot {
            snapshot: &snapshot,
            delta: &mut delta,
        };
        // A later refinement of node 1 in the same epoch skips re-offering
        // everything below its own earlier raise...
        assert_eq!(access.offer_floor(NodeId(1)), 5);
        // ...but the prune-side read still sees only the frozen snapshot.
        assert_eq!(access.check(NodeId(1)), 0);
    }

    #[test]
    fn delta_merge_order_is_immaterial() {
        let mk = || RkrIndex::empty(4, 2);
        let mut a = IndexDelta::for_index(&mk());
        a.offer(NodeId(0), NodeId(1), 3);
        a.raise_check(NodeId(1), 2);
        let mut b = IndexDelta::for_index(&mk());
        b.offer(NodeId(0), NodeId(2), 1);
        b.offer(NodeId(0), NodeId(3), 2);
        b.raise_check(NodeId(1), 4);
        let mut ab = mk();
        ab.merge_delta(&a);
        ab.merge_delta(&b);
        let mut ba = mk();
        ba.merge_delta(&b);
        ba.merge_delta(&a);
        for u in 0..4 {
            assert_eq!(ab.check(NodeId(u)), ba.check(NodeId(u)));
            assert_eq!(ab.top_entries(NodeId(u), 10), ba.top_entries(NodeId(u), 10));
        }
    }

    /// The graph-epoch guard: a delta logged against one graph epoch is
    /// silently dropped by an index tagged with another — merging stale
    /// rank claims across a graph change would be unsound (the doc on
    /// `merge_delta` argues why retirement is the only correct move).
    #[test]
    fn merge_delta_drops_cross_graph_epoch_deltas() {
        let mut old_index = RkrIndex::empty(3, 2);
        let mut stale = IndexDelta::for_index(&old_index);
        stale.offer(NodeId(0), NodeId(1), 2);
        stale.raise_check(NodeId(1), 4);

        // the graph committed: the serving layer retires to a fresh index
        // tagged with the new epoch
        let mut retired = RkrIndex::empty(3, 2);
        retired.set_graph_epoch(1);
        retired.merge_delta(&stale);
        assert_eq!(retired.rrd_entries(), 0, "stale offers must not land");
        assert_eq!(retired.check(NodeId(1)), 0, "stale raises must not land");
        assert_eq!(retired.epoch(), 0, "a dropped delta is a no-op merge");

        // same-epoch deltas still merge, and for_index inherits the tag
        let mut fresh = IndexDelta::for_index(&retired);
        fresh.offer(NodeId(0), NodeId(1), 2);
        retired.merge_delta(&fresh);
        assert_eq!(retired.rrd_entries(), 1);

        // ...and the old index still accepts its own-epoch delta
        old_index.merge_delta(&stale);
        assert_eq!(old_index.rrd_entries(), 1);
    }

    #[test]
    fn epoch_counts_state_changing_merges_only() {
        let mut idx = RkrIndex::empty(3, 2);
        assert_eq!(idx.epoch(), 0);
        let empty = IndexDelta::for_index(&idx);
        idx.merge_delta(&empty);
        assert_eq!(idx.epoch(), 0, "empty merges must not invalidate caches");
        let mut delta = IndexDelta::for_index(&idx);
        delta.offer(NodeId(0), NodeId(1), 2);
        idx.merge_delta(&delta);
        assert_eq!(idx.epoch(), 1);
        idx.merge_delta(&delta);
        assert_eq!(
            idx.epoch(),
            1,
            "re-merging known facts must not invalidate caches"
        );
        let mut raise_only = IndexDelta::for_index(&idx);
        raise_only.raise_check(NodeId(2), 3);
        idx.merge_delta(&raise_only);
        assert_eq!(idx.epoch(), 2);
        idx.merge_delta(&raise_only);
        assert_eq!(idx.epoch(), 2, "an already-held check raise is a no-op");
        // build-time merges and clones do not disturb the counter
        let snapshot = idx.clone();
        assert_eq!(snapshot.epoch(), 2);
        let mut fresh = RkrIndex::empty(3, 2);
        fresh.merge_from(&idx);
        assert_eq!(fresh.epoch(), 0);
    }

    /// Merging the same delta twice must not change pruning behavior: the
    /// check dictionary is a per-node max and the Reverse Rank Dictionary
    /// rejects duplicate sources, so a re-merge is a no-op on both
    /// pruning inputs (only the epoch counter moves).
    #[test]
    fn merge_delta_is_idempotent() {
        let mut idx = RkrIndex::empty(5, 3);
        idx.offer(NodeId(0), NodeId(4), 2);
        idx.raise_check(NodeId(4), 1);
        let mut delta = IndexDelta::for_index(&idx);
        delta.offer(NodeId(0), NodeId(1), 3);
        delta.offer(NodeId(0), NodeId(2), 1);
        delta.offer(NodeId(1), NodeId(0), 2);
        delta.raise_check(NodeId(1), 4);
        delta.raise_check(NodeId(4), 2);
        idx.merge_delta(&delta);
        let once = idx.clone();
        idx.merge_delta(&delta);
        assert_eq!(idx.rrd_entries(), once.rrd_entries());
        for u in 0..5 {
            assert_eq!(idx.check(NodeId(u)), once.check(NodeId(u)), "check[{u}]");
            assert_eq!(
                idx.top_entries(NodeId(u), 10),
                once.top_entries(NodeId(u), 10),
                "rrd[{u}]"
            );
        }
    }

    /// Idempotence on a real query-produced delta: replaying a worker's
    /// write-log (e.g. an at-least-once merge queue) leaves every pruning
    /// decision identical.
    #[test]
    fn merge_delta_idempotent_for_query_deltas() {
        use crate::context::{EngineContext, QueryScratch};
        use crate::engine::BoundConfig;
        use crate::request::{QueryRequest, Strategy};
        let g = line();
        let ctx = EngineContext::new(&g);
        let mut scratch = ctx.new_scratch();
        let snapshot_query =
            |s: &mut QueryScratch, snapshot: &RkrIndex, delta: &mut IndexDelta, q| {
                let req =
                    QueryRequest::new(q, 2).with_strategy(Strategy::Indexed(BoundConfig::ALL));
                let access = &mut IndexAccess::Snapshot { snapshot, delta };
                ctx.execute_with(s, Some(access), &req).unwrap().result
            };
        let index = RkrIndex::empty(g.num_nodes(), 8);
        let mut delta = IndexDelta::for_index(&index);
        for q in g.nodes() {
            snapshot_query(&mut scratch, &index, &mut delta, q);
        }
        assert!(!delta.is_empty());
        let mut merged_once = index.clone();
        merged_once.merge_delta(&delta);
        let mut merged_twice = merged_once.clone();
        merged_twice.merge_delta(&delta);
        for u in g.nodes() {
            assert_eq!(merged_once.check(u), merged_twice.check(u), "check[{u}]");
            assert_eq!(
                merged_once.top_entries(u, 10),
                merged_twice.top_entries(u, 10),
                "rrd[{u}]"
            );
        }
        // and the double-merged index answers queries identically
        let mut s2 = ctx.new_scratch();
        for q in g.nodes() {
            let mut d1 = IndexDelta::for_index(&merged_once);
            let mut d2 = IndexDelta::for_index(&merged_twice);
            let a = snapshot_query(&mut scratch, &merged_once, &mut d1, q);
            let b = snapshot_query(&mut s2, &merged_twice, &mut d2, q);
            assert_eq!(a.entries, b.entries, "q={q}");
            assert_eq!(
                a.stats.pruned_by_bound(),
                b.stats.pruned_by_bound(),
                "q={q}"
            );
            assert_eq!(
                a.stats.index_exact_hits(),
                b.stats.index_exact_hits(),
                "q={q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "k_max mismatch")]
    fn merge_delta_rejects_incompatible_k_max() {
        let mut a = RkrIndex::empty(3, 2);
        let d = IndexDelta::for_index(&RkrIndex::empty(3, 4));
        a.merge_delta(&d);
    }

    #[test]
    fn index_access_routes_reads_and_writes() {
        let mut live = RkrIndex::empty(3, 4);
        live.offer(NodeId(1), NodeId(0), 2);
        live.raise_check(NodeId(0), 3);
        let snapshot = live.clone();
        let mut delta = IndexDelta::for_index(&snapshot);
        let mut access = IndexAccess::Snapshot {
            snapshot: &snapshot,
            delta: &mut delta,
        };
        // reads come from the snapshot
        assert_eq!(access.lookup(NodeId(1), NodeId(0)), Some(2));
        assert_eq!(access.check(NodeId(0)), 3);
        assert_eq!(access.top_entries(NodeId(1), 4).len(), 1);
        // writes go to the delta, not the snapshot
        access.offer(NodeId(2), NodeId(0), 1);
        access.raise_check(NodeId(0), 7);
        assert_eq!(access.lookup(NodeId(2), NodeId(0)), None);
        assert_eq!(access.check(NodeId(0)), 3);
        assert_eq!(delta.len(), 2);
        // live mode writes through immediately
        let mut access = IndexAccess::Live(&mut live);
        access.offer(NodeId(2), NodeId(0), 1);
        assert_eq!(access.lookup(NodeId(2), NodeId(0)), Some(1));
    }

    #[test]
    #[should_panic(expected = "k_max mismatch")]
    fn merge_rejects_incompatible_k_max() {
        let mut a = RkrIndex::empty(3, 2);
        let b = RkrIndex::empty(3, 4);
        a.merge_from(&b);
    }

    #[test]
    fn heap_bytes_grows_with_entries() {
        let mut idx = RkrIndex::empty(10, 4);
        let before = idx.heap_bytes();
        for i in 0..10u32 {
            idx.offer(NodeId(0), NodeId(i), i + 1);
        }
        assert!(idx.heap_bytes() > before);
    }
}
