//! Shared engine context and per-worker query scratch.
//!
//! Concurrent serving splits the old monolithic `QueryEngine` state along
//! its sharing boundary:
//!
//! * [`EngineContext`] — everything a query only *reads*: the graph, the
//!   transpose (built lazily, at most once, even under concurrency), and
//!   the mono/bichromatic partition. It is `Sync`, so one context behind an
//!   `Arc` (or a plain `&`) serves any number of worker threads.
//! * [`QueryScratch`] — everything a query *writes*: the two Dijkstra
//!   workspaces and the generation-stamped per-node arrays. One per worker;
//!   cheap to create relative to the context (no `O(m)` transpose copy)
//!   and reusable across queries so steady-state queries allocate nothing.
//!
//! One private SDS driver (`run_sds`) is the single implementation
//! behind the static, dynamic, and indexed variants; each [`Strategy`] is
//! a thin configuration of it.
//!
//! ## The kRank ladder
//!
//! The paper's only abort bound, `kRank`, is `u32::MAX` until `R` holds
//! `k` exact ranks, so the first refinements — hubs next to `q` —
//! enumerate balls of thousands of nodes for a final `kRank` of a few
//! dozen. `run_sds` therefore *guesses* `kRank`: it runs the unchanged
//! algorithm (`sds_pass`) with the pruning bound clamped to
//! `min(kRank, G + 1)` for a guess `G` and **accepts the pass only if `R`
//! ends full with its real k-th rank `≤ G`**; otherwise it discards the
//! pass and runs the next rung under `G · LADDER_GROWTH`. The rungs are
//! geometric — `8k`, `16k`, `32k`, … (k = 10 on the 25k-node benchmark
//! graph: 80, 160, 320, …, 20,480) — until a guess reaches `|V|`: such a guess
//! cannot prune anything a rank could reach and is run as `u32::MAX`, the
//! paper's algorithm as written, accepted unconditionally. So the ladder
//! always ends, and small graphs pay nothing. `LADDER_GUESS_PER_K` and
//! `LADDER_GROWTH` carry the measurements behind the two constants.
//! Soundness is per pass, so it holds for any ladder: `kRank` only ever
//! falls, so in an accepted pass every bound used, `min(kRank_t, G+1)`, is
//! `≥` the final `kRank`; a prune under a bound `≥` the final `kRank` is one
//! the paper's algorithm is also entitled to make (Theorem 1/2 argue from
//! the *final* `kRank`); hence the rank multiset is the paper's (ties at
//! the k-th rank excepted, as ever). Conversely any guess `≥` the true
//! `kRank` is accepted, because no candidate ranked `≤ G` (nor any of its
//! SDS ancestors) is ever pruned by the clamp — so the first rung at or
//! above the true `kRank` is the last one run.
//!
//! Stats, limits and traces span the whole ladder: [`QueryStats`] sums all
//! passes (`sds_passes` says how many), a deadline or refine budget is
//! charged against that running total, and a tripped limit returns the
//! current pass's `R` — exact entries — with the collector's *real* k-th
//! rank as `k_rank_bound`, never the guess.
//!
//! Indexed queries take an
//! [`IndexAccess`], which either mutates a live [`RkrIndex`] in place (the
//! paper's sequential-dynamic mode, the one every product path runs) or
//! reads a frozen snapshot and logs discoveries to a private
//! [`crate::index::IndexDelta`] for a later merge.
//!
//! ## Anchored refinement
//!
//! Theorem 2's parent bound (`Rank(p,q) ≥ Rank(parent(p),q)`) holds because
//! of a set inclusion: if `a` is an SDS ancestor of `p` then
//! `d(p,q) = d(p,a) + d(a,q)`, so everything strictly closer to `a` than
//! `q` is, is strictly closer to `p` than `q` is —
//! `S(p) ⊇ (S(a) ∪ {a}) ∖ {p}`. The bound keeps the *size* of that set;
//! refining every descendant from scratch re-enumerates the *set*. When `q`
//! hangs off a hub that is what a slow query consists of: thousands of
//! refinements that each re-push the hub's row — ≈ `kRank` nodes — only to
//! abort.
//!
//! **Rule.** The first plain refinement of a pass that completes with a
//! rank above `k · LADDER_GUESS_PER_K + 1` (and `d(a,q) > 0`) makes its
//! node `a` the pass's *anchor*: `refine_ws`, whose generation stamps at
//! that instant are `S(a) ∪ {a}`, trades places with a spare workspace
//! (`mem::swap`; nothing is copied, the spare is sized at the first
//! anchor) and stays frozen for the rest of the pass. Every later
//! candidate whose `pred` chain reaches `a` is refined *from* the ball
//! ([`refine_rank`] with an [`Anchor`]): the count starts at the frozen
//! size, `a`'s row is never relaxed, ball members are pushed but not
//! counted again — whether or not `R` is full yet. The threshold is the
//! largest ball the first rung's clamp can complete, so a pass the first
//! rung accepts — the median query — never has an anchor and does the work
//! it did before; `sds_pass` takes it as an argument only so tests can
//! force it to 0 or `u32::MAX`.
//!
//! **Soundness.** (1) A ball member `t ≠ p` has
//! `d(p,t) ≤ d(p,a) + d(a,t) < d(p,a) + d(a,q) = d(p,q)`: it belongs to
//! `S(p)`. (2) A node `x` outside the ball has `d(a,x) ≥ d(a,q)`, so any
//! path to it through `a` is `≥ d(p,q)`; `x ∈ S(p)` iff an `a`-avoiding
//! path shorter than `d(p,q)` exists, which the traversal that skips `a`'s
//! row finds. (3) So `count + 1` is `Rank(p,q)` exactly and an aborted
//! count is a true lower bound, on directed graphs and bichromatic specs
//! alike ([`crate::refine`] has the long form).
//!
//! **Not with an index binding.** Algorithm 4 offers every settled node's
//! exact rank to the Reverse Rank Dictionary and raises the Check
//! Dictionary from the frontier; both need the complete ordered
//! enumeration that anchoring skips, so a pass with an [`IndexAccess`]
//! never anchors and the `indexed-*` strategies are untouched.
//!
//! **Rules that were measured and lose** (`engine_cold`'s 120 nodes,
//! 51.1 M refinement pushes without anchors, 20.4 M with the rule above):
//! re-anchoring on a later plain ball at least twice the size — the new
//! anchor is never an ancestor of the old one's subtree, which loses its
//! anchor (25.4 M); a threshold of `k` instead of the first guess (23.0 M,
//! and the median query no longer provably untouched); on that variant,
//! engaging only when the ball covers half the prune bound (23.6 M, and
//! slower); a per-node `under` flag written in `expand` instead of the
//! `pred` walk (same work, one more stamped array); crediting the frozen
//! ball to Lemma 4's counters (15 refinements fewer in 50,168). And on the
//! ×16 ladder (802,830 refinement settles): an exact-rank memo carried
//! across rungs, so a rejected pass's completed refinements need not be
//! repeated (−1 to −6 % of the accepted pass's pushes, no time saved);
//! jumping the next guess straight to `R`'s k-th rank after a rejected
//! pass (no counter moved: none of the 44 rejected passes ends with `R`
//! full, so there is no k-th rank to jump to).
//!
//! ## Pendant leaves
//!
//! Theorem 2's parent bound is *exact* for a pendant leaf (ROADMAP 29).
//! Take an undirected graph and a node `t ≠ q` whose only neighbour is
//! `u`, at weight `w`. Every path from `t` leaves through `u`, so
//! `d(t,x) = w + d(u,x)` for every `x ≠ t`, `d(t,q) = w + d(u,q)` among
//! them, and `x ∈ S(t)` iff `d(u,x) < d(u,q)`:
//! `S(t) = (S(u) ∪ {u}) ∖ {t}`, that is
//!
//! `Rank(t,q) = Rank(u,q) + [u counted ∧ d(u,q) > 0] − [t counted ∧ w < d(u,q)]`,
//!
//! and `Rank(t,q) = 1` when `u = q` (nothing is closer to `t` than `q`).
//! The `d(u,q) > 0` guard is the anchor's zero-weight corner again: at
//! `d(u,q) = 0`, `u` is exactly as far from `t` as `q` is, not closer. `t`
//! leaves the count only if it was in `S(u)`, at `w < d(u,q)`.
//!
//! **Rule.** When a dynamic pass's refinement of `u`, popped at `d`,
//! returns `Exact(r)`, `sds_pass` scans `u`'s row and offers each pendant
//! candidate `t ≠ q` this context owns to `R` at that rank, and records it
//! as `t`'s `eff_lb`; the `Root` pop offers `q`'s own pendants at 1. What
//! pays is *when*: `R` fills and `kRank` tightens before the leaves are
//! popped, so more of the pass prunes (ranking a leaf at its own pop
//! instead cut 0.2 % of the pushes). A popped pendant records
//! [`PopDecision::Pendant`] and is neither refined nor expanded: its only
//! arc leads back to `u`. No scratch array marks the offered leaves: a
//! popped candidate of degree 1 whose SDS parent is `q` or a candidate
//! this context owns was offered, because in a pass with the rule a
//! candidate is expanded only after an `Exact` refinement. (A stamped
//! flag for it raised `serve_churn`'s `peak_rss_mb` from 43.3 to 43.8 MB:
//! the daemon keeps one scratch per worker.) Nor is there a per-context
//! list of each node's pendants: the row scan measured the whole gain, and
//! a table would be one more structure per context, rebuilt on every
//! commit.
//!
//! **Late pops.** A refinement at pop distance `d` counts what lies
//! strictly within `d` of its node, whether `d` is the true distance or a
//! late one (ROADMAP 28). `t` is reachable only through `u`, so it is
//! popped at `d + w`, where a refinement of `t` would count
//! `{x : d(u,x) < d}`: the formula above, evaluated on `u`'s count at `d`.
//! So the offer is the rank `t`'s own refinement would have claimed at
//! its pop, late or not — exact at the true distance, and at a late one an
//! over-count for a node dominated by a pruned ancestor, as before.
//!
//! **Not for `static`, an index binding or a directed graph.** `static`
//! keeps Algorithm 1 as written, the independent reference the
//! benchmark's answer check compares against. Algorithm 4 offers every
//! settled node's rank to the Reverse Rank Dictionary from the full
//! enumeration, so a pass with an [`IndexAccess`] keeps it. On a directed
//! graph, whether `t` is in `S(u)` needs `d(u,t)`, which `t`'s one
//! out-arc `t → u` does not give (and `epinions_like(Medium)` has 50
//! out-degree-1 nodes in 15,000). Bichromatic specs and shard slices take
//! the rule through `is_counted`, `is_candidate` and `owns`: a pendant
//! another shard owns stays a conduit.

use std::mem;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rkranks_graph::{
    DijkstraWorkspace, Distance, Graph, GraphError, NodeId, RelaxOutcome, Result, ShardSlice,
};

use crate::engine::BoundConfig;
use crate::index::{IndexAccess, IndexBuildStats, IndexParams, RkrIndex};
use crate::refine::{refine_rank, refine_rank_unbounded, Anchor, RefineHooks, RefineOutcome};
use crate::request::{Completion, Limits, PartialReason, QueryOutcome, QueryRequest, Strategy};
use crate::result::{QueryResult, TopKCollector};
use crate::scratch::Stamped;
use crate::spec::{Partition, QuerySpec};
use crate::stats::{QueryStageStats, QueryStats};
use crate::trace::{PassSummary, PopDecision, QueryTrace, TraceEvent};

/// The first rung of the kRank ladder, as a multiple of `k`. Measured with
/// `rkr-bench` (25k-node DBLP-like graph, k = 10; 10.8 ms p50 and 30
/// queries/s on `engine_cold` without the ladder), interleaved runs per
/// setting. The median query's `kRank` is below `8k`: a `4k` guess sends
/// it to the second pass (p50 0.60 ms), `8k` / `16k` / `64k` do not (0.31 /
/// 0.38 / 0.62 ms), and a rejected first rung costs next to nothing
/// unsharded. Re-sized under ×2 growth: a first rung of `4k` / `2k` / `1k`
/// gave 627 / 630 / 602 queries/s against `8k`'s 652. `8k + 1` is also
/// the anchor threshold (module docs), so a pass the first rung accepts
/// never anchors: the median query does the same work whatever the rungs
/// above it are.
const LADDER_GUESS_PER_K: u32 = 8;

/// What a rejected rung's guess is multiplied by to give the next one.
/// A rejected rung costs little (its refinements abort under a small
/// clamp); the accepted one is the expense, because its refinements run up
/// to the clamp `G + 1`, which can be up to `growth` times the true
/// `kRank`. Under ×16, `q = 8627` (true `kRank` 1,774) was accepted at
/// 20,480 in 42 ms, where one pass at its true `kRank` takes 2.8 ms.
/// Sized on a scratch copy (2-vCPU host, harness pinned to one CPU, seed 1,
/// 12 s runs, eight alternating runs a side, median; `refinement_settles`
/// is exact, `refinement_pushes` from a probe over `engine_cold`'s 120
/// nodes):
///
/// | metric | ×16 | ×2 | ×2 + row overflow (`crate::refine`) |
/// |---|---|---|---|
/// | `engine_cold` q/s | 367 | 651 | **700** |
/// | `serve_churn` q/s | 4.24k | 5.78k | 5.88k |
/// | `fleet_scatter` q/s | 2.75k | 3.24k | 3.67k |
/// | `refinement_settles` | 802,830 | 318,361 | 318,361 |
/// | `refinement_pushes` | 10,209,152 | 8,207,402 | 5,473,426 |
///
/// On the same probe ×1.5 gave 566 q/s and ×1.25 492, against ×2's 739
/// that session; ×4 gave ≈ 450 on `engine_cold`. A single pass at each
/// node's true `kRank` — the ceiling a per-query first guess could approach
/// — reached 1,203 q/s then. Re-measured once plain and anchored
/// refinements ran first-in-first-out (`crate::refine`, "Order"; min of 8
/// scripts, three alternating runs a side, one CPU, a noisy hour): the
/// ceiling reads 2,088–2,633 q/s with the heap and 3,593–4,211 with FIFO,
/// against the ×2 ladder's 975–1,239 and 1,368–1,796 on the same probe.
const LADDER_GROWTH: u32 = 2;

/// Immutable, `Sync` query-evaluation state bound to one graph snapshot:
/// share it across worker threads via `&` or `Arc`, give each worker its
/// own [`QueryScratch`].
///
/// The context *owns* its graph as an `Arc<Graph>`, so it is cheap to
/// re-create per published snapshot when the graph itself evolves (see
/// `rkranks_graph::GraphStore`): a fresh context is one `Arc` clone plus
/// an empty transpose cell — the `O(n + m)` transpose is paid lazily, and
/// only for directed graphs. Constructors accept anything convertible
/// into `Arc<Graph>`: an `Arc<Graph>` (cheap, the serving path), an owned
/// `Graph`, or a `&Graph` (clones — fine for one-off contexts).
pub struct EngineContext {
    graph: Arc<Graph>,
    /// Built lazily on the first query that needs it, exactly once even
    /// when many workers race (undirected graphs are their own transpose;
    /// the cell stays empty and the copy is never paid).
    transpose: OnceLock<Graph>,
    partition: Option<Partition>,
    /// Candidate-ownership restriction: when set, only nodes this slice
    /// owns may be refined or returned — every other node is treated as a
    /// conduit (expandable, still counted in ranks, never a result).
    /// Slice-local answers are therefore exact over the owned candidate
    /// set, so the slices' answers merge rank-exactly. The daemons never
    /// set it (every shard is a full replica); it exists to measure what
    /// partitioned candidates would cost.
    shard: Option<ShardSlice>,
}

impl EngineContext {
    /// Monochromatic context (Definition 2).
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        Self::with_partition(graph.into(), None)
    }

    /// Bichromatic context (Definitions 3–4): `partition`'s `V2` is the
    /// counted/query class, its complement the candidate class.
    pub fn bichromatic(graph: impl Into<Arc<Graph>>, partition: Partition) -> Self {
        Self::with_partition(graph.into(), Some(partition))
    }

    /// Bichromatic context when `partition` is `Some`, monochromatic
    /// otherwise — for callers that carry the partition as an option.
    pub fn with_partition(graph: Arc<Graph>, partition: Option<Partition>) -> Self {
        EngineContext {
            graph,
            transpose: OnceLock::new(),
            partition,
            shard: None,
        }
    }

    /// Restrict this context to the candidates `slice` owns (sharded
    /// serving). Composes with either query spec: ownership narrows
    /// `is_candidate`, never `is_counted`, so ranks keep their global
    /// meaning and per-shard answers are exact over the owned slice.
    pub fn with_shard_slice(mut self, slice: ShardSlice) -> Self {
        self.shard = Some(slice);
        self
    }

    /// The candidate-ownership slice, if this context is sharded.
    pub fn shard_slice(&self) -> Option<ShardSlice> {
        self.shard
    }

    /// `true` when `v` may appear in results under both the query spec
    /// and the shard slice (if any).
    #[inline(always)]
    fn owns(&self, v: NodeId) -> bool {
        self.shard.is_none_or(|s| s.owns(v))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The bichromatic partition, if any.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// The active query specification.
    pub fn spec(&self) -> QuerySpec<'_> {
        match &self.partition {
            Some(p) => QuerySpec::Bichromatic(p),
            None => QuerySpec::Mono,
        }
    }

    /// The graph the SDS-tree Dijkstra runs on: the transpose for directed
    /// graphs (built on first use), the graph itself otherwise.
    ///
    /// Latency-sensitive callers should invoke this once before timing
    /// queries — otherwise the first query on a directed graph pays the
    /// O(n+m) transpose build inside its `stats.elapsed`. The batch
    /// drivers and the `QueryEngine` facade do this automatically.
    pub fn sds_graph(&self) -> &Graph {
        if self.graph.is_directed() {
            self.transpose.get_or_init(|| self.graph.transpose())
        } else {
            &self.graph
        }
    }

    /// A fresh per-worker scratch sized for this context's graph.
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::new(self.graph.num_nodes())
    }

    /// Build an index matching this context's query spec.
    pub fn build_index(&self, params: &IndexParams) -> (RkrIndex, IndexBuildStats) {
        RkrIndex::build(&self.graph, self.spec(), params)
    }

    fn validate(&self, q: NodeId, k: u32) -> Result<()> {
        self.graph.check_node(q)?;
        if k == 0 {
            return Err(GraphError::InvalidQuery("k must be positive".into()));
        }
        self.spec().validate_query(q)?;
        Ok(())
    }

    /// Execute a [`QueryRequest`] that needs no index.
    ///
    /// [`Strategy::Indexed`] requests are rejected here (the strategy
    /// needs an index binding); hand them to
    /// [`EngineContext::execute_with`].
    pub fn execute(&self, scratch: &mut QueryScratch, req: &QueryRequest) -> Result<QueryOutcome> {
        self.execute_with(scratch, None, req)
    }

    /// Execute a [`QueryRequest`] with an optional index binding.
    ///
    /// The binding decides where [`Strategy::Indexed`] reads and writes:
    /// [`IndexAccess::Live`] is the paper's sequential-dynamic mode (the
    /// index sharpens in place), [`IndexAccess::Snapshot`] reads a frozen
    /// snapshot and logs discoveries to a per-worker delta for a later
    /// [`RkrIndex::merge_delta`].
    /// Non-indexed strategies ignore the binding entirely. An `Indexed`
    /// request without a binding is an error.
    pub fn execute_with(
        &self,
        scratch: &mut QueryScratch,
        index: Option<&mut IndexAccess<'_>>,
        req: &QueryRequest,
    ) -> Result<QueryOutcome> {
        self.execute_on_ladder(scratch, index, req, (LADDER_GUESS_PER_K, LADDER_GROWTH))
    }

    /// [`EngineContext::execute_with`] on the kRank ladder `(first guess
    /// per k, growth)`. Production passes the two constants; tests pass a
    /// finer ladder so small graphs climb several rungs.
    fn execute_on_ladder(
        &self,
        scratch: &mut QueryScratch,
        index: Option<&mut IndexAccess<'_>>,
        req: &QueryRequest,
        ladder: (u32, u32),
    ) -> Result<QueryOutcome> {
        let limits = Limits::for_request(req);
        let mut trace = req.trace.then(QueryTrace::default);
        let (q, k) = (req.q, req.k);
        let (result, completion) = match req.strategy {
            Strategy::Naive => self.run_naive(scratch, q, k, &limits)?,
            Strategy::Static => {
                self.run_sds(scratch, q, k, ladder, None, None, trace.as_mut(), &limits)?
            }
            Strategy::Dynamic(bounds) => self.run_sds(
                scratch,
                q,
                k,
                ladder,
                Some(bounds),
                None,
                trace.as_mut(),
                &limits,
            )?,
            Strategy::Indexed(bounds) => {
                let Some(access) = index else {
                    return Err(GraphError::InvalidQuery(
                        "the indexed strategy needs an index binding \
                         (EngineContext::execute_with an IndexAccess)"
                            .into(),
                    ));
                };
                check_k_max(access.k_max(), k)?;
                self.run_sds(
                    scratch,
                    q,
                    k,
                    ladder,
                    Some(bounds),
                    Some(access),
                    trace.as_mut(),
                    &limits,
                )?
            }
        };
        let stage = QueryStageStats::from_stats(&result.stats);
        Ok(QueryOutcome {
            result,
            trace,
            completion,
            stage,
        })
    }

    /// §2 naive baseline: refine every candidate (with `kRank` early
    /// termination), no SDS-tree.
    fn run_naive(
        &self,
        scratch: &mut QueryScratch,
        q: NodeId,
        k: u32,
        limits: &Limits,
    ) -> Result<(QueryResult, Completion)> {
        self.validate(q, k)?;
        scratch.ensure_capacity(self.graph.num_nodes());
        let start = Instant::now();
        let mut stats = QueryStats::default();
        let mut collector = TopKCollector::new(k);
        let mut completion = Completion::Complete;
        let spec = self.spec();
        for p in self.graph.nodes() {
            if p == q || !spec.is_candidate(p) || !self.owns(p) {
                continue;
            }
            if let Some(reason) = limits.exceeded(&stats) {
                completion = Completion::Partial {
                    reason,
                    k_rank_bound: collector.k_rank(),
                };
                break;
            }
            let refine_start = Instant::now();
            let refined = refine_rank_unbounded(
                &self.graph,
                spec,
                &mut scratch.refine_ws,
                p,
                q,
                collector.k_rank(),
                &mut stats,
            );
            stats.refine_time += refine_start.elapsed();
            if let Some(RefineOutcome::Exact(r)) = refined {
                collector.offer(p, r);
            }
        }
        stats.elapsed = start.elapsed();
        Ok((collector.into_result(stats), completion))
    }

    /// The shared SDS driver: the kRank ladder (module docs), first guess
    /// `guess_per_k · k`, each rejected guess times `growth`, over
    /// [`EngineContext::sds_pass`]. `dynamic = None` is the static
    /// algorithm.
    #[allow(clippy::too_many_arguments)] // the private hub every strategy configures
    fn run_sds(
        &self,
        scratch: &mut QueryScratch,
        q: NodeId,
        k: u32,
        (guess_per_k, growth): (u32, u32),
        dynamic: Option<BoundConfig>,
        mut index: Option<&mut IndexAccess<'_>>,
        mut trace: Option<&mut QueryTrace>,
        limits: &Limits,
    ) -> Result<(QueryResult, Completion)> {
        debug_assert!(guess_per_k > 0 && growth > 1, "the ladder must climb");
        self.validate(q, k)?;
        scratch.ensure_capacity(self.graph.num_nodes());
        let start = Instant::now();
        let mut stats = QueryStats::default();
        let mut guess = k.saturating_mul(guess_per_k);
        // The largest ball the first rung's clamp can complete: anchors
        // start above it, so a first-rung pass never has one.
        let anchor_above = guess.saturating_add(1);
        loop {
            // No rank exceeds |V|: such a guess prunes nothing, so run the
            // plain algorithm, whose pass is accepted unconditionally.
            if guess >= self.graph.num_nodes() {
                guess = u32::MAX;
            }
            if let Some(t) = trace.as_deref_mut() {
                t.events.clear();
            }
            let before = stats.clone();
            let (collector, tripped, anchor) = self.sds_pass(
                scratch,
                q,
                k,
                guess,
                anchor_above,
                true,
                dynamic,
                index.as_deref_mut(),
                trace.as_deref_mut(),
                limits,
                &mut stats,
            );
            let accepted = tripped.is_none() && collector.proves_guess();
            if let Some(t) = trace.as_deref_mut() {
                t.passes.push(PassSummary {
                    guess,
                    k_rank: collector.k_rank(),
                    accepted,
                    refinements: stats.refinement_calls - before.refinement_calls,
                    settles: stats.refinement_settles - before.refinement_settles,
                    pushes: stats.refinement_pushes - before.refinement_pushes,
                    requeues: stats.refinement_requeues - before.refinement_requeues,
                    anchored: stats.anchored_refinements - before.anchored_refinements,
                    pendants: stats.pendant_offers - before.pendant_offers,
                    anchor,
                });
            }
            let completion = match tripped {
                // Everything in this pass's `R` is exact, and its real
                // k-th rank bounds the complete answer's — the guess does
                // not, it was never proved.
                Some(reason) => Completion::Partial {
                    reason,
                    k_rank_bound: collector.k_rank(),
                },
                // Only a finite guess is ever rejected, and it grows.
                None if !accepted => {
                    guess = guess.saturating_mul(growth);
                    continue;
                }
                None => {
                    stats.k_rank_guess = guess;
                    Completion::Complete
                }
            };
            stats.elapsed = start.elapsed();
            return Ok((collector.into_result(stats), completion));
        }
    }

    /// One pass of the paper's SDS algorithm under a `kRank` guess
    /// (`u32::MAX`: none — Algorithms 1/3 as written). Returns the pass's
    /// collector, the limit that cut it short, if any, and the pass's
    /// anchor (node, counted ball size), if it froze one: the first plain
    /// refinement to complete with a rank above `anchor_above` (module
    /// docs, "Anchored refinement"). `pendants` allows the pendant-leaf
    /// rule (module docs, "Pendant leaves"), which still runs only where it
    /// applies: `run_sds` passes `true`, tests `false` for the rule-off
    /// path. The caller may
    /// use the collector's entries only if a limit tripped (they are exact,
    /// `R` is merely incomplete) or [`TopKCollector::proves_guess`] holds.
    /// Counters accumulate into `stats`, which is also what `limits` is
    /// charged against.
    #[allow(clippy::too_many_arguments)]
    fn sds_pass(
        &self,
        scratch: &mut QueryScratch,
        q: NodeId,
        k: u32,
        guess: u32,
        anchor_above: u32,
        pendants: bool,
        dynamic: Option<BoundConfig>,
        mut index: Option<&mut IndexAccess<'_>>,
        mut trace: Option<&mut QueryTrace>,
        limits: &Limits,
        stats: &mut QueryStats,
    ) -> PassEnd {
        stats.sds_passes += 1;
        let mut collector = TopKCollector::with_guess(k, guess);
        let mut tripped = None;
        let mut anchor: Option<(NodeId, u32)> = None;

        let graph = &*self.graph;
        let spec = self.spec();
        let tgraph = self.sds_graph();
        let QueryScratch {
            sds_ws,
            refine_ws,
            anchor_ws,
            pred,
            depth2,
            eff_lb,
            lcount,
            in_result,
        } = scratch;
        // Lemma 4 is proven for undirected monochromatic graphs only.
        let count_enabled =
            dynamic.is_some_and(|b| b.use_count) && !graph.is_directed() && !spec.is_bichromatic();
        // Pendant leaves (module docs): dynamic, index-free, undirected.
        let pendants = pendants && dynamic.is_some() && index.is_none() && !graph.is_directed();

        pred.reset();
        depth2.reset();
        eff_lb.reset();
        lcount.reset();
        in_result.reset();

        // §5.3: seed R (and hence kRank) from the Reverse Rank Dictionary.
        // Seeds are filtered through the candidate/ownership gates so an
        // index built for a different spec (e.g. a full-graph index
        // loaded onto a shard) can only prune, never leak a node this
        // context must not return.
        if let Some(idx) = index.as_deref() {
            for &(r, s) in idx.top_entries(q, k) {
                if spec.is_candidate(s) && self.owns(s) && collector.offer(s, r) {
                    in_result.set(s.index(), true);
                }
            }
        }

        let record = |trace: &mut Option<&mut QueryTrace>, node: NodeId, distance, decision| {
            if let Some(t) = trace.as_deref_mut() {
                t.events.push(TraceEvent {
                    node,
                    distance,
                    decision,
                });
            }
        };

        sds_ws.begin(q);
        while let Some((u, d)) = sds_ws.settle_next() {
            // Best-effort limits, checked at refinement granularity: a
            // tripped limit keeps everything refined so far in this pass
            // (all entries in `R` carry exact ranks).
            tripped = limits.exceeded(stats);
            if tripped.is_some() {
                break;
            }
            stats.sds_popped += 1;
            if u == q {
                record(&mut trace, u, d, PopDecision::Root);
                if pendants {
                    // `q`'s pendants rank it first: d = 0 credits nothing.
                    self.offer_pendants(q, u, 0, 1, &mut collector, eff_lb, in_result, stats);
                }
                expand(tgraph, spec, q, sds_ws, pred, depth2, stats, u, d);
                continue;
            }
            let parent = NodeId(pred.get(u.index()));
            let parent_lb = match parent {
                p if p.0 == u32::MAX || p == q => 0,
                p => eff_lb.get(p.index()),
            };
            // Every prune below compares against the guess-clamped bound;
            // `collector.k_rank()` stays the real k-th rank.
            let k_rank = collector.prune_bound();

            if !spec.is_candidate(u) || !self.owns(u) {
                // Conduit node (bichromatic `V2`, or a candidate another
                // shard owns): it cannot be a result here, but shortest
                // paths run through it. Propagate the ancestor bound;
                // prune the subtree when even the weakest candidate
                // descendant bound meets kRank.
                eff_lb.set(u.index(), parent_lb);
                let descendant_lb = if dynamic.is_some_and(|b| b.use_height) {
                    // any candidate below u has at least depth2(u) + [u
                    // counted] counted intermediates
                    parent_lb.max(depth2.get(u.index()) + spec.is_counted(u) as u32 + 1)
                } else {
                    parent_lb
                };
                let subtree_pruned = dynamic.is_some() && descendant_lb >= k_rank;
                record(&mut trace, u, d, PopDecision::Conduit { subtree_pruned });
                if !subtree_pruned {
                    expand(tgraph, spec, q, sds_ws, pred, depth2, stats, u, d);
                }
                continue;
            }

            // A pendant below `q` or below a candidate this pass refined
            // (in a pass with the rule, nothing else expands a candidate)
            // was offered then: its rank is `eff_lb`, its only arc leads
            // back to `parent`.
            if pendants
                && graph.degree(u) == 1
                && (parent == q || spec.is_candidate(parent) && self.owns(parent))
            {
                let rank = eff_lb.get(u.index());
                record(&mut trace, u, d, PopDecision::Pendant { via: parent, rank });
                continue;
            }

            if let Some(bounds) = dynamic {
                // Index fast path: the exact rank is already known.
                if let Some(r) = index.as_deref().and_then(|idx| idx.lookup(q, u)) {
                    stats.index_exact_hits += 1;
                    record(&mut trace, u, d, PopDecision::IndexHit { rank: r });
                    eff_lb.set(u.index(), r);
                    if !in_result.get(u.index()) && collector.offer(u, r) {
                        in_result.set(u.index(), true);
                    }
                    if r <= collector.prune_bound() {
                        expand(tgraph, spec, q, sds_ws, pred, depth2, stats, u, d);
                    }
                    continue;
                }

                // Theorem 2 (+ check dictionary) lower bound.
                let height_b = if bounds.use_height {
                    depth2.get(u.index()) + 1
                } else {
                    0
                };
                let count_b = if count_enabled {
                    lcount.get(u.index())
                } else {
                    0
                };
                let check_b = index.as_deref().map_or(0, |idx| idx.check(u));
                record_bound_win(stats, parent_lb, height_b, count_b, check_b);
                let lb = parent_lb.max(height_b).max(count_b).max(check_b);
                if lb >= k_rank {
                    stats.pruned_by_bound += 1;
                    record(
                        &mut trace,
                        u,
                        d,
                        PopDecision::BoundPruned {
                            lower_bound: lb,
                            k_rank,
                        },
                    );
                    eff_lb.set(u.index(), lb);
                    continue; // Theorem 1: the subtree is pruned with it
                }
            }

            // Rank refinement (Algorithm 2 / 4).
            let mut hooks = RefineHooks {
                lcount: count_enabled.then_some(&mut *lcount),
                index: index.as_deref_mut(),
            };
            let refine_start = Instant::now();
            // Below the anchor (SDS depth is a handful of hops), refine
            // from its frozen ball.
            let from = anchor
                .filter(|&(a, _)| descends_from(pred, u, a))
                .map(|(node, counted)| Anchor {
                    node,
                    ball: anchor_ws,
                    counted,
                });
            let refined = refine_rank(
                graph, spec, refine_ws, u, q, d, k_rank, from, &mut hooks, stats,
            );
            stats.refine_time += refine_start.elapsed();
            match refined {
                RefineOutcome::Exact(r) => {
                    // The pass's first big plain ball becomes its anchor:
                    // `refine_ws`'s stamps are S(u) ∪ {u} at this instant
                    // (the queue drained, `q` is never inserted).
                    // `d > 0` is what puts `u` itself strictly inside
                    // `d(p,q)` for everything below it.
                    if anchor.is_none() && index.is_none() && r > anchor_above && d > 0 {
                        anchor_ws.ensure_capacity(graph.num_nodes());
                        mem::swap(refine_ws, anchor_ws);
                        anchor = Some((u, r - 1 + spec.is_counted(u) as u32));
                    }
                    eff_lb.set(u.index(), r);
                    let entered = collector.offer(u, r);
                    if entered {
                        in_result.set(u.index(), true);
                    }
                    record(
                        &mut trace,
                        u,
                        d,
                        PopDecision::Refined {
                            rank: r,
                            entered_result: entered,
                        },
                    );
                    if pendants {
                        self.offer_pendants(q, u, d, r, &mut collector, eff_lb, in_result, stats);
                    }
                    // Algorithm 1/3: completed refinement ⇒ expand.
                    expand(tgraph, spec, q, sds_ws, pred, depth2, stats, u, d);
                }
                RefineOutcome::Pruned { lower_bound } => {
                    record(
                        &mut trace,
                        u,
                        d,
                        PopDecision::RefinementPruned { lower_bound },
                    );
                    eff_lb.set(u.index(), lower_bound.max(parent_lb));
                    // Theorem 1: no expansion.
                }
            }
        }

        (collector, tripped, anchor)
    }

    /// Pendant leaves (module docs): offer every degree-1 neighbour `t` of
    /// `u` to `R` at `Rank(t,q)`, given `u`'s exact rank `r` at its pop
    /// distance `d` (for `u = q`: `r = 1`, `d = 0`), and record it as `t`'s
    /// `eff_lb` for `t`'s own pop.
    #[allow(clippy::too_many_arguments)]
    fn offer_pendants(
        &self,
        q: NodeId,
        u: NodeId,
        d: Distance,
        r: u32,
        collector: &mut TopKCollector,
        eff_lb: &mut Stamped<u32>,
        in_result: &mut Stamped<bool>,
        stats: &mut QueryStats,
    ) {
        let (graph, spec) = (&*self.graph, self.spec());
        // S(t) = (S(u) ∪ {u}) ∖ {t}: `u` joins when it is strictly closer
        // to `t` than `q` is, and `t` leaves when it was in `S(u)`.
        let with_u = r + (spec.is_counted(u) && d > 0) as u32;
        let (targets, weights) = graph.out_neighbors(u);
        for (&t, &w) in targets.iter().zip(weights) {
            if t == q || t == u || graph.degree(t) != 1 || !spec.is_candidate(t) || !self.owns(t) {
                continue;
            }
            let rank = with_u - (spec.is_counted(t) && w < d) as u32;
            stats.pendant_offers += 1;
            eff_lb.set(t.index(), rank);
            if collector.offer(t, rank) {
                in_result.set(t.index(), true);
            }
        }
    }
}

/// What [`EngineContext::sds_pass`] hands back: the collector, the limit
/// that cut the pass short, and its anchor (node, counted ball size).
type PassEnd = (TopKCollector, Option<PartialReason>, Option<(NodeId, u32)>);

fn check_k_max(k_max: u32, k: u32) -> Result<()> {
    if k > k_max {
        return Err(GraphError::InvalidQuery(format!(
            "k = {k} exceeds the index's K = {k_max} (the check-dictionary prune would be unsound)"
        )));
    }
    Ok(())
}

/// Per-worker mutable query state: the Dijkstra workspaces and the
/// generation-stamped per-node arrays. Everything resets in O(1) between
/// queries, so a long-lived scratch makes queries allocation-free after
/// warm-up.
#[derive(Debug)]
pub struct QueryScratch {
    /// SDS-tree (transpose) Dijkstra state.
    pub(crate) sds_ws: DijkstraWorkspace,
    /// Rank-refinement Dijkstra state.
    pub(crate) refine_ws: DijkstraWorkspace,
    /// The spare `refine_ws` trades places with when a pass freezes its
    /// anchor's ball. Empty until the first anchor, so a worker that never
    /// anchors (every indexed one) never pays for it.
    pub(crate) anchor_ws: DijkstraWorkspace,
    /// SDS-tree parent of each frontier/settled node.
    pub(crate) pred: Stamped<u32>,
    /// Counted-class intermediate-node depth (degenerates to `depth - 1`
    /// monochromatically); the Lemma-2 bound is `depth2 + 1`.
    pub(crate) depth2: Stamped<u32>,
    /// Effective rank lower bound of each processed node (exact rank when
    /// refined) — what descendants inherit as their "parent rank".
    pub(crate) eff_lb: Stamped<u32>,
    /// Lemma-4 visit counters.
    pub(crate) lcount: Stamped<u32>,
    /// Marks nodes currently credited in `R` (prevents double offers when
    /// the index seeds the collector).
    pub(crate) in_result: Stamped<bool>,
}

impl QueryScratch {
    /// Scratch for graphs with up to `n` nodes (it grows on demand if a
    /// larger graph shows up).
    pub fn new(n: u32) -> Self {
        QueryScratch {
            sds_ws: DijkstraWorkspace::new(n),
            refine_ws: DijkstraWorkspace::new(n),
            anchor_ws: DijkstraWorkspace::new(0),
            pred: Stamped::new(n as usize, u32::MAX),
            depth2: Stamped::new(n as usize, 0),
            eff_lb: Stamped::new(n as usize, 0),
            lcount: Stamped::new(n as usize, 0),
            in_result: Stamped::new(n as usize, false),
        }
    }

    /// Grow every component to hold at least `n` nodes.
    pub fn ensure_capacity(&mut self, n: u32) {
        self.sds_ws.ensure_capacity(n);
        self.refine_ws.ensure_capacity(n);
        self.pred.ensure_capacity(n as usize);
        self.depth2.ensure_capacity(n as usize);
        self.eff_lb.ensure_capacity(n as usize);
        self.lcount.ensure_capacity(n as usize);
        self.in_result.ensure_capacity(n as usize);
    }
}

/// Relax `u`'s out-edges in the transpose graph, recording tree parents and
/// counted-depths for Theorem 2.
#[allow(clippy::too_many_arguments)]
fn expand(
    tgraph: &Graph,
    spec: QuerySpec<'_>,
    q: NodeId,
    sds_ws: &mut DijkstraWorkspace,
    pred: &mut Stamped<u32>,
    depth2: &mut Stamped<u32>,
    stats: &mut QueryStats,
    u: NodeId,
    d: Distance,
) {
    // `u` becomes an intermediate node of everything routed through it; it
    // contributes to the Lemma-2 bound only if it is counted and not `q`
    // (ranks never count the query node or the candidate itself).
    let child_depth2 = depth2.get(u.index()) + (u != q && spec.is_counted(u)) as u32;
    let (targets, weights) = tgraph.out_neighbors(u);
    for (t, w) in targets.iter().zip(weights.iter()) {
        stats.sds_relaxations += 1;
        if sds_ws.relax(*t, d + *w) != RelaxOutcome::Unchanged {
            pred.set(t.index(), u.0);
            depth2.set(t.index(), child_depth2);
        }
    }
}

/// `true` when walking SDS parents from `u` reaches `a` (before the root,
/// whose parent is unset). Every node on the walk is settled, so its
/// parent is final.
fn descends_from(pred: &Stamped<u32>, u: NodeId, a: NodeId) -> bool {
    let mut v = pred.get(u.index());
    while v != u32::MAX {
        if v == a.0 {
            return true;
        }
        v = pred.get(v as usize);
    }
    false
}

/// Table 11 bookkeeping: which component supplied the max. Ties resolve in
/// the paper's "tight-most first" narrative order: parent, height, count,
/// check.
fn record_bound_win(stats: &mut QueryStats, parent: u32, height: u32, count: u32, check: u32) {
    let best = parent.max(height).max(count).max(check);
    let w = &mut stats.bound_wins;
    if parent == best {
        w.parent += 1;
    } else if height == best {
        w.height += 1;
    } else if count == best {
        w.count += 1;
    } else {
        w.check += 1;
    }
}

#[cfg(test)]
mod ladder_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexDelta;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    const INDEXED: Strategy = Strategy::Indexed(BoundConfig::ALL);

    fn star_tail() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (3, 4, 1.0)],
        )
        .unwrap()
    }

    /// A 40-ring with 20 chords: big enough that each of three shards
    /// owns several nodes.
    fn chorded_ring() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            (0..40u32)
                .map(|i| (i, (i + 1) % 40, 1.0 + f64::from(i % 5)))
                .chain((0..20u32).map(|i| (i, i + 20, 2.0)))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn context_is_sync_and_shareable() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<EngineContext>();
    }

    #[test]
    fn one_context_serves_many_scratches() {
        let g = star_tail();
        let ctx = EngineContext::new(&g);
        let mut a = ctx.new_scratch();
        let mut b = ctx.new_scratch();
        let req = QueryRequest::new(NodeId(0), 2);
        let ra = ctx.execute(&mut a, &req).unwrap().result;
        let rb = ctx.execute(&mut b, &req).unwrap().result;
        assert_eq!(ra.entries, rb.entries);
    }

    #[test]
    fn concurrent_workers_share_one_context() {
        // Directed so the lazily-built transpose is exercised under racing
        // first use.
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (1, 3, 2.0),
            ],
        )
        .unwrap();
        // Expected values come from a separate context so the shared one
        // below still has an uninitialized transpose when the workers race
        // on its first use.
        let expected: Vec<_> = {
            let ref_ctx = EngineContext::new(&g);
            let mut s = ref_ctx.new_scratch();
            g.nodes()
                .map(|q| {
                    let req = QueryRequest::new(q, 2);
                    ref_ctx.execute(&mut s, &req).unwrap().result.entries
                })
                .collect()
        };
        let ctx = EngineContext::new(&g);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut s = ctx.new_scratch();
                    for (q, want) in g.nodes().zip(&expected) {
                        let got = ctx.execute(&mut s, &QueryRequest::new(q, 2)).unwrap();
                        assert_eq!(&got.result.entries, want, "q={q}");
                    }
                });
            }
        });
    }

    #[test]
    fn snapshot_queries_match_dynamic_and_merge_back() {
        let g = star_tail();
        let ctx = EngineContext::new(&g);
        let mut scratch = ctx.new_scratch();
        let mut index = RkrIndex::empty(g.num_nodes(), 10);
        let mut delta = IndexDelta::for_index(&index);
        for q in g.nodes() {
            let req = QueryRequest::new(q, 2);
            let want = ctx.execute(&mut scratch, &req).unwrap().result;
            let access = &mut IndexAccess::Snapshot {
                snapshot: &index,
                delta: &mut delta,
            };
            let got = ctx
                .execute_with(&mut scratch, Some(access), &req.with_strategy(INDEXED))
                .unwrap();
            assert_eq!(want.ranks(), got.result.ranks(), "q={q}");
        }
        // The snapshot itself never changed...
        assert_eq!(index.rrd_entries(), 0);
        // ...but the delta captured the discoveries, and merging them makes
        // a repeat query hit the dictionary.
        assert!(!delta.is_empty());
        index.merge_delta(&delta);
        assert!(index.rrd_entries() > 0);
        let req = QueryRequest::new(NodeId(0), 2).with_strategy(INDEXED);
        let r = ctx
            .execute_with(&mut scratch, Some(&mut IndexAccess::Live(&mut index)), &req)
            .unwrap();
        assert!(r.stats().index_exact_hits > 0);
    }

    #[test]
    fn parallel_snapshot_workers_match_dynamic() {
        let g = star_tail();
        let ctx = EngineContext::new(&g);
        let (index, _) = ctx.build_index(&IndexParams {
            hub_fraction: 0.5,
            prefix_fraction: 0.5,
            k_max: 8,
            ..Default::default()
        });
        let expected: Vec<_> = {
            let mut s = ctx.new_scratch();
            g.nodes()
                .map(|q| {
                    let req = QueryRequest::new(q, 3);
                    ctx.execute(&mut s, &req).unwrap().result.ranks()
                })
                .collect()
        };
        let index = &index;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut s = ctx.new_scratch();
                    let mut delta = IndexDelta::for_index(index);
                    for (q, want) in g.nodes().zip(&expected) {
                        let access = &mut IndexAccess::Snapshot {
                            snapshot: index,
                            delta: &mut delta,
                        };
                        let req = QueryRequest::new(q, 3).with_strategy(INDEXED);
                        let got = ctx.execute_with(&mut s, Some(access), &req).unwrap();
                        assert_eq!(&got.result.ranks(), want, "q={q}");
                    }
                });
            }
        });
    }

    #[test]
    fn sharded_contexts_partition_candidates_and_merge_exactly() {
        use rkranks_graph::ShardSlice;
        let g = chorded_ring();
        const K: u32 = 4;
        const SHARDS: u32 = 3;
        const SEED: u64 = 0xFEED;
        let whole = EngineContext::new(&g);
        let mut scratch = whole.new_scratch();
        let shard_ctxs: Vec<_> = (0..SHARDS)
            .map(|i| EngineContext::new(&g).with_shard_slice(ShardSlice::new(i, SHARDS, SEED)))
            .collect();
        for q in g.nodes() {
            let req = QueryRequest::new(q, K);
            let want = whole.execute(&mut scratch, &req).unwrap().result;
            // Scatter: each shard answers over its owned candidates...
            let mut merged: Vec<(u32, NodeId)> = Vec::new();
            for ctx in &shard_ctxs {
                let part = ctx.execute(&mut scratch, &req).unwrap().result;
                for e in &part.entries {
                    // no shard ever returns a candidate it does not own
                    assert!(
                        ctx.shard_slice().unwrap().owns(e.node),
                        "q={q} leaked {}",
                        e.node
                    );
                    merged.push((e.rank, e.node));
                }
            }
            // ...gather: the k smallest of the union reproduce the
            // single-box rank multiset exactly.
            merged.sort_unstable();
            merged.truncate(K as usize);
            let got: Vec<u32> = merged.iter().map(|&(r, _)| r).collect();
            assert_eq!(got, want.ranks(), "q={q}");
        }
    }

    #[test]
    fn sharded_index_seeds_cannot_leak_foreign_candidates() {
        use rkranks_graph::ShardSlice;
        let g = star_tail();
        // Build a full-graph index, then query through a sharded context
        // seeded from it: results must stay within the owned slice and
        // rank-merge exactly like the dynamic strategy.
        let whole = EngineContext::new(&g);
        let (index, _) = whole.build_index(&IndexParams {
            hub_fraction: 1.0,
            prefix_fraction: 1.0,
            k_max: 8,
            ..Default::default()
        });
        let mut scratch = whole.new_scratch();
        for q in g.nodes() {
            let req = QueryRequest::new(q, 2);
            let want = whole.execute(&mut scratch, &req).unwrap().result;
            let mut merged: Vec<(u32, NodeId)> = Vec::new();
            for i in 0..2 {
                let ctx = EngineContext::new(&g).with_shard_slice(ShardSlice::new(i, 2, 99));
                let mut delta = IndexDelta::for_index(&index);
                let access = &mut IndexAccess::Snapshot {
                    snapshot: &index,
                    delta: &mut delta,
                };
                let part = ctx
                    .execute_with(&mut scratch, Some(access), &req.with_strategy(INDEXED))
                    .unwrap()
                    .result;
                for e in &part.entries {
                    assert!(
                        ctx.shard_slice().unwrap().owns(e.node),
                        "q={q} leaked {}",
                        e.node
                    );
                    merged.push((e.rank, e.node));
                }
            }
            merged.sort_unstable();
            merged.truncate(2);
            let got: Vec<u32> = merged.iter().map(|&(r, _)| r).collect();
            assert_eq!(got, want.ranks(), "q={q}");
        }
    }

    #[test]
    fn record_bound_win_tie_precedence() {
        let mut stats = QueryStats::default();
        record_bound_win(&mut stats, 2, 2, 1, 0);
        assert_eq!(stats.bound_wins.parent, 1); // parent wins ties
        record_bound_win(&mut stats, 1, 2, 2, 2);
        assert_eq!(stats.bound_wins.height, 1); // then height
        record_bound_win(&mut stats, 0, 1, 2, 2);
        assert_eq!(stats.bound_wins.count, 1); // then count
        record_bound_win(&mut stats, 0, 0, 0, 1);
        assert_eq!(stats.bound_wins.check, 1);
    }

    #[test]
    fn scratch_grows_to_larger_graphs() {
        let small = star_tail();
        let big = graph_from_edges(
            EdgeDirection::Undirected,
            (0..20u32).map(|i| (i, i + 1, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut scratch = QueryScratch::new(small.num_nodes());
        let ctx = EngineContext::new(&big);
        let r = ctx
            .execute(&mut scratch, &QueryRequest::new(NodeId(0), 2))
            .unwrap();
        assert_eq!(r.result.entries.len(), 2);
    }
}
