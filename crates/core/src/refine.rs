//! Rank refinement (Algorithms 2 and 4).
//!
//! Given a candidate `p` with known `d(p,q)` (from the SDS-tree), compute
//! `Rank(p,q)` by a **bounded** traversal from `p`: only nodes with
//! tentative distance strictly below `d(p,q)` ever enter the queue, so a
//! plain call enumerates exactly `S = {v : d(p,v) < d(p,q)}` and never
//! needs to reach `q` itself. `Rank(p,q) = |S ∩ counted| + 1`. An
//! *anchored* call (below) is handed part of `S` already counted and
//! enumerates only what is left of it.
//!
//! The whole proof is the insertion argument: a tentative distance is the
//! length of a real path, so every node that enters the queue is a member
//! of `S`, whatever order the traversal takes. Hence `1 + inserted_counted`
//! is a monotone lower bound on the final rank; once it exceeds `kRank`
//! the candidate can never enter the result and refinement aborts
//! (Algorithm 2, line 17). When the queue drains, every node of `S` has
//! been inserted (once: its stamp outlives any later re-queue), so
//! `Exact` is `inserted_counted + 1`.
//!
//! Hooks:
//! * `lcount` — Algorithm 4 line 18: every inserted node's visit counter is
//!   bumped, feeding the Lemma-4 lower bound of later candidates;
//! * `index` — Algorithm 4 lines 8/20/22: every settled counted node's
//!   exact rank is offered to the Reverse Rank Dictionary, and the Check
//!   Dictionary is raised with a tie-safe bound on everything not
//!   enumerated (see [`rkranks_graph::RankCounter::unsettled_rank_lower_bound`]).
//!   Those need settle order, so a call with an index binding runs its own
//!   ordered traversal (Dijkstra, the heap); every other call runs the one
//!   below.
//!
//! ## Order
//!
//! Nothing in a plain or anchored call reads the order nodes are reached
//! in: the abort tests insertions, and an insertion proves membership at
//! any time. So those calls traverse first-in-first-out
//! ([`DijkstraWorkspace::begin_fifo`]): a label-correcting search that
//! queues a node again when its distance drops after it was dequeued, and
//! pays no `log n` per push. When the queue drains, every label is the
//! distance Dijkstra would have settled (both are the least fixpoint of the
//! same monotone float relaxation), the row cut `d + w < d(p,q)` has
//! admitted the same nodes, and the stamped set is exactly `S(p) ∪ {p}` — so
//! an anchor frozen from it is the same ball. A re-queue is counted
//! (`QueryStats::refinement_requeues`), and a re-dequeued node's row counts
//! as another settle.
//!
//! FIFO is O(|V|·|E|) in the worst case. The guard lives in the workspace:
//! once a call's re-queues exceed its insertions, the pending queue is
//! heapified and the *same* call finishes in distance order, re-queuing a
//! dequeued node whose distance still drops. It must not restart from `p`:
//! `lcount` is bumped once per insertion, and a restart would insert — and
//! bump — every node of the ball a second time, inflating Lemma 4's bound
//! past the truth (unsound).
//!
//! ## Anchored refinement
//!
//! If `a` lies on `p`'s shortest path to `q` and `d(a,q) > 0`, then
//! `d(p,q) = d(p,a) + d(a,q)` and every node of the ball
//! `B = S(a) ∪ {a}` other than `p` is strictly closer to `p` than `q` is:
//! `d(p,t) ≤ d(p,a) + d(a,t) < d(p,a) + d(a,q)`. Given an [`Anchor`] — the
//! workspace a *completed* plain refinement of `a` left behind, whose
//! stamped nodes are exactly `B` — [`refine_rank`] differs in four ways:
//!
//! 1. the count starts at `|B ∩ counted| − [p ∈ B ∧ p counted]`, and the
//!    call prunes before touching the graph if that already exceeds
//!    `kRank`;
//! 2. `a`'s own row is never relaxed;
//! 3. a node of `B` that enters the queue is pushed (paths to the outside
//!    run through it) but not counted a second time;
//! 4. `Exact` is `count + 1`.
//!
//! Why skipping `a`'s row loses nothing: a node `x ∉ B` has
//! `d(a,x) ≥ d(a,q)`, so every path to it through `a` is
//! `≥ d(p,a) + d(a,x) ≥ d(p,q)` and cannot count; `x ∈ S(p)` iff an
//! `a`-avoiding path shorter than `d(p,q)` exists, which is what the
//! traversal finds (`a`'s in-budget edges lead into `B` anyway:
//! `d_p(a) + w(a,t) < d(p,q) ⇒ w(a,t) < d(a,q)`). Hence `count + 1` is
//! `Rank(p,q)` exactly and every aborted count a true lower bound — on
//! directed graphs and bichromatic specs alike, since only forward
//! distances from `a` and from `p` are used. The row cut, the `t == q`
//! skip, the abort rule, `lcount` bumps on every insertion, the order and
//! the counters are those of the plain call. An anchored call cannot serve
//! an index binding: Algorithm 4's per-settle offers need the complete
//! ordered enumeration that anchoring skips.
//!
//! **One ulp.** Membership in `B` is decided by `a`'s summation order, as
//! `d(p,q)` is by the transpose's (see the `t == q` note in the loop): on
//! real-valued weights a node within one ulp of either boundary may be
//! classed differently by the plain and the anchored call.
//!
//! ## Row overflow
//!
//! A plain call that dequeues `v` at `d` and finds that the under-budget
//! part of `v`'s row — `d + w < d(p,q)`, one binary search of the sorted
//! row with the loop's own comparison — holds at least `kRank + 2` targets
//! is certain to abort inside that row. Those targets are distinct
//! members of `S(p)` (no parallel arcs, no self-loops; `d` is a real
//! path's length, final or not), so at least `kRank` of them are neither
//! `p` nor `q`. Each such target is either unstamped, and the loop inserts
//! and counts it, or stamped, and was counted when it was inserted: only
//! `p` is stamped without an insertion, and `q` never is. So
//! `1 + inserted_counted` passes `kRank` by the row's end at the latest. The
//! call then walks those targets in row order doing what the loop does —
//! skip `q` and stamped nodes, bump `lcount`, count — and aborts at the
//! node the loop would, without queuing a node. The outcome, the settles
//! and Lemma 4's counters are the loop's; `refinement_pushes` counts only
//! real queue insertions, so it falls.
//!
//! The argument needs every target counted and every row entry a distinct
//! node, so the shortcut is off in bichromatic mode and on a graph that
//! [`Graph::may_have_parallel_arcs`] (a row's length over-counts its
//! distinct targets there). It is never taken with an index binding, whose
//! prune raises the Check Dictionary from the frontier the pushes would
//! have built, and without a finite `kRank`. Anchored calls do without it:
//! ball members are pushed but not counted, so the row alone proves
//! nothing, and pre-scanning every row of an anchored call for
//! out-of-ball targets measured 7 % slower on `rkr-bench`'s
//! `engine_cold`.

use rkranks_graph::RankCounter;
use rkranks_graph::{DijkstraWorkspace, Distance, Graph, NodeId, RelaxOutcome};

use crate::index::IndexAccess;
use crate::scratch::Stamped;
use crate::spec::QuerySpec;
use crate::stats::QueryStats;

/// Result of one rank refinement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefineOutcome {
    /// Refinement completed: the exact `Rank(p,q)`.
    Exact(u32),
    /// Refinement aborted on the `kRank` bound; `Rank(p,q) ≥ lower_bound`
    /// (the paper's `-1` return).
    Pruned {
        /// A proven lower bound on the candidate's rank (`kRank + 1` at the
        /// moment of abort).
        lower_bound: u32,
    },
}

/// Optional side-effect hooks threaded through refinement.
pub struct RefineHooks<'a, 'i> {
    /// Lemma-4 visit counters (`None` on directed graphs and in
    /// bichromatic mode, where the bound is unsound).
    pub lcount: Option<&'a mut Stamped<u32>>,
    /// Index state to read and update (Algorithm 4), if any — either the
    /// live index or a snapshot + write-log pair.
    pub index: Option<&'a mut IndexAccess<'i>>,
}

impl RefineHooks<'_, '_> {
    /// No side effects (Algorithm 2 as written).
    pub fn none() -> RefineHooks<'static, 'static> {
        RefineHooks {
            lcount: None,
            index: None,
        }
    }
}

/// The frozen ball of an SDS ancestor `a` of the candidate (module docs,
/// "Anchored refinement"). The caller guarantees that `node` lies on the
/// candidate's shortest path to `q` with `d(node, q) > 0`, and that `ball`
/// is untouched since a plain, index-free [`refine_rank`] of `node` for
/// the same `q` returned [`RefineOutcome::Exact`].
#[derive(Clone, Copy, Debug)]
pub struct Anchor<'a> {
    /// The ancestor `a`.
    pub node: NodeId,
    /// `a`'s refinement workspace: a node is in the ball iff
    /// [`DijkstraWorkspace::dist_of`] knows it.
    pub ball: &'a DijkstraWorkspace,
    /// `|S(a) ∩ counted| + [a counted]`.
    pub counted: u32,
}

/// Bounded rank refinement of candidate `p` for query `q` at distance
/// `dpq = d(p,q)`, from `anchor`'s ball if one is given.
///
/// `k_rank` is the current global bound (`u32::MAX` while `R` is not full).
#[allow(clippy::too_many_arguments)] // mirrors the paper's GetRank signature
pub fn refine_rank(
    graph: &Graph,
    spec: QuerySpec<'_>,
    ws: &mut DijkstraWorkspace,
    p: NodeId,
    q: NodeId,
    dpq: Distance,
    k_rank: u32,
    anchor: Option<Anchor<'_>>,
    hooks: &mut RefineHooks<'_, '_>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    debug_assert_ne!(p, q, "the query node is never refined");
    stats.refinement_calls += 1;
    ws.ensure_capacity(graph.num_nodes());
    let lcount = hooks.lcount.as_deref_mut();
    if let Some(index) = hooks.index.as_deref_mut() {
        debug_assert!(anchor.is_none(), "an indexed pass never anchors");
        return refine_indexed(graph, spec, ws, p, q, dpq, k_rank, index, lcount, stats);
    }
    ws.begin_fifo(p);
    refine_begun(graph, spec, ws, p, q, dpq, k_rank, anchor, lcount, stats)
}

/// The plain or anchored call on a traversal already begun from `p`, in
/// FIFO order by [`refine_rank`] (the property tests also begin it in
/// distance order, which must decide alike).
#[allow(clippy::too_many_arguments)]
fn refine_begun(
    graph: &Graph,
    spec: QuerySpec<'_>,
    ws: &mut DijkstraWorkspace,
    p: NodeId,
    q: NodeId,
    dpq: Distance,
    k_rank: u32,
    anchor: Option<Anchor<'_>>,
    lcount: Option<&mut Stamped<u32>>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    if let Some(anchor) = anchor {
        return refine_anchored(graph, spec, ws, p, q, dpq, k_rank, anchor, lcount, stats);
    }
    // A row with this many under-budget targets must abort the call (module
    // docs, "Row overflow"); `usize::MAX` where that argument does not hold.
    let overflow_row =
        if k_rank != u32::MAX && !spec.is_bichromatic() && !graph.may_have_parallel_arcs() {
            (k_rank as usize).saturating_add(2)
        } else {
            usize::MAX
        };
    // `q` is never queued, so skipping its row skips nothing.
    let walk = Walk {
        graph,
        q,
        dpq,
        k_rank,
        skip_row: q,
        overflow_row,
    };
    walk.traverse(ws, 0, |t| spec.is_counted(t), lcount, stats)
}

/// The anchored body of [`refine_begun`] (module docs). Out of line so the
/// plain loop compiles without the ball test.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn refine_anchored(
    graph: &Graph,
    spec: QuerySpec<'_>,
    ws: &mut DijkstraWorkspace,
    p: NodeId,
    q: NodeId,
    dpq: Distance,
    k_rank: u32,
    anchor: Anchor<'_>,
    lcount: Option<&mut Stamped<u32>>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    debug_assert_ne!(p, anchor.node, "the anchor is a proper ancestor");
    stats.anchored_refinements += 1;
    let inside = |t: NodeId| anchor.ball.dist_of(t).is_some();
    // Counted members of S(p) known so far: the ball less p itself, then
    // every counted insertion from outside it.
    let count = anchor.counted - (inside(p) && spec.is_counted(p)) as u32;
    if k_rank != u32::MAX && 1 + count > k_rank {
        return aborted(k_rank, stats);
    }
    let walk = Walk {
        graph,
        q,
        dpq,
        k_rank,
        skip_row: anchor.node,
        overflow_row: usize::MAX,
    };
    let fresh = |t: NodeId| !inside(t) && spec.is_counted(t);
    walk.traverse(ws, count, fresh, lcount, stats)
}

/// What a plain and an anchored call share: the bound, the row never
/// relaxed (the anchor's, or `q`'s — never queued) and the row-overflow
/// threshold.
struct Walk<'g> {
    graph: &'g Graph,
    q: NodeId,
    dpq: Distance,
    k_rank: u32,
    skip_row: NodeId,
    overflow_row: usize,
}

impl Walk<'_> {
    /// Drain the queue from `count` counted members of `S(p)`, counting
    /// every insertion that `fresh` admits and aborting once
    /// `1 + count > kRank`.
    #[inline(always)]
    fn traverse(
        &self,
        ws: &mut DijkstraWorkspace,
        mut count: u32,
        fresh: impl Fn(NodeId) -> bool,
        mut lcount: Option<&mut Stamped<u32>>,
        stats: &mut QueryStats,
    ) -> RefineOutcome {
        let (q, dpq, k_rank) = (self.q, self.dpq, self.k_rank);
        while let Some((v, d)) = ws.dequeue() {
            stats.refinement_settles += 1;
            if v == self.skip_row {
                continue;
            }
            let (targets, weights) = self.graph.out_neighbors(v);
            if targets.len() >= self.overflow_row {
                // The loop's own cut-off, as one search of the sorted row.
                let under = weights.partition_point(|w| d + *w < dpq);
                if under >= self.overflow_row {
                    let row = &targets[..under];
                    return overflow(ws, row, q, k_rank, count, lcount, stats);
                }
            }
            for (t, w) in targets.iter().zip(weights.iter()) {
                let nd = d + *w;
                // Algorithm 2 line 13: only distances strictly below d(p,q)
                // can contribute to the rank. Rows are `(weight, target)`
                // sorted (a `Graph` invariant) and float addition is
                // monotone, so every later edge of the row fails too.
                if nd >= dpq {
                    break;
                }
                // `q` itself is excluded outright: by Definition 1 it never
                // counts toward its own rank, and floating-point summation
                // order can make a forward path to q come out one ulp below
                // the transpose-computed `dpq`.
                if *t == q {
                    continue;
                }
                match ws.relax_correcting(*t, nd) {
                    RelaxOutcome::Inserted => {
                        stats.refinement_pushes += 1;
                        if let Some(lc) = lcount.as_deref_mut() {
                            lc.increment(t.index());
                        }
                        if fresh(*t) {
                            count += 1;
                            if k_rank != u32::MAX && 1 + count > k_rank {
                                return aborted(k_rank, stats);
                            }
                        }
                    }
                    RelaxOutcome::Requeued => stats.refinement_requeues += 1,
                    RelaxOutcome::Decreased | RelaxOutcome::Unchanged => {}
                }
            }
        }
        // Queue drained: S is fully enumerated, the rank is exact.
        RefineOutcome::Exact(count + 1)
    }
}

/// The plain loop's walk of a row it is certain to abort in (module docs,
/// "Row overflow"): `targets` is the row's under-budget part, walked with
/// the loop's skips, `lcount` bumps and abort test, but no queue push.
#[cold]
fn overflow(
    ws: &DijkstraWorkspace,
    targets: &[NodeId],
    q: NodeId,
    k_rank: u32,
    mut inserted_counted: u32,
    mut lcount: Option<&mut Stamped<u32>>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    for t in targets {
        // The loop skips `q`, and relaxing a stamped node never inserts it.
        if *t == q || ws.dist_of(*t).is_some() {
            continue;
        }
        if let Some(lc) = lcount.as_deref_mut() {
            lc.increment(t.index());
        }
        inserted_counted += 1;
        if 1 + inserted_counted > k_rank {
            return aborted(k_rank, stats);
        }
    }
    unreachable!("a row of k_rank + 2 distinct under-budget targets aborts")
}

/// The `kRank` abort: the candidate's rank is proven to exceed `k_rank`.
fn aborted(k_rank: u32, stats: &mut QueryStats) -> RefineOutcome {
    stats.refinements_pruned += 1;
    RefineOutcome::Pruned {
        lower_bound: k_rank.saturating_add(1),
    }
}

/// Algorithm 4: the refinement of a pass with an index binding, in settle
/// order (Dijkstra), because every settled counted node's exact rank is
/// offered to the Reverse Rank Dictionary and an abort raises the Check
/// Dictionary from the frontier's next distance.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn refine_indexed(
    graph: &Graph,
    spec: QuerySpec<'_>,
    ws: &mut DijkstraWorkspace,
    p: NodeId,
    q: NodeId,
    dpq: Distance,
    k_rank: u32,
    idx: &mut IndexAccess<'_>,
    mut lcount: Option<&mut Stamped<u32>>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    ws.begin(p);
    let mut counter = RankCounter::new();
    // Counted queue insertions: a monotone lower bound on |S ∩ counted|.
    let mut inserted_counted: u32 = 0;
    // Offers below the pre-existing check value were made by earlier runs
    // from p (the §5.3 "until the rank value exceeds Check[u]" rule); in
    // snapshot mode the floor includes this worker's own logged raises.
    let check_at_start = idx.offer_floor(p);
    while let Some((v, d)) = ws.settle_next() {
        stats.refinement_settles += 1;
        if v != p && spec.is_counted(v) {
            let r = counter.on_settle(d);
            if r >= check_at_start {
                idx.offer(v, p, r);
            }
        }
        let (targets, weights) = graph.out_neighbors(v);
        for (t, w) in targets.iter().zip(weights.iter()) {
            let nd = d + *w;
            // The plain loop's row cut and `q` skip.
            if nd >= dpq {
                break;
            }
            if *t == q {
                continue;
            }
            if ws.relax(*t, nd) == RelaxOutcome::Inserted {
                stats.refinement_pushes += 1;
                if let Some(lc) = lcount.as_deref_mut() {
                    lc.increment(t.index());
                }
                if spec.is_counted(*t) {
                    inserted_counted += 1;
                    if k_rank != u32::MAX && 1 + inserted_counted > k_rank {
                        let next = ws.peek_frontier().map(|(_, d)| d);
                        idx.raise_check(p, counter.unsettled_rank_lower_bound(next));
                        return aborted(k_rank, stats);
                    }
                }
            }
        }
    }
    // Frontier drained: S is fully enumerated, the rank is exact. Every
    // node not enumerated sits at distance ≥ d(p,q), so its rank from p is
    // at least this one — exactly what the Check Dictionary stores.
    let rank = counter.settled() + 1;
    idx.offer(q, p, rank);
    idx.raise_check(p, rank);
    RefineOutcome::Exact(rank)
}

/// Unbounded refinement for the naive baseline (§2): browse from `p` until
/// `q` settles. Returns `None` when `q` is unreachable from `p` (its rank
/// is undefined).
pub fn refine_rank_unbounded(
    graph: &Graph,
    spec: QuerySpec<'_>,
    ws: &mut DijkstraWorkspace,
    p: NodeId,
    q: NodeId,
    k_rank: u32,
    stats: &mut QueryStats,
) -> Option<RefineOutcome> {
    debug_assert_ne!(p, q);
    stats.refinement_calls += 1;
    ws.ensure_capacity(graph.num_nodes());
    ws.begin(p);
    let mut counter = RankCounter::new();
    while let Some((v, d)) = ws.settle_next() {
        stats.refinement_settles += 1;
        if v != p && spec.is_counted(v) {
            let r = counter.on_settle(d);
            if v == q {
                return Some(RefineOutcome::Exact(r));
            }
            // q is unsettled, so Rank(p,q) ≥ r: abort once that exceeds kRank.
            if k_rank != u32::MAX && r > k_rank {
                stats.refinements_pruned += 1;
                return Some(RefineOutcome::Pruned { lower_bound: r });
            }
        }
        let (targets, weights) = graph.out_neighbors(v);
        for (t, w) in targets.iter().zip(weights.iter()) {
            if ws.relax(*t, d + *w) == RelaxOutcome::Inserted {
                stats.refinement_pushes += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RkrIndex;
    use rkranks_graph::{distance, graph_from_edges, rank_matrix, EdgeDirection};

    fn sample() -> Graph {
        // 0 - 1 (1.0), 1 - 2 (1.0), 0 - 3 (0.5), 3 - 2 (1.0), 2 - 4 (2.0)
        graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 3, 0.5),
                (3, 2, 1.0),
                (2, 4, 2.0),
            ],
        )
        .unwrap()
    }

    fn refine_pair(g: &Graph, p: u32, q: u32, k_rank: u32) -> RefineOutcome {
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let dpq = distance(g, NodeId(p), NodeId(q));
        let mut stats = QueryStats::default();
        refine_rank(
            g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(p),
            NodeId(q),
            dpq,
            k_rank,
            None,
            &mut RefineHooks::none(),
            &mut stats,
        )
    }

    #[test]
    fn exact_ranks_match_rank_matrix() {
        let g = sample();
        let m = rank_matrix(&g);
        for p in 0..g.num_nodes() {
            for q in 0..g.num_nodes() {
                if p == q {
                    continue;
                }
                let expect = m[p as usize][q as usize].unwrap();
                assert_eq!(
                    refine_pair(&g, p, q, u32::MAX),
                    RefineOutcome::Exact(expect),
                    "Rank({p},{q})"
                );
            }
        }
    }

    #[test]
    fn early_termination_on_k_rank() {
        let g = sample();
        // Rank(4, 0) is 4; with kRank = 2 the refinement must abort.
        let m = rank_matrix(&g);
        assert_eq!(m[4][0], Some(4));
        match refine_pair(&g, 4, 0, 2) {
            RefineOutcome::Pruned { lower_bound } => assert_eq!(lower_bound, 3),
            other => panic!("expected prune, got {other:?}"),
        }
    }

    #[test]
    fn k_rank_equal_to_rank_still_completes() {
        // Pruning is strict (counter > kRank): rank == kRank completes.
        let g = sample();
        assert_eq!(refine_pair(&g, 4, 0, 4), RefineOutcome::Exact(4));
    }

    #[test]
    fn stats_count_calls_and_prunes() {
        let g = sample();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut stats = QueryStats::default();
        let dpq = distance(&g, NodeId(4), NodeId(0));
        refine_rank(
            &g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(4),
            NodeId(0),
            dpq,
            1,
            None,
            &mut RefineHooks::none(),
            &mut stats,
        );
        assert_eq!(stats.refinement_calls, 1);
        assert_eq!(stats.refinements_pruned, 1);
        assert!(stats.refinement_settles >= 1);
    }

    #[test]
    fn lcount_hook_increments_inserted_nodes() {
        let g = sample();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut lcount = Stamped::new(g.num_nodes() as usize, 0u32);
        lcount.reset();
        let mut stats = QueryStats::default();
        let dpq = distance(&g, NodeId(4), NodeId(0));
        let mut hooks = RefineHooks {
            lcount: Some(&mut lcount),
            index: None,
        };
        let out = refine_rank(
            &g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(4),
            NodeId(0),
            dpq,
            u32::MAX,
            None,
            &mut hooks,
            &mut stats,
        );
        assert_eq!(out, RefineOutcome::Exact(4));
        // every node in S = {2, 1, 3} was inserted exactly once
        assert_eq!(lcount.get(2), 1);
        assert_eq!(lcount.get(1), 1);
        assert_eq!(lcount.get(3), 1);
        assert_eq!(lcount.get(0), 0); // q itself is never inserted
    }

    #[test]
    fn index_hook_records_exact_ranks_and_check() {
        let g = sample();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut idx = RkrIndex::empty(g.num_nodes(), 10);
        let mut stats = QueryStats::default();
        let dpq = distance(&g, NodeId(4), NodeId(0));
        let mut access = IndexAccess::Live(&mut idx);
        let mut hooks = RefineHooks {
            lcount: None,
            index: Some(&mut access),
        };
        let out = refine_rank(
            &g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(4),
            NodeId(0),
            dpq,
            u32::MAX,
            None,
            &mut hooks,
            &mut stats,
        );
        assert_eq!(out, RefineOutcome::Exact(4));
        // settled nodes got exact offers: ranks of 2, 1, 3 from node 4
        let m = rank_matrix(&g);
        assert_eq!(idx.lookup(NodeId(2), NodeId(4)), Some(m[4][2].unwrap()));
        assert_eq!(idx.lookup(NodeId(1), NodeId(4)), Some(m[4][1].unwrap()));
        // the query node's rrd learned the final rank
        assert_eq!(idx.lookup(NodeId(0), NodeId(4)), Some(4));
        // check dictionary: everything unseen from 4 has rank ≥ 4
        assert_eq!(idx.check(NodeId(4)), 4);
    }

    #[test]
    fn pruned_refinement_still_raises_check_safely() {
        let g = sample();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut idx = RkrIndex::empty(g.num_nodes(), 10);
        let mut stats = QueryStats::default();
        let dpq = distance(&g, NodeId(4), NodeId(0));
        let mut access = IndexAccess::Live(&mut idx);
        let mut hooks = RefineHooks {
            lcount: None,
            index: Some(&mut access),
        };
        refine_rank(
            &g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(4),
            NodeId(0),
            dpq,
            1,
            None,
            &mut hooks,
            &mut stats,
        );
        // Invariant: any v not in rrd from source 4 has Rank(4,v) ≥ check(4).
        let m = rank_matrix(&g);
        let c = idx.check(NodeId(4));
        for v in g.nodes() {
            if v == NodeId(4) || idx.lookup(v, NodeId(4)).is_some() {
                continue;
            }
            if let Some(r) = m[4][v.index()] {
                assert!(r >= c, "Rank(4,{v}) = {r} < check {c}");
            }
        }
    }

    #[test]
    fn bichromatic_counts_only_v2() {
        use crate::spec::Partition;
        let g = sample();
        // V2 = {0, 2}; candidate 4 queries q = 0.
        let part = Partition::from_v2_nodes(5, &[NodeId(0), NodeId(2)]);
        let spec = QuerySpec::Bichromatic(&part);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut stats = QueryStats::default();
        let dpq = distance(&g, NodeId(4), NodeId(0));
        let out = refine_rank(
            &g,
            spec,
            &mut ws,
            NodeId(4),
            NodeId(0),
            dpq,
            u32::MAX,
            None,
            &mut RefineHooks::none(),
            &mut stats,
        );
        // From 4: V2 node 2 (dist 2.0) is closer than 0 (dist 3.5) -> rank 2.
        assert_eq!(out, RefineOutcome::Exact(2));
    }

    #[test]
    fn unbounded_matches_bounded() {
        let g = sample();
        let m = rank_matrix(&g);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut stats = QueryStats::default();
        for p in 0..5u32 {
            for q in 0..5u32 {
                if p == q {
                    continue;
                }
                let out = refine_rank_unbounded(
                    &g,
                    QuerySpec::Mono,
                    &mut ws,
                    NodeId(p),
                    NodeId(q),
                    u32::MAX,
                    &mut stats,
                )
                .unwrap();
                assert_eq!(
                    out,
                    RefineOutcome::Exact(m[p as usize][q as usize].unwrap())
                );
            }
        }
    }

    #[test]
    fn unbounded_unreachable_is_none() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        let mut ws = DijkstraWorkspace::new(2);
        let mut stats = QueryStats::default();
        assert_eq!(
            refine_rank_unbounded(
                &g,
                QuerySpec::Mono,
                &mut ws,
                NodeId(1),
                NodeId(0),
                u32::MAX,
                &mut stats
            ),
            None
        );
    }

    #[test]
    fn unbounded_early_termination() {
        // From 4 the settle ranks run 1, 2, 2 (tie), then q at rank 4.
        // With kRank = 1 the rank-2 settle triggers the prune; with
        // kRank = 2 no intermediate settle exceeds the bound before q
        // arrives, so the exact rank is returned (the collector rejects it).
        let g = sample();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut stats = QueryStats::default();
        let pruned = refine_rank_unbounded(
            &g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(4),
            NodeId(0),
            1,
            &mut stats,
        )
        .unwrap();
        assert!(matches!(pruned, RefineOutcome::Pruned { lower_bound } if lower_bound == 2));
        let exact = refine_rank_unbounded(
            &g,
            QuerySpec::Mono,
            &mut ws,
            NodeId(4),
            NodeId(0),
            2,
            &mut stats,
        )
        .unwrap();
        assert_eq!(exact, RefineOutcome::Exact(4));
    }

    /// Row overflow (module docs): from leaf 1, `d(1,q) = 3` and the hub's
    /// row holds six under-budget leaves, at least `cap + 2` for every cap
    /// below. The `KeepAll` build of the same star has the shortcut off.
    #[test]
    fn an_overflowing_hub_row_aborts_where_the_loop_does_without_pushing() {
        use rkranks_graph::{DedupPolicy, GraphBuilder};
        let (p, q) = (NodeId(1), NodeId(7));
        let star = |policy| {
            let mut b = GraphBuilder::new(EdgeDirection::Undirected).dedup_policy(policy);
            for leaf in 1..=6 {
                b.add_edge(0, leaf, 1.0).unwrap();
            }
            b.add_edge(0, q.0, 2.0).unwrap();
            b.build().unwrap()
        };
        let run = |g: &Graph, cap| {
            let mut ws = DijkstraWorkspace::new(g.num_nodes());
            let mut stats = QueryStats::default();
            let hooks = &mut RefineHooks::none();
            let out = refine_rank(
                g,
                QuerySpec::Mono,
                &mut ws,
                p,
                q,
                3.0,
                cap,
                None,
                hooks,
                &mut stats,
            );
            (out, stats)
        };
        let (shortcut, full) = (star(DedupPolicy::KeepMin), star(DedupPolicy::KeepAll));
        // (a cap of 1 aborts on inserting the hub, before its row)
        for cap in 2..=4 {
            let (out, on) = run(&shortcut, cap);
            let (looped, off) = run(&full, cap);
            assert_eq!(
                out,
                RefineOutcome::Pruned {
                    lower_bound: cap + 1
                }
            );
            assert_eq!(out, looped);
            assert_eq!(on.refinement_settles, off.refinement_settles);
            assert_eq!(on.refinement_pushes, 1, "cap {cap}: only the hub");
            assert_eq!(off.refinement_pushes, u64::from(cap), "cap {cap}");
        }
    }

    #[test]
    fn zero_distance_candidate() {
        // p at distance 0 from q (zero-weight edge): rank must be 1.
        let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 0.0), (1, 2, 1.0)]).unwrap();
        let out = {
            let mut ws = DijkstraWorkspace::new(3);
            let mut stats = QueryStats::default();
            refine_rank(
                &g,
                QuerySpec::Mono,
                &mut ws,
                NodeId(1),
                NodeId(0),
                0.0,
                u32::MAX,
                None,
                &mut RefineHooks::none(),
                &mut stats,
            )
        };
        assert_eq!(out, RefineOutcome::Exact(1));
    }

    /// The worst-case guard (module docs, "Order"). A zero-weight chain
    /// `p = 0 → 1 → … → m`, every chain node `j` into the head of a
    /// unit-weight tail `m+1 → … → m+r` at weight `m + 1 − j`, and `q` far
    /// past the tail: FIFO alone re-queues the tail once per chain node
    /// (`m · r / 2` times), the guarded call within its insertions plus one
    /// row. It decides as the ordered call does under every cap, and
    /// inserts — so bumps `lcount` for — every node exactly once.
    #[test]
    fn the_worst_case_guard_keeps_requeues_linear_and_the_outcome_ordered() {
        let (m, r) = (50u32, 50u32);
        let q = m + r + 1;
        let chain = (0..m).map(|j| (j, j + 1, 0.0));
        let into_tail = (1..=m).map(|j| (j, m + 1, f64::from(m + 1 - j)));
        let tail = (m + 1..m + r).map(|i| (i, i + 1, 1.0));
        let far = [(m + r, q, f64::from(10 * (m + r)))];
        let edges = chain.chain(into_tail).chain(tail).chain(far);
        let g = graph_from_edges(EdgeDirection::Directed, edges).unwrap();
        let (p, q) = (NodeId(0), NodeId(q));
        let dpq = distance(&g, p, q);
        let n = g.num_nodes() as usize;
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut lcount = Stamped::new(n, 0u32);
        for cap in [u32::MAX, m + r, m + r + 1, m, 3] {
            let mut run = |fifo: bool| {
                lcount.reset();
                let mut stats = QueryStats::default();
                let out = if fifo {
                    let mut hooks = RefineHooks {
                        lcount: Some(&mut lcount),
                        index: None,
                    };
                    refine_rank(
                        &g,
                        QuerySpec::Mono,
                        &mut ws,
                        p,
                        q,
                        dpq,
                        cap,
                        None,
                        &mut hooks,
                        &mut stats,
                    )
                } else {
                    ws.begin(p);
                    let lc = Some(&mut lcount);
                    refine_begun(
                        &g,
                        QuerySpec::Mono,
                        &mut ws,
                        p,
                        q,
                        dpq,
                        cap,
                        None,
                        lc,
                        &mut stats,
                    )
                };
                let visits: Vec<u32> = (0..n).map(|i| lcount.get(i)).collect();
                (out, visits, stats)
            };
            let (ordered, ordered_visits, _) = run(false);
            let (out, visits, stats) = run(true);
            assert_eq!(out, ordered, "cap {cap}");
            let row = 2; // the longest row
            assert!(
                stats.refinement_requeues <= stats.refinement_pushes + row,
                "cap {cap}: {} re-queues for {} insertions",
                stats.refinement_requeues,
                stats.refinement_pushes
            );
            if cap == u32::MAX {
                assert_eq!(out, RefineOutcome::Exact(m + r + 1));
                assert!(!ws.is_fifo(), "the guard fired");
                assert!(stats.refinement_requeues > 0);
                assert_eq!(visits, ordered_visits);
                assert!(visits[1..=(m + r) as usize].iter().all(|&c| c == 1));
            }
        }
    }
}

/// The row cutoff is a `break`, which is exact only because rows are
/// `(weight, target)`-sorted; ties and zero weights are where an
/// off-by-one would show — in the plain loop and, for the anchored one, in
/// which side of the frozen ball a node falls. Weights come from
/// `{0, 1, 1, 2}` (so most rows are all-equal or zero-led) and parallel
/// arcs are kept, except where row overflow is compared with the loop.
#[cfg(test)]
mod cutoff_props {
    use super::*;
    use crate::spec::Partition;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rkranks_graph::{
        distance, rank_matrix, sssp, DedupPolicy, EdgeDirection, GraphBuilder, INF,
    };
    use std::collections::BTreeMap;

    /// `raw` taken modulo `n`, self-loops dropped, weights `{0, 1, 1, 2}`.
    fn build(
        n: u32,
        raw: impl IntoIterator<Item = (u32, u32, usize)>,
        directed: bool,
        policy: DedupPolicy,
    ) -> Graph {
        let mut b = GraphBuilder::new(if directed {
            EdgeDirection::Directed
        } else {
            EdgeDirection::Undirected
        })
        .dedup_policy(policy);
        b.reserve_nodes(n);
        for (u, v, w) in raw {
            if u % n != v % n {
                b.add_edge(u % n, v % n, [0.0, 1.0, 1.0, 2.0][w]).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn multigraph(n: u32, raw: Vec<(u32, u32, usize)>, directed: bool) -> Graph {
        build(n, raw, directed, DedupPolicy::KeepAll)
    }

    /// FIFO's worst case in `build`'s weights, for the guard to meet: a
    /// zero chain `0 → 1 → 2 → 3 → 4`, the tail head `5` entered from `0`
    /// at 2, from `2` at 1 and from `4` at 0, the tail's own edges weighted
    /// `tail` (indices into `build`'s weights), then three 2-edges out of
    /// it. Directed and from `0`, FIFO dequeues the tail under one entry
    /// and re-queues it under each later one; most such graphs re-queue
    /// more than they insert, and some `(0, q)` call switches to distance
    /// order. Returns the node count and the edges.
    fn fifo_trap(tail: &[usize]) -> (u32, Vec<(u32, u32, usize)>) {
        let end = 5 + tail.len() as u32;
        let chain = (0..4).map(|j| (j, j + 1, 0));
        let entries = [(0, 5, 3), (2, 5, 1), (4, 5, 0)];
        let tail = (5..end)
            .zip(tail.iter().copied())
            .map(|(i, w)| (i, i + 1, w));
        let out = (end..end + 3).map(|i| (i, i + 1, 3));
        (
            end + 4,
            chain.chain(entries).chain(tail).chain(out).collect(),
        )
    }

    fn refine(
        g: &Graph,
        spec: QuerySpec<'_>,
        ws: &mut DijkstraWorkspace,
        p: NodeId,
        q: NodeId,
        k_rank: u32,
        anchor: Option<Anchor<'_>>,
    ) -> RefineOutcome {
        let dpq = distance(g, p, q);
        let (hooks, stats) = (&mut RefineHooks::none(), &mut QueryStats::default());
        refine_rank(g, spec, ws, p, q, dpq, k_rank, anchor, hooks, stats)
    }

    /// A FIFO call as [`refine_rank`] runs it and the same call begun in
    /// distance order, with `lcount` bumped, side by side, on one graph.
    struct Twin<'g> {
        g: &'g Graph,
        spec: QuerySpec<'g>,
        /// All-pairs distances.
        dist: Vec<Vec<Distance>>,
        /// The longest row.
        row: u64,
        fifo: DijkstraWorkspace,
        ordered: DijkstraWorkspace,
        lcount: Stamped<u32>,
    }

    impl<'g> Twin<'g> {
        fn new(g: &'g Graph, spec: QuerySpec<'g>) -> Twin<'g> {
            let n = g.num_nodes();
            Twin {
                g,
                spec,
                dist: g.nodes().map(|s| sssp(g, s)).collect(),
                row: g
                    .nodes()
                    .map(|v| g.out_neighbors(v).0.len())
                    .max()
                    .unwrap_or(0) as u64,
                fifo: DijkstraWorkspace::new(n),
                ordered: DijkstraWorkspace::new(n),
                lcount: Stamped::new(n as usize, 0),
            }
        }

        /// `lcount` after a call, as a vector.
        fn visits(&self) -> Vec<u32> {
            (0..self.g.num_nodes() as usize)
                .map(|i| self.lcount.get(i))
                .collect()
        }

        /// Run both calls of `p` for `q` under `cap` and compare them
        /// ([`fifo_decides_as_ordered`]).
        fn check(
            &mut self,
            p: NodeId,
            q: NodeId,
            cap: u32,
            anchor: Option<Anchor<'_>>,
            at: &dyn Fn() -> String,
        ) -> Result<(), TestCaseError> {
            let (g, spec) = (self.g, self.spec);
            let dpq = self.dist[p.index()][q.index()];
            let mut stats = QueryStats::default();
            self.lcount.reset();
            let mut hooks = RefineHooks {
                lcount: Some(&mut self.lcount),
                index: None,
            };
            let fifo = refine_rank(
                g,
                spec,
                &mut self.fifo,
                p,
                q,
                dpq,
                cap,
                anchor,
                &mut hooks,
                &mut stats,
            );
            let fifo_visits = self.visits();
            self.lcount.reset();
            self.ordered.begin(p);
            let (lc, scratch) = (Some(&mut self.lcount), &mut QueryStats::default());
            let ordered = refine_begun(
                g,
                spec,
                &mut self.ordered,
                p,
                q,
                dpq,
                cap,
                anchor,
                lc,
                scratch,
            );
            let ordered_visits = self.visits();

            prop_assert_eq!(fifo, ordered, "{}", at());
            if let RefineOutcome::Exact(_) = fifo {
                for v in g.nodes() {
                    let labels = (self.fifo.dist_of(v), self.ordered.dist_of(v));
                    prop_assert_eq!(labels.0, labels.1, "label of {} {}", v, at());
                }
                prop_assert_eq!(fifo_visits, ordered_visits, "{}", at());
            } else {
                let in_s = |v: usize| v != q.index() && self.dist[p.index()][v] < dpq;
                for visits in [fifo_visits, ordered_visits] {
                    for (v, &c) in visits.iter().enumerate() {
                        prop_assert!(c <= 1 && (c == 0 || in_s(v)), "visit of {} {}", v, at());
                    }
                }
            }
            let (requeues, pushes) = (stats.refinement_requeues, stats.refinement_pushes);
            prop_assert!(
                requeues <= 2 * pushes + self.row,
                "{} re-queues {}",
                requeues,
                at()
            );
            Ok(())
        }
    }

    /// FIFO ≡ ordered (module docs, "Order") on one generated graph: every
    /// `(p, q)` under every cap, plain, and anchored on every `a` strictly
    /// inside a shortest `p → q` path. Both calls decide alike. A completed
    /// pair leaves the same labels — so the same stamped set, which is what
    /// an anchor freezes — and the same `lcount` vector. An aborted pair
    /// stops at different insertions, so there each side bumps only
    /// members of `S(p)`, each at most once. Re-queues stay within twice
    /// the insertions plus one row.
    fn fifo_decides_as_ordered(
        n: u32,
        mut raw: Vec<(u32, u32, usize)>,
        trap: Option<Vec<usize>>,
        directed: bool,
        keep_all: bool,
        v2: Option<Vec<bool>>,
    ) -> Result<(), TestCaseError> {
        let n = match trap {
            Some(tail) => {
                let (n, trap) = fifo_trap(&tail);
                raw.truncate(3);
                raw.splice(0..0, trap);
                n
            }
            None => n,
        };
        let policy = if keep_all {
            DedupPolicy::KeepAll
        } else {
            DedupPolicy::KeepMin
        };
        let g = build(n, raw, directed, policy);
        let part = v2.map(|mask| Partition::from_v2_mask(mask[..n as usize].to_vec()));
        let spec = part
            .as_ref()
            .map_or(QuerySpec::Mono, QuerySpec::Bichromatic);
        let caps = || (1..=n).chain([u32::MAX]);
        let mut twin = Twin::new(&g, spec);
        let dist = twin.dist.clone();
        let mut ball = DijkstraWorkspace::new(n);
        for p in g.nodes() {
            for q in g.nodes() {
                if p == q || dist[p.index()][q.index()] == INF {
                    continue;
                }
                for cap in caps() {
                    let at = || format!("p={p} q={q} cap={cap} v2={part:?} in {g:?}");
                    twin.check(p, q, cap, None, &at)?;
                }
            }
        }
        for a in g.nodes() {
            for q in g.nodes() {
                let daq = dist[a.index()][q.index()];
                if a == q || daq == INF || daq == 0.0 {
                    continue;
                }
                let mut stats = QueryStats::default();
                let hooks = &mut RefineHooks::none();
                let out = refine_rank(
                    &g,
                    spec,
                    &mut ball,
                    a,
                    q,
                    daq,
                    u32::MAX,
                    None,
                    hooks,
                    &mut stats,
                );
                let RefineOutcome::Exact(r) = out else {
                    unreachable!("an uncapped refinement completes");
                };
                let anchor = Anchor {
                    node: a,
                    ball: &ball,
                    counted: r - 1 + spec.is_counted(a) as u32,
                };
                for p in g.nodes() {
                    let dpq = dist[p.index()][q.index()];
                    if p == a || p == q || dpq == INF || dist[p.index()][a.index()] + daq != dpq {
                        continue;
                    }
                    for cap in caps() {
                        let at = || format!("a={a} p={p} q={q} cap={cap} v2={part:?} in {g:?}");
                        twin.check(p, q, cap, Some(anchor), &at)?;
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn refine_rank_matches_rank_matrix_on_tie_heavy_multigraphs(
            n in 2u32..10,
            raw in proptest::collection::vec((0u32..10, 0u32..10, 0usize..4), 1..40),
            directed in any::<bool>(),
        ) {
            let g = multigraph(n, raw, directed);
            let truth = rank_matrix(&g);
            let mut ws = DijkstraWorkspace::new(n);
            for p in g.nodes() {
                for q in g.nodes() {
                    let Some(rank) = truth[p.index()][q.index()] else {
                        continue; // p == q, or q unreachable from p
                    };
                    let got = refine(&g, QuerySpec::Mono, &mut ws, p, q, u32::MAX, None);
                    prop_assert_eq!(got, RefineOutcome::Exact(rank), "Rank({},{}) in {:?}", p, q, g);
                }
            }
        }

        /// Row overflow (module docs) against the loop it replaces, with
        /// no switch: one edge set with no parallel pair, built `KeepMin`
        /// (shortcut on) and `KeepAll` (flagged, shortcut off) into the
        /// same rows. Every pair under every cap decides alike, settles
        /// alike and leaves Lemma 4's counters alike. Node 0 is a hub, so
        /// rows that overflow after the first settle, with stamped nodes
        /// in them, are common.
        #[test]
        fn row_overflow_decides_exactly_what_the_loop_decides(
            n in 3u32..12,
            spokes in proptest::collection::vec(0usize..4, 11),
            raw in proptest::collection::vec((0u32..12, 0u32..12, 0usize..4), 0..16),
            directed in any::<bool>(),
        ) {
            let mut edges = BTreeMap::new();
            let hub = spokes.into_iter().zip(1..n).map(|(w, leaf)| (0, leaf, w));
            for (u, v, w) in hub.chain(raw) {
                let (u, v) = (u % n, v % n);
                let pair = if directed { (u, v) } else { (u.min(v), u.max(v)) };
                edges.entry(pair).or_insert(w);
            }
            let edges: Vec<_> = edges.into_iter().map(|((u, v), w)| (u, v, w)).collect();
            let on = build(n, edges.clone(), directed, DedupPolicy::KeepMin);
            let off = build(n, edges, directed, DedupPolicy::KeepAll);
            prop_assert!(!on.may_have_parallel_arcs() && off.may_have_parallel_arcs());
            for v in on.nodes() {
                prop_assert_eq!(on.out_neighbors(v), off.out_neighbors(v));
            }
            let mut ws = DijkstraWorkspace::new(n);
            let mut lcount = Stamped::new(n as usize, 0u32);
            let mut run = |g: &Graph, p, q, cap| {
                lcount.reset();
                let mut stats = QueryStats::default();
                let mut hooks = RefineHooks { lcount: Some(&mut lcount), index: None };
                let dpq = distance(g, p, q);
                let out = refine_rank(g, QuerySpec::Mono, &mut ws, p, q, dpq, cap, None, &mut hooks, &mut stats);
                let visits: Vec<u32> = (0..n as usize).map(|i| lcount.get(i)).collect();
                (out, stats.refinement_settles, visits, stats.refinement_pushes)
            };
            for p in on.nodes() {
                for q in on.nodes() {
                    if p == q {
                        continue;
                    }
                    for cap in 1..=n {
                        let (out, settles, visits, pushes) = run(&on, p, q, cap);
                        let (looped, loop_settles, loop_visits, loop_pushes) = run(&off, p, q, cap);
                        let at = format!("p={p} q={q} cap={cap} in {on:?}");
                        prop_assert_eq!(out, looped, "{}", at);
                        prop_assert_eq!(settles, loop_settles, "{}", at);
                        prop_assert_eq!(visits, loop_visits, "{}", at);
                        prop_assert!(pushes <= loop_pushes, "{}", at);
                    }
                }
            }
        }

        /// Every `(a, p, q)` with `a` strictly inside a shortest `p → q`
        /// path (`d(a,q) > 0`; `d(p,a)` may be 0 — a zero-weight edge into
        /// `a`, which on an undirected graph puts `p` inside the ball):
        /// from `a`'s frozen ball the outcome is the plain one, exact rank
        /// and abort alike, under every cap. With a partition, `a` and `p`
        /// fall on either side of "counted".
        #[test]
        fn anchored_refinement_equals_plain_on_tie_heavy_multigraphs(
            n in 3u32..9,
            raw in proptest::collection::vec((0u32..9, 0u32..9, 0usize..4), 1..36),
            directed in any::<bool>(),
            bichromatic in any::<bool>(),
            v2 in proptest::collection::vec(any::<bool>(), 9),
        ) {
            let g = multigraph(n, raw, directed);
            let part = bichromatic.then(|| Partition::from_v2_mask(v2[..n as usize].to_vec()));
            let spec = part.as_ref().map_or(QuerySpec::Mono, QuerySpec::Bichromatic);
            let (mut ball, mut ws) = (DijkstraWorkspace::new(n), DijkstraWorkspace::new(n));
            for a in g.nodes() {
                for q in g.nodes() {
                    let daq = distance(&g, a, q);
                    if a == q || daq == INF || daq == 0.0 {
                        continue;
                    }
                    let RefineOutcome::Exact(r) = refine(&g, spec, &mut ball, a, q, u32::MAX, None)
                    else {
                        unreachable!("an uncapped refinement completes");
                    };
                    let anchor = Anchor {
                        node: a,
                        ball: &ball,
                        counted: r - 1 + spec.is_counted(a) as u32,
                    };
                    for p in g.nodes() {
                        let dpq = distance(&g, p, q);
                        if p == a || p == q || dpq == INF || distance(&g, p, a) + daq != dpq {
                            continue;
                        }
                        for cap in (1..=n).chain([u32::MAX]) {
                            let plain = refine(&g, spec, &mut ws, p, q, cap, None);
                            let anchored = refine(&g, spec, &mut ws, p, q, cap, Some(anchor));
                            prop_assert_eq!(
                                anchored, plain,
                                "a={} p={} q={} cap={} v2={:?} in {:?}", a, p, q, cap, part, g
                            );
                        }
                    }
                }
            }
        }

        /// FIFO ≡ ordered ([`fifo_decides_as_ordered`]) on tie-heavy
        /// multigraphs and their `KeepMin` builds (row overflow on),
        /// directed and undirected, mono and bichromatic — and, half the
        /// time, on a [`fifo_trap`] with up to three of those edges added.
        /// About a fifth of all cases (221 of the 1,088 here and in the
        /// 1,024-case twin) make some FIFO call meet the guard.
        #[test]
        fn fifo_refinement_decides_as_the_ordered_one(
            n in 2u32..10,
            raw in proptest::collection::vec((0u32..16, 0u32..16, 0usize..4), 1..40),
            (trap, tail) in (any::<bool>(), proptest::collection::vec(0usize..2, 3..8)),
            directed in any::<bool>(),
            keep_all in any::<bool>(),
            (bichromatic, v2) in (any::<bool>(), proptest::collection::vec(any::<bool>(), 16)),
        ) {
            let (trap, v2) = (trap.then_some(tail), bichromatic.then_some(v2));
            fifo_decides_as_ordered(n, raw, trap, directed, keep_all, v2)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// [`fifo_refinement_decides_as_the_ordered_one`] at 1,024 cases
        /// (CI runs it in the release test step, `--include-ignored`).
        #[test]
        #[ignore = "1,024 cases; run with --release --include-ignored"]
        fn fifo_refinement_decides_as_the_ordered_one_at_1024_cases(
            n in 2u32..10,
            raw in proptest::collection::vec((0u32..16, 0u32..16, 0usize..4), 1..40),
            (trap, tail) in (any::<bool>(), proptest::collection::vec(0usize..2, 3..8)),
            directed in any::<bool>(),
            keep_all in any::<bool>(),
            (bichromatic, v2) in (any::<bool>(), proptest::collection::vec(any::<bool>(), 16)),
        ) {
            let (trap, v2) = (trap.then_some(tail), bichromatic.then_some(v2));
            fifo_decides_as_ordered(n, raw, trap, directed, keep_all, v2)?;
        }
    }
}
