//! Rank refinement (Algorithms 2 and 4).
//!
//! Given a candidate `p` with known `d(p,q)` (from the SDS-tree), compute
//! `Rank(p,q)` by a **bounded** Dijkstra from `p`: only nodes with
//! tentative distance strictly below `d(p,q)` ever enter the frontier, so
//! a plain call enumerates exactly `S = {v : d(p,v) < d(p,q)}` and never
//! needs to reach `q` itself. `Rank(p,q) = |S ∩ counted| + 1`. An
//! *anchored* call (below) is handed part of `S` already counted and
//! enumerates only what is left of it.
//!
//! Early termination (the `kRank` bound): every frontier insertion is a
//! node guaranteed to be in `S`, so `1 + inserted_counted` is a monotone
//! lower bound on the final rank; once it exceeds `kRank` the candidate can
//! never enter the result and refinement aborts (Algorithm 2, line 17).
//!
//! Optional hooks make this the single refinement implementation for all
//! variants:
//! * `lcount` — Algorithm 4 line 18: every inserted node's visit counter is
//!   bumped, feeding the Lemma-4 lower bound of later candidates;
//! * `index` — Algorithm 4 lines 8/20/22: every settled counted node's
//!   exact rank is offered to the Reverse Rank Dictionary, and the Check
//!   Dictionary is raised with a tie-safe bound on everything not
//!   enumerated (see [`rkranks_graph::RankCounter::unsettled_rank_lower_bound`]).
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
//! 3. a node of `B` that enters the frontier is pushed (paths to the
//!    outside run through it) but not counted a second time;
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
//! skip, the abort rule, `lcount` bumps on every insertion and the
//! counters are those of the plain call. An anchored call cannot serve an
//! index binding: Algorithm 4's per-settle offers need the complete ordered
//! enumeration that anchoring skips.
//!
//! **One ulp.** Membership in `B` is decided by `a`'s summation order, as
//! `d(p,q)` is by the transpose's (see the `t == q` note in the loop): on
//! real-valued weights a node within one ulp of either boundary may be
//! classed differently by the plain and the anchored call.
//!
//! ## Row overflow
//!
//! A plain call that settles `v` at `d` and finds that the under-budget
//! part of `v`'s row — `d + w < d(p,q)`, one binary search of the sorted
//! row with the loop's own comparison — holds at least `kRank + 2` targets
//! is certain to abort inside that row. Those targets are distinct
//! members of `S(p)` (no parallel arcs, no self-loops), so at least
//! `kRank` of them are neither `p` nor `q`. Each such target is either
//! unstamped, and the loop inserts and counts it, or stamped, and was
//! counted when it was inserted: only `p` is stamped without an
//! insertion, and `q` never is. So `1 + inserted_counted` passes `kRank` by
//! the row's end at the latest. The call then walks those targets in row
//! order doing what the loop does — skip `q` and stamped nodes, bump
//! `lcount`, count — and aborts at the node the loop would, without
//! pushing a node onto the heap. The outcome, the settles and Lemma 4's
//! counters are the loop's; `refinement_pushes` counts only real frontier
//! insertions, so it falls.
//!
//! The argument needs every target counted and every row entry a distinct
//! node, so the shortcut is off in bichromatic mode and on a graph that
//! [`Graph::may_have_parallel_arcs`] (a row's length over-counts its
//! distinct targets there). It is off with an index binding, whose prune
//! raises the Check Dictionary from the frontier the pushes would have
//! built, and without a finite `kRank`. Anchored calls do without it:
//! ball members are pushed but not counted, so the row alone proves
//! nothing, and pre-scanning every row of an anchored call for
//! out-of-ball targets measured 7 % slower on `rkr-bench`'s
//! `engine_cold`.

use rkranks_graph::rank::RankCounter;
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
    if let Some(anchor) = anchor {
        debug_assert!(hooks.index.is_none(), "an indexed pass never anchors");
        let lcount = hooks.lcount.as_deref_mut();
        return refine_anchored(graph, spec, ws, p, q, dpq, k_rank, anchor, lcount, stats);
    }

    ws.ensure_capacity(graph.num_nodes());
    ws.begin(p);
    let mut counter = RankCounter::new();
    // Counted frontier insertions: a monotone lower bound on |S ∩ counted|.
    let mut inserted_counted: u32 = 0;
    // Offers below the pre-existing check value were made by earlier runs
    // from p (the §5.3 "until the rank value exceeds Check[u]" rule); in
    // snapshot mode the floor includes this worker's own logged raises.
    let check_at_start = hooks.index.as_deref().map_or(0, |idx| idx.offer_floor(p));
    // A row with this many under-budget targets must abort the call (module
    // docs, "Row overflow"); `usize::MAX` where that argument does not hold.
    let overflow_row = if k_rank != u32::MAX
        && hooks.index.is_none()
        && !spec.is_bichromatic()
        && !graph.may_have_parallel_arcs()
    {
        (k_rank as usize).saturating_add(2)
    } else {
        usize::MAX
    };

    while let Some((v, d)) = ws.settle_next() {
        stats.refinement_settles += 1;
        if v != p && spec.is_counted(v) {
            let r = counter.on_settle(d);
            if let Some(idx) = hooks.index.as_deref_mut() {
                if r >= check_at_start {
                    idx.offer(v, p, r);
                }
            }
        }
        let (targets, weights) = graph.out_neighbors(v);
        if targets.len() >= overflow_row {
            // The loop's own cut-off, as one search of the sorted row.
            let under = weights.partition_point(|w| d + *w < dpq);
            if under >= overflow_row {
                let lcount = hooks.lcount.as_deref_mut();
                return overflow(
                    ws,
                    &targets[..under],
                    q,
                    k_rank,
                    inserted_counted,
                    lcount,
                    stats,
                );
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
            if ws.relax(*t, nd) == RelaxOutcome::Inserted {
                stats.refinement_pushes += 1;
                if let Some(lc) = hooks.lcount.as_deref_mut() {
                    lc.increment(t.index());
                }
                if spec.is_counted(*t) {
                    inserted_counted += 1;
                    if k_rank != u32::MAX && 1 + inserted_counted > k_rank {
                        return prune(ws, &counter, k_rank, p, hooks, stats);
                    }
                }
            }
        }
    }

    // Frontier drained: S is fully enumerated, the rank is exact. Every
    // node not enumerated sits at distance ≥ d(p,q), so its rank from p is
    // at least this one — exactly what the Check Dictionary stores.
    let rank = counter.settled() + 1;
    if let Some(idx) = hooks.index.as_deref_mut() {
        idx.offer(q, p, rank);
        idx.raise_check(p, rank);
    }
    RefineOutcome::Exact(rank)
}

#[cold]
fn prune(
    ws: &DijkstraWorkspace,
    counter: &RankCounter,
    k_rank: u32,
    p: NodeId,
    hooks: &mut RefineHooks<'_, '_>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    if let Some(idx) = hooks.index.as_deref_mut() {
        let next = ws.peek_frontier().map(|(_, d)| d);
        idx.raise_check(p, counter.unsettled_rank_lower_bound(next));
    }
    aborted(k_rank, stats)
}

/// The plain loop's walk of a row it is certain to abort in (module docs,
/// "Row overflow"): `targets` is the row's under-budget part, walked with
/// the loop's skips, `lcount` bumps and abort test, but no heap push.
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

/// The anchored body of [`refine_rank`] (module docs). Out of line so the
/// plain loop compiles as it did before anchors existed.
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
    mut lcount: Option<&mut Stamped<u32>>,
    stats: &mut QueryStats,
) -> RefineOutcome {
    debug_assert_ne!(p, anchor.node, "the anchor is a proper ancestor");
    stats.anchored_refinements += 1;
    let inside = |t: NodeId| anchor.ball.dist_of(t).is_some();
    let over = |count: u32| k_rank != u32::MAX && 1 + count > k_rank;
    // Counted members of S(p) known so far: the ball less p itself, then
    // every counted insertion from outside it.
    let mut count = anchor.counted - (inside(p) && spec.is_counted(p)) as u32;
    if over(count) {
        return aborted(k_rank, stats);
    }

    ws.ensure_capacity(graph.num_nodes());
    ws.begin(p);
    while let Some((v, d)) = ws.settle_next() {
        stats.refinement_settles += 1;
        if v == anchor.node {
            continue;
        }
        let (targets, weights) = graph.out_neighbors(v);
        for (t, w) in targets.iter().zip(weights.iter()) {
            let nd = d + *w;
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
                if !inside(*t) && spec.is_counted(*t) {
                    count += 1;
                    if over(count) {
                        return aborted(k_rank, stats);
                    }
                }
            }
        }
    }
    RefineOutcome::Exact(count + 1)
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
    use rkranks_graph::{distance, rank_matrix, DedupPolicy, EdgeDirection, GraphBuilder, INF};
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
    }
}
