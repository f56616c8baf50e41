//! The query engine facade: bound configuration and the single-threaded
//! entry point for [`QueryRequest`] execution.
//!
//! The paper's strategies are selected by [`crate::Strategy`] inside a
//! [`QueryRequest`] and run by [`QueryEngine::execute`] (or
//! [`QueryEngine::execute_with`] when an index is bound):
//!
//! * [`Naive`](crate::Strategy::Naive) — §2's brute force: refine every node.
//! * [`Static`](crate::Strategy::Static) — §3 / Algorithm 1: build the SDS-tree
//!   (Dijkstra on the transpose rooted at `q`), refine every popped node,
//!   and expand only nodes whose refinement completed (Theorem 1).
//! * [`Dynamic`](crate::Strategy::Dynamic) — §4: delay the candidate decision
//!   to pop time and skip refinement when the Theorem-2 lower bound
//!   `max(height, parent-rank, lcount)` already meets `kRank`.
//! * [`Indexed`](crate::Strategy::Indexed) — §5 / Algorithms 3–4: additionally
//!   seed `R` from the Reverse Rank Dictionary, take exact ranks from it,
//!   prune on the Check Dictionary, and write every refinement discovery
//!   back into the index (live mode) or a write-log (snapshot mode).
//!
//! [`QueryEngine`] is a convenience bundle of the two halves the engine is
//! really made of: a shared, `Sync` [`EngineContext`] (graph, lazily built
//! transpose, partition) and a per-worker [`QueryScratch`] (Dijkstra
//! workspaces, stamped arrays). Single-threaded callers use the facade and
//! never see the split; concurrent callers build one [`EngineContext`] and
//! hand each worker its own [`QueryScratch`] — see [`crate::context`].

use std::sync::Arc;

use rkranks_graph::{Graph, Result};

use crate::context::{EngineContext, QueryScratch};
use crate::index::{IndexAccess, IndexBuildStats, IndexParams, RkrIndex};
use crate::request::{QueryOutcome, QueryRequest};
use crate::spec::{Partition, QuerySpec};

/// One lower bound on a candidate's rank at its pop: a row of Theorem 2's
/// `max`, or the index's check dictionary. The order of
/// [`BoundSource::ALL`] is the order ties resolve in, so the first of two
/// equal rows is the one credited with the win (Table 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundSource {
    /// Lemma 1: `Rank(p,q) ≥ Rank(parent(p),q)`.
    Parent,
    /// Lemma 2: `Rank(p,q) ≥ depth(p)`.
    Height,
    /// Lemma 4: `Rank(p,q) ≥ lcount(p)`; it holds on undirected
    /// monochromatic graphs only, and is off elsewhere.
    Count,
    /// §5.3: the check dictionary's bound; on only when an index is bound.
    Check,
}

impl BoundSource {
    /// Every source, in tie order.
    pub const ALL: [BoundSource; 4] = [
        BoundSource::Parent,
        BoundSource::Height,
        BoundSource::Count,
        BoundSource::Check,
    ];

    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// The set of [`BoundSource`]s a search evaluates at each pop. Every
/// dynamic configuration holds the parent row (Lemma 1 is what makes the
/// SDS-tree a filter-and-refine structure at all) and the check row; the
/// height and count rows make the paper's Dynamic-Height / Dynamic-Count /
/// Dynamic-Three strategies (Tables 12–13). The static strategy is the
/// empty set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BoundConfig {
    sources: u8,
}

impl BoundConfig {
    /// The static strategy: no row, so nothing is pruned before refinement.
    pub(crate) const STATIC: BoundConfig = BoundConfig { sources: 0 };
    /// The paper's "Dynamic-Parent".
    pub const PARENT_ONLY: BoundConfig = BoundConfig {
        sources: BoundSource::Parent.bit() | BoundSource::Check.bit(),
    };
    /// The paper's "Dynamic-Count" (parent + count).
    pub const PARENT_COUNT: BoundConfig = BoundConfig {
        sources: BoundConfig::PARENT_ONLY.sources | BoundSource::Count.bit(),
    };
    /// The paper's "Dynamic-Height" (parent + height).
    pub const PARENT_HEIGHT: BoundConfig = BoundConfig {
        sources: BoundConfig::PARENT_ONLY.sources | BoundSource::Height.bit(),
    };
    /// The paper's "Dynamic-Three" (all components).
    pub const ALL: BoundConfig = BoundConfig {
        sources: BoundConfig::PARENT_HEIGHT.sources | BoundSource::Count.bit(),
    };

    /// Whether `source` is in the set.
    pub fn contains(self, source: BoundSource) -> bool {
        self.sources & source.bit() != 0
    }

    /// The rows a pass evaluates: this set less the rows whose guard fails
    /// (Lemma 4 needs an undirected monochromatic graph, the check row a
    /// bound index).
    pub(crate) fn rows(self, count_holds: bool, indexed: bool) -> BoundConfig {
        let off = |source: BoundSource, holds: bool| if holds { 0 } else { source.bit() };
        BoundConfig {
            sources: self.sources
                & !off(BoundSource::Count, count_holds)
                & !off(BoundSource::Check, indexed),
        }
    }

    /// Name matching Tables 12–13.
    pub fn name(self) -> &'static str {
        match (
            self.contains(BoundSource::Height),
            self.contains(BoundSource::Count),
        ) {
            (false, false) => "Dynamic-Parent",
            (false, true) => "Dynamic-Count",
            (true, false) => "Dynamic-Height",
            (true, true) => "Dynamic-Three",
        }
    }
}

impl Default for BoundConfig {
    fn default() -> Self {
        BoundConfig::ALL
    }
}

impl std::str::FromStr for BoundConfig {
    type Err = String;

    /// Parse a bound configuration, case-insensitively: either the
    /// Tables-12/13 name (`"Dynamic-Height"`, …) or its bare suffix
    /// (`"parent"`, `"height"`, `"count"`, `"three"`; `"all"` is
    /// an alias for `"three"`). Round-trips with [`BoundConfig::name`].
    fn from_str(s: &str) -> std::result::Result<BoundConfig, String> {
        let lower = s.to_ascii_lowercase();
        let suffix = lower.strip_prefix("dynamic-").unwrap_or(&lower);
        match suffix {
            "parent" => Ok(BoundConfig::PARENT_ONLY),
            "height" => Ok(BoundConfig::PARENT_HEIGHT),
            "count" => Ok(BoundConfig::PARENT_COUNT),
            "three" | "all" => Ok(BoundConfig::ALL),
            _ => Err(format!(
                "unknown bound configuration '{s}' (expected parent, height, count, or three)"
            )),
        }
    }
}

/// Reusable query-evaluation state bound to one graph: a thin facade over
/// an [`EngineContext`] + [`QueryScratch`] pair for single-threaded use.
pub struct QueryEngine {
    ctx: EngineContext,
    scratch: QueryScratch,
}

impl QueryEngine {
    /// Monochromatic engine (Definition 2).
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        Self::from_context(EngineContext::new(graph))
    }

    /// Bichromatic engine (Definitions 3–4): `partition`'s `V2` is the
    /// counted/query class, its complement the candidate class.
    pub fn bichromatic(graph: impl Into<Arc<Graph>>, partition: Partition) -> Self {
        Self::from_context(EngineContext::bichromatic(graph, partition))
    }

    /// Wrap an existing context with a fresh scratch.
    ///
    /// The transpose is materialized here (as the pre-split `QueryEngine`
    /// did at construction) so no query's `stats.elapsed` includes the
    /// one-off O(n+m) build.
    pub(crate) fn from_context(ctx: EngineContext) -> Self {
        ctx.sds_graph();
        let scratch = ctx.new_scratch();
        QueryEngine { ctx, scratch }
    }

    /// The shared read-only half (borrow it to spawn concurrent workers
    /// alongside this engine).
    pub fn context(&self) -> &EngineContext {
        &self.ctx
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.ctx.graph()
    }

    /// The active query specification.
    pub fn spec(&self) -> QuerySpec<'_> {
        self.ctx.spec()
    }

    /// Build an index matching this engine's query spec.
    pub fn build_index(&self, params: &IndexParams) -> (RkrIndex, IndexBuildStats) {
        self.ctx.build_index(params)
    }

    /// Execute a [`QueryRequest`] that needs no index — the facade over
    /// [`EngineContext::execute`] using this engine's own scratch.
    pub fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        self.ctx.execute(&mut self.scratch, req)
    }

    /// Execute a [`QueryRequest`] with an index binding — the facade over
    /// [`EngineContext::execute_with`] using this engine's own scratch.
    pub fn execute_with(
        &mut self,
        index: Option<&mut IndexAccess<'_>>,
        req: &QueryRequest,
    ) -> Result<QueryOutcome> {
        self.ctx.execute_with(&mut self.scratch, index, req)
    }
}

#[cfg(test)]
impl BoundConfig {
    /// The set holding `source` alone, so a test can check one row.
    pub(crate) const fn only(source: BoundSource) -> BoundConfig {
        BoundConfig {
            sources: source.bit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexDelta;
    use crate::request::Strategy;
    use crate::trace::PopDecision;
    use crate::validate::assert_all_strategies_match;
    use rkranks_graph::{graph_from_edges, EdgeDirection, NodeId};

    const NAIVE: Strategy = Strategy::Naive;
    const INDEXED: Strategy = Strategy::Indexed(BoundConfig::ALL);

    /// 0 is the hub; 1..=3 at distances 1, 2, 3; 4 hangs off 3.
    fn star_tail() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (3, 4, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_agree_on_star_tail() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let (built, _) = engine.build_index(&IndexParams {
            hub_fraction: 0.5,
            prefix_fraction: 0.5,
            k_max: 4,
            ..Default::default()
        });
        for q in g.nodes() {
            for k in 1..=4 {
                let req = QueryRequest::new(q, k).with_strategy(NAIVE);
                let naive = engine.execute(&req).unwrap().result;
                assert_all_strategies_match(engine.context(), None, q, k, &naive);
                assert_all_strategies_match(engine.context(), Some(&built), q, k, &naive);
            }
        }
    }

    /// The path `0–1–2–3` (0.1, 0.2, 0.3) ties with the edge `0–4` (0.6)
    /// from 0. Summed in `f64`, the forward `0.1 + 0.2 + 0.3` came out a
    /// bit above 0.6, so `naive` answered `(0, 4)` at `q = 3`, `k = 3` and
    /// every strategy that takes `d(0,3)` from the transpose `(0, 3)`.
    #[test]
    fn every_strategy_sums_a_tie_alike() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (0, 4, 0.6)],
        )
        .unwrap();
        let mut engine = QueryEngine::new(&g);
        let (built, _) = engine.build_index(&IndexParams {
            hub_fraction: 0.4,
            prefix_fraction: 0.4,
            k_max: 4,
            ..Default::default()
        });
        let q = NodeId(3);
        for k in [3, 4] {
            let naive = engine
                .execute(&QueryRequest::new(q, k).with_strategy(NAIVE))
                .unwrap()
                .result;
            assert_all_strategies_match(engine.context(), None, q, k, &naive);
            assert_all_strategies_match(engine.context(), Some(&built), q, k, &naive);
        }
    }

    /// The only shortest path from `0` to `4` runs `0–3–2–4` (6). The pass
    /// bound-prunes `3`, so it reaches `0` through `1` and pops it late, at
    /// 8. That refinement's ball reaches `4` at 6, under budget: only
    /// `refine_rank`'s `t == q` skip keeps `q` out of the count (without
    /// it, `0` is pruned at a lower bound of 5).
    #[test]
    fn a_late_pop_never_counts_the_query_node() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 4.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (1, 4, 4.0),
                (2, 4, 4.0),
                (0, 3, 1.0),
            ],
        )
        .unwrap();
        let mut engine = QueryEngine::new(&g);
        let out = engine
            .execute(&QueryRequest::new(NodeId(4), 2).with_trace())
            .unwrap();
        let events = out.trace.unwrap().events;
        let pop = events.iter().find(|e| e.node == NodeId(0)).unwrap();
        assert_eq!(pop.distance, 8 * rkranks_graph::UNIT);
        // 1, 2 and 3 lie within 8 of 0, and 4 is not counted
        assert!(
            matches!(pop.decision, PopDecision::Refined { rank: 4, .. }),
            "{events:?}"
        );
    }

    #[test]
    fn dynamic_never_refines_more_than_static() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        for q in g.nodes() {
            let req = QueryRequest::new(q, 2);
            let s = engine
                .execute(&req.with_strategy(Strategy::Static))
                .unwrap();
            let d = engine.execute(&req).unwrap();
            assert!(
                d.stats().refinement_calls <= s.stats().refinement_calls,
                "q={q}: dynamic {} > static {}",
                d.stats().refinement_calls,
                s.stats().refinement_calls
            );
        }
    }

    #[test]
    fn k_zero_and_bad_nodes_are_rejected() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        for (q, k, strategy) in [
            (0, 0, Strategy::Static),
            (99, 1, Strategy::Static),
            (0, 0, NAIVE),
        ] {
            let req = QueryRequest::new(NodeId(q), k).with_strategy(strategy);
            assert!(engine.execute(&req).is_err(), "{strategy} q={q} k={k}");
        }
    }

    #[test]
    fn k_larger_than_graph_returns_all_candidates() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let r = engine.execute(&QueryRequest::new(NodeId(0), 10)).unwrap();
        assert_eq!(r.result.entries.len(), 4); // everyone but q
    }

    #[test]
    fn indexed_rejects_k_above_k_max() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let mut idx = RkrIndex::empty(g.num_nodes(), 2);
        let k3 = QueryRequest::new(NodeId(0), 3).with_strategy(INDEXED);
        let k2 = QueryRequest::new(NodeId(0), 2).with_strategy(INDEXED);
        assert!(engine
            .execute_with(Some(&mut IndexAccess::Live(&mut idx)), &k3)
            .is_err());
        assert!(engine
            .execute_with(Some(&mut IndexAccess::Live(&mut idx)), &k2)
            .is_ok());
        // snapshot mode enforces the same K bound
        let mut delta = IndexDelta::for_index(&idx);
        let access = &mut IndexAccess::Snapshot {
            snapshot: &idx,
            delta: &mut delta,
        };
        assert!(engine.execute_with(Some(access), &k3).is_err());
    }

    #[test]
    fn indexed_empty_index_matches_dynamic_and_learns() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let mut idx = RkrIndex::empty(g.num_nodes(), 10);
        // every node, then a repeat query that must still be correct
        for q in g.nodes().chain([NodeId(0)]) {
            let req = QueryRequest::new(q, 2);
            let expect = engine.execute(&req).unwrap().result;
            let got = engine
                .execute_with(
                    Some(&mut IndexAccess::Live(&mut idx)),
                    &req.with_strategy(INDEXED),
                )
                .unwrap()
                .result;
            assert_eq!(expect.ranks(), got.ranks(), "q={q}");
        }
        // the index absorbed refinement results
        assert!(idx.rrd_entries() > 0);
    }

    #[test]
    fn snapshot_mode_matches_dynamic_via_facade() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let idx = RkrIndex::empty(g.num_nodes(), 10);
        let mut delta = IndexDelta::for_index(&idx);
        for q in g.nodes() {
            let req = QueryRequest::new(q, 2);
            let expect = engine.execute(&req).unwrap().result;
            let access = &mut IndexAccess::Snapshot {
                snapshot: &idx,
                delta: &mut delta,
            };
            let got = engine
                .execute_with(Some(access), &req.with_strategy(INDEXED))
                .unwrap()
                .result;
            assert_eq!(expect.ranks(), got.ranks(), "q={q}");
        }
        assert!(!delta.is_empty());
        assert_eq!(idx.rrd_entries(), 0); // the snapshot never mutates
    }

    #[test]
    fn directed_graph_uses_transpose() {
        // 0 -> 1 -> 2, plus 2 -> 0 closing the cycle.
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        )
        .unwrap();
        let mut engine = QueryEngine::new(&g);
        for q in g.nodes() {
            let req = QueryRequest::new(q, 2).with_strategy(NAIVE);
            let naive = engine.execute(&req).unwrap().result;
            assert_all_strategies_match(engine.context(), None, q, 2, &naive);
        }
    }

    #[test]
    fn unreachable_candidates_are_excluded() {
        // 1 -> 0: only node 1 can reach 0; node 2 cannot.
        let g = graph_from_edges(EdgeDirection::Directed, [(1, 0, 1.0), (0, 2, 1.0)]).unwrap();
        let mut engine = QueryEngine::new(&g);
        let req = QueryRequest::new(NodeId(0), 3);
        let r = engine.execute(&req).unwrap().result;
        assert_eq!(r.nodes(), vec![NodeId(1)]);
        let n = engine.execute(&req.with_strategy(NAIVE)).unwrap().result;
        assert_eq!(n.nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn bound_wins_are_recorded_in_dynamic_mode() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let wins =
            |s: &crate::QueryStats| BoundSource::ALL.map(|b| s.pops.wins(b)).iter().sum::<u64>();
        let req = QueryRequest::new(NodeId(0), 1);
        let r = engine.execute(&req).unwrap();
        assert!(wins(r.stats()) > 0);
        let s = engine
            .execute(&req.with_strategy(Strategy::Static))
            .unwrap();
        assert_eq!(wins(s.stats()), 0);
    }

    #[test]
    fn traced_queries_match_untraced() {
        let g = star_tail();
        let mut engine = QueryEngine::new(&g);
        let mut idx = RkrIndex::empty(g.num_nodes(), 10);
        let indexed_trace = |engine: &mut QueryEngine, idx: &mut RkrIndex, q| {
            let req = QueryRequest::new(q, 2).with_strategy(INDEXED).with_trace();
            engine
                .execute_with(Some(&mut IndexAccess::Live(idx)), &req)
                .unwrap()
        };
        for q in g.nodes() {
            let req = QueryRequest::new(q, 2);
            let plain = engine.execute(&req).unwrap().result;
            let traced = engine.execute(&req.with_trace()).unwrap();
            assert_eq!(plain.entries, traced.result.entries);
            // every pop produced exactly one event
            assert_eq!(
                traced.trace.unwrap().events.len() as u64,
                traced.result.stats.sds_popped()
            );

            let req = req.with_strategy(Strategy::Static);
            let plain = engine.execute(&req).unwrap().result;
            let traced = engine.execute(&req.with_trace()).unwrap();
            assert_eq!(plain.entries, traced.result.entries);
            assert!(traced.trace.is_some());

            let traced = indexed_trace(&mut engine, &mut idx, q);
            assert_eq!(plain.ranks(), traced.result.ranks());
        }
        // warm index produces index-hit events on a repeat query
        let trace = indexed_trace(&mut engine, &mut idx, NodeId(0))
            .trace
            .unwrap();
        assert!(
            trace
                .events
                .iter()
                .any(|e| matches!(e.decision, PopDecision::IndexHit { .. })),
            "repeat indexed query should hit the dictionary"
        );
    }
}
