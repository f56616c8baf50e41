//! Bichromatic reverse k-ranks support (§6.3.4, Definitions 3–4).
//!
//! The engine itself handles bichromatic queries via
//! [`QueryEngine::bichromatic`](crate::QueryEngine::bichromatic); this
//! module adds the brute-force reference used by tests and a filtered rank
//! helper mirroring Definition 3.

use rkranks_graph::RankCounter;
use rkranks_graph::{DijkstraWorkspace, DistanceBrowser, Graph, NodeId};

use crate::result::{QueryResult, ResultEntry};
use crate::spec::{Partition, QuerySpec};
use crate::stats::QueryStats;

/// Exact bichromatic `Rank(s, t)`: the position of `t` among `V2` nodes
/// ordered by distance from `s` (Definition 3). `None` if `t` is
/// unreachable from `s`.
pub fn bichromatic_rank(
    graph: &Graph,
    partition: &Partition,
    ws: &mut DijkstraWorkspace,
    s: NodeId,
    t: NodeId,
) -> Option<u32> {
    let spec = QuerySpec::Bichromatic(partition);
    let mut counter = RankCounter::new();
    for (v, d) in DistanceBrowser::new(graph, ws, s) {
        if v == s || !spec.is_counted(v) {
            continue;
        }
        let r = counter.on_settle(d);
        if v == t {
            return Some(r);
        }
    }
    None
}

/// Brute-force bichromatic reverse k-ranks: compute `Rank(p, q)` for every
/// candidate `p ∈ V1` and keep the `k` smallest. Test oracle — O(|V1|)
/// full browses.
pub fn bichromatic_brute_force(
    graph: &Graph,
    partition: &Partition,
    q: NodeId,
    k: u32,
) -> QueryResult {
    assert!(partition.is_v2(q), "bichromatic query node must be in V2");
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    let mut all: Vec<ResultEntry> = Vec::new();
    for p in graph.nodes() {
        if partition.is_v2(p) {
            continue;
        }
        if let Some(rank) = bichromatic_rank(graph, partition, &mut ws, p, q) {
            all.push(ResultEntry { node: p, rank });
        }
    }
    all.sort_unstable_by_key(|e| (e.rank, e.node));
    all.truncate(k as usize);
    QueryResult {
        entries: all,
        stats: QueryStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::request::QueryRequest;
    use crate::validate::assert_all_strategies_match;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    /// Line 0-1-2-3-4 with stores at the ends (V2 = {0, 4}).
    fn line_with_stores() -> (Graph, Partition) {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        )
        .unwrap();
        let p = Partition::from_v2_nodes(5, &[NodeId(0), NodeId(4)]);
        (g, p)
    }

    #[test]
    fn bichromatic_rank_counts_only_v2() {
        let (g, p) = line_with_stores();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        // From community 1: store 0 at distance 1 (rank 1), store 4 at 3 (rank 2).
        assert_eq!(
            bichromatic_rank(&g, &p, &mut ws, NodeId(1), NodeId(0)),
            Some(1)
        );
        assert_eq!(
            bichromatic_rank(&g, &p, &mut ws, NodeId(1), NodeId(4)),
            Some(2)
        );
        // From community 2 (the middle): both stores at distance 2 → shared rank 1.
        assert_eq!(
            bichromatic_rank(&g, &p, &mut ws, NodeId(2), NodeId(0)),
            Some(1)
        );
        assert_eq!(
            bichromatic_rank(&g, &p, &mut ws, NodeId(2), NodeId(4)),
            Some(1)
        );
    }

    #[test]
    fn brute_force_result_for_store_0() {
        let (g, p) = line_with_stores();
        let r = bichromatic_brute_force(&g, &p, NodeId(0), 2);
        // Ranks of store 0 from communities 1, 2, 3: 1, 1, 2.
        assert_eq!(r.ranks(), vec![1, 1]);
        assert_eq!(r.nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic]
    fn brute_force_rejects_v1_query() {
        let (g, p) = line_with_stores();
        bichromatic_brute_force(&g, &p, NodeId(2), 1);
    }

    #[test]
    fn engine_matches_brute_force_on_line() {
        let (g, p) = line_with_stores();
        let engine = QueryEngine::bichromatic(&g, p.clone());
        for &q in &[NodeId(0), NodeId(4)] {
            for k in 1..=3 {
                let expect = bichromatic_brute_force(&g, &p, q, k);
                assert_all_strategies_match(engine.context(), None, q, k, &expect);
            }
        }
    }

    #[test]
    fn engine_rejects_community_query() {
        let (g, p) = line_with_stores();
        let mut engine = QueryEngine::bichromatic(&g, p);
        assert!(engine.execute(&QueryRequest::new(NodeId(2), 1)).is_err());
    }

    #[test]
    fn v2_nodes_never_appear_in_results() {
        let (g, p) = line_with_stores();
        let mut engine = QueryEngine::bichromatic(&g, p.clone());
        let r = engine.execute(&QueryRequest::new(NodeId(0), 5)).unwrap();
        for e in &r.result.entries {
            assert!(!p.is_v2(e.node), "store {} leaked into results", e.node);
        }
    }
}
