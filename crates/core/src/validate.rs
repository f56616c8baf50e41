//! Cross-algorithm result validation.
//!
//! Definition 2 determines the result only up to ties at the `kRank`
//! boundary: any node whose rank equals the k-th rank may or may not be
//! chosen. Two correct algorithms can therefore return different node sets
//! while both being right. [`results_equivalent`] checks the invariant that
//! *is* determined: the multiset of ranks, and the exact node set strictly
//! below the boundary. [`assert_all_strategies_match`] holds every
//! [`Strategy::ALL`] member to it against one reference answer.

use rkranks_graph::NodeId;

use crate::context::EngineContext;
use crate::index::{IndexAccess, IndexDelta, RkrIndex};
use crate::request::{QueryRequest, Strategy};
use crate::result::QueryResult;

/// `true` if two results are equal modulo boundary-tie freedom.
pub fn results_equivalent(a: &QueryResult, b: &QueryResult) -> bool {
    if a.entries.len() != b.entries.len() {
        return false;
    }
    // Entries are sorted by (rank, node); the rank multiset must match.
    if a.ranks() != b.ranks() {
        return false;
    }
    let boundary = match a.entries.last() {
        Some(e) => e.rank,
        None => return true,
    };
    // Below the boundary rank the node sets must be identical.
    let below = |r: &QueryResult| {
        r.entries
            .iter()
            .filter(|e| e.rank < boundary)
            .map(|e| e.node)
            .collect::<Vec<_>>()
    };
    below(a) == below(b)
}

/// Panic with a readable diff if the results are not equivalent (test
/// helper).
pub fn assert_equivalent(context: &str, a: &QueryResult, b: &QueryResult) {
    assert!(
        results_equivalent(a, b),
        "{context}: results differ beyond tie freedom\n  a: {:?}\n  b: {:?}",
        a.entries,
        b.entries
    );
}

/// Run `(q, k)` under every [`Strategy::ALL`] member on `ctx` and panic
/// unless each answer is [`results_equivalent`] to `reference` (naive, or
/// a brute force — anything computed independently of the strategies
/// under test). Test helper.
///
/// Indexed members run twice: through [`IndexAccess::Live`] on a clone of
/// `index`, and through [`IndexAccess::Snapshot`] over `index` itself with
/// a fresh [`IndexDelta`]. `None` stands for a cold (empty) index of
/// `K = k`; a given index needs `k ≤ K`.
pub fn assert_all_strategies_match(
    ctx: &EngineContext,
    index: Option<&RkrIndex>,
    q: NodeId,
    k: u32,
    reference: &QueryResult,
) {
    let cold = RkrIndex::empty(ctx.graph().num_nodes(), k);
    let index = index.unwrap_or(&cold);
    let mut scratch = ctx.new_scratch();
    for strategy in Strategy::ALL {
        let req = QueryRequest::new(q, k).with_strategy(strategy);
        let mut check = |binding: &str, access: Option<&mut IndexAccess<'_>>| {
            let label = format!("{strategy} ({binding}) q={q} k={k}");
            let got = ctx
                .execute_with(&mut scratch, access, &req)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .result;
            assert_equivalent(&label, reference, &got);
        };
        if strategy.needs_index() {
            let live = &mut index.clone();
            check("live index", Some(&mut IndexAccess::Live(live)));
            let (snapshot, delta) = (index, &mut IndexDelta::for_index(index));
            let access = &mut IndexAccess::Snapshot { snapshot, delta };
            check("snapshot + delta", Some(access));
        } else {
            check("no index", None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BoundConfig, BoundSource};
    use crate::index::IndexParams;
    use crate::result::ResultEntry;
    use crate::stats::QueryStats;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn result(entries: &[(u32, u32)]) -> QueryResult {
        QueryResult {
            entries: entries
                .iter()
                .map(|&(node, rank)| ResultEntry {
                    node: NodeId(node),
                    rank,
                })
                .collect(),
            stats: QueryStats::default(),
        }
    }

    #[test]
    fn identical_results_are_equivalent() {
        let a = result(&[(1, 1), (2, 2)]);
        let b = result(&[(1, 1), (2, 2)]);
        assert!(results_equivalent(&a, &b));
    }

    #[test]
    fn boundary_ties_may_differ() {
        // k-th rank is 3 in both; node choice at rank 3 is free.
        let a = result(&[(1, 1), (5, 3)]);
        let b = result(&[(1, 1), (9, 3)]);
        assert!(results_equivalent(&a, &b));
    }

    #[test]
    fn non_boundary_nodes_must_match() {
        let a = result(&[(1, 1), (5, 3)]);
        let b = result(&[(2, 1), (5, 3)]);
        assert!(!results_equivalent(&a, &b));
    }

    #[test]
    fn different_ranks_are_not_equivalent() {
        let a = result(&[(1, 1), (5, 3)]);
        let b = result(&[(1, 1), (5, 4)]);
        assert!(!results_equivalent(&a, &b));
    }

    #[test]
    fn different_sizes_are_not_equivalent() {
        let a = result(&[(1, 1)]);
        let b = result(&[(1, 1), (5, 3)]);
        assert!(!results_equivalent(&a, &b));
    }

    #[test]
    fn empty_results_are_equivalent() {
        assert!(results_equivalent(&result(&[]), &result(&[])));
    }

    #[test]
    #[should_panic(expected = "results differ")]
    fn assert_helper_panics_with_context() {
        assert_equivalent("ctx", &result(&[(1, 1)]), &result(&[(1, 2)]));
    }

    /// Directed 3-cycle with a back chord; `naive(q, 2)` per node as
    /// reference.
    fn directed_fixture() -> (EngineContext, Vec<QueryResult>) {
        let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 2.5)];
        let g = graph_from_edges(EdgeDirection::Directed, edges).unwrap();
        let ctx = EngineContext::new(&g);
        let mut scratch = ctx.new_scratch();
        let naive = g
            .nodes()
            .map(|q| {
                let req = QueryRequest::new(q, 2).with_strategy(Strategy::Naive);
                ctx.execute(&mut scratch, &req).unwrap().result
            })
            .collect();
        (ctx, naive)
    }

    /// Lemma 4 does not hold on directed graphs, so the count row is switched
    /// off there: the count members must still match naive, cold and built,
    /// and the count bound must never be credited with a prune.
    #[test]
    fn driver_covers_directed_graphs_where_count_is_auto_disabled() {
        let (ctx, naive) = directed_fixture();
        let (built, _) = ctx.build_index(&IndexParams {
            hub_fraction: 0.5,
            prefix_fraction: 0.5,
            k_max: 2,
            ..Default::default()
        });
        let mut scratch = ctx.new_scratch();
        for (q, reference) in ctx.graph().nodes().zip(&naive) {
            assert_all_strategies_match(&ctx, None, q, 2, reference);
            assert_all_strategies_match(&ctx, Some(&built), q, 2, reference);
            let req =
                QueryRequest::new(q, 2).with_strategy(Strategy::Dynamic(BoundConfig::PARENT_COUNT));
            let out = ctx.execute(&mut scratch, &req).unwrap();
            assert_eq!(out.stats().pops.wins(BoundSource::Count), 0, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "naive (no index) q=0 k=2: results differ")]
    fn driver_panics_on_a_wrong_reference() {
        let (ctx, naive) = directed_fixture();
        let mut wrong = naive[0].clone();
        wrong.entries[0].rank += 1;
        assert_all_strategies_match(&ctx, None, NodeId(0), 2, &wrong);
    }
}
