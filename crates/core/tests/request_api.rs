//! The unified request API: strategy string round-trips (property
//! tested), `QuerySpec::validate_query` error paths, and the
//! partial-result invariants.
//!
//! ## Partial-result invariants under test
//!
//! 1. **Exactness / never over-reporting**: every entry a partial answer
//!    contains carries the true `Rank(node, q)` — verified against the
//!    brute-force rank matrix.
//! 2. **Valid `k_rank_bound`**: the complete answer's k-th rank is at
//!    most the bound a partial outcome reports (continuing the search
//!    can only improve `R`).
//! 3. **Determinism of the budget limit**: `refine_budget = b` executes
//!    at most `b` refinements, regardless of machine speed.

use std::time::Duration;

use proptest::prelude::*;
// Core's `Strategy` enum shadows proptest's `Strategy` trait, so the
// trait comes in under an alias (methods resolve as long as it is in
// scope).
use proptest::strategy::Strategy as PropStrategy;
use rkranks_core::{
    BoundConfig, Completion, EngineContext, IndexAccess, PartialReason, Partition, QueryRequest,
    QuerySpec, Strategy,
};
use rkranks_graph::{graph_from_edges, rank_matrix, EdgeDirection, Graph, GraphBuilder, NodeId};

fn arb_graph(max_nodes: u32) -> impl PropStrategy<Value = Graph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let backbone = proptest::collection::vec(0.1f64..8.0, (n - 1) as usize);
        let extra = proptest::collection::vec((0..n, 0..n, 0.1f64..8.0), 0..16);
        (Just(n), backbone, extra).prop_map(|(n, bb, extra)| {
            let mut b = GraphBuilder::new(EdgeDirection::Undirected);
            b.reserve_nodes(n);
            for (i, w) in bb.into_iter().enumerate() {
                b.add_edge(i as u32 + 1, (i as u32) / 2, w).unwrap();
            }
            for (u, v, w) in extra {
                if u != v {
                    b.add_edge(u, v, w).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

/// Generator covering every distinct strategy value.
fn arb_strategy() -> impl PropStrategy<Value = Strategy> {
    (0..Strategy::ALL.len()).prop_map(|i| Strategy::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Strategy::name` / `FromStr` are inverses, case-insensitively.
    #[test]
    fn strategy_name_round_trips(s in arb_strategy()) {
        prop_assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
        prop_assert_eq!(s.name().to_ascii_uppercase().parse::<Strategy>().unwrap(), s);
        // Display and name agree (the wire protocol relies on this).
        prop_assert_eq!(format!("{s}"), s.name());
    }

    /// `BoundConfig::name` (the Tables-12/13 spelling) parses back, as
    /// does the bare suffix embedded in the strategy name.
    #[test]
    fn bound_config_name_round_trips(i in 0usize..4) {
        let b = [
            BoundConfig::PARENT_ONLY,
            BoundConfig::PARENT_HEIGHT,
            BoundConfig::PARENT_COUNT,
            BoundConfig::ALL,
        ][i];
        prop_assert_eq!(b.name().parse::<BoundConfig>().unwrap(), b);
        let strategy_form = Strategy::Dynamic(b).name();
        let suffix = strategy_form.strip_prefix("dynamic-").unwrap();
        prop_assert_eq!(suffix.parse::<BoundConfig>().unwrap(), b);
    }

    /// The budget limit is exact: at most `budget` refinements run, and
    /// every partial invariant holds on arbitrary graphs.
    #[test]
    fn refine_budget_partial_invariants(g in arb_graph(14), budget in 0u64..6, k in 1u32..4) {
        let m = rank_matrix(&g);
        let ctx = EngineContext::new(&g);
        let mut scratch = ctx.new_scratch();
        for q in g.nodes() {
            let full = ctx.execute(&mut scratch, &QueryRequest::new(q, k)).unwrap();
            let req = QueryRequest::new(q, k).with_refine_budget(budget);
            let out = ctx.execute(&mut scratch, &req).unwrap();
            prop_assert!(out.result.stats.refinement_calls <= budget);
            // Never over-reports: at most k entries, each with its true rank.
            prop_assert!(out.result.entries.len() <= k as usize);
            for e in &out.result.entries {
                prop_assert_eq!(
                    Some(e.rank), m[e.node.index()][q.index()],
                    "partial entry rank must be exact (q={}, p={})", q, e.node
                );
            }
            match out.completion {
                Completion::Complete => {
                    // A complete outcome is the full answer.
                    prop_assert_eq!(out.result.ranks(), full.result.ranks());
                }
                Completion::Partial { reason, k_rank_bound } => {
                    prop_assert_eq!(reason, PartialReason::RefineBudgetExhausted);
                    // Valid bound: the complete answer's k-th rank cannot
                    // exceed it (if the complete answer filled all k slots).
                    if full.result.entries.len() == k as usize {
                        let true_kth = full.result.entries[k as usize - 1].rank;
                        prop_assert!(
                            true_kth <= k_rank_bound,
                            "true k-th rank {} > reported bound {}", true_kth, k_rank_bound
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn zero_budget_is_partial_everything_else_complete() {
    let g = graph_from_edges(
        EdgeDirection::Undirected,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
    )
    .unwrap();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let out = ctx
        .execute(
            &mut scratch,
            &QueryRequest::new(NodeId(0), 2).with_refine_budget(0),
        )
        .unwrap();
    assert!(matches!(
        out.completion,
        Completion::Partial {
            reason: PartialReason::RefineBudgetExhausted,
            ..
        }
    ));
    assert_eq!(out.result.stats.refinement_calls, 0);
    // Without limits the same request is complete.
    let out = ctx
        .execute(&mut scratch, &QueryRequest::new(NodeId(0), 2))
        .unwrap();
    assert!(out.is_complete());
}

/// The acceptance scenario: a deadline-bounded query against a slow
/// (large) graph returns `Partial` immediately — and with a warm index
/// seeding `R`, the partial answer is non-empty with exact ranks and a
/// finite, valid `k_rank_bound`.
#[test]
fn deadline_on_slow_graph_returns_partial_with_valid_bound() {
    // A long weighted path: static/dynamic search from the middle is far
    // too slow to finish inside a zero deadline.
    let n = 4000u32;
    let mut b = GraphBuilder::new(EdgeDirection::Undirected);
    b.reserve_nodes(n);
    for i in 0..n - 1 {
        b.add_edge(i, i + 1, 1.0 + (i % 7) as f64 * 0.25).unwrap();
    }
    let g = b.build().unwrap();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let q = NodeId(n / 2);
    let k = 4;

    // Bare deadline: partial, nothing refined yet, bound still open.
    let out = ctx
        .execute(
            &mut scratch,
            &QueryRequest::new(q, k).with_deadline(Duration::ZERO),
        )
        .unwrap();
    let Completion::Partial {
        reason,
        k_rank_bound,
    } = out.completion
    else {
        panic!("a zero deadline must trip");
    };
    assert_eq!(reason, PartialReason::DeadlineExceeded);
    assert_eq!(k_rank_bound, u32::MAX, "R never filled");

    // Warm an index with the complete answer, then repeat under the
    // deadline: the RRD seeds R before the clock is checked, so the
    // partial result carries exact entries and a finite bound.
    let mut index = rkranks_core::RkrIndex::empty(n, 16);
    let full = ctx
        .execute_with(
            &mut scratch,
            Some(&mut IndexAccess::Live(&mut index)),
            &QueryRequest::new(q, k).with_strategy(Strategy::Indexed(BoundConfig::ALL)),
        )
        .unwrap();
    assert!(full.is_complete());
    let true_kth = full.result.entries.last().unwrap().rank;

    let req = QueryRequest::new(q, k)
        .with_strategy(Strategy::Indexed(BoundConfig::ALL))
        .with_deadline(Duration::ZERO);
    let out = ctx
        .execute_with(&mut scratch, Some(&mut IndexAccess::Live(&mut index)), &req)
        .unwrap();
    let Completion::Partial {
        reason,
        k_rank_bound,
    } = out.completion
    else {
        panic!("the deadline must still trip on the seeded query");
    };
    assert_eq!(reason, PartialReason::DeadlineExceeded);
    assert!(!out.result.entries.is_empty(), "RRD seeds survive the trip");
    // Every seeded entry is exact: it matches the complete answer's rank
    // for that node.
    for e in &out.result.entries {
        assert!(
            full.result
                .entries
                .iter()
                .any(|f| f.node == e.node && f.rank == e.rank),
            "partial entry {e:?} not in the complete answer"
        );
    }
    assert!(
        true_kth <= k_rank_bound,
        "true k-th rank {true_kth} exceeds the reported bound {k_rank_bound}"
    );
}

#[test]
fn indexed_strategy_without_binding_is_an_error() {
    let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 1.0)]).unwrap();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let req = QueryRequest::new(NodeId(0), 1).with_strategy(Strategy::Indexed(BoundConfig::ALL));
    let err = ctx.execute(&mut scratch, &req).unwrap_err();
    assert!(err.to_string().contains("index binding"), "{err}");
}

#[test]
fn execute_validates_like_the_old_surface() {
    let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    for strategy in [
        Strategy::Naive,
        Strategy::Static,
        Strategy::Dynamic(BoundConfig::ALL),
    ] {
        // k = 0 rejected
        let req = QueryRequest::new(NodeId(0), 0).with_strategy(strategy);
        assert!(ctx.execute(&mut scratch, &req).is_err(), "{strategy}: k=0");
        // out-of-bounds node rejected
        let req = QueryRequest::new(NodeId(99), 1).with_strategy(strategy);
        assert!(ctx.execute(&mut scratch, &req).is_err(), "{strategy}: node");
    }
    // k > K rejected for indexed strategies, live and snapshot alike.
    let mut index = rkranks_core::RkrIndex::empty(3, 2);
    let req = QueryRequest::new(NodeId(0), 3).with_strategy(Strategy::Indexed(BoundConfig::ALL));
    let err = ctx
        .execute_with(&mut scratch, Some(&mut IndexAccess::Live(&mut index)), &req)
        .unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");
    let snapshot = index.clone();
    let mut delta = rkranks_core::IndexDelta::for_index(&snapshot);
    let err = ctx
        .execute_with(
            &mut scratch,
            Some(&mut IndexAccess::Snapshot {
                snapshot: &snapshot,
                delta: &mut delta,
            }),
            &req,
        )
        .unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");
}

#[test]
fn validate_query_error_paths() {
    // Mono accepts any node.
    assert!(QuerySpec::Mono.validate_query(NodeId(7)).is_ok());

    // Bichromatic: only V2 nodes may be queried, and the error names the
    // offending node and the constraint.
    let part = Partition::from_v2_nodes(4, &[NodeId(1), NodeId(3)]);
    let spec = QuerySpec::Bichromatic(&part);
    assert!(spec.validate_query(NodeId(1)).is_ok());
    assert!(spec.validate_query(NodeId(3)).is_ok());
    for bad in [NodeId(0), NodeId(2)] {
        let err = spec.validate_query(bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&bad.to_string()), "{msg}");
        assert!(msg.contains("V2"), "{msg}");
    }

    // The same rejection surfaces through execute, for every strategy.
    let g = graph_from_edges(
        EdgeDirection::Undirected,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
    )
    .unwrap();
    let ctx = EngineContext::bichromatic(&g, part);
    let mut scratch = ctx.new_scratch();
    for strategy in [
        Strategy::Naive,
        Strategy::Static,
        Strategy::Dynamic(BoundConfig::ALL),
    ] {
        let req = QueryRequest::new(NodeId(0), 1).with_strategy(strategy);
        let err = ctx.execute(&mut scratch, &req).unwrap_err();
        assert!(err.to_string().contains("V2"), "{strategy}: {err}");
        let ok = QueryRequest::new(NodeId(1), 1).with_strategy(strategy);
        assert!(ctx.execute(&mut scratch, &ok).is_ok(), "{strategy}");
    }
}
