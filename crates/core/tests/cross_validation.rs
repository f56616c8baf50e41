//! Cross-algorithm validation: naive, static, dynamic (all bound
//! configurations), and indexed evaluation must return equivalent results
//! on randomized graphs — including directed graphs, tie-heavy integer
//! weights, and evolving indexes across query streams.

use proptest::prelude::*;
use rkranks_core::{
    assert_all_strategies_match, assert_equivalent, results_equivalent, BoundConfig, EngineContext,
    HubStrategy, IndexAccess, IndexParams, Partition, QueryEngine, QueryRequest, QueryResult,
    RkrIndex,
};
use rkranks_graph::{EdgeDirection, Graph, GraphBuilder, NodeId};

// (`Strategy` alone is proptest's trait in this file.)
const NAIVE: rkranks_core::Strategy = rkranks_core::Strategy::Naive;
const INDEXED: rkranks_core::Strategy = rkranks_core::Strategy::Indexed(BoundConfig::ALL);

/// Every strategy against `reference` over `index` as it stands, then one
/// live indexed query so the next call sees what this one taught it.
fn check_and_evolve(
    ctx: &EngineContext,
    index: &mut RkrIndex,
    q: NodeId,
    k: u32,
    reference: &QueryResult,
) {
    assert_all_strategies_match(ctx, Some(index), q, k, reference);
    let req = QueryRequest::new(q, k).with_strategy(INDEXED);
    let access = &mut IndexAccess::Live(index);
    let got = ctx.execute_with(&mut ctx.new_scratch(), Some(access), &req);
    let label = format!("evolving index q={q} k={k}");
    assert_equivalent(&label, reference, &got.unwrap().result);
}

fn arb_graph(
    directed: bool,
    max_nodes: u32,
    max_extra: usize,
    integer_weights: bool,
) -> impl Strategy<Value = Graph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let weight = if integer_weights {
            // heavy ties: weights in {1, 2, 3}
            (1u32..=3).prop_map(|w| w as f64).boxed()
        } else {
            (0.1f64..10.0).boxed()
        };
        let backbone = proptest::collection::vec(weight.clone(), (n - 1) as usize);
        let extra = proptest::collection::vec((0..n, 0..n, weight), 0..=max_extra);
        (Just(n), backbone, extra).prop_map(move |(n, bb, extra)| {
            let dir = if directed {
                EdgeDirection::Directed
            } else {
                EdgeDirection::Undirected
            };
            let mut b = GraphBuilder::new(dir);
            b.reserve_nodes(n);
            for (i, w) in bb.into_iter().enumerate() {
                let v = i as u32 + 1;
                b.add_edge(v, v / 2, w).unwrap();
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

fn check_all_algorithms(g: &Graph, k: u32) {
    let ctx = EngineContext::new(g);
    let mut scratch = ctx.new_scratch();
    // One evolving index shared across all query nodes, plus a prebuilt one.
    let mut evolving = RkrIndex::empty(g.num_nodes(), 64);
    let (mut prebuilt, _) = ctx.build_index(&IndexParams {
        hub_fraction: 0.3,
        prefix_fraction: 0.5,
        k_max: 64,
        strategy: HubStrategy::DegreeFirst,
        ..Default::default()
    });
    for q in g.nodes() {
        let req = QueryRequest::new(q, k).with_strategy(NAIVE);
        let naive = ctx.execute(&mut scratch, &req).unwrap().result;
        check_and_evolve(&ctx, &mut evolving, q, k, &naive);
        check_and_evolve(&ctx, &mut prebuilt, q, k, &naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn undirected_real_weights(g in arb_graph(false, 14, 20, false), k in 1u32..6) {
        check_all_algorithms(&g, k);
    }

    #[test]
    fn undirected_tie_heavy(g in arb_graph(false, 12, 16, true), k in 1u32..6) {
        check_all_algorithms(&g, k);
    }

    #[test]
    fn directed_real_weights(g in arb_graph(true, 12, 20, false), k in 1u32..6) {
        check_all_algorithms(&g, k);
    }

    #[test]
    fn directed_tie_heavy(g in arb_graph(true, 10, 14, true), k in 1u32..5) {
        check_all_algorithms(&g, k);
    }

    #[test]
    fn repeated_queries_keep_index_consistent(
        g in arb_graph(false, 12, 16, false),
        k in 1u32..5,
        rounds in 1usize..4,
    ) {
        // The same query stream applied `rounds` times against one evolving
        // index must never change the answer.
        let mut engine = QueryEngine::new(&g);
        let mut idx = RkrIndex::empty(g.num_nodes(), 64);
        let mut first: Vec<QueryResult> = Vec::new();
        for round in 0..rounds {
            for (i, q) in g.nodes().enumerate() {
                let req = QueryRequest::new(q, k).with_strategy(INDEXED);
                let access = &mut IndexAccess::Live(&mut idx);
                let r = engine.execute_with(Some(access), &req).unwrap().result;
                if round == 0 {
                    first.push(r);
                } else {
                    prop_assert!(
                        results_equivalent(&first[i], &r),
                        "round {round} q={q}: {:?} vs {:?}",
                        first[i].entries,
                        r.entries
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bichromatic_matches_brute_force(
        g in arb_graph(false, 12, 16, false),
        v2_bits in proptest::collection::vec(any::<bool>(), 12),
        k in 1u32..5,
    ) {
        let n = g.num_nodes() as usize;
        let mut mask: Vec<bool> = v2_bits.into_iter().take(n).collect();
        mask.resize(n, false);
        // need at least one store and one community
        if !mask.iter().any(|&b| b) { mask[0] = true; }
        if mask.iter().all(|&b| b) { mask[n - 1] = false; }
        let part = Partition::from_v2_mask(mask);
        let ctx = EngineContext::bichromatic(&g, part.clone());
        let mut idx = RkrIndex::empty(g.num_nodes(), 64);
        for q in g.nodes() {
            if !part.is_v2(q) {
                continue;
            }
            let expect = rkranks_core::bichromatic::bichromatic_brute_force(&g, &part, q, k);
            check_and_evolve(&ctx, &mut idx, q, k, &expect);
        }
    }
}
