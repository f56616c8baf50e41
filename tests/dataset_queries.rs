//! End-to-end integration on the three synthetic datasets: all algorithms
//! agree, results verify against independently computed ranks, and
//! everything is deterministic per seed.

use reverse_k_ranks::prelude::*;
use rkranks_core::assert_all_strategies_match;
use rkranks_datasets::{dblp_like, epinions_like, sf_like};
use rkranks_graph::rank_between;

fn verify_result_ranks(g: &Graph, q: NodeId, result: &rkranks_core::QueryResult) {
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    for e in &result.entries {
        assert_eq!(
            rank_between(g, &mut ws, e.node, q),
            Some(e.rank),
            "entry ({}, {}) has a wrong rank for q={q}",
            e.node,
            e.rank
        );
    }
}

/// `ctx` and an index built for it.
fn with_index(ctx: EngineContext) -> (EngineContext, RkrIndex) {
    let (built, _) = ctx.build_index(&IndexParams {
        k_max: 20,
        ..Default::default()
    });
    (ctx, built)
}

/// `naive(q, k)`, each entry re-verified by an independent rank count.
fn verified_naive(ctx: &EngineContext, q: NodeId, k: u32) -> QueryResult {
    let req = QueryRequest::new(q, k).with_strategy(Strategy::Naive);
    let naive = ctx.execute(&mut ctx.new_scratch(), &req).unwrap().result;
    verify_result_ranks(ctx.graph(), q, &naive);
    naive
}

#[test]
fn dblp_like_all_algorithms_agree() {
    let g = dblp_like(Scale::Tiny, 5);
    let (ctx, built) = with_index(EngineContext::new(&g));
    for q in [NodeId(0), NodeId(7), NodeId(150), NodeId(299)] {
        let naive = verified_naive(&ctx, q, 10);
        assert_all_strategies_match(&ctx, None, q, 10, &naive);
        assert_all_strategies_match(&ctx, Some(&built), q, 10, &naive);
    }
}

#[test]
fn epinions_like_directed_agreement() {
    let g = epinions_like(Scale::Tiny, 5);
    assert!(g.is_directed());
    let (ctx, built) = with_index(EngineContext::new(&g));
    for q in [NodeId(1), NodeId(42), NodeId(250)] {
        let naive = verified_naive(&ctx, q, 5);
        assert_all_strategies_match(&ctx, None, q, 5, &naive);
        assert_all_strategies_match(&ctx, Some(&built), q, 5, &naive);
    }
}

#[test]
fn road_network_bichromatic_agreement() {
    let net = sf_like(Scale::Tiny, 5);
    let g = &net.graph;
    let part = Partition::from_v2_nodes(g.num_nodes(), &net.stores);
    let (ctx, built) = with_index(EngineContext::bichromatic(g, part.clone()));
    for &q in net.stores.iter().take(4) {
        let expect = rkranks_core::bichromatic::bichromatic_brute_force(g, &part, q, 5);
        assert_all_strategies_match(&ctx, None, q, 5, &expect);
        assert_all_strategies_match(&ctx, Some(&built), q, 5, &expect);
        // no store ever appears among the community results
        let d = ctx.execute(&mut ctx.new_scratch(), &QueryRequest::new(q, 5));
        let d = d.unwrap().result;
        assert!(d.entries.iter().all(|e| !part.is_v2(e.node)));
    }
}

#[test]
fn same_seed_same_results() {
    let a = dblp_like(Scale::Tiny, 9);
    let b = dblp_like(Scale::Tiny, 9);
    assert_eq!(a, b);
    let mut ea = QueryEngine::new(&a);
    let mut eb = QueryEngine::new(&b);
    for q in [NodeId(3), NodeId(99)] {
        let ra = ea.execute(&QueryRequest::new(q, 7)).unwrap();
        let rb = eb.execute(&QueryRequest::new(q, 7)).unwrap();
        assert_eq!(ra.result.entries, rb.result.entries);
    }
}

#[test]
fn k_exceeding_candidates_returns_everyone_reachable() {
    let g = dblp_like(Scale::Tiny, 2);
    let mut engine = QueryEngine::new(&g);
    let r = engine
        .execute(&QueryRequest::new(NodeId(0), 10_000))
        .unwrap();
    // the graph is connected: every other node ranks q somewhere
    assert_eq!(r.result.entries.len() as u32, g.num_nodes() - 1);
}

#[test]
fn engine_reuse_across_queries_is_clean() {
    // Run 50 queries through one engine and re-check the last against a
    // fresh engine: stale scratch state would corrupt it.
    let g = epinions_like(Scale::Tiny, 8);
    let mut engine = QueryEngine::new(&g);
    for i in 0..50u32 {
        let q = NodeId(i % g.num_nodes());
        engine.execute(&QueryRequest::new(q, 5)).unwrap();
    }
    let req = QueryRequest::new(NodeId(123 % g.num_nodes()), 5);
    let reused = engine.execute(&req).unwrap();
    let fresh = QueryEngine::new(&g).execute(&req).unwrap();
    assert_eq!(reused.result.entries, fresh.result.entries);
}
