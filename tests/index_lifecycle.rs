//! Index lifecycle integration: build → query → update → re-query, with
//! the §5 invariants checked against ground truth at every step.

use reverse_k_ranks::prelude::*;
use rkranks_core::assert_all_strategies_match;
use rkranks_datasets::{dblp_like, toy};
use rkranks_eval::runner::run_indexed_batch;
use rkranks_graph::{rank_between, rank_matrix};

/// The paper's §5 sequential mode: each query in turn, `idx` learning from
/// all of them. Returns the summed stats.
fn query_stream(
    g: &Graph,
    idx: &mut RkrIndex,
    queries: &[NodeId],
    k: u32,
) -> rkranks_core::QueryStats {
    run_indexed_batch(g, None, idx, queries, k, BoundConfig::ALL)
        .unwrap()
        .totals
}

/// The global index invariants:
/// 1. every Reverse Rank Dictionary entry is an exact rank;
/// 2. every node `v` missing from `rrd` as a target of `u` satisfies
///    `Rank(u,v) ≥ check[u]` — unless it was evicted by K better entries.
fn check_index_invariants(g: &Graph, idx: &RkrIndex) {
    let m = rank_matrix(g);
    for v in g.nodes() {
        for &(rank, source) in idx.top_entries(v, u32::MAX) {
            assert_eq!(
                m[source.index()][v.index()],
                Some(rank),
                "rrd[{v}] holds a wrong rank for source {source}"
            );
        }
    }
    for u in g.nodes() {
        let c = idx.check(u);
        if c == 0 {
            continue;
        }
        for v in g.nodes() {
            if v == u || idx.lookup(v, u).is_some() {
                continue;
            }
            if let Some(r) = m[u.index()][v.index()] {
                // Eviction escape hatch: v's list may be full of entries
                // better than (or tied with) what u would contribute.
                let evicted = idx.top_entries(v, u32::MAX).len() as u32 >= 2
                    && idx.top_entries(v, u32::MAX).iter().all(|&(er, _)| er <= r);
                assert!(
                    r >= c || evicted,
                    "check invariant violated: Rank({u},{v}) = {r} < check[{u}] = {c}"
                );
            }
        }
    }
}

#[test]
fn toy_index_invariants_hold_through_queries() {
    let g = toy::paper_example();
    let engine_ro = QueryEngine::new(&g);
    let (mut idx, _) = engine_ro.build_index(&IndexParams {
        hub_fraction: 0.6,
        prefix_fraction: 0.5,
        k_max: 2,
        ..Default::default()
    });
    check_index_invariants(&g, &idx);
    for q in g.nodes() {
        query_stream(&g, &mut idx, &[q], 2);
        check_index_invariants(&g, &idx);
    }
}

#[test]
fn warm_index_reduces_refinements() {
    let g = dblp_like(Scale::Tiny, 4);
    let (mut idx, _) = QueryEngine::new(&g).build_index(&IndexParams {
        k_max: 20,
        ..Default::default()
    });
    let queries: Vec<NodeId> = (0..60u32).map(|i| NodeId(i * 5 % g.num_nodes())).collect();

    let first_pass = query_stream(&g, &mut idx, &queries, 10).refinement_calls;
    let second_pass = query_stream(&g, &mut idx, &queries, 10).refinement_calls;
    assert!(
        second_pass < first_pass,
        "warm index should refine less: {first_pass} -> {second_pass}"
    );
}

#[test]
fn all_hub_strategies_build_and_answer() {
    let g = dblp_like(Scale::Tiny, 4);
    let mut engine = QueryEngine::new(&g);
    let req = QueryRequest::new(NodeId(5), 10).with_strategy(Strategy::Naive);
    let expect = engine.execute(&req).unwrap().result;
    for strategy in [
        HubStrategy::Random,
        HubStrategy::DegreeFirst,
        HubStrategy::ClosenessFirst,
    ] {
        let (idx, stats) = engine.build_index(&IndexParams {
            strategy,
            k_max: 20,
            ..Default::default()
        });
        assert!(stats.hubs > 0);
        assert!(idx.rrd_entries() > 0, "{strategy:?} built an empty index");
        // no hub choice may change any strategy's answer
        assert_all_strategies_match(engine.context(), Some(&idx), NodeId(5), 10, &expect);
    }
}

#[test]
fn snapshot_bundle_preserves_index_invariants() {
    // A warmed index that rides through a snapshot bundle (graph + index +
    // staged WAL) must come back with the §5 invariants intact, the same
    // epoch pair, and the staged deltas still pending.
    use rkranks_core::{load_snapshot, save_snapshot};
    use rkranks_graph::{GraphDelta, GraphStore};

    let g = toy::paper_example();
    let (mut idx, _) = QueryEngine::new(&g).build_index(&IndexParams {
        hub_fraction: 0.6,
        prefix_fraction: 0.5,
        k_max: 2,
        ..Default::default()
    });
    query_stream(&g, &mut idx, &g.nodes().collect::<Vec<_>>(), 2);
    check_index_invariants(&g, &idx);

    let mut store = GraphStore::new(g);
    store
        .stage(GraphDelta::AddNode)
        .expect("staging a node is always valid");

    let dir = std::env::temp_dir().join("rkranks-index-lifecycle-snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bundle-{}.rkrsnap", std::process::id()));
    save_snapshot(&store, &idx, &path).unwrap();
    let (restored_store, restored_idx) = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(restored_store.graph_epoch(), store.graph_epoch());
    assert_eq!(restored_idx.graph_epoch(), idx.graph_epoch());
    assert_eq!(restored_idx.epoch(), idx.epoch());
    assert_eq!(
        restored_store.pending_deltas(),
        1,
        "the staged WAL delta must survive the round-trip"
    );
    check_index_invariants(&restored_store.snapshot(), &restored_idx);
}

#[test]
fn index_entries_survive_and_stay_exact_on_dblp() {
    let g = dblp_like(Scale::Tiny, 4);
    let (mut idx, _) = QueryEngine::new(&g).build_index(&IndexParams {
        k_max: 10,
        ..Default::default()
    });
    // Hammer it with queries.
    let queries: Vec<NodeId> = (0..40u32).map(|i| NodeId(i * 7 % g.num_nodes())).collect();
    query_stream(&g, &mut idx, &queries, 5);
    // Sample-verify exactness of stored entries.
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    let mut checked = 0;
    for v in g.nodes() {
        for &(rank, source) in idx.top_entries(v, 3) {
            assert_eq!(rank_between(&g, &mut ws, source, v), Some(rank));
            checked += 1;
            if checked > 300 {
                return;
            }
        }
    }
    assert!(checked > 0);
}
