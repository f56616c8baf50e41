//! Satellite coverage for index persistence: build a real index on a
//! dataset-sized graph, save it to disk, reload it, and require the loaded
//! index to be byte-for-byte equivalent in behaviour — identical
//! indexed-query results and identical pruning state.

use rkranks_core::{
    assert_all_strategies_match, load_index, save_index, BoundConfig, HubStrategy, IndexAccess,
    IndexParams, QueryEngine, QueryRequest, QueryResult, QuerySpec, RkrIndex, Strategy,
};
use rkranks_datasets::{collab_graph, CollabParams};
use rkranks_graph::NodeId;

/// One live indexed-three query: `index` learns from it.
fn live(engine: &mut QueryEngine, index: &mut RkrIndex, q: NodeId, k: u32) -> QueryResult {
    let req = QueryRequest::new(q, k).with_strategy(Strategy::Indexed(BoundConfig::ALL));
    let access = &mut IndexAccess::Live(index);
    engine.execute_with(Some(access), &req).unwrap().result
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rkranks-index-io-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn prebuilt_index_save_load_query_equivalence() {
    let g = collab_graph(&CollabParams::with_authors(150, 7));
    let params = IndexParams {
        hub_fraction: 0.2,
        prefix_fraction: 0.4,
        k_max: 32,
        strategy: HubStrategy::DegreeFirst,
        ..Default::default()
    };
    let (built, stats) = RkrIndex::build(&g, QuerySpec::Mono, &params);
    assert!(stats.hubs > 0, "expected a non-trivial hub set");
    assert!(built.rrd_entries() > 0, "expected a non-trivial RRD");

    let path = temp_path("prebuilt.rkri");
    save_index(&built, &path).unwrap();
    let loaded = load_index(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Structural equality of everything the pruning logic reads.
    assert_eq!(loaded.num_nodes(), built.num_nodes());
    assert_eq!(loaded.k_max(), built.k_max());
    assert_eq!(loaded.hubs(), built.hubs());
    assert_eq!(loaded.rrd_entries(), built.rrd_entries());
    for v in 0..built.num_nodes() {
        assert_eq!(
            loaded.check(NodeId(v)),
            built.check(NodeId(v)),
            "check({v})"
        );
        assert_eq!(
            loaded.top_entries(NodeId(v), 64),
            built.top_entries(NodeId(v), 64),
            "rrd({v})"
        );
    }

    // Behavioural equality: the same query stream gives identical results
    // and identical answers to a from-scratch naive run.
    let mut engine = QueryEngine::new(&g);
    let (mut a, mut b) = (built, loaded);
    for q in g.nodes().step_by(7) {
        for k in [1, 3, 8] {
            let naive = engine
                .execute(&QueryRequest::new(q, k).with_strategy(Strategy::Naive))
                .unwrap()
                .result;
            assert_all_strategies_match(engine.context(), Some(&b), q, k, &naive);
            let ra = live(&mut engine, &mut a, q, k);
            let rb = live(&mut engine, &mut b, q, k);
            assert_eq!(ra.entries, rb.entries, "q={q} k={k}");
        }
    }
}

#[test]
fn evolved_index_survives_save_load_save_cycle() {
    // An index that has absorbed query results (the paper's dynamic
    // refinement, Table 14) must persist those refinements, and a second
    // save of the reloaded index must be byte-identical.
    let g = collab_graph(&CollabParams::with_authors(80, 11));
    let mut engine = QueryEngine::new(&g);
    let mut idx = RkrIndex::empty(g.num_nodes(), 16);
    for q in g.nodes() {
        live(&mut engine, &mut idx, q, 4);
    }
    assert!(
        idx.rrd_entries() > 0,
        "queries should have warmed the index"
    );

    let p1 = temp_path("evolved-1.rkri");
    let p2 = temp_path("evolved-2.rkri");
    save_index(&idx, &p1).unwrap();
    let reloaded = load_index(&p1).unwrap();
    save_index(&reloaded, &p2).unwrap();
    let bytes1 = std::fs::read(&p1).unwrap();
    let bytes2 = std::fs::read(&p2).unwrap();
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes2, "save(load(save(idx))) must be stable");

    let mut reloaded = reloaded;
    for q in g.nodes().step_by(5) {
        let a = live(&mut engine, &mut idx, q, 4);
        let b = live(&mut engine, &mut reloaded, q, 4);
        assert_eq!(a.entries, b.entries, "q={q}");
    }
}

#[test]
fn graph_epoch_zero_writes_the_v3_header() {
    // An index that never saw a graph commit states epoch 0 in the one
    // header every index writes.
    let g = collab_graph(&CollabParams::with_authors(40, 3));
    let idx = RkrIndex::empty(g.num_nodes(), 8);
    let path = temp_path("epoch0-header.rkri");
    save_index(&idx, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        text.starts_with(&format!("rkr-index v3 {} 8 0\n", g.num_nodes())),
        "graph_epoch 0 must serialize as v3 with epoch 0, got: {}",
        text.lines().next().unwrap_or("")
    );
}

#[test]
fn evolved_graph_epoch_round_trips_through_the_v3_header() {
    let g = collab_graph(&CollabParams::with_authors(40, 3));
    let mut idx = RkrIndex::empty(g.num_nodes(), 8);
    idx.set_graph_epoch(7);
    let path = temp_path("epoch7-header.rkri");
    save_index(&idx, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.starts_with(&format!("rkr-index v3 {} 8 7\n", g.num_nodes())),
        "graph_epoch 7 must serialize in the v3 header, got: {}",
        text.lines().next().unwrap_or("")
    );
    let loaded = load_index(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        loaded.graph_epoch(),
        7,
        "the v3 header must carry the epoch"
    );
    assert_eq!(loaded.num_nodes(), idx.num_nodes());
}
