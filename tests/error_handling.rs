//! Error-path integration: every misuse of the public API must fail loudly
//! and descriptively, never silently return a wrong answer.

use reverse_k_ranks::prelude::*;
use rkranks_core::{load_index, save_index};
use rkranks_datasets::toy;
use rkranks_graph::read_graph;
use rkranks_graph::GraphError;

#[test]
fn invalid_k_is_rejected_by_every_algorithm() {
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let mut idx = RkrIndex::empty(g.num_nodes(), 10);
    for strategy in Strategy::ALL {
        let req = QueryRequest::new(toy::ALICE, 0).with_strategy(strategy);
        let err = engine
            .execute_with(Some(&mut IndexAccess::Live(&mut idx)), &req)
            .unwrap_err();
        assert!(
            err.to_string().contains("k must be positive"),
            "{strategy}: {err}"
        );
    }
}

#[test]
fn out_of_range_query_node_is_rejected() {
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let err = engine
        .execute(&QueryRequest::new(NodeId(999), 2))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("999"), "message should name the node: {msg}");
}

#[test]
fn indexed_k_above_k_max_is_rejected_with_explanation() {
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let mut idx = RkrIndex::empty(g.num_nodes(), 3);
    let req = QueryRequest::new(toy::ALICE, 5).with_strategy(Strategy::Indexed(BoundConfig::ALL));
    let err = engine
        .execute_with(Some(&mut IndexAccess::Live(&mut idx)), &req)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains('5') && msg.contains('3'),
        "message should cite k and K: {msg}"
    );
    assert!(msg.contains("unsound"), "message should explain why: {msg}");
}

#[test]
fn bichromatic_query_from_candidate_class_is_rejected() {
    let g = toy::paper_example();
    // V2 = {Eric}: everyone else is a candidate
    let part = Partition::from_v2_nodes(g.num_nodes(), &[toy::ERIC]);
    let mut engine = QueryEngine::bichromatic(&g, part);
    assert!(engine.execute(&QueryRequest::new(toy::ERIC, 1)).is_ok());
    let err = engine
        .execute(&QueryRequest::new(toy::ALICE, 1))
        .unwrap_err();
    assert!(err.to_string().contains("V2"), "{err}");
}

#[test]
fn builder_rejections_are_specific() {
    let mut b = GraphBuilder::new(EdgeDirection::Undirected);
    match b.add_edge(2, 2, 1.0) {
        Err(GraphError::SelfLoop { node: 2 }) => {}
        other => panic!("expected self-loop error, got {other:?}"),
    }
    match b.add_edge(0, 1, f64::NEG_INFINITY) {
        Err(GraphError::InvalidWeight { weight, .. }) => assert!(weight.is_infinite()),
        other => panic!("expected invalid-weight error, got {other:?}"),
    }
}

#[test]
fn graph_parse_failures_name_the_line() {
    for (text, line) in [
        ("undirected 3\n0 1 1.0\n0 2\n", 3usize),
        ("undirected x\n", 1),
        ("diagonal 3\n", 1),
        // an endpoint past the header's count (it used to grow the graph:
        // 16 GB of row offsets near u32::MAX)
        ("undirected 3\n0 1 1.0\n1 10 2.0\n", 3),
        ("undirected 3\n0 1 1.0\n1 400000000 2.0\n", 3),
        ("directed 2\n# a comment\n4294967295 0 1.0\n", 3),
    ] {
        match read_graph(text.as_bytes()) {
            Err(GraphError::Parse { line: l, .. }) => assert_eq!(l, line, "for {text:?}"),
            other => panic!("expected parse error for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn index_file_corruption_is_detected() {
    let dir = std::env::temp_dir().join("rkranks-error-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.rkri");

    let g = toy::paper_example();
    let engine = QueryEngine::new(&g);
    let (idx, _) = engine.build_index(&IndexParams {
        k_max: 4,
        ..Default::default()
    });
    save_index(&idx, &path).unwrap();

    // Corrupt: append an out-of-range record.
    let mut body = std::fs::read_to_string(&path).unwrap();
    body.push_str("R 999 0 1\n");
    std::fs::write(&path, &body).unwrap();
    assert!(load_index(&path).is_err());

    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_files_surface_io_errors() {
    assert!(matches!(
        load_index("/definitely/not/here.rkri"),
        Err(GraphError::Io(_))
    ));
    assert!(matches!(
        rkranks_graph::load_graph("/definitely/not/here.edges"),
        Err(GraphError::Io(_))
    ));
}

#[test]
fn snapshot_corruption_is_a_one_line_error() {
    // The durability acceptance bar: a damaged bundle must fail loudly
    // with a single descriptive line, never load into a wrong serving
    // state. Exercised here through the facade re-exports.
    use rkranks_core::{load_snapshot, save_snapshot};
    use rkranks_graph::GraphStore;

    let dir = std::env::temp_dir().join("rkranks-error-handling-snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();

    // Not a bundle at all.
    let garbage = dir.join(format!("garbage-{pid}.rkrsnap"));
    std::fs::write(&garbage, "definitely not a snapshot\n").unwrap();
    let err = load_snapshot(&garbage).unwrap_err().to_string();
    std::fs::remove_file(&garbage).ok();
    assert!(!err.contains('\n'), "must be one line: {err:?}");
    assert!(
        err.contains("snapshot") || err.contains("header"),
        "must name the problem: {err}"
    );

    // A real bundle with one flipped payload byte.
    let store = GraphStore::new(toy::paper_example());
    let idx = RkrIndex::empty(store.snapshot().num_nodes(), 4);
    let bundle = dir.join(format!("flipped-{pid}.rkrsnap"));
    save_snapshot(&store, &idx, &bundle).unwrap();
    let mut bytes = std::fs::read(&bundle).unwrap();
    let target = bytes
        .windows(5)
        .position(|w| w == b"nodes")
        .unwrap_or(bytes.len() / 2);
    bytes[target] ^= 0x01;
    std::fs::write(&bundle, &bytes).unwrap();
    let err = load_snapshot(&bundle).unwrap_err().to_string();
    std::fs::remove_file(&bundle).ok();
    assert!(!err.contains('\n'), "must be one line: {err:?}");

    // Truncation mid-section.
    let truncated = dir.join(format!("truncated-{pid}.rkrsnap"));
    save_snapshot(&store, &idx, &truncated).unwrap();
    let bytes = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let err = load_snapshot(&truncated).unwrap_err().to_string();
    std::fs::remove_file(&truncated).ok();
    assert!(!err.contains('\n'), "must be one line: {err:?}");
}
