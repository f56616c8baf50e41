//! Property test: parallel snapshot-indexed serving is rank-identical to
//! single-threaded `execute` under the default strategy (`dynamic-three`).
//!
//! The index never decides correctness — it only seeds `R` with exact
//! ranks and prunes candidates it can prove hopeless — so snapshot-mode
//! queries must return exactly the ranks the plain dynamic search
//! returns, for every thread count and delta-merge cadence. This is the
//! invariant that makes the concurrent serving mode safe to deploy.

use proptest::prelude::*;
use rkranks_core::{BoundConfig, EngineContext, HubStrategy, IndexParams, QueryRequest, RkrIndex};
use rkranks_eval::runner::{env_threads, run_indexed_batch_collect, IndexedMode};
use rkranks_graph::{EdgeDirection, Graph, GraphBuilder, NodeId};

/// Generator: a connected-ish random weighted graph as (node count,
/// direction, edge list).
fn arb_graph(
    max_nodes: u32,
    max_extra_edges: usize,
) -> impl Strategy<Value = (u32, bool, Vec<(u32, u32, f64)>)> {
    (2..=max_nodes, proptest::arbitrary::any::<bool>()).prop_flat_map(move |(n, directed)| {
        let backbone = proptest::collection::vec(0.05f64..10.0, (n - 1) as usize).prop_map(
            move |ws| -> Vec<(u32, u32, f64)> {
                ws.iter()
                    .enumerate()
                    .map(|(i, &w)| (i as u32 + 1, (i as u32) / 2, w))
                    .collect()
            },
        );
        let extra = proptest::collection::vec((0..n, 0..n, 0.05f64..10.0), 0..=max_extra_edges);
        (Just(n), Just(directed), backbone, extra).prop_map(|(n, directed, mut b, e)| {
            b.extend(e.into_iter().filter(|(u, v, _)| u != v));
            (n, directed, b)
        })
    })
}

fn build(n: u32, directed: bool, edges: &[(u32, u32, f64)]) -> Graph {
    let direction = if directed {
        EdgeDirection::Directed
    } else {
        EdgeDirection::Undirected
    };
    let mut b = GraphBuilder::new(direction);
    b.reserve_nodes(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w).unwrap();
    }
    b.build().unwrap()
}

/// Reference: every node queried by the plain §4 dynamic search.
fn dynamic_ranks(g: &Graph, queries: &[NodeId], k: u32) -> Vec<Vec<u32>> {
    let ctx = EngineContext::new(g);
    let mut scratch = ctx.new_scratch();
    queries
        .iter()
        .map(|&q| {
            let out = ctx.execute(&mut scratch, &QueryRequest::new(q, k));
            out.unwrap().result.ranks()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_parallel_ranks_match_dynamic(
        (n, directed, edges) in arb_graph(24, 40),
        threads in 1usize..5,
        merge_every in 0usize..7,
        k in 1u32..6,
        warm_built in proptest::arbitrary::any::<bool>(),
    ) {
        let g = build(n, directed, &edges);
        // Query every node twice: repeats exercise the index-hit fast path
        // once deltas merge back between epochs.
        let queries: Vec<NodeId> = g.nodes().chain(g.nodes()).collect();
        let expected = dynamic_ranks(&g, &queries, k);

        // Both a hub-built index and an empty one must be transparent.
        let mut index = if warm_built {
            let params = IndexParams {
                hub_fraction: 0.5,
                prefix_fraction: 0.5,
                k_max: 8,
                strategy: HubStrategy::DegreeFirst,
                ..Default::default()
            };
            RkrIndex::build(&g, rkranks_core::QuerySpec::Mono, &params).0
        } else {
            RkrIndex::empty(g.num_nodes(), 8)
        };

        let (out, results) = run_indexed_batch_collect(
            &g,
            None,
            &mut index,
            &queries,
            k,
            BoundConfig::ALL,
            IndexedMode::Snapshot { threads, merge_every },
        )
        .unwrap();

        prop_assert_eq!(out.queries, queries.len() as u64);
        prop_assert_eq!(results.len(), queries.len());
        for (i, r) in results.iter().enumerate() {
            prop_assert_eq!(
                &r.ranks(),
                &expected[i],
                "q={} threads={} merge_every={} k={} warm={}",
                queries[i],
                threads,
                merge_every,
                k,
                warm_built
            );
        }
        // Merged deltas must have landed in the live index.
        prop_assert!(index.rrd_entries() > 0 || expected.iter().all(Vec::is_empty));
    }

    #[test]
    fn sequential_indexed_ranks_match_dynamic(
        (n, directed, edges) in arb_graph(20, 30),
        k in 1u32..5,
    ) {
        let g = build(n, directed, &edges);
        let queries: Vec<NodeId> = g.nodes().collect();
        let expected = dynamic_ranks(&g, &queries, k);
        let mut index = RkrIndex::empty(g.num_nodes(), 8);
        let (_, results) = run_indexed_batch_collect(
            &g,
            None,
            &mut index,
            &queries,
            k,
            BoundConfig::ALL,
            IndexedMode::Sequential,
        )
        .unwrap();
        for (i, r) in results.iter().enumerate() {
            prop_assert_eq!(&r.ranks(), &expected[i], "q={}", queries[i]);
        }
    }
}

/// The CI matrix reruns the suite with `RKR_TEST_THREADS` set; make that
/// thread count exercise the snapshot path directly too.
#[test]
fn env_thread_count_matches_dynamic() {
    let threads = env_threads("RKR_TEST_THREADS").unwrap_or(4);
    let edges: Vec<(u32, u32, f64)> = (0..30u32)
        .map(|i| (i, (i + 1) % 30, 1.0 + (i % 7) as f64))
        .chain((0..10u32).map(|i| (i, i + 15, 2.5)))
        .collect();
    let g = build(30, false, &edges);
    let queries: Vec<NodeId> = g.nodes().collect();
    let expected = dynamic_ranks(&g, &queries, 3);
    let mut index = RkrIndex::empty(g.num_nodes(), 8);
    let (_, results) = run_indexed_batch_collect(
        &g,
        None,
        &mut index,
        &queries,
        3,
        BoundConfig::ALL,
        IndexedMode::Snapshot {
            threads,
            merge_every: 5,
        },
    )
    .unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.ranks(), expected[i], "q={} threads={threads}", queries[i]);
    }
}
