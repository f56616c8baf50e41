//! Property test: the paper's §5 indexed stream is rank-identical to
//! single-threaded `execute` under the default strategy (`dynamic-three`).
//!
//! The index never decides correctness — it only seeds `R` with exact
//! ranks and prunes candidates it can prove hopeless — so indexed queries
//! must return exactly the ranks the plain dynamic search returns, from a
//! cold index and from a hub-built one alike.

use proptest::prelude::*;
use rkranks_core::{BoundConfig, EngineContext, HubStrategy, IndexParams, QueryRequest, RkrIndex};
use rkranks_eval::runner::run_indexed_batch_collect;
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
    fn sequential_indexed_ranks_match_dynamic(
        (n, directed, edges) in arb_graph(20, 30),
        k in 1u32..5,
        warm_built in proptest::arbitrary::any::<bool>(),
    ) {
        let g = build(n, directed, &edges);
        // Query every node twice: repeats exercise the index-hit fast path.
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
        let (_, results) = run_indexed_batch_collect(
            &g,
            None,
            &mut index,
            &queries,
            k,
            BoundConfig::ALL,
        )
        .unwrap();
        for (i, r) in results.iter().enumerate() {
            prop_assert_eq!(&r.ranks(), &expected[i], "q={} warm={}", queries[i], warm_built);
        }
    }
}
