//! Property tests over the dataset generators: for any parameters, the
//! invariants the query algorithms rely on must hold.

use proptest::prelude::*;
use rkranks_datasets::{
    collab_graph, dblp_like, gnm_graph, road_network, trust_graph, trust_graph_undirected,
    CollabParams, RoadParams, Scale, TrustParams,
};
use rkranks_graph::traversal::is_weakly_connected;
use rkranks_graph::{EdgeDirection, Graph, UNIT};

/// Every weight on the grid's range: below 2^21 real units.
fn weights_valid(g: &Graph) -> bool {
    g.nodes().all(|u| g.edges(u).all(|(_, w)| w < 1 << 53))
}

fn no_self_loops(g: &Graph) -> bool {
    g.nodes().all(|u| g.edges(u).all(|(v, _)| v != u))
}

/// Every benchmark workload runs on `dblp_like(Medium, 42)`, so the
/// fixture's digest is pinned: a change to the generator that moves it has
/// to update these values on purpose.
#[test]
fn dblp_fixture_digests_are_pinned() {
    assert_eq!(dblp_like(Scale::Tiny, 42).digest(), 0x8cf9_e0ef_b752_1765);
    assert_eq!(dblp_like(Scale::Small, 42).digest(), 0x0f27_d9ac_f6b7_a6a4);
}

/// The benchmark's own fixture and a second seed (release build in CI).
#[test]
#[ignore = "Medium scale; run with --release --include-ignored"]
fn dblp_medium_fixture_digests_are_pinned() {
    assert_eq!(dblp_like(Scale::Medium, 42).digest(), 0x5832_5700_d170_78fe);
    assert_eq!(dblp_like(Scale::Medium, 7).digest(), 0x14e2_3e8a_2fcc_d201);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn collab_invariants(authors in 2u32..400, seed in 0u64..1000) {
        let g = collab_graph(&CollabParams::with_authors(authors, seed));
        prop_assert_eq!(g.num_nodes(), authors);
        prop_assert!(!g.is_directed());
        prop_assert!(is_weakly_connected(&g), "collab graph must be connected");
        prop_assert!(weights_valid(&g));
        prop_assert!(no_self_loops(&g));
    }

    #[test]
    fn collab_determinism(authors in 2u32..200, seed in 0u64..100) {
        let p = CollabParams::with_authors(authors, seed);
        prop_assert_eq!(collab_graph(&p), collab_graph(&p));
    }

    #[test]
    fn trust_invariants(users in 2u32..400, seed in 0u64..1000) {
        let g = trust_graph(&TrustParams::with_users(users, seed));
        prop_assert_eq!(g.num_nodes(), users);
        prop_assert!(g.is_directed());
        prop_assert!(is_weakly_connected(&g));
        prop_assert!(weights_valid(&g));
        prop_assert!(no_self_loops(&g));
        // Zipf weights are integers ≥ 1
        for u in g.nodes() {
            for (_, w) in g.edges(u) {
                prop_assert!(w >= UNIT && w % UNIT == 0);
            }
        }
    }

    #[test]
    fn trust_undirected_variant(users in 2u32..200, seed in 0u64..100) {
        let g = trust_graph_undirected(&TrustParams::with_users(users, seed));
        prop_assert!(!g.is_directed());
        prop_assert!(is_weakly_connected(&g));
        prop_assert!(weights_valid(&g));
    }

    #[test]
    fn road_invariants(
        w in 2u32..25,
        h in 2u32..25,
        stores in 0u32..40,
        knockout in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let net = road_network(&RoadParams { width: w, height: h, knockout, stores, jitter: 0.3, seed });
        prop_assert_eq!(net.graph.num_nodes(), w * h);
        prop_assert!(is_weakly_connected(&net.graph), "spanning tree must survive knockout");
        prop_assert!(weights_valid(&net.graph));
        prop_assert_eq!(net.stores.len() as u32, stores.min(w * h));
        // store marking is consistent both ways
        let marked = net.is_store.iter().filter(|&&b| b).count();
        prop_assert_eq!(marked, net.stores.len());
        for &s in &net.stores {
            prop_assert!(net.is_store[s.index()]);
        }
        // at least the spanning tree's edges exist
        prop_assert!(net.graph.num_edges() as u32 >= w * h - 1);
    }

    #[test]
    fn gnm_respects_direction_and_connectivity(
        n in 2u32..120,
        m in 0usize..300,
        directed in any::<bool>(),
        seed in 0u64..100,
    ) {
        let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
        let g = gnm_graph(n, m, dir, true, (0.1, 2.0), seed);
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(g.is_directed(), directed);
        prop_assert!(is_weakly_connected(&g));
        prop_assert!(weights_valid(&g));
    }
}
