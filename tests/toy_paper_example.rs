//! Integration test: every claim the paper makes about the Figure 1 toy
//! example, verified end to end through the public facade.

use reverse_k_ranks::prelude::*;
use rkranks_core::assert_all_strategies_match;
use rkranks_datasets::toy::{self, ALICE, BOB, CAROLINE, ERIC, FRANK, GEORGE, NAMES, SID, TABLE1};
use rkranks_graph::{rank_matrix, reverse_top_k, to_real};

#[test]
fn table1_rank_matrix_is_exact() {
    let g = toy::paper_example();
    let m = rank_matrix(&g);
    for s in 0..7 {
        for t in 0..7 {
            if s == t {
                assert_eq!(m[s][t], None);
            } else {
                assert_eq!(m[s][t], Some(TABLE1[s][t]), "Rank({s},{t})");
            }
        }
    }
}

#[test]
fn example1_reverse_2_ranks_of_alice() {
    // "a reverse 2-ranks query for Alice returns {Bob, Caroline}"
    let g = toy::paper_example();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    for strategy in [
        Strategy::Naive,
        Strategy::Static,
        Strategy::Dynamic(BoundConfig::ALL),
    ] {
        let req = QueryRequest::new(ALICE, 2).with_strategy(strategy);
        let result = ctx.execute(&mut scratch, &req).unwrap().result;
        assert_eq!(result.nodes(), vec![BOB, CAROLINE]);
        assert_eq!(result.ranks(), vec![3, 4]);
    }
    // Every query node, every strategy, over a
    // cold index and over a built one.
    let (built, _) = ctx.build_index(&IndexParams {
        hub_fraction: 0.6,
        prefix_fraction: 0.5,
        k_max: 2,
        ..Default::default()
    });
    for q in g.nodes() {
        let req = QueryRequest::new(q, 2).with_strategy(Strategy::Naive);
        let naive = ctx.execute(&mut scratch, &req).unwrap().result;
        assert_all_strategies_match(&ctx, None, q, 2, &naive);
        assert_all_strategies_match(&ctx, Some(&built), q, 2, &naive);
    }
}

#[test]
fn example1_reverse_2_ranks_of_eric() {
    // "a reverse 2-ranks query returns {Bob, Sid} (since Bob and Sid rank
    // Eric as 1st while others rank him as 2nd)"
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let result = engine.execute(&QueryRequest::new(ERIC, 2)).unwrap().result;
    assert_eq!(result.nodes(), vec![BOB, SID]);
    assert_eq!(result.ranks(), vec![1, 1]);
}

#[test]
fn example1_reverse_top_2_results() {
    let g = toy::paper_example();
    // "A reverse top-k query having Alice as the query node with k = 2
    // returns no results"
    assert!(reverse_top_k(&g, ALICE, 2).is_empty());
    // "If the query node is Eric ... we will recommend all other six
    // researchers" (everyone ranks Eric 1st or 2nd per Table 1's column)
    assert_eq!(reverse_top_k(&g, ERIC, 2).len(), 6);
}

#[test]
fn section3_walkthrough_rank_refinements() {
    // §3.2's walkthrough: Rank(Bob,Alice)=3, Rank(Eric,Alice)=6,
    // Rank(Caroline,Alice)=4.
    let g = toy::paper_example();
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    assert_eq!(
        rkranks_graph::rank_between(&g, &mut ws, BOB, ALICE),
        Some(3)
    );
    assert_eq!(
        rkranks_graph::rank_between(&g, &mut ws, ERIC, ALICE),
        Some(6)
    );
    assert_eq!(
        rkranks_graph::rank_between(&g, &mut ws, CAROLINE, ALICE),
        Some(4)
    );
}

#[test]
fn section4_dynamic_prunes_frank_sid_george() {
    // §4: "The process can terminate here, since the lower bounds of ranks
    // for Frank, Sid and George are already larger than kRank" — the
    // dynamic variant refines only Bob, Eric, Caroline for Alice's query.
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let req = QueryRequest::new(ALICE, 2);
    let s = engine
        .execute(&req.with_strategy(Strategy::Static))
        .unwrap()
        .result;
    let d = engine.execute(&req).unwrap().result;
    assert_eq!(
        d.stats.refinement_calls, 3,
        "dynamic refines Bob, Eric, Caroline only"
    );
    assert!(
        s.stats.refinement_calls > d.stats.refinement_calls,
        "static refines more ({} vs {})",
        s.stats.refinement_calls,
        d.stats.refinement_calls
    );
    assert!(
        d.stats.pruned_by_bound() >= 3,
        "Frank, Sid, George pruned by bounds"
    );
}

#[test]
fn section5_index_walkthrough() {
    // §5.2's example: hubs {Sid, Frank, Bob, Eric}, M=3, K=2. The initial
    // index must contain exactly the Figure 3 entries.
    let g = toy::paper_example();
    let mut idx = RkrIndex::empty(g.num_nodes(), 2);
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    let _ = &mut ws;
    // Build by enumerating 3 nearest from each hub, as the paper does.
    // (Using the public build path with explicit fractions: H=4/7, M=3/7
    // don't land exactly, so replicate via offers from rank_between.)
    for hub in [SID, FRANK, BOB, ERIC] {
        let mut ws2 = DijkstraWorkspace::new(g.num_nodes());
        let mut counter = rkranks_graph::RankCounter::new();
        let mut seen = 0;
        for (v, dist) in DistanceBrowser::new(&g, &mut ws2, hub) {
            if v == hub {
                continue;
            }
            let r = counter.on_settle(dist);
            idx.offer(v, hub, r);
            seen += 1;
            if seen == 3 {
                break;
            }
        }
        idx.raise_check(hub, 3);
    }
    // Figure 3's Reverse Rank Dictionary (K = 2 best entries per node):
    assert_eq!(idx.lookup(ALICE, BOB), Some(3)); // Alice: {Bob: 3}
    assert_eq!(idx.top_entries(ERIC, 2), &[(1, BOB), (1, SID)]); // Eric: Sid:1, Bob:1
    assert_eq!(idx.lookup(BOB, ERIC), Some(1)); // Bob: {Eric: 1, ...}
    assert_eq!(idx.lookup(BOB, SID), Some(2)); // ... {Sid: 2}
    assert_eq!(idx.lookup(GEORGE, FRANK), Some(1)); // George: {Frank: 1}
                                                    // Check Dictionary: {Sid:3, Frank:3, Bob:3, Eric:3}
    for hub in [SID, FRANK, BOB, ERIC] {
        assert_eq!(idx.check(hub), 3);
    }

    // Querying Alice with the warm index must agree with the plain dynamic
    // algorithm and must update the index along the way (Figure 4).
    let mut engine = QueryEngine::new(&g);
    let req = QueryRequest::new(ALICE, 2);
    let expect = engine.execute(&req).unwrap().result;
    let indexed = req.with_strategy(Strategy::Indexed(BoundConfig::ALL));
    let got = engine
        .execute_with(Some(&mut IndexAccess::Live(&mut idx)), &indexed)
        .unwrap()
        .result;
    assert_eq!(expect.nodes(), got.nodes());
    // Figure 4 "Finish" state: Eric's refinement pushed {Eric: 6} into
    // Alice's list and raised check(Eric) to 6; Caroline's refinement
    // recorded {Caroline: 4}.
    assert_eq!(
        idx.lookup(ALICE, ERIC),
        None,
        "Eric:6 loses to Bob:3 / Caroline:4 at K=2"
    );
    assert_eq!(idx.lookup(ALICE, CAROLINE), Some(4));
    assert_eq!(idx.check(ERIC), 6);
    assert_eq!(idx.check(CAROLINE), 4);
}

#[test]
fn figure2_sds_tree_structure() {
    // Figure 2 draws the SDS-tree rooted at Alice: Bob is her child;
    // Eric and Caroline hang off Bob; Sid, Frank, George hang off Eric —
    // with the distance labels asserted in the datasets crate. The SDS-tree
    // is the shortest-path tree on the transpose (== the graph, undirected).
    let g = toy::paper_example();
    let (parents, dist) = rkranks_graph::shortest_path_tree(&g.transpose(), ALICE);
    assert_eq!(parents[ALICE.index()], None);
    assert_eq!(parents[BOB.index()], Some(ALICE));
    assert_eq!(parents[ERIC.index()], Some(BOB));
    assert_eq!(parents[CAROLINE.index()], Some(BOB));
    assert_eq!(parents[SID.index()], Some(ERIC));
    assert_eq!(parents[FRANK.index()], Some(ERIC));
    // Figure 2 hangs George off Eric; here he hangs off Frank. His paths
    // through Eric (1.2 + 1.1) and through Frank (1.2 + 0.9 + 0.2) tie at
    // 2.3 in real numbers, but on the 2^-32 grid q(0.9) + q(0.2) =
    // 3865470566 + 858993459 = 4724464025 < q(1.1) = 4724464026, so the
    // path through Frank is one quantum shorter.
    assert_eq!(parents[GEORGE.index()], Some(FRANK));
    // (each weight is on the 2^-32 grid, within 2^-33 of its value)
    let expected = [0.0, 1.0, 1.3, 2.2, 1.2, 2.1, 2.3];
    for (i, &d) in expected.iter().enumerate() {
        let got = to_real(dist[i]);
        assert!((got - d).abs() < 1e-9, "dist[{}] = {got} != {d}", NAMES[i]);
    }
}

#[test]
fn section4_walkthrough_trace_matches_paper_narrative() {
    // §4's walkthrough for Alice, k=2, dynamic: "we will dequeue and
    // rank-refine Bob ... the rank refinement of Eric follows ... Next, we
    // will do the rank refinement of Caroline ... The process can terminate
    // here, since the lower bounds of ranks for Frank, Sid and George are
    // already larger than kRank."
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let out = engine
        .execute(&QueryRequest::new(ALICE, 2).with_trace())
        .unwrap();
    let trace = out.trace.expect("trace was requested");
    assert_eq!(out.result.nodes(), vec![BOB, CAROLINE]);
    // refined: exactly Bob (rank 3), Eric (rank 6), Caroline (rank 4), in
    // distance order (Bob 1.0, Eric 1.2, Caroline 1.3)
    assert_eq!(trace.refined_nodes(), vec![BOB, ERIC, CAROLINE]);
    // pruned before refinement: Frank, Sid, George (popped in distance
    // order Frank 2.1, Sid 2.2, George 2.3)
    assert_eq!(trace.bound_pruned_nodes(), vec![FRANK, SID, GEORGE]);
    // and the decisions carry the paper's numbers
    use rkranks_core::PopDecision;
    let decisions: Vec<_> = trace.events.iter().map(|e| (e.node, e.decision)).collect();
    assert_eq!(decisions[0], (ALICE, PopDecision::Root));
    assert_eq!(
        decisions[1],
        (
            BOB,
            PopDecision::Refined {
                rank: 3,
                entered_result: true
            }
        )
    );
    assert_eq!(
        decisions[2],
        (
            ERIC,
            PopDecision::Refined {
                rank: 6,
                entered_result: true
            }
        )
    );
    assert_eq!(
        decisions[3],
        (
            CAROLINE,
            PopDecision::Refined {
                rank: 4,
                entered_result: true
            }
        )
    );
    for (node, d) in &decisions[4..] {
        assert!(
            matches!(d, PopDecision::BoundPruned { k_rank: 4, .. }),
            "{} should be bound-pruned against kRank 4, got {d:?}",
            NAMES[node.index()]
        );
    }
    // the render is human-readable with names
    let rendered = trace.render(Some(&NAMES));
    assert!(rendered.contains("pop Bob"));
    assert!(rendered.contains("refined -> rank 3"));
}

#[test]
fn prelude_facade_works() {
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let r = engine.execute(&QueryRequest::new(ALICE, 2)).unwrap();
    assert_eq!(r.result.nodes(), vec![BOB, CAROLINE]);
}
