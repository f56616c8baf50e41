//! Integration tests for the §8 future-work extensions (PPR and SimRank
//! proximity) and the §2 doubling baseline, run against the realistic
//! dataset generators rather than hand-built graphs.

use reverse_k_ranks::prelude::*;
use rkranks_core::ppr::{ppr_rank, reverse_k_ranks_ppr};
use rkranks_core::simrank::reverse_k_ranks_simrank;
use rkranks_core::topk_baseline::reverse_k_ranks_by_doubling;
use rkranks_datasets::{collab_graph, toy, CollabParams};
use rkranks_graph::ppr::PprParams;
use rkranks_graph::simrank::SimRankParams;

#[test]
fn ppr_reverse_ranks_on_collab_graph() {
    let g = collab_graph(&CollabParams::with_authors(60, 3));
    // ε trades push work for precision; 1e-6 keeps the (debug-build) test
    // fast while the rank check below still verifies exact consistency.
    let params = PprParams {
        alpha: 0.15,
        epsilon: 1e-6,
    };
    let q = NodeId(5);
    let result = reverse_k_ranks_ppr(&g, q, 5, &params).unwrap();
    assert_eq!(result.entries.len(), 5);
    // entries are sorted and verified against the per-pair rank
    let ranks = result.ranks();
    assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
    for e in &result.entries {
        assert_eq!(
            ppr_rank(&g, e.node, q, &params),
            Some(e.rank),
            "entry {e:?}"
        );
    }
}

#[test]
fn ppr_and_shortest_path_results_can_differ() {
    // The paper's closing motivation: different proximity measures need
    // different treatments — and they produce different answers.
    let g = toy::paper_example();
    let mut engine = QueryEngine::new(&g);
    let sp = engine
        .execute(&QueryRequest::new(toy::ALICE, 2))
        .unwrap()
        .result;
    let ppr = reverse_k_ranks_ppr(&g, toy::ALICE, 2, &PprParams::default()).unwrap();
    assert_eq!(sp.entries.len(), 2);
    assert_eq!(ppr.entries.len(), 2);
    // Bob (Alice's only neighbor) tops both measures
    assert_eq!(ppr.entries[0].node, toy::BOB);
}

#[test]
fn simrank_reverse_ranks_on_small_collab_graph() {
    let g = collab_graph(&CollabParams::with_authors(40, 9));
    let params = SimRankParams {
        decay: 0.8,
        iterations: 6,
    };
    let q = NodeId(7);
    let result = reverse_k_ranks_simrank(&g, q, 4, &params).unwrap();
    assert!(!result.entries.is_empty());
    assert!(result.ranks().windows(2).all(|w| w[0] <= w[1]));
    // no self-entry
    assert!(!result.contains(q));
}

#[test]
fn doubling_baseline_agrees_with_framework_on_collab_graph() {
    let g = collab_graph(&CollabParams::with_authors(80, 4));
    let mut engine = QueryEngine::new(&g);
    for q in [NodeId(0), NodeId(17), NodeId(79)] {
        let framework = engine.execute(&QueryRequest::new(q, 3)).unwrap().result;
        let doubled = reverse_k_ranks_by_doubling(&g, q, 3).unwrap();
        assert!(
            rkranks_core::results_equivalent(&framework, &doubled.result),
            "q={q}: {:?} vs {:?}",
            framework.entries,
            doubled.result.entries
        );
        // cost story: the baseline re-refines every node every round
        let min_expected = (doubled.rounds.len() as u64) * (g.num_nodes() as u64 - 1);
        assert_eq!(doubled.result.stats.refinement_calls, min_expected);
    }
}

#[test]
fn all_three_measures_return_fixed_size_results_for_cold_nodes() {
    // The point of reverse k-ranks: cold nodes still get k results (when
    // the measure supports it — SimRank may legitimately find fewer
    // structurally-similar nodes).
    let g = collab_graph(&CollabParams::with_authors(60, 12));
    let cold = g
        .nodes()
        .filter(|&v| g.degree(v) > 0)
        .min_by_key(|&v| (g.degree(v), v))
        .unwrap();
    let mut engine = QueryEngine::new(&g);
    let sp = engine.execute(&QueryRequest::new(cold, 4)).unwrap().result;
    assert_eq!(
        sp.entries.len(),
        4,
        "shortest-path reverse 4-ranks must fill"
    );
    let params = PprParams {
        alpha: 0.15,
        epsilon: 1e-6,
    };
    let ppr = reverse_k_ranks_ppr(&g, cold, 4, &params).unwrap();
    assert_eq!(ppr.entries.len(), 4, "PPR reverse 4-ranks must fill");
}
