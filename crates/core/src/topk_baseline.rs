//! The paper's *other* §2 baseline: reverse k-ranks via repeated reverse
//! top-k′ queries.
//!
//! > "Another possible solution is to apply multiple reverse top-k′ queries
//! > with an increasing k′ value, until the number of results is similar to
//! > the k value of the reverse k-ranks query. This solution, apart from
//! > only giving an approximate result, is also expensive because the
//! > number of required reverse top-k′ queries could be large and there is
//! > no straightforward method for evaluating them incrementally."
//!
//! We implement it with doubling k′. Because our reverse top-k′ membership
//! test also yields the member's exact rank, the *final answer* here is
//! exact once ≥ k members are found — the paper's "approximate" caveat
//! concerns reverse top-k implementations that return bare sets. The cost
//! critique stands in full: every round re-scans every node from scratch
//! (faithfully non-incremental), which the comparison test and the
//! `refine_ablation` bench quantify.

use rkranks_graph::{Graph, GraphError, NodeId, Result};

use crate::refine::{refine_rank_unbounded, RefineOutcome};
use crate::result::{QueryResult, ResultEntry};
use crate::spec::QuerySpec;
use crate::stats::QueryStats;
use rkranks_graph::DijkstraWorkspace;
use std::time::Instant;

/// Outcome of the doubling baseline: the (exact) result plus the round
/// structure that makes it expensive.
#[derive(Clone, Debug)]
pub struct DoublingOutcome {
    /// The reverse k-ranks answer.
    pub result: QueryResult,
    /// The k′ values tried (1, 2, 4, … until ≥ k members).
    pub rounds: Vec<u32>,
}

/// Evaluate a reverse k-ranks query by doubling reverse top-k′ queries.
pub fn reverse_k_ranks_by_doubling(graph: &Graph, q: NodeId, k: u32) -> Result<DoublingOutcome> {
    graph.check_node(q)?;
    if k == 0 {
        return Err(GraphError::InvalidQuery("k must be positive".into()));
    }
    let start = Instant::now();
    let mut stats = QueryStats::default();
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    let mut rounds = Vec::new();
    let mut members: Vec<ResultEntry> = Vec::new();

    let mut k_prime = 1u32;
    loop {
        rounds.push(k_prime);
        members.clear();
        // One full reverse top-k′ pass: check every node from scratch (the
        // paper's point — there is no incremental evaluation).
        for p in graph.nodes() {
            if p == q {
                continue;
            }
            match refine_rank_unbounded(graph, QuerySpec::Mono, &mut ws, p, q, k_prime, &mut stats)
            {
                Some(RefineOutcome::Exact(rank)) if rank <= k_prime => {
                    members.push(ResultEntry { node: p, rank });
                }
                _ => {}
            }
        }
        if members.len() >= k as usize || k_prime as u64 >= graph.num_nodes() as u64 {
            break;
        }
        k_prime = k_prime.saturating_mul(2);
    }

    members.sort_unstable_by_key(|e| (e.rank, e.node));
    members.truncate(k as usize);
    stats.elapsed = start.elapsed();
    Ok(DoublingOutcome {
        result: QueryResult {
            entries: members,
            stats,
        },
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::request::{QueryRequest, Strategy};
    use crate::validate::results_equivalent;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn sample() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (1, 2, 0.4),
                (2, 3, 2.0),
                (3, 4, 0.7),
                (4, 0, 1.1),
                (1, 3, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn doubling_matches_naive() {
        let g = sample();
        let mut engine = QueryEngine::new(&g);
        for q in g.nodes() {
            for k in 1..=4 {
                let req = QueryRequest::new(q, k).with_strategy(Strategy::Naive);
                let naive = engine.execute(&req).unwrap().result;
                let doubled = reverse_k_ranks_by_doubling(&g, q, k).unwrap();
                assert!(
                    results_equivalent(&naive, &doubled.result),
                    "q={q} k={k}: {:?} vs {:?}",
                    naive.entries,
                    doubled.result.entries
                );
            }
        }
    }

    #[test]
    fn rounds_double() {
        let g = sample();
        let out = reverse_k_ranks_by_doubling(&g, NodeId(0), 3).unwrap();
        for w in out.rounds.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        assert_eq!(out.rounds[0], 1);
    }

    #[test]
    fn doubling_is_much_more_expensive_than_framework() {
        // The whole point of the paper's critique: count refinement calls.
        let g = sample();
        let mut engine = QueryEngine::new(&g);
        let framework = engine
            .execute(&QueryRequest::new(NodeId(0), 2))
            .unwrap()
            .result;
        let doubled = reverse_k_ranks_by_doubling(&g, NodeId(0), 2).unwrap();
        assert!(
            doubled.result.stats.refinement_calls > framework.stats.refinement_calls,
            "doubling {} should exceed framework {}",
            doubled.result.stats.refinement_calls,
            framework.stats.refinement_calls
        );
    }

    #[test]
    fn cold_node_needs_many_rounds() {
        // A node nobody ranks high forces k' to grow: star with the query
        // hanging far away.
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 10.0)],
        )
        .unwrap();
        // node 4 is everyone's last choice
        let out = reverse_k_ranks_by_doubling(&g, NodeId(4), 2).unwrap();
        assert!(out.rounds.len() > 1, "rounds: {:?}", out.rounds);
        assert_eq!(out.result.entries.len(), 2);
    }

    #[test]
    fn rejects_invalid() {
        let g = sample();
        assert!(reverse_k_ranks_by_doubling(&g, NodeId(0), 0).is_err());
        assert!(reverse_k_ranks_by_doubling(&g, NodeId(99), 1).is_err());
    }
}
