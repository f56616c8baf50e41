//! Query workload selection.
//!
//! The paper's efficiency experiments run 1000 random queries per setting
//! (§6.3.1) and, for the bound analysis, 1000 queries with the largest /
//! fewest degree (§6.3.2). All selections here are seeded and filtered to
//! valid query nodes (for bichromatic graphs, `V2` members).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rkranks_graph::{Graph, NodeId};

/// Uniformly random query nodes (without replacement while possible).
pub fn random_queries(
    graph: &Graph,
    count: usize,
    seed: u64,
    valid: impl Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = graph.nodes().filter(|&v| valid(v)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    if pool.len() >= count {
        pool.truncate(count);
        return pool;
    }
    // Fewer valid nodes than requested: cycle deterministically.
    let mut out = Vec::with_capacity(count);
    while out.len() < count && !pool.is_empty() {
        for &v in &pool {
            if out.len() == count {
                break;
            }
            out.push(v);
        }
    }
    out
}

/// The `count` valid nodes with the highest out-degree (Table 12's
/// workload), ties broken by id.
pub(crate) fn max_degree_queries(
    graph: &Graph,
    count: usize,
    valid: impl Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = graph.nodes().filter(|&v| valid(v)).collect();
    pool.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    pool.truncate(count);
    pool
}

/// The `count` valid nodes with the lowest out-degree (Table 13's
/// workload), ties broken by id. Degree-0 nodes are skipped — they cannot
/// be reached by anyone and make empty queries.
pub(crate) fn min_degree_queries(
    graph: &Graph,
    count: usize,
    valid: impl Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| valid(v) && graph.degree(v) > 0)
        .collect();
    pool.sort_by_key(|&v| (graph.degree(v), v));
    pool.truncate(count);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn star() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn random_is_deterministic_and_unique() {
        let g = star();
        let a = random_queries(&g, 3, 7, |_| true);
        let b = random_queries(&g, 3, 7, |_| true);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn random_respects_filter() {
        let g = star();
        let qs = random_queries(&g, 2, 1, |v| v.0 != 0);
        assert!(qs.iter().all(|q| q.0 != 0));
    }

    #[test]
    fn random_cycles_when_pool_small() {
        let g = star();
        let qs = random_queries(&g, 6, 1, |v| v.0 <= 1);
        assert_eq!(qs.len(), 6);
        assert!(qs.iter().all(|q| q.0 <= 1));
    }

    #[test]
    fn max_degree_picks_hub() {
        let g = star();
        assert_eq!(max_degree_queries(&g, 1, |_| true), vec![NodeId(0)]);
    }

    #[test]
    fn min_degree_picks_leaves() {
        let g = star();
        let qs = min_degree_queries(&g, 2, |_| true);
        assert_eq!(qs, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn min_degree_skips_isolated() {
        let mut b = rkranks_graph::GraphBuilder::new(EdgeDirection::Undirected);
        b.reserve_nodes(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let qs = min_degree_queries(&g, 4, |_| true);
        assert_eq!(qs, vec![NodeId(0), NodeId(1)]);
    }
}
