//! Top-k (k-NN) and reverse top-k queries on graphs.
//!
//! These are the *competitor* query types whose shortcomings motivate the
//! paper (Section 1, Section 6.2): reverse top-k has wildly unbalanced
//! result sizes (Table 3) and top-k has low mutual agreement (Table 4).
//! All membership here is tie-aware: `u` is in the top-k of `v` iff
//! `Rank(v,u) ≤ k`.

use crate::dijkstra::{BoundedBrowser, DijkstraWorkspace};
use crate::graph::Graph;
use crate::node::NodeId;
use crate::rank::RankCounter;

/// The top-k set of `source`: every node `u` with `Rank(source,u) ≤ k`, in
/// nondecreasing distance order. May exceed `k` elements when ties straddle
/// the boundary.
pub fn top_k_set(graph: &Graph, ws: &mut DijkstraWorkspace, source: NodeId, k: u32) -> Vec<NodeId> {
    let mut counter = RankCounter::new();
    let mut out = Vec::with_capacity(k as usize);
    // The k nearest bound the traversal; the tie group at the k-th distance
    // is within the browser's cut-off, so it is enumerated whole.
    for (v, d) in BoundedBrowser::new(graph, ws, source, k as usize, |_| true) {
        if counter.on_settle(d) > k {
            break;
        }
        out.push(v);
    }
    out
}

/// Top-k sets for every node. O(|V| · k·log) — the cost the paper pays for
/// its effectiveness analysis (§6.2.1).
pub(crate) fn all_top_k_sets(graph: &Graph, k: u32) -> Vec<Vec<NodeId>> {
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    graph
        .nodes()
        .map(|u| top_k_set(graph, &mut ws, u, k))
        .collect()
}

/// Reverse top-k of `q`: all nodes `v` with `Rank(v,q) ≤ k`.
///
/// This is the query from [Yiu et al. 2006] / [Yu et al. 2014] the paper
/// compares against. Brute-force evaluation (truncated SSSP from every
/// node); adequate for the effectiveness study, not meant to be fast.
pub fn reverse_top_k(graph: &Graph, q: NodeId, k: u32) -> Vec<NodeId> {
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    let mut result = Vec::new();
    for v in graph.nodes() {
        if v == q {
            continue;
        }
        let mut counter = RankCounter::new();
        for (u, d) in BoundedBrowser::new(graph, &mut ws, v, k as usize, |_| true) {
            if counter.on_settle(d) > k {
                break;
            }
            if u == q {
                result.push(v);
                break;
            }
        }
    }
    result
}

/// Result-set size of the reverse top-k query for **every** query node, in
/// one pass: `sizes[q] = |{v : Rank(v,q) ≤ k}|` (Table 3's raw data).
pub fn reverse_top_k_sizes(graph: &Graph, k: u32) -> Vec<u32> {
    let mut sizes = vec![0u32; graph.num_nodes() as usize];
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    for v in graph.nodes() {
        for u in top_k_set(graph, &mut ws, v, k) {
            sizes[u.index()] += 1;
        }
    }
    sizes
}

/// Summary statistics over reverse top-k result sizes (the columns of the
/// paper's Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReverseTopKStats {
    /// The `k` these statistics were computed for.
    pub k: u32,
    /// Size of the largest result set.
    pub largest_set: u32,
    /// Number of query nodes with an empty result set.
    pub empty_sets: u32,
    /// result sets with ≤ 5 members (paper's "small set" column)
    pub small_sets: u32,
    /// result sets with ≥ 100 members (paper's "large set" column)
    pub large_sets: u32,
}

/// Compute Table 3's row for one `k` from precomputed sizes.
pub fn reverse_top_k_stats(k: u32, sizes: &[u32]) -> ReverseTopKStats {
    let mut s = ReverseTopKStats {
        k,
        largest_set: 0,
        empty_sets: 0,
        small_sets: 0,
        large_sets: 0,
    };
    for &c in sizes {
        s.largest_set = s.largest_set.max(c);
        if c == 0 {
            s.empty_sets += 1;
        }
        if c <= 5 {
            s.small_sets += 1;
        }
        if c >= 100 {
            s.large_sets += 1;
        }
    }
    s
}

/// Agreement rate of top-k queries (Table 4):
/// `Σ_i Σ_{j ∈ topk[i]} [i ∈ topk[j]] / Σ_i |topk[i]|`.
///
/// Measures how often "I rank you high" is mutual; the paper reports < 50 %
/// on DBLP, falling with `k`.
pub fn agreement_rate(graph: &Graph, k: u32) -> f64 {
    let sets = all_top_k_sets(graph, k);
    // Sorted membership vectors; sets are small (≈ k), binary search wins
    // over hashing here.
    let sorted: Vec<Vec<NodeId>> = sets
        .iter()
        .map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v
        })
        .collect();
    let mut total = 0u64;
    let mut mutual = 0u64;
    for (i, set) in sets.iter().enumerate() {
        for &j in set {
            total += 1;
            if sorted[j.index()].binary_search(&NodeId(i as u32)).is_ok() {
                mutual += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        mutual as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};

    /// Star graph: center 0, leaves 1..=4 at increasing distances.
    fn star() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn top_k_set_orders_by_distance() {
        let g = star();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(
            top_k_set(&g, &mut ws, NodeId(0), 2),
            vec![NodeId(1), NodeId(2)]
        );
        // from a leaf, the center is 1st
        assert_eq!(top_k_set(&g, &mut ws, NodeId(4), 1), vec![NodeId(0)]);
    }

    #[test]
    fn top_k_set_includes_boundary_ties() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 2.0), (0, 4, 5.0)],
        )
        .unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let s = top_k_set(&g, &mut ws, NodeId(0), 2);
        // 2 and 3 both have rank 2 -> both belong to the "top-2"
        assert_eq!(s.len(), 3);
        assert!(s.contains(&NodeId(2)) && s.contains(&NodeId(3)));
    }

    #[test]
    fn reverse_top_k_of_center_vs_leaf() {
        let g = star();
        // Every leaf has the center as its 1st: reverse top-1 of 0 = all leaves.
        let mut r = reverse_top_k(&g, NodeId(0), 1);
        r.sort_unstable();
        assert_eq!(r, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        // The farthest leaf is in nobody's top-1 ... the center's top-1 is leaf 1.
        assert!(reverse_top_k(&g, NodeId(4), 1).is_empty());
        assert_eq!(reverse_top_k(&g, NodeId(1), 1), vec![NodeId(0)]);
    }

    #[test]
    fn sizes_match_individual_queries() {
        let g = star();
        for k in 1..=3 {
            let sizes = reverse_top_k_sizes(&g, k);
            for q in g.nodes() {
                assert_eq!(
                    sizes[q.index()] as usize,
                    reverse_top_k(&g, q, k).len(),
                    "k={k} q={q}"
                );
            }
        }
    }

    #[test]
    fn stats_aggregation() {
        let s = reverse_top_k_stats(5, &[0, 0, 3, 6, 150]);
        assert_eq!(s.largest_set, 150);
        assert_eq!(s.empty_sets, 2);
        assert_eq!(s.small_sets, 3); // 0, 0, 3
        assert_eq!(s.large_sets, 1);
    }

    #[test]
    fn agreement_rate_perfect_on_symmetric_pair() {
        let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 1.0)]).unwrap();
        assert_eq!(agreement_rate(&g, 1), 1.0);
    }

    #[test]
    fn agreement_rate_partial_on_star() {
        let g = star();
        // top-1 of center = {1}; top-1 of each leaf = {0}. Mutual only for (0,1).
        // total memberships = 5, mutual = 2 (0->1 and 1->0).
        let rate = agreement_rate(&g, 1);
        assert!((rate - 0.4).abs() < 1e-12, "rate={rate}");
    }

    #[test]
    fn directed_reverse_top_k_uses_outgoing_rank() {
        // 0 -> 1 (1.0); 1 has no outgoing edges, so only 0 ranks anyone.
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        assert_eq!(reverse_top_k(&g, NodeId(1), 1), vec![NodeId(0)]);
        assert!(reverse_top_k(&g, NodeId(0), 1).is_empty());
    }
}
