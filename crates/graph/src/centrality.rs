//! Sampled closeness centrality and degree rankings.
//!
//! The paper's "Closeness First" hub-selection strategy (§5.1) needs
//! closeness centrality `C(v) = 1 / Σ_u d(u,v)`; because the exact
//! computation is `O(|V|·|E|)`, the paper approximates it by sampling
//! source vertices (citing Brandes & Pich / pruned-landmark ideas). The
//! exact form is kept in the tests as the sampled one's reference.

use crate::dijkstra::{DijkstraWorkspace, DistanceBrowser};
use crate::graph::Graph;
use crate::node::NodeId;
use crate::weight::to_real;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sampled closeness centrality: run SSSP from `samples` random source
/// nodes and estimate `farness(v) ≈ Σ_{sampled u} d(u,v)` over the sampled
/// sources that reach `v`. Deterministic for a fixed `seed`.
pub fn closeness_sampled(graph: &Graph, samples: usize, seed: u64) -> Vec<f64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<NodeId> = graph.nodes().collect();
    ids.shuffle(&mut rng);
    ids.truncate(samples.max(1).min(n as usize));

    let mut farness = vec![0.0f64; n as usize];
    let mut reached = vec![0u32; n as usize];
    let mut ws = DijkstraWorkspace::new(n);
    for &u in &ids {
        for (v, d) in DistanceBrowser::new(graph, &mut ws, u) {
            if v == u {
                continue;
            }
            farness[v.index()] += to_real(d);
            reached[v.index()] += 1;
        }
    }
    farness
        .iter()
        .zip(reached.iter())
        .map(|(&f, &r)| if f > 0.0 { r as f64 / f } else { 0.0 })
        .collect()
}

/// Node ids sorted by a score, descending; ties broken by node id so the
/// selection is deterministic. Returns at most `count` nodes.
pub fn top_by_score(scores: &[f64], count: usize) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = (0..scores.len() as u32).map(NodeId).collect();
    ids.sort_unstable_by(|a, b| {
        scores[b.index()]
            .total_cmp(&scores[a.index()])
            .then(a.0.cmp(&b.0))
    });
    ids.truncate(count);
    ids
}

/// The `count` nodes with the highest out-degree (the paper's Degree First
/// strategy), ties broken by node id.
pub fn top_degree_nodes(graph: &Graph, count: usize) -> Vec<NodeId> {
    let scores: Vec<f64> = graph.nodes().map(|u| graph.degree(u) as f64).collect();
    top_by_score(&scores, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};

    /// Exact closeness centrality for every node.
    ///
    /// `C(v) = (reached - 1) / Σ_{u reached} d(u, v)` — farness sums distances
    /// **to** `v` (computed on the transpose), restricted to nodes that can
    /// reach `v`, and normalized by their count so that nodes in small
    /// components do not get inflated scores. On a strongly connected graph
    /// this is a positive multiple of the paper's `1/Σ_u d(u,v)`, so it induces
    /// the same hub ordering.
    fn closeness_exact(graph: &Graph) -> Vec<f64> {
        let transpose = graph.transpose();
        let n = graph.num_nodes();
        let mut ws = DijkstraWorkspace::new(n);
        let mut out = vec![0.0; n as usize];
        for v in graph.nodes() {
            let mut farness = 0.0;
            let mut reached = 0u32;
            for (u, d) in DistanceBrowser::new(&transpose, &mut ws, v) {
                if u == v {
                    continue;
                }
                farness += to_real(d);
                reached += 1;
            }
            out[v.index()] = if farness > 0.0 {
                reached as f64 / farness
            } else {
                0.0
            };
        }
        out
    }

    fn path() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn exact_closeness_prefers_center() {
        let g = path();
        let c = closeness_exact(&g);
        // middle nodes (1, 2) are more central than endpoints (0, 3)
        assert!(c[1] > c[0]);
        assert!(c[2] > c[3]);
        assert!((c[1] - c[2]).abs() < 1e-12);
        assert!((c[0] - c[3]).abs() < 1e-12);
    }

    #[test]
    fn exact_closeness_values_on_path() {
        let g = path();
        let c = closeness_exact(&g);
        // farness(0) = 1 + 2 + 3 = 6, reached = 3 -> 0.5
        assert!((c[0] - 0.5).abs() < 1e-12);
        // farness(1) = 1 + 1 + 2 = 4 -> 0.75
        assert!((c[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampled_with_all_nodes_matches_exact_on_undirected() {
        let g = path();
        let exact = closeness_exact(&g);
        let sampled = closeness_sampled(&g, g.num_nodes() as usize, 1);
        for (e, s) in exact.iter().zip(sampled.iter()) {
            assert!((e - s).abs() < 1e-9, "exact={e} sampled={s}");
        }
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let g = path();
        assert_eq!(closeness_sampled(&g, 2, 9), closeness_sampled(&g, 2, 9));
    }

    #[test]
    fn directed_closeness_uses_incoming_distances() {
        // 0 -> 1 -> 2: node 0 is reachable by no one (zero closeness);
        // node 1 (avg incoming distance 1.0) beats node 2 (avg 1.5).
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let c = closeness_exact(&g);
        assert_eq!(c[0], 0.0);
        assert!(c[2] > 0.0);
        assert!((c[1] - 1.0).abs() < 1e-12);
        assert!((c[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_degree_selection() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)],
        )
        .unwrap();
        assert_eq!(top_degree_nodes(&g, 2), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn top_by_score_tie_breaks_by_id() {
        let ids = top_by_score(&[1.0, 2.0, 2.0, 0.5], 3);
        assert_eq!(ids, vec![NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = graph_from_edges(EdgeDirection::Undirected, std::iter::empty()).unwrap();
        assert!(closeness_exact(&g).is_empty());
        assert!(closeness_sampled(&g, 3, 0).is_empty());
        assert!(top_degree_nodes(&g, 5).is_empty());
    }
}
