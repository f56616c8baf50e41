//! Route reconstruction from a shortest-path tree.
//!
//! The reverse k-ranks algorithms never need explicit routes, but the
//! applications built on them do (the supermarket case study recommends a
//! community — the promotion team then wants the route).

use crate::node::NodeId;

/// Reconstruct the route `s → … → t` from a parents array produced by
/// [`crate::dijkstra::shortest_path_tree`] rooted at `s`. Returns `None`
/// when `t` is unreachable.
pub fn reconstruct_path(parents: &[Option<NodeId>], s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
    if s == t {
        return Some(vec![s]);
    }
    parents[t.index()]?;
    let mut path = vec![t];
    let mut cur = t;
    while let Some(p) = parents[cur.index()] {
        path.push(p);
        cur = p;
        if cur == s {
            path.reverse();
            return Some(path);
        }
        if path.len() > parents.len() {
            return None; // defensive: corrupt parents array
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};
    use crate::dijkstra::shortest_path_tree;
    use crate::graph::Graph;
    use crate::weight::Distance;

    fn sample() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 4.0),
                (0, 2, 1.0),
                (2, 1, 2.0),
                (1, 3, 1.0),
                (2, 3, 5.0),
                (3, 4, 2.0),
            ],
        )
        .unwrap()
    }

    /// Total weight of a node path (`None` if any hop is not an edge).
    fn path_length(graph: &Graph, path: &[NodeId]) -> Option<Distance> {
        let mut total = 0.0;
        for hop in path.windows(2) {
            let (targets, weights) = graph.out_neighbors(hop[0]);
            let mut best: Option<f64> = None;
            for (t, w) in targets.iter().zip(weights.iter()) {
                if *t == hop[1] {
                    best = Some(best.map_or(*w, |b: f64| b.min(*w)));
                }
            }
            total += best?;
        }
        Some(total)
    }

    #[test]
    fn path_reconstruction_round_trip() {
        let g = sample();
        let (parents, dist) = shortest_path_tree(&g, NodeId(0));
        for t in g.nodes() {
            let path = reconstruct_path(&parents, NodeId(0), t).unwrap();
            assert_eq!(path.first(), Some(&NodeId(0)));
            assert_eq!(path.last(), Some(&t));
            let len = path_length(&g, &path).unwrap();
            assert!(
                (len - dist[t.index()]).abs() < 1e-12,
                "t={t}: {len} vs {}",
                dist[t.index()]
            );
        }
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        let (parents, _) = shortest_path_tree(&g, NodeId(1));
        assert_eq!(reconstruct_path(&parents, NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn path_length_rejects_non_edges() {
        let g = sample();
        assert_eq!(path_length(&g, &[NodeId(0), NodeId(4)]), None);
        assert_eq!(path_length(&g, &[NodeId(0)]), Some(0.0));
    }
}
