//! Shortest-path extraction: bidirectional point-to-point search and route
//! reconstruction.
//!
//! The reverse k-ranks algorithms never need explicit routes, but the
//! applications built on them do (the supermarket case study recommends a
//! community — the promotion team then wants the route). Bidirectional
//! Dijkstra also gives a cheaper `d(p,q)` for ad-hoc pair queries than a
//! one-sided early-exit search.

use crate::dijkstra::DijkstraWorkspace;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::weight::{Distance, INF};

/// Bidirectional Dijkstra: `d(s, t)` by meeting forward search from `s`
/// (on `graph`) and backward search from `t` (on `transpose`).
///
/// `transpose` must be `graph.transpose()` (or `graph` itself when
/// undirected — callers that query repeatedly should cache it).
/// Returns [`INF`] if `t` is unreachable.
pub fn bidirectional_distance(
    graph: &Graph,
    transpose: &Graph,
    fwd: &mut DijkstraWorkspace,
    bwd: &mut DijkstraWorkspace,
    s: NodeId,
    t: NodeId,
) -> Distance {
    if s == t {
        return 0.0;
    }
    fwd.ensure_capacity(graph.num_nodes());
    bwd.ensure_capacity(graph.num_nodes());
    fwd.begin(s);
    bwd.begin(t);
    let mut best = INF;
    loop {
        // Standard alternating scheme with the classic stopping rule:
        // stop when topF + topB ≥ best.
        let top_f = fwd.peek_frontier().map(|(_, d)| d);
        let top_b = bwd.peek_frontier().map(|(_, d)| d);
        match (top_f, top_b) {
            (None, _) | (_, None) => break,
            (Some(df), Some(db)) => {
                if df + db >= best {
                    break;
                }
                // expand the smaller frontier top
                // (a node has a distance only once it is queued, so the
                // other side's `dist_of` is the whole meeting test)
                if df <= db {
                    if let Some((v, d)) = fwd.step(graph) {
                        if let Some(db_v) = bwd.dist_of(v) {
                            best = best.min(d + db_v);
                        }
                    }
                } else if let Some((v, d)) = bwd.step(transpose) {
                    if let Some(df_v) = fwd.dist_of(v) {
                        best = best.min(d + df_v);
                    }
                }
            }
        }
    }
    best
}

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

/// Total weight of a node path (`None` if any hop is not an edge).
pub fn path_length(graph: &Graph, path: &[NodeId]) -> Option<Distance> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};
    use crate::dijkstra::{distance, shortest_path_tree};

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

    #[test]
    fn bidirectional_matches_unidirectional() {
        let g = sample();
        let t = g.transpose();
        let mut fwd = DijkstraWorkspace::new(g.num_nodes());
        let mut bwd = DijkstraWorkspace::new(g.num_nodes());
        for s in g.nodes() {
            for d in g.nodes() {
                let bi = bidirectional_distance(&g, &t, &mut fwd, &mut bwd, s, d);
                let uni = distance(&g, s, d);
                assert!(
                    (bi - uni).abs() < 1e-12 || bi == uni,
                    "d({s},{d}): bi {bi} vs uni {uni}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_directed() {
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)],
        )
        .unwrap();
        let t = g.transpose();
        let mut fwd = DijkstraWorkspace::new(g.num_nodes());
        let mut bwd = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(
            bidirectional_distance(&g, &t, &mut fwd, &mut bwd, NodeId(0), NodeId(2)),
            2.0
        );
        assert_eq!(
            bidirectional_distance(&g, &t, &mut fwd, &mut bwd, NodeId(2), NodeId(1)),
            11.0
        );
    }

    #[test]
    fn bidirectional_unreachable() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        let t = g.transpose();
        let mut fwd = DijkstraWorkspace::new(2);
        let mut bwd = DijkstraWorkspace::new(2);
        assert_eq!(
            bidirectional_distance(&g, &t, &mut fwd, &mut bwd, NodeId(1), NodeId(0)),
            INF
        );
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
