//! Unweighted traversals: weak connectivity and component labels.
//!
//! Dataset generators use these to guarantee the connectivity properties
//! the paper's experiments rely on (queries are meaningful only inside a
//! component that can reach the query node).

use std::collections::VecDeque;

use crate::graph::Graph;
use crate::node::NodeId;

/// Weakly connected component labels (directed arcs treated as
/// bidirectional). Returns `(labels, component_count)`.
pub(crate) fn weakly_connected_components(graph: &Graph) -> (Vec<u32>, u32) {
    let n = graph.num_nodes() as usize;
    const UNSET: u32 = u32::MAX;
    let mut label = vec![UNSET; n];
    if n == 0 {
        return (label, 0);
    }
    let transpose;
    let incoming: Option<&Graph> = if graph.is_directed() {
        transpose = graph.transpose();
        Some(&transpose)
    } else {
        None
    };
    let mut next_label = 0u32;
    let mut queue = VecDeque::new();
    for start in graph.nodes() {
        if label[start.index()] != UNSET {
            continue;
        }
        label[start.index()] = next_label;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let mut visit = |v: NodeId| {
                if label[v.index()] == UNSET {
                    label[v.index()] = next_label;
                    queue.push_back(v);
                }
            };
            for (v, _) in graph.edges(u) {
                visit(v);
            }
            if let Some(t) = incoming {
                for (v, _) in t.edges(u) {
                    visit(v);
                }
            }
        }
        next_label += 1;
    }
    (label, next_label)
}

/// `true` if the graph is weakly connected (every pair joined ignoring arc
/// direction). Empty graphs count as connected.
pub fn is_weakly_connected(graph: &Graph) -> bool {
    weakly_connected_components(graph).1 <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};

    #[test]
    fn components_undirected() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)],
        )
        .unwrap();
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert!(!is_weakly_connected(&g));
    }

    #[test]
    fn weak_connectivity_ignores_arc_direction() {
        // 0 -> 1 <- 2 is weakly connected even though no node reaches all.
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0), (2, 1, 1.0)]).unwrap();
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let mut b = crate::builder::GraphBuilder::new(EdgeDirection::Undirected);
        b.reserve_nodes(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let (_, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = graph_from_edges(EdgeDirection::Undirected, std::iter::empty()).unwrap();
        assert!(is_weakly_connected(&g));
    }
}
