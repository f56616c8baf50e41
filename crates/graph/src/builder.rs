//! Graph construction.
//!
//! `GraphBuilder` collects raw edges, validates weights (Definition 1
//! requires non-negative weights), deduplicates parallel edges keeping the
//! minimum weight (parallel edges cannot change any shortest-path distance
//! except through their minimum), and produces the CSR [`Graph`].
//!
//! **Memory contract:** `build()` holds its edge list, the CSR it returns
//! and `O(n)`, and nothing else. The CSR's counting sort reads the edge
//! list in place (both directions of an undirected edge, `(u, v)` then
//! `(v, u)`), and parallel arcs are dropped inside the CSR: `KeepLast`
//! before the rows are sorted, `KeepMin` after. No arc list is copied and
//! no map of pairs is built, so a load peaks at its edge list plus the
//! graph it returns.

use crate::csr::Csr;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::weight::Weight;

/// Whether edges are interpreted one-way or both ways.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeDirection {
    /// Each `add_edge(u, v, w)` creates the single arc `u -> v`.
    Directed,
    /// Each `add_edge(u, v, w)` creates both `u -> v` and `v -> u`.
    Undirected,
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use rkranks_graph::{GraphBuilder, EdgeDirection, NodeId};
/// let mut b = GraphBuilder::new(EdgeDirection::Undirected);
/// b.add_edge(0, 1, 1.0).unwrap();
/// b.add_edge(1, 2, 0.5).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    direction: EdgeDirection,
    edges: Vec<(u32, u32, f64)>,
    max_node: Option<u32>,
    dedup: DedupPolicy,
}

/// What to do with parallel edges between the same ordered pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DedupPolicy {
    /// Keep the minimum weight (default; preserves all shortest paths).
    KeepMin,
    /// Keep the last weight added (used by generators that overwrite).
    KeepLast,
    /// Keep every parallel edge as stored (only the minimum ever matters to
    /// Dijkstra, but degree counts include duplicates).
    KeepAll,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new(direction: EdgeDirection) -> Self {
        GraphBuilder {
            direction,
            edges: Vec::new(),
            max_node: None,
            dedup: DedupPolicy::KeepMin,
        }
    }

    /// Create a builder that pre-allocates for `edges` edges.
    pub fn with_capacity(direction: EdgeDirection, edges: usize) -> Self {
        GraphBuilder {
            direction,
            edges: Vec::with_capacity(edges),
            max_node: None,
            dedup: DedupPolicy::KeepMin,
        }
    }

    /// Change the parallel-edge policy (default [`DedupPolicy::KeepMin`]).
    pub fn dedup_policy(mut self, p: DedupPolicy) -> Self {
        self.dedup = p;
        self
    }

    /// Ensure the graph has at least `n` nodes even if some are isolated.
    pub fn reserve_nodes(&mut self, n: u32) {
        if n > 0 {
            self.touch(n - 1);
        }
    }

    fn touch(&mut self, node: u32) {
        self.max_node = Some(self.max_node.map_or(node, |m| m.max(node)));
    }

    /// Add an edge with validation.
    ///
    /// Rejects self-loops (they never affect `Rank`: `d(s,s) = 0` regardless)
    /// and invalid weights.
    pub fn add_edge(&mut self, u: u32, v: u32, w: f64) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let w = Weight::new(w)
            .ok_or(GraphError::InvalidWeight { u, v, weight: w })?
            .get();
        self.touch(u);
        self.touch(v);
        self.edges.push((u, v, w));
        Ok(())
    }

    /// Finalize into a CSR [`Graph`].
    pub fn build(self) -> Result<Graph> {
        let GraphBuilder {
            direction,
            edges,
            max_node,
            dedup,
        } = self;
        let num_nodes = match max_node {
            None => 0u32,
            Some(m) => {
                let n = m as u64 + 1;
                if n > u32::MAX as u64 {
                    return Err(GraphError::TooManyNodes(n as usize));
                }
                n as u32
            }
        };

        let undirected = direction == EdgeDirection::Undirected;
        let mut csr = Csr::from_emitter(num_nodes, dedup == DedupPolicy::KeepLast, || {
            edges.iter().flat_map(move |&(u, v, w)| {
                let back = undirected.then_some((v, u, w));
                std::iter::once((u, v, w)).chain(back)
            })
        });
        // freed before `drop_parallel_arcs` allocates its stamps
        drop(edges);
        if dedup == DedupPolicy::KeepMin {
            csr.drop_parallel_arcs();
        }
        let graph = Graph::from_csr(csr, direction);
        Ok(match dedup {
            DedupPolicy::KeepAll => graph.with_parallel_arcs(),
            DedupPolicy::KeepMin | DedupPolicy::KeepLast => graph,
        })
    }
}

/// Build a graph directly from an edge iterator (convenience for tests and
/// generators).
pub fn graph_from_edges<I>(direction: EdgeDirection, edges: I) -> Result<Graph>
where
    I: IntoIterator<Item = (u32, u32, f64)>,
{
    let mut b = GraphBuilder::new(direction);
    for (u, v, w) in edges {
        b.add_edge(u, v, w)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(EdgeDirection::Undirected)
            .build()
            .unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
    }

    #[test]
    fn isolated_nodes_via_reserve() {
        let mut b = GraphBuilder::new(EdgeDirection::Directed);
        b.reserve_nodes(5);
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_arcs(), 0);
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 2.0)]).unwrap();
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn directed_keeps_one_arc() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 2.0)]).unwrap();
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 0);
    }

    #[test]
    fn rejects_self_loops_and_bad_weights() {
        let mut b = GraphBuilder::new(EdgeDirection::Directed);
        assert!(matches!(
            b.add_edge(3, 3, 1.0),
            Err(GraphError::SelfLoop { node: 3 })
        ));
        assert!(matches!(
            b.add_edge(0, 1, -1.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn keep_min_dedup() {
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [(0, 1, 5.0), (0, 1, 2.0), (0, 1, 3.0)],
        )
        .unwrap();
        assert_eq!(g.num_arcs(), 1);
        let (_, w) = g.out_neighbors(NodeId(0));
        assert_eq!(w, &[2.0]);
    }

    #[test]
    fn keep_last_dedup() {
        let mut b = GraphBuilder::new(EdgeDirection::Directed).dedup_policy(DedupPolicy::KeepLast);
        b.add_edge(0, 1, 5.0).unwrap();
        b.add_edge(0, 1, 2.0).unwrap();
        b.add_edge(0, 1, 9.0).unwrap();
        let g = b.build().unwrap();
        let (_, w) = g.out_neighbors(NodeId(0));
        assert_eq!(w, &[9.0]);
    }

    #[test]
    fn keep_all_retains_parallels() {
        let mut b = GraphBuilder::new(EdgeDirection::Directed).dedup_policy(DedupPolicy::KeepAll);
        b.add_edge(0, 1, 5.0).unwrap();
        b.add_edge(0, 1, 2.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn only_a_keep_all_build_may_have_parallel_arcs() {
        for (policy, parallel) in [
            (DedupPolicy::KeepMin, false),
            (DedupPolicy::KeepLast, false),
            (DedupPolicy::KeepAll, true),
        ] {
            for direction in [EdgeDirection::Directed, EdgeDirection::Undirected] {
                // no parallel edge is added: the flag is the policy's
                let mut b = GraphBuilder::new(direction).dedup_policy(policy);
                b.add_edge(0, 1, 1.0).unwrap();
                b.add_edge(1, 2, 2.0).unwrap();
                let g = b.build().unwrap();
                assert_eq!(g.may_have_parallel_arcs(), parallel, "{policy:?}");
                let t = g.transpose();
                assert_eq!(t.may_have_parallel_arcs(), parallel, "{policy:?} transpose");
            }
        }
    }

    #[test]
    fn undirected_dedup_keeps_min_across_orientations() {
        // (0,1,5) and (1,0,2): symmetrized arcs collapse to weight 2 each way.
        let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 5.0), (1, 0, 2.0)]).unwrap();
        let (_, w01) = g.out_neighbors(NodeId(0));
        let (_, w10) = g.out_neighbors(NodeId(1));
        assert_eq!(w01, &[2.0]);
        assert_eq!(w10, &[2.0]);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
        )
        .unwrap();
        let (t, _) = g.out_neighbors(NodeId(0));
        assert_eq!(t, &[NodeId(1), NodeId(2), NodeId(3)]);
    }
}
