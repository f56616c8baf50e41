//! The [`Graph`] type: CSR out-adjacency plus direction metadata.

use crate::builder::EdgeDirection;
use crate::csr::Csr;
use crate::error::{GraphError, Result};
use crate::node::{NodeId, NodeIdRange};
use crate::weight::Distance;

/// A weighted graph in CSR form.
///
/// `Graph` stores out-adjacency. For directed graphs, the SDS-tree of the
/// paper needs the *transpose* (distances **to** the query node); call
/// [`Graph::transpose`] once and reuse it (undirected graphs are their own
/// transpose, which `transpose()` exploits by cloning the CSR — callers that
/// want zero-copy should branch on [`Graph::is_directed`], as
/// `rkranks-core`'s engine does).
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    csr: Csr,
    direction: EdgeDirection,
    /// Built with [`crate::DedupPolicy::KeepAll`]: a row may name a target
    /// more than once.
    parallel_arcs: bool,
}

impl Graph {
    /// A graph over `csr` whose rows name each target at most once.
    pub(crate) fn from_csr(csr: Csr, direction: EdgeDirection) -> Graph {
        Graph {
            csr,
            direction,
            parallel_arcs: false,
        }
    }

    /// Mark this graph as one whose rows may repeat a target.
    pub(crate) fn with_parallel_arcs(mut self) -> Graph {
        self.parallel_arcs = true;
        self
    }

    pub(crate) fn csr(&self) -> &Csr {
        &self.csr
    }

    pub(crate) fn into_csr(self) -> Csr {
        self.csr
    }

    /// Number of nodes (including isolated ones).
    #[inline(always)]
    pub fn num_nodes(&self) -> u32 {
        self.csr.num_nodes()
    }

    /// Number of stored arcs. For undirected graphs this is twice the number
    /// of logical edges.
    #[inline(always)]
    pub(crate) fn num_arcs(&self) -> usize {
        self.csr.num_arcs()
    }

    /// Number of logical edges (arcs for directed, arc-pairs for undirected).
    pub fn num_edges(&self) -> usize {
        match self.direction {
            EdgeDirection::Directed => self.num_arcs(),
            EdgeDirection::Undirected => self.num_arcs() / 2,
        }
    }

    /// `true` if built as a directed graph.
    #[inline(always)]
    pub fn is_directed(&self) -> bool {
        self.direction == EdgeDirection::Directed
    }

    /// Edge direction mode.
    #[inline(always)]
    pub fn direction(&self) -> EdgeDirection {
        self.direction
    }

    /// `false` when every row names each target at most once, so a row's
    /// length is its number of distinct neighbours. Only a
    /// [`crate::DedupPolicy::KeepAll`] build (and its transpose) says
    /// `true`; a [`crate::GraphStore`] collapses parallel arcs when it
    /// opens, so its snapshots say `false`.
    #[inline(always)]
    pub fn may_have_parallel_arcs(&self) -> bool {
        self.parallel_arcs
    }

    /// Out-degree of `u`.
    #[inline(always)]
    pub fn degree(&self, u: NodeId) -> u32 {
        self.csr.degree(u)
    }

    /// Average out-degree (the paper's Table 2 statistic).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.num_arcs() as f64 / self.num_nodes() as f64
    }

    /// Neighbor slice pair `(targets, weights)` of `u`, sorted by
    /// `(weight, target)` ascending — lightest edge first.
    ///
    /// The order is an invariant of every graph this crate produces: the
    /// builder, [`Graph::transpose`], file and snapshot loads all sort rows
    /// in the one CSR constructor, and a [`crate::GraphStore`] commit
    /// copies the previous snapshot's untouched rows and re-sorts only the
    /// rows it changes. A
    /// distance-bounded traversal may therefore `break` out of a row at the
    /// first edge with `d + w >= bound`; `rkranks-core`'s `refine_rank`
    /// does, and that early exit is most of its per-settle cost on hub rows.
    #[inline(always)]
    pub fn out_neighbors(&self, u: NodeId) -> (&[NodeId], &[Distance]) {
        self.csr.neighbors(u)
    }

    /// Iterate `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        self.csr.edges(u)
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> NodeIdRange {
        NodeIdRange::new(self.num_nodes())
    }

    /// Validate that `u` is a node of this graph.
    #[inline]
    pub fn check_node(&self, u: NodeId) -> Result<()> {
        if u.0 < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node: u.0,
                num_nodes: self.num_nodes(),
            })
        }
    }

    /// The transpose graph `G^T` (every arc reversed, same weights).
    ///
    /// For undirected graphs `G^T = G`; this returns a clone for uniformity.
    pub fn transpose(&self) -> Graph {
        match self.direction {
            EdgeDirection::Undirected => self.clone(),
            EdgeDirection::Directed => Graph {
                csr: self.csr.transpose(),
                ..*self
            },
        }
    }

    /// Heap memory footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes()
    }

    /// Maximum out-degree and one node attaining it.
    pub fn max_degree(&self) -> Option<(NodeId, u32)> {
        self.nodes()
            .map(|u| (u, self.degree(u)))
            .max_by_key(|&(u, d)| (d, std::cmp::Reverse(u)))
    }

    /// A 64-bit digest of the graph: the node count, the direction, and
    /// every row's length and `(target, weight)` pairs in stored
    /// order, folded one 64-bit word at a time FNV-1a style
    /// (`h = (h ^ word) · P`, a bijection of `h` per word, so no single
    /// changed word can cancel out). Rows are sorted by `(weight, target)`
    /// however the graph was built, loaded or patched, so two graphs with
    /// one edge set share a digest; any changed weight, edge or node count
    /// changes it (up to hash collisions). One pass over the CSR: ≈ 2.5 ms at 25k nodes and 290k edges.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let eat = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
        let mut h = eat(0xcbf2_9ce4_8422_2325, u64::from(self.num_nodes()));
        h = eat(h, u64::from(self.is_directed()));
        for u in self.nodes() {
            let (targets, weights) = self.out_neighbors(u);
            h = eat(h, targets.len() as u64);
            for (v, w) in targets.iter().zip(weights) {
                h = eat(eat(h, u64::from(v.0)), *w);
            }
        }
        h
    }
}

/// Clone a borrowed graph into a fresh `Arc` — the bridge that lets
/// `Arc<Graph>`-based APIs (e.g. `rkranks-core`'s `EngineContext`) keep
/// accepting `&Graph` at call sites that only ever build one context.
///
/// This pays a full `O(n + m)` CSR copy. Callers that create contexts per
/// snapshot (the serving path) should hold an `Arc<Graph>` — e.g. from
/// [`crate::GraphStore::snapshot`] — and clone the `Arc` instead.
impl From<&Graph> for std::sync::Arc<Graph> {
    fn from(g: &Graph) -> Self {
        std::sync::Arc::new(g.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::weight::UNIT;

    fn diamond() -> Graph {
        // 0 - 1 - 3, 0 - 2 - 3 (undirected)
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn edge_and_arc_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert!(!g.is_directed());
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn directed_counts() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 2);
        assert!(g.is_directed());
    }

    /// The digest sees direction, node count and row boundaries, not just
    /// the arc sequence.
    #[test]
    fn digest_separates_what_the_arc_list_alone_would_not() {
        let arcs = [(0, 1, 1.0), (1, 2, 0.0)];
        let directed = graph_from_edges(EdgeDirection::Directed, arcs).unwrap();
        let undirected = graph_from_edges(EdgeDirection::Undirected, arcs).unwrap();
        assert_ne!(directed.digest(), undirected.digest());
        let mut wider = crate::GraphBuilder::new(EdgeDirection::Directed);
        wider.reserve_nodes(4);
        for (u, v, w) in arcs {
            wider.add_edge(u, v, w).unwrap();
        }
        assert_ne!(directed.digest(), wider.build().unwrap().digest());
        // The arc 0→2 and the arc 1→2 are the same (target, weight) pair
        // in the same position; only the row lengths tell them apart.
        let from_0 = graph_from_edges(EdgeDirection::Directed, [(0, 2, 1.0)]).unwrap();
        let from_1 = graph_from_edges(EdgeDirection::Directed, [(1, 2, 1.0)]).unwrap();
        assert_ne!(from_0.digest(), from_1.digest());
    }

    #[test]
    fn transpose_directed() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.5)]).unwrap();
        let t = g.transpose();
        assert_eq!(t.degree(NodeId(0)), 0);
        assert_eq!(t.degree(NodeId(1)), 1);
        let (ts, ws) = t.out_neighbors(NodeId(1));
        assert_eq!(ts, &[NodeId(0)]);
        assert_eq!(ws, &[3 * UNIT / 2]);
    }

    #[test]
    fn transpose_undirected_is_same() {
        let g = diamond();
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn check_node_bounds() {
        let g = diamond();
        assert!(g.check_node(NodeId(3)).is_ok());
        assert!(g.check_node(NodeId(4)).is_err());
    }

    #[test]
    fn max_degree_picks_highest() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)],
        )
        .unwrap();
        let (node, deg) = g.max_degree().unwrap();
        assert_eq!(node, NodeId(0));
        assert_eq!(deg, 3);
    }

    #[test]
    fn nodes_iterator_covers_all() {
        let g = diamond();
        assert_eq!(g.nodes().count(), 4);
    }
}
