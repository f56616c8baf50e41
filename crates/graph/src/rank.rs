//! Rank semantics (Definition 1) and tie-aware rank counting.
//!
//! `Rank(s,t) = |{p : d(s,p) < d(s,t)}| + 1` counts nodes **strictly**
//! closer to `s` than `t`; equal-distance nodes share a rank (Table 1's Sid
//! row ranks both Bob and Caroline 2nd). Every counter in this crate and in
//! `rkranks-core` goes through [`RankCounter`] so tie handling is proved and
//! tested in exactly one place.

use crate::dijkstra::{DijkstraWorkspace, DistanceBrowser};
use crate::graph::Graph;
use crate::node::NodeId;
use crate::weight::Distance;

/// Tracks exact ranks for a stream of settles in nondecreasing distance
/// order (the order Dijkstra produces). The traversal source must **not** be
/// fed to [`RankCounter::on_settle`] — a node never counts toward its own
/// ranks.
#[derive(Clone, Debug)]
pub struct RankCounter {
    settled: u32,
    strictly_closer: u32,
    last_dist: Distance,
}

impl Default for RankCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl RankCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        RankCounter {
            settled: 0,
            strictly_closer: 0,
            last_dist: 0,
        }
    }

    /// Record a settle at distance `d` and return that node's exact rank.
    ///
    /// `d` must be nondecreasing across calls (debug-asserted).
    #[inline]
    pub fn on_settle(&mut self, d: Distance) -> u32 {
        debug_assert!(
            d >= self.last_dist,
            "settles must arrive in nondecreasing order"
        );
        if d > self.last_dist {
            self.strictly_closer = self.settled;
            self.last_dist = d;
        }
        self.settled += 1;
        self.strictly_closer + 1
    }

    /// Number of settles recorded.
    #[inline]
    pub fn settled(&self) -> u32 {
        self.settled
    }

    /// A provably safe lower bound on the rank of every node **not yet
    /// settled**, given the distance at the top of the frontier (`None` when
    /// the frontier is exhausted).
    ///
    /// Soundness: an unsettled node `v` has `d(s,v) ≥ d_next`. If
    /// `d_next > last_dist`, every settled node is strictly closer, so
    /// `Rank(s,v) ≥ settled + 1`. If `d_next == last_dist` (a tie is still
    /// pending), only the strictly-closer prefix is guaranteed, so
    /// `Rank(s,v) ≥ strictly_closer + 1`. With an empty frontier the
    /// remaining nodes are unreachable and their rank is exactly
    /// `settled + 1`.
    ///
    /// This is the value the paper's Check Dictionary stores (§5.2); the
    /// paper uses the raw settle count, which over-claims by the size of a
    /// pending tie group — harmless on its tie-free datasets but unsound in
    /// general, so we tighten it here.
    #[inline]
    pub fn unsettled_rank_lower_bound(&self, next_frontier: Option<Distance>) -> u32 {
        match next_frontier {
            Some(d) if d == self.last_dist => self.strictly_closer + 1,
            _ => self.settled + 1,
        }
    }
}

/// Exact `Rank(s,t)` by distance browsing from `s` until `t` settles.
/// Returns `None` if `t` is unreachable from `s` (its rank is undefined —
/// the paper's queries are run inside one connected component).
pub fn rank_between(
    graph: &Graph,
    ws: &mut DijkstraWorkspace,
    s: NodeId,
    t: NodeId,
) -> Option<u32> {
    if s == t {
        return Some(0); // conventional: a node "ranks itself" 0th, excluded everywhere
    }
    let mut counter = RankCounter::new();
    for (v, d) in DistanceBrowser::new(graph, ws, s) {
        if v == s {
            continue;
        }
        let r = counter.on_settle(d);
        if v == t {
            return Some(r);
        }
    }
    None
}

/// The full rank matrix for small graphs: `matrix[s][t] = Rank(s,t)`
/// (`None` on the diagonal and for unreachable pairs). Used as ground truth
/// in tests; O(|V|·(|E| + |V| log |V|)) — do not call on large graphs.
pub fn rank_matrix(graph: &Graph) -> Vec<Vec<Option<u32>>> {
    let n = graph.num_nodes() as usize;
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    let mut matrix = vec![vec![None; n]; n];
    for s in graph.nodes() {
        let mut counter = RankCounter::new();
        let mut browser = DistanceBrowser::new(graph, &mut ws, s);
        // consume the source settle
        browser.next();
        for (v, d) in browser {
            matrix[s.index()][v.index()] = Some(counter.on_settle(d));
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};

    #[test]
    fn counter_without_ties_is_sequential() {
        let mut c = RankCounter::new();
        assert_eq!(c.on_settle(1), 1);
        assert_eq!(c.on_settle(2), 2);
        assert_eq!(c.on_settle(3), 3);
        assert_eq!(c.settled(), 3);
    }

    #[test]
    fn counter_shares_rank_on_ties() {
        let mut c = RankCounter::new();
        assert_eq!(c.on_settle(1), 1);
        assert_eq!(c.on_settle(2), 2);
        assert_eq!(c.on_settle(2), 2); // tie shares rank 2
        assert_eq!(c.on_settle(2), 2);
        assert_eq!(c.on_settle(3), 5); // 4 strictly closer
    }

    #[test]
    fn unsettled_bound_no_tie_pending() {
        let mut c = RankCounter::new();
        c.on_settle(1);
        c.on_settle(2);
        assert_eq!(c.unsettled_rank_lower_bound(Some(3)), 3);
        assert_eq!(c.unsettled_rank_lower_bound(None), 3);
    }

    #[test]
    fn unsettled_bound_with_tie_pending() {
        let mut c = RankCounter::new();
        c.on_settle(1);
        c.on_settle(2);
        c.on_settle(2);
        // frontier top also at 2.0: only the single 1.0-node is guaranteed closer
        assert_eq!(c.unsettled_rank_lower_bound(Some(2)), 2);
        // frontier top past the tie group: all 3 settles are strictly closer
        assert_eq!(c.unsettled_rank_lower_bound(Some(3)), 4);
    }

    #[test]
    fn zero_distance_ties_at_start() {
        // Zero-weight edges: neighbors settle at distance 0 like the source.
        let mut c = RankCounter::new();
        assert_eq!(c.on_settle(0), 1);
        assert_eq!(c.on_settle(0), 1);
        assert_eq!(c.unsettled_rank_lower_bound(Some(0)), 1);
    }

    fn path_graph() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn rank_between_on_path() {
        let g = path_graph();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(rank_between(&g, &mut ws, NodeId(0), NodeId(1)), Some(1));
        assert_eq!(rank_between(&g, &mut ws, NodeId(0), NodeId(3)), Some(3));
        // from 1: nodes 0 and 2 tie at distance 1, both strictly closer than 3
        assert_eq!(rank_between(&g, &mut ws, NodeId(1), NodeId(3)), Some(3));
        assert_eq!(rank_between(&g, &mut ws, NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn rank_between_tie() {
        // 1 and 2 are both at distance 1 from 0; 3 is at 2.
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0)],
        )
        .unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(rank_between(&g, &mut ws, NodeId(0), NodeId(1)), Some(1));
        assert_eq!(rank_between(&g, &mut ws, NodeId(0), NodeId(2)), Some(1));
        assert_eq!(rank_between(&g, &mut ws, NodeId(0), NodeId(3)), Some(3));
    }

    #[test]
    fn rank_between_unreachable() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(rank_between(&g, &mut ws, NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn rank_matrix_path() {
        let g = path_graph();
        let m = rank_matrix(&g);
        // from node 0: 1 is 1st, 2 is 2nd, 3 is 3rd
        assert_eq!(m[0][1], Some(1));
        assert_eq!(m[0][2], Some(2));
        assert_eq!(m[0][3], Some(3));
        // from node 1: 0 and 2 tie at distance 1 -> both rank 1
        assert_eq!(m[1][0], Some(1));
        assert_eq!(m[1][2], Some(1));
        assert_eq!(m[1][3], Some(3));
        // diagonal is None
        assert_eq!(m[2][2], None);
    }

    #[test]
    fn rank_matrix_directed_asymmetry() {
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [(0, 1, 1.0), (1, 0, 5.0), (1, 2, 1.0)],
        )
        .unwrap();
        let m = rank_matrix(&g);
        assert_eq!(m[0][1], Some(1));
        assert_eq!(m[1][0], Some(2)); // 2 (dist 1) beats 0 (dist 5)
        assert_eq!(m[2][0], None); // unreachable
    }
}
