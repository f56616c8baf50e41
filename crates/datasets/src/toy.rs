//! The paper's Figure 1 toy graph, reconstructed exactly.
//!
//! Seven researchers form a weighted undirected graph. The edge weights
//! below were reverse-engineered from Figure 1, Figure 2 (the SDS-tree with
//! its distance labels), and Table 1 (the full rank matrix); the test at the
//! bottom of this module re-derives Table 1 cell by cell, including the
//! Bob/Caroline tie in Sid's row.

use rkranks_graph::{graph_from_edges, EdgeDirection, Graph, NodeId};

/// Alice — the "new researcher" with a single weak link to Bob.
pub const ALICE: NodeId = NodeId(0);
/// Bob.
pub const BOB: NodeId = NodeId(1);
/// Caroline.
pub const CAROLINE: NodeId = NodeId(2);
/// Sid.
pub const SID: NodeId = NodeId(3);
/// Eric — the "hot" researcher close to everyone.
pub const ERIC: NodeId = NodeId(4);
/// Frank.
pub const FRANK: NodeId = NodeId(5);
/// George.
pub const GEORGE: NodeId = NodeId(6);

/// Human-readable names, indexed by node id.
pub const NAMES: [&str; 7] = ["Alice", "Bob", "Caroline", "Sid", "Eric", "Frank", "George"];

/// Build the Figure 1 graph.
pub fn paper_example() -> Graph {
    graph_from_edges(
        EdgeDirection::Undirected,
        [
            (ALICE.0, BOB.0, 1.0),
            (BOB.0, ERIC.0, 0.2),
            (BOB.0, CAROLINE.0, 0.3),
            (CAROLINE.0, SID.0, 1.2),
            (ERIC.0, SID.0, 1.0),
            (ERIC.0, FRANK.0, 0.9),
            (ERIC.0, GEORGE.0, 1.1),
            (FRANK.0, GEORGE.0, 0.2),
        ],
    )
    .expect("toy graph is valid")
}

/// The paper's Table 1: `TABLE1[s][t] = Rank(s,t)`, with `0` on the
/// diagonal (undefined there; the paper leaves it blank).
pub const TABLE1: [[u32; 7]; 7] = [
    // Alice  Bob  Caroline  Sid  Eric  Frank  George
    [0, 1, 3, 5, 2, 4, 6], // from Alice
    [3, 0, 2, 5, 1, 4, 6], // from Bob
    [4, 1, 0, 3, 2, 5, 6], // from Caroline
    [6, 2, 2, 0, 1, 4, 5], // from Sid
    [6, 1, 2, 4, 0, 3, 5], // from Eric
    [6, 3, 4, 5, 2, 0, 1], // from Frank
    [6, 3, 4, 5, 2, 1, 0], // from George
];

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::{distance, rank_matrix, to_real};

    #[test]
    fn structure_matches_figure1() {
        let g = paper_example();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 8);
        assert!(!g.is_directed());
        assert_eq!(g.degree(ALICE), 1); // Alice's only link is Bob
        assert_eq!(g.degree(ERIC), 4);
    }

    #[test]
    fn sds_tree_distances_match_figure2() {
        // Figure 2 labels the SDS-tree rooted at Alice with these distances
        // (each weight is on the 2^-32 grid, within 2^-33 of its value).
        let g = paper_example();
        assert!((to_real(distance(&g, BOB, ALICE)) - 1.0).abs() < 1e-9);
        assert!((to_real(distance(&g, ERIC, ALICE)) - 1.2).abs() < 1e-9);
        assert!((to_real(distance(&g, CAROLINE, ALICE)) - 1.3).abs() < 1e-9);
        assert!((to_real(distance(&g, FRANK, ALICE)) - 2.1).abs() < 1e-9);
        assert!((to_real(distance(&g, SID, ALICE)) - 2.2).abs() < 1e-9);
        assert!((to_real(distance(&g, GEORGE, ALICE)) - 2.3).abs() < 1e-9);
    }

    #[test]
    fn rank_matrix_reproduces_table1() {
        let g = paper_example();
        let m = rank_matrix(&g);
        for s in 0..7 {
            for t in 0..7 {
                if s == t {
                    assert_eq!(m[s][t], None);
                } else {
                    assert_eq!(
                        m[s][t],
                        Some(TABLE1[s][t]),
                        "Rank({}, {}) mismatch",
                        NAMES[s],
                        NAMES[t]
                    );
                }
            }
        }
    }

    #[test]
    fn example1_rank_claims() {
        // "Eric is the 2nd closest node (after Bob) to Alice with a shortest
        // path distance 1.2" and "Rank(Bob, Alice) = 3".
        let g = paper_example();
        let m = rank_matrix(&g);
        assert_eq!(m[ALICE.index()][ERIC.index()], Some(2));
        assert_eq!(m[BOB.index()][ALICE.index()], Some(3));
        assert_eq!(m[ERIC.index()][ALICE.index()], Some(6));
        assert_eq!(m[CAROLINE.index()][ALICE.index()], Some(4));
    }
}
