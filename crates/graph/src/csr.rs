//! Compressed-sparse-row adjacency storage.
//!
//! One `Csr` stores the out-adjacency of a directed graph (an undirected
//! graph stores each edge in both directions). Neighbor iteration is a pair
//! of contiguous slices — the single hottest access pattern in every
//! algorithm of the paper.
//!
//! **Row order is an invariant:** every row is sorted by `(weight, target)`
//! ascending. Every `Csr` is born in `Csr::from_arcs` ([`Csr::transpose`]
//! included), which establishes it, so a traversal that only wants edges
//! with `d + w < bound` may stop at the first edge that fails the test
//! (float addition is monotone: `w1 <= w2` implies `d + w1 <= d + w2`).
//! `rkranks-core`'s rank refinement relies on exactly that.

use crate::node::NodeId;
use crate::weight::Distance;

/// CSR adjacency: `offsets[u]..offsets[u+1]` indexes into `targets`/`weights`;
/// each row is sorted by `(weight, target)` (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<Distance>,
}

impl Csr {
    /// Build from an arc list `(source, target, weight)` in any order.
    ///
    /// Counting-sorts the arcs into their rows, then orders each row by
    /// `(weight, target)`: `O(m + Σ d log d)`, and rows are short. Weights
    /// must be valid (non-NaN); the public entry points
    /// ([`crate::builder::GraphBuilder`], [`crate::GraphStore`]) validate
    /// them.
    pub(crate) fn from_arcs(num_nodes: u32, arcs: &[(u32, u32, f64)]) -> Csr {
        let n = num_nodes as usize;
        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); arcs.len()];
        let mut weights = vec![0.0; arcs.len()];
        for &(u, v, w) in arcs {
            let slot = cursor[u as usize] as usize;
            targets[slot] = NodeId(v);
            weights[slot] = w;
            cursor[u as usize] += 1;
        }
        let mut row: Vec<(Distance, NodeId)> = Vec::new();
        for i in 0..n {
            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
            row.clear();
            row.extend(
                weights[lo..hi]
                    .iter()
                    .copied()
                    .zip(targets[lo..hi].iter().copied()),
            );
            row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (slot, &(w, t)) in (lo..hi).zip(&row) {
                weights[slot] = w;
                targets[slot] = t;
            }
        }
        let csr = Csr {
            offsets,
            targets,
            weights,
        };
        debug_assert!(csr.rows_are_sorted());
        csr
    }

    /// The row-order invariant, checked: every row ascends by
    /// `(weight, target)`.
    pub(crate) fn rows_are_sorted(&self) -> bool {
        (0..self.num_nodes()).all(|u| {
            let (t, w) = self.neighbors(NodeId(u));
            (1..t.len()).all(|i| (w[i - 1], t[i - 1]) <= (w[i], t[i]))
        })
    }

    /// Number of nodes.
    #[inline(always)]
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of stored arcs (directed edges).
    #[inline(always)]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u`.
    #[inline(always)]
    pub fn degree(&self, u: NodeId) -> u32 {
        let i = u.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Neighbor slice pair for `u`: `(targets, weights)`.
    #[inline(always)]
    pub fn neighbors(&self, u: NodeId) -> (&[NodeId], &[Distance]) {
        let i = u.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Iterate `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        let (t, w) = self.neighbors(u);
        t.iter().copied().zip(w.iter().copied())
    }

    /// Reverse every arc, producing the transpose adjacency (its rows
    /// `(weight, target)`-sorted like any other `Csr`'s).
    pub fn transpose(&self) -> Csr {
        let arcs: Vec<_> = (0..self.num_nodes())
            .flat_map(|u| self.edges(NodeId(u)).map(move |(t, w)| (t.0, u, w)))
            .collect();
        Csr::from_arcs(self.num_nodes(), &arcs)
    }

    /// Heap memory footprint in bytes (used by index-size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * size_of::<u32>()
            + self.targets.len() * size_of::<NodeId>()
            + self.weights.len() * size_of::<Distance>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> 1 (1.0), 0 -> 2 (2.0), 1 -> 2 (0.5), 3 isolated
        Csr::from_arcs(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5)])
    }

    #[test]
    fn basic_accessors() {
        let c = sample();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_arcs(), 3);
        assert_eq!(c.degree(NodeId(0)), 2);
        assert_eq!(c.degree(NodeId(1)), 1);
        assert_eq!(c.degree(NodeId(3)), 0);
    }

    #[test]
    fn neighbor_slices() {
        let c = sample();
        let (t, w) = c.neighbors(NodeId(0));
        assert_eq!(t, &[NodeId(1), NodeId(2)]);
        assert_eq!(w, &[1.0, 2.0]);
        let (t, _) = c.neighbors(NodeId(3));
        assert!(t.is_empty());
    }

    #[test]
    fn edges_iterator() {
        let c = sample();
        let e: Vec<_> = c.edges(NodeId(1)).collect();
        assert_eq!(e, vec![(NodeId(2), 0.5)]);
    }

    #[test]
    fn transpose_reverses_arcs() {
        let c = sample();
        let t = c.transpose();
        assert_eq!(t.num_arcs(), 3);
        let (ts, ws) = t.neighbors(NodeId(2));
        // incoming arcs of 2: from 1 (0.5) and from 0 (2.0), lightest first
        assert_eq!(ts, &[NodeId(1), NodeId(0)]);
        assert_eq!(ws, &[0.5, 2.0]);
        assert_eq!(t.degree(NodeId(0)), 0);
    }

    #[test]
    fn double_transpose_is_identity() {
        let c = sample();
        assert_eq!(c.transpose().transpose(), c);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(sample().heap_bytes() > 0);
    }
}
