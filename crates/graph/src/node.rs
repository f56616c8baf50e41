//! Node identifiers.
//!
//! Nodes are dense `u32` indices into the CSR arrays. A newtype keeps them
//! from being confused with ranks, counts, or heap slots in the algorithm
//! code, at zero runtime cost.

use std::fmt;

/// A node identifier: a dense index in `0..graph.num_nodes()`.
///
/// `NodeId` is `#[repr(transparent)]` over `u32`; graphs are limited to
/// `u32::MAX` nodes (the paper's largest dataset is 1.3 M nodes, and this
/// reproduction targets laptop scale).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Convert to a `usize` for array indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// Iterator over all node ids `0..n`, used by `Graph::nodes()`.
#[derive(Clone, Debug)]
pub struct NodeIdRange {
    next: u32,
    end: u32,
}

impl NodeIdRange {
    pub(crate) fn new(n: u32) -> Self {
        NodeIdRange { next: 0, end: n }
    }
}

impl Iterator for NodeIdRange {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.end {
            let id = NodeId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeIdRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let id = NodeId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }

    #[test]
    fn range_yields_all_ids() {
        let ids: Vec<NodeId> = NodeIdRange::new(4).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn range_is_exact_size() {
        let mut r = NodeIdRange::new(3);
        assert_eq!(r.len(), 3);
        r.next();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ordering_follows_u32() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5).max(NodeId(3)), NodeId(5));
    }
}
