//! Query specification: monochromatic vs bichromatic.
//!
//! Definition 2 (monochromatic): every node is both a potential result and
//! counted in ranks. Definitions 3–4 (bichromatic, §6.3.4): the node set is
//! split into `V1` (candidates — e.g. communities) and `V2` (counted — e.g.
//! stores); the query node comes from `V2`, results come from `V1`, and
//! `Rank(s, t)` counts only `V2` nodes.

use rkranks_graph::{GraphError, NodeId, Result};

/// A two-class node partition for bichromatic queries.
#[derive(Clone, Debug)]
pub struct Partition {
    is_v2: Vec<bool>,
}

impl Partition {
    /// Build from the `V2` (counted / query class) membership mask.
    pub fn from_v2_mask(is_v2: Vec<bool>) -> Partition {
        Partition { is_v2 }
    }

    /// Build from the list of `V2` node ids, given the total node count.
    pub fn from_v2_nodes(num_nodes: u32, v2: &[NodeId]) -> Partition {
        let mut mask = vec![false; num_nodes as usize];
        for &v in v2 {
            mask[v.index()] = true;
        }
        Partition::from_v2_mask(mask)
    }

    /// `true` if `v` belongs to `V2`.
    #[inline(always)]
    pub fn is_v2(&self, v: NodeId) -> bool {
        self.is_v2[v.index()]
    }

    /// Number of nodes covered by the partition.
    pub fn len(&self) -> usize {
        self.is_v2.len()
    }

    /// `true` when the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.is_v2.is_empty()
    }
}

/// Resolved query mode used inside the algorithms.
#[derive(Clone, Copy, Debug)]
pub enum QuerySpec<'a> {
    /// Definition 2: all nodes are candidates and all nodes are counted.
    Mono,
    /// Definitions 3–4: candidates are `V1 = !V2`, counted nodes are `V2`.
    Bichromatic(&'a Partition),
}

impl QuerySpec<'_> {
    /// May `v` appear in the result set?
    #[inline(always)]
    pub(crate) fn is_candidate(&self, v: NodeId) -> bool {
        match self {
            QuerySpec::Mono => true,
            QuerySpec::Bichromatic(p) => !p.is_v2(v),
        }
    }

    /// Does `v` count toward `Rank` values?
    #[inline(always)]
    pub fn is_counted(&self, v: NodeId) -> bool {
        match self {
            QuerySpec::Mono => true,
            QuerySpec::Bichromatic(p) => p.is_v2(v),
        }
    }

    /// `true` in bichromatic mode.
    pub fn is_bichromatic(&self) -> bool {
        matches!(self, QuerySpec::Bichromatic(_))
    }

    /// Validate a query node for this spec (Definition 4 requires
    /// `q ∈ V2`).
    pub fn validate_query(&self, q: NodeId) -> Result<()> {
        match self {
            QuerySpec::Mono => Ok(()),
            QuerySpec::Bichromatic(p) => {
                if p.is_v2(q) {
                    Ok(())
                } else {
                    Err(GraphError::InvalidQuery(format!(
                        "bichromatic query node {q} must belong to V2 (the counted class)"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_everything_is_everything() {
        let s = QuerySpec::Mono;
        assert!(s.is_candidate(NodeId(0)));
        assert!(s.is_counted(NodeId(0)));
        assert!(!s.is_bichromatic());
        assert!(s.validate_query(NodeId(3)).is_ok());
    }

    #[test]
    fn partition_masks() {
        let p = Partition::from_v2_nodes(4, &[NodeId(1), NodeId(3)]);
        assert!(p.is_v2(NodeId(1)));
        assert!(!p.is_v2(NodeId(0)));
        assert!(p.is_v2(NodeId(3)) && !p.is_v2(NodeId(2)));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn bichromatic_classes_are_disjoint_roles() {
        let p = Partition::from_v2_nodes(3, &[NodeId(2)]);
        let s = QuerySpec::Bichromatic(&p);
        assert!(s.is_candidate(NodeId(0)) && !s.is_counted(NodeId(0)));
        assert!(!s.is_candidate(NodeId(2)) && s.is_counted(NodeId(2)));
        assert!(s.is_bichromatic());
    }

    #[test]
    fn bichromatic_query_must_be_v2() {
        let p = Partition::from_v2_nodes(3, &[NodeId(2)]);
        let s = QuerySpec::Bichromatic(&p);
        assert!(s.validate_query(NodeId(2)).is_ok());
        assert!(s.validate_query(NodeId(0)).is_err());
    }

    #[test]
    fn mask_round_trip() {
        let p = Partition::from_v2_mask(vec![true, false, true]);
        assert!(p.is_v2(NodeId(0)));
        assert!(!p.is_v2(NodeId(1)));
        assert!(p.is_v2(NodeId(2)));
    }
}
