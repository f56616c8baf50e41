//! Query tracing: an event log of every decision the SDS driver makes.
//!
//! Production engines need observability; a reproduction doubly so — the
//! trace is how tests assert the paper's §3/§4 walkthroughs ("the process
//! can terminate here, since the lower bounds of ranks for Frank, Sid and
//! George are already larger than kRank") decision by decision rather than
//! only by final answer.
//!
//! The driver may run several passes of its kRank ladder (see
//! [`crate::context`]). `events` holds the **accepted (last) pass** — the
//! one whose decisions produced the answer — and `passes` holds one
//! [`PassSummary`] per pass run, so "why was this query slow" can be
//! answered with "its guess of 80 failed: kRank was 2,126".

use rkranks_graph::{to_real, Distance, NodeId};

/// What happened to one node popped from the SDS priority queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PopDecision {
    /// The query root itself (always expanded).
    Root,
    /// Refinement ran to completion with this exact rank.
    Refined {
        /// The exact `Rank(node, q)`.
        rank: u32,
        /// Whether the node entered the result set `R`.
        entered_result: bool,
    },
    /// Refinement aborted on the `kRank` bound (the paper's `-1`).
    RefinementPruned {
        /// Proven lower bound on the node's rank.
        lower_bound: u32,
    },
    /// The Theorem-2 lower bound met `kRank` before refinement (dynamic
    /// variants only).
    BoundPruned {
        /// The winning lower bound.
        lower_bound: u32,
        /// The `kRank` it met.
        k_rank: u32,
    },
    /// A degree-1 candidate whose exact rank was offered to `R` when its
    /// only neighbour's refinement completed (see "Pendant leaves" in
    /// `context.rs`); neither refined nor expanded at its pop.
    Pendant {
        /// The only neighbour: `q`, or the refined candidate it hangs off.
        via: NodeId,
        /// The rank it was offered at.
        rank: u32,
    },
    /// The exact rank came from the Reverse Rank Dictionary (§5.3).
    IndexHit {
        /// The stored exact rank.
        rank: u32,
    },
    /// A bichromatic conduit node (not a candidate; only routes paths).
    Conduit {
        /// Whether its subtree was pruned.
        subtree_pruned: bool,
    },
}

/// One trace event: a pop from the SDS queue and its outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// The popped node.
    pub node: NodeId,
    /// Its (final) distance to the query node.
    pub distance: Distance,
    /// What the driver decided.
    pub decision: PopDecision,
}

/// One pass of the kRank ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassSummary {
    /// The `kRank` guess the pass ran under (`u32::MAX`: unbounded).
    pub guess: u32,
    /// The collector's real k-th rank when the pass ended (`u32::MAX`
    /// while `R` held fewer than `k` entries).
    pub k_rank: u32,
    /// Whether `R` proved the guess. A rejected pass is discarded and the
    /// next guess runs, unless a limit tripped (then this is the last one).
    pub accepted: bool,
    /// Rank refinements started in this pass.
    pub refinements: u64,
    /// Nodes settled by this pass's refinements.
    pub settles: u64,
    /// Frontier insertions made by this pass's refinements — the work an
    /// aborted refinement is bound by.
    pub pushes: u64,
    /// Nodes this pass's refinements queued again after dequeuing them
    /// ([`crate::QueryStats::refinement_requeues`]).
    pub requeues: u64,
    /// How many of `refinements` ran anchored (see [`crate::context`],
    /// "Anchored refinement").
    pub anchored: u64,
    /// Pendant leaves this pass offered to `R` without a refinement
    /// ([`crate::QueryStats::pendant_offers`]).
    pub pendants: u64,
    /// The pass's anchor, if one was frozen: the node and the number of
    /// counted nodes its ball credits to every candidate below it.
    pub anchor: Option<(NodeId, u32)>,
}

/// An ordered trace of one query.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// Events of the last pass, in pop order.
    pub events: Vec<TraceEvent>,
    /// One summary per ladder pass, in the order they ran.
    pub passes: Vec<PassSummary>,
}

impl QueryTrace {
    /// Nodes that were rank-refined (completed or pruned mid-refinement).
    pub fn refined_nodes(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.decision,
                    PopDecision::Refined { .. } | PopDecision::RefinementPruned { .. }
                )
            })
            .map(|e| e.node)
            .collect()
    }

    /// Nodes skipped entirely by the Theorem-2 bound.
    pub fn bound_pruned_nodes(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|e| matches!(e.decision, PopDecision::BoundPruned { .. }))
            .map(|e| e.node)
            .collect()
    }

    /// Render a human-readable listing (used by examples and debugging).
    pub fn render(&self, names: Option<&[&str]>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let bound = |r: u32| match r {
            u32::MAX => "unbounded".to_string(),
            r => r.to_string(),
        };
        for (i, p) in self.passes.iter().enumerate() {
            let _ = write!(
                out,
                "pass {} guess {:<9} {} (kRank {}; {} refinements, {} settles, {} pushes, \
                 {} requeues",
                i + 1,
                bound(p.guess),
                if p.accepted { "accepted" } else { "rejected" },
                bound(p.k_rank),
                p.refinements,
                p.settles,
                p.pushes,
                p.requeues,
            );
            if p.pendants > 0 {
                let _ = write!(out, "; {} pendant offers", p.pendants);
            }
            if let Some((node, ball)) = p.anchor {
                let _ = write!(out, "; {} anchored on {node}, ball {ball}", p.anchored);
            }
            let _ = writeln!(out, ")");
        }
        let name = |n: NodeId| -> String {
            match names {
                Some(ns) if n.index() < ns.len() => ns[n.index()].to_string(),
                _ => n.to_string(),
            }
        };
        for e in &self.events {
            let what = match e.decision {
                PopDecision::Root => "root".to_string(),
                PopDecision::Refined {
                    rank,
                    entered_result,
                } => {
                    format!(
                        "refined -> rank {rank}{}",
                        if entered_result { " (entered R)" } else { "" }
                    )
                }
                PopDecision::RefinementPruned { lower_bound } => {
                    format!(
                        "refinement pruned (rank > {})",
                        lower_bound.saturating_sub(1)
                    )
                }
                PopDecision::BoundPruned {
                    lower_bound,
                    k_rank,
                } => {
                    format!("bound-pruned (LB {lower_bound} >= kRank {k_rank})")
                }
                PopDecision::Pendant { via, rank } => {
                    format!("pendant of {} -> rank {rank}", name(via))
                }
                PopDecision::IndexHit { rank } => format!("index hit -> rank {rank}"),
                PopDecision::Conduit { subtree_pruned } => {
                    format!(
                        "conduit{}",
                        if subtree_pruned {
                            " (subtree pruned)"
                        } else {
                            ""
                        }
                    )
                }
            };
            let d = to_real(e.distance);
            let _ = writeln!(out, "pop {:<10} d={d:<8.4} {what}", name(e.node));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        QueryTrace {
            events: vec![
                TraceEvent {
                    node: NodeId(0),
                    distance: 0,
                    decision: PopDecision::Root,
                },
                TraceEvent {
                    node: NodeId(1),
                    distance: 1 << 32,
                    decision: PopDecision::Refined {
                        rank: 3,
                        entered_result: true,
                    },
                },
                TraceEvent {
                    node: NodeId(2),
                    distance: 3 << 31,
                    decision: PopDecision::BoundPruned {
                        lower_bound: 5,
                        k_rank: 4,
                    },
                },
                TraceEvent {
                    node: NodeId(3),
                    distance: 2 << 32,
                    decision: PopDecision::IndexHit { rank: 2 },
                },
                TraceEvent {
                    node: NodeId(4),
                    distance: 5 << 31,
                    decision: PopDecision::RefinementPruned { lower_bound: 6 },
                },
                TraceEvent {
                    node: NodeId(5),
                    distance: 2 << 32,
                    decision: PopDecision::Pendant {
                        via: NodeId(1),
                        rank: 4,
                    },
                },
            ],
            passes: vec![
                PassSummary {
                    guess: 2,
                    k_rank: u32::MAX,
                    accepted: false,
                    refinements: 3,
                    settles: 9,
                    pushes: 12,
                    requeues: 0,
                    anchored: 0,
                    pendants: 0,
                    anchor: None,
                },
                PassSummary {
                    guess: 8,
                    k_rank: 3,
                    accepted: true,
                    refinements: 2,
                    settles: 7,
                    pushes: 8,
                    requeues: 1,
                    anchored: 1,
                    pendants: 3,
                    anchor: Some((NodeId(1), 2)),
                },
            ],
        }
    }

    #[test]
    fn selectors_partition_events() {
        let t = sample();
        assert_eq!(t.refined_nodes(), vec![NodeId(1), NodeId(4)]);
        assert_eq!(t.bound_pruned_nodes(), vec![NodeId(2)]);
        let index_hits: Vec<NodeId> = t
            .events
            .iter()
            .filter(|e| matches!(e.decision, PopDecision::IndexHit { .. }))
            .map(|e| e.node)
            .collect();
        assert_eq!(index_hits, vec![NodeId(3)]);
    }

    #[test]
    fn render_with_and_without_names() {
        let t = sample();
        let plain = t.render(None);
        assert!(plain.contains("pop 1"));
        assert!(
            plain.contains("pop 2          d=1.5000   bound-pruned"),
            "{plain}"
        );
        assert!(plain.contains("entered R"));
        assert!(
            plain.contains("pop 5          d=2.0000   pendant of 1 -> rank 4"),
            "{plain}"
        );
        assert!(plain.contains("bound-pruned (LB 5 >= kRank 4)"));
        assert!(plain.contains("pass 1 guess 2         rejected (kRank unbounded; 3 refinements"));
        assert!(
            plain.contains("(kRank unbounded; 3 refinements, 9 settles, 12 pushes, 0 requeues)\n")
        );
        assert!(plain.contains(
            "pass 2 guess 8         accepted \
             (kRank 3; 2 refinements, 7 settles, 8 pushes, 1 requeues; 3 pendant offers; \
             1 anchored on 1, ball 2)"
        ));
        let named = t.render(Some(&["q", "Bob", "Carol", "Dan", "Eve", "Fay"]));
        assert!(named.contains("pop Bob"));
        assert!(named.contains("pop Fay        d=2.0000   pendant of Bob -> rank 4"));
        assert!(named.contains("index hit -> rank 2"));
    }
}
