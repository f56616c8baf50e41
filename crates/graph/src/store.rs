//! [`GraphStore`]: versioned copy-on-write graph snapshots for live
//! updates.
//!
//! The query stack reads immutable CSR [`Graph`]s — that is what makes the
//! SDS-tree, the transpose, and concurrent serving cheap. A mutable *live*
//! graph therefore does not mutate the CSR in place; instead a
//! `GraphStore` holds the current snapshot, accumulates pending
//! [`GraphDelta`]s (add/remove edge, add node, reweight), and on
//! [`GraphStore::commit`] publishes a fresh immutable `Arc<Graph>`
//! snapshot tagged with a monotonically increasing *graph epoch*.
//!
//! Readers keep whatever snapshot they cloned — queries in flight when a
//! commit lands finish against the graph they started on, and the epoch
//! tag tells every downstream layer (result caches, indexes) exactly which
//! graph state an answer belongs to. The snapshot *is* the committed edge
//! set; nothing else keeps a copy. A commit patches it: the untouched CSR
//! rows are copied in runs, and only the rows a staged delta touches
//! (both endpoints of an undirected edge) are rebuilt and re-sorted —
//! `O(n + m)` sequential copy plus `Σ d log d` over the touched rows, for
//! the whole batch.
//!
//! Staging validates eagerly against the *effective* state (the
//! snapshot's rows under the staged overlay), so a bad update is a
//! one-line error at the boundary, never a panic mid-commit. It puts each
//! weight on the distance grid and holds the span bound (`crate::weight`)
//! against the heaviest weight, which the store tracks.
//! [`GraphStore::stage_all`] is all-or-nothing for protocol batches.
//!
//! The committed snapshot is *identical* to a from-scratch
//! [`crate::builder::graph_from_edges`] build of the final edge list —
//! byte-for-byte CSR equality, which the equivalence proptests assert. A
//! store opened on a multigraph keeps the lightest of each set of
//! parallel arcs (the builder's default), so this holds from epoch 0.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::builder::EdgeDirection;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::node::NodeId;
use crate::weight::{check_span, quantize, to_real, Distance, INF};

/// One live graph update. A batch of these is the unit the serving layer
/// stages and commits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphDelta {
    /// Append one isolated node (its id is the node count before the
    /// commit; ids are dense and never reused).
    AddNode,
    /// Insert the edge `u – v` (or arc `u -> v` for directed stores) with
    /// weight `w`. Errors if the edge already exists.
    AddEdge {
        /// Source endpoint.
        u: u32,
        /// Target endpoint.
        v: u32,
        /// Non-negative finite weight.
        w: f64,
    },
    /// Delete the edge `u – v`. Errors if it does not exist.
    RemoveEdge {
        /// Source endpoint.
        u: u32,
        /// Target endpoint.
        v: u32,
    },
    /// Change the weight of the existing edge `u – v`. Errors if it does
    /// not exist.
    Reweight {
        /// Source endpoint.
        u: u32,
        /// Target endpoint.
        v: u32,
        /// New non-negative finite weight.
        w: f64,
    },
}

impl GraphDelta {
    /// One-line write-ahead-log encoding, the shape the snapshot bundle's
    /// `wal` section stores staged-but-uncommitted deltas in:
    ///
    /// ```text
    /// add-node
    /// add <u> <v> <w>
    /// rm <u> <v>
    /// reweight <u> <v> <w>
    /// ```
    ///
    /// Weights use Rust's shortest-round-trip float formatting, so
    /// [`GraphDelta::parse_wal_line`] recovers them bit-exactly.
    pub fn to_wal_line(self) -> String {
        match self {
            GraphDelta::AddNode => "add-node".into(),
            GraphDelta::AddEdge { u, v, w } => format!("add {u} {v} {w}"),
            GraphDelta::RemoveEdge { u, v } => format!("rm {u} {v}"),
            GraphDelta::Reweight { u, v, w } => format!("reweight {u} {v} {w}"),
        }
    }

    /// Parse one WAL line (inverse of [`GraphDelta::to_wal_line`]).
    /// `line_no` is the 1-based line number reported on parse errors.
    pub fn parse_wal_line(text: &str, line_no: usize) -> Result<GraphDelta> {
        let parse_err = |message: String| GraphError::Parse {
            line: line_no,
            message,
        };
        let mut parts = text.split_whitespace();
        let op = parts
            .next()
            .ok_or_else(|| parse_err("empty WAL record".into()))?;
        let mut node = |what: &str| -> Result<u32> {
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(format!("bad {what}")))
        };
        let delta = match op {
            "add-node" => GraphDelta::AddNode,
            "add" => {
                let (u, v) = (node("source node")?, node("target node")?);
                let w = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err("bad weight".into()))?;
                GraphDelta::AddEdge { u, v, w }
            }
            "rm" => GraphDelta::RemoveEdge {
                u: node("source node")?,
                v: node("target node")?,
            },
            "reweight" => {
                let (u, v) = (node("source node")?, node("target node")?);
                let w = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err("bad weight".into()))?;
                GraphDelta::Reweight { u, v, w }
            }
            other => return Err(parse_err(format!("unknown WAL op '{other}'"))),
        };
        if parts.next().is_some() {
            return Err(parse_err("trailing tokens".into()));
        }
        Ok(delta)
    }
}

/// Owner of a live graph: the committed snapshot + staged deltas,
/// publishing immutable epoch-tagged [`Graph`] snapshots.
///
/// ```
/// use std::sync::Arc;
/// use rkranks_graph::{graph_from_edges, EdgeDirection, GraphDelta, GraphStore};
/// let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
/// let mut store = GraphStore::new(g);
/// assert_eq!(store.graph_epoch(), 0);
/// let before: Arc<_> = store.snapshot();
/// store.stage(GraphDelta::AddEdge { u: 0, v: 2, w: 0.5 }).unwrap();
/// let after = store.commit();
/// assert_eq!(store.graph_epoch(), 1);
/// assert_eq!(before.num_edges(), 2); // old snapshots are unaffected
/// assert_eq!(after.num_edges(), 3);
/// ```
#[derive(Debug)]
pub struct GraphStore {
    direction: EdgeDirection,
    /// Staged overlay, canonically keyed (undirected stores key by
    /// `(min, max)`): `Some(w)` = edge present with weight `w` after the
    /// next commit, `None` = edge deleted.
    staged: BTreeMap<(u32, u32), Option<Distance>>,
    /// An upper bound on the heaviest weight of the snapshot and the staged
    /// overlay, for the span bound ([`INF`] until a span check first needs
    /// it): it grows as weights stage, and [`GraphStore::check_span_exact`]
    /// makes it exact when it alone breaks the bound.
    max_weight: Distance,
    /// Nodes appended by staged [`GraphDelta::AddNode`]s.
    staged_new_nodes: u32,
    /// The current published snapshot: the committed edge set.
    snapshot: Arc<Graph>,
    /// Bumped by every commit that changed the graph.
    epoch: u64,
}

impl GraphStore {
    /// Take ownership of `graph` as the epoch-0 snapshot.
    ///
    /// Parallel arcs (a [`crate::DedupPolicy::KeepAll`] build) collapse to
    /// the lightest one, as the builder's default policy would: they cannot
    /// change a distance, and a commit only re-sorts the rows it touches,
    /// so the snapshot must already be the edge set it stands for.
    pub fn new(graph: Graph) -> GraphStore {
        let direction = graph.direction();
        let mut csr = graph.into_csr();
        csr.drop_parallel_arcs();
        GraphStore {
            direction,
            staged: BTreeMap::new(),
            max_weight: INF,
            staged_new_nodes: 0,
            snapshot: Arc::new(Graph::from_csr(csr, direction)),
            epoch: 0,
        }
    }

    /// Rebuild a store from persisted state: `graph` becomes the current
    /// snapshot at graph epoch `epoch` (instead of [`GraphStore::new`]'s
    /// epoch 0). This is the snapshot-restore entry point — a restarted
    /// daemon resumes exactly where the persisted store left off, so
    /// epoch-tagged artifacts (indexes, cached results) stay valid.
    pub fn restore(graph: Graph, epoch: u64) -> GraphStore {
        let mut store = GraphStore::new(graph);
        store.epoch = epoch;
        store
    }

    /// The staged-but-uncommitted state as a replayable [`GraphDelta`]
    /// batch: applying the returned batch (via [`GraphStore::stage_all`])
    /// to a store holding only this store's *committed* state reproduces
    /// the effective (committed + staged) state. This is what the snapshot
    /// bundle persists as its WAL section.
    ///
    /// The batch is normalized, not a history: net no-ops (an edge added
    /// and removed without an intervening commit) vanish, and staged
    /// overwrites of committed edges come out as reweights.
    pub fn staged_deltas(&self) -> Vec<GraphDelta> {
        let mut wal = Vec::with_capacity(self.pending_deltas());
        // Nodes first: staged edges may reference staged node ids.
        wal.extend((0..self.staged_new_nodes).map(|_| GraphDelta::AddNode));
        for (&(u, v), &overlay) in &self.staged {
            let committed = self.committed_weight((u, v)).is_some();
            match overlay.map(to_real) {
                Some(w) if committed => wal.push(GraphDelta::Reweight { u, v, w }),
                Some(w) => wal.push(GraphDelta::AddEdge { u, v, w }),
                None if committed => wal.push(GraphDelta::RemoveEdge { u, v }),
                // Staged add later staged away again: net no-op.
                None => {}
            }
        }
        wal
    }

    /// The current published snapshot (cheap `Arc` clone; never reflects
    /// staged-but-uncommitted deltas).
    pub fn snapshot(&self) -> Arc<Graph> {
        Arc::clone(&self.snapshot)
    }

    /// The epoch of the current snapshot: 0 for the initial graph, +1 per
    /// state-changing [`GraphStore::commit`].
    pub fn graph_epoch(&self) -> u64 {
        self.epoch
    }

    /// Edge direction mode (fixed at construction).
    pub fn direction(&self) -> EdgeDirection {
        self.direction
    }

    /// Committed node count.
    pub fn num_nodes(&self) -> u32 {
        self.snapshot.num_nodes()
    }

    /// Node count after the staged deltas commit.
    pub fn effective_num_nodes(&self) -> u32 {
        self.num_nodes() + self.staged_new_nodes
    }

    /// Committed logical edge count.
    pub fn num_edges(&self) -> usize {
        self.snapshot.num_edges()
    }

    /// Staged deltas not yet committed (edge overlays + appended nodes).
    pub fn pending_deltas(&self) -> usize {
        self.staged.len() + self.staged_new_nodes as usize
    }

    /// Whether the *effective* state (committed + staged) has this edge.
    pub fn contains_edge(&self, u: u32, v: u32) -> bool {
        self.effective_weight(canonical(self.direction, u, v))
            .is_some()
    }

    /// Iterate the committed logical edges in row order: by source node,
    /// then by `(weight, target)`. An undirected edge comes once, from its
    /// smaller endpoint's row; weights are in real units.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        let g = &*self.snapshot;
        let directed = g.is_directed();
        g.nodes().flat_map(move |u| {
            g.edges(u)
                .filter(move |&(v, _)| directed || u.0 < v.0)
                .map(move |(v, w)| (u.0, v.0, to_real(w)))
        })
    }

    fn effective_weight(&self, key: (u32, u32)) -> Option<Distance> {
        match self.staged.get(&key) {
            Some(&overlay) => overlay,
            None => self.committed_weight(key),
        }
    }

    /// The snapshot's weight for the canonical edge `(u, v)`: a scan of
    /// row `u` (undirected: of the shorter of rows `u` and `v`).
    fn committed_weight(&self, (u, v): (u32, u32)) -> Option<Distance> {
        let g = &*self.snapshot;
        if u.max(v) >= g.num_nodes() {
            return None; // a staged node: no committed edges yet
        }
        let (from, to) = match self.direction {
            EdgeDirection::Undirected if g.degree(NodeId(v)) < g.degree(NodeId(u)) => (v, u),
            _ => (u, v),
        };
        let (targets, weights) = g.out_neighbors(NodeId(from));
        targets.iter().position(|t| t.0 == to).map(|i| weights[i])
    }

    /// Validate one delta against the effective state and stage it.
    ///
    /// Every rejection is a one-line [`GraphError`]: self-loops, invalid
    /// weights, a broken span bound, out-of-range node ids, duplicate adds,
    /// and removals or reweights of unknown edges all fail *here*, at the
    /// boundary — nothing invalid ever reaches a commit.
    pub fn stage(&mut self, delta: GraphDelta) -> Result<()> {
        let n = self.effective_num_nodes();
        let check_node = |node: u32| {
            if node < n {
                Ok(())
            } else {
                Err(GraphError::NodeOutOfBounds { node, num_nodes: n })
            }
        };
        match delta {
            GraphDelta::AddNode => {
                if n as u64 + 1 > u32::MAX as u64 {
                    return Err(GraphError::TooManyNodes(n as usize + 1));
                }
                self.check_span_exact(n + 1, 0)?;
                self.staged_new_nodes += 1;
            }
            GraphDelta::AddEdge { u, v, w } | GraphDelta::Reweight { u, v, w } => {
                let add = matches!(delta, GraphDelta::AddEdge { .. });
                if add && u == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                check_node(u)?;
                check_node(v)?;
                let w = quantize(u, v, w)?;
                let key = canonical(self.direction, u, v);
                match self.effective_weight(key) {
                    Some(_) if add => return Err(GraphError::EdgeExists { u, v }),
                    None if !add => return Err(GraphError::UnknownEdge { u, v }),
                    _ => {}
                }
                self.check_span_exact(n, w)?;
                self.staged.insert(key, Some(w));
                self.max_weight = self.max_weight.max(w);
            }
            GraphDelta::RemoveEdge { u, v } => {
                check_node(u)?;
                check_node(v)?;
                let key = canonical(self.direction, u, v);
                if self.effective_weight(key).is_none() {
                    return Err(GraphError::UnknownEdge { u, v });
                }
                self.staged.insert(key, None);
            }
        }
        Ok(())
    }

    /// The span bound for `num_nodes` nodes and a staged weight `w`. The
    /// running maximum only grows, so when it breaks the bound, a scan of
    /// the effective state makes it exact first: a batch that lowers or
    /// removes the heaviest edge and then adds nodes stages whenever its
    /// commit would fit. (The effective state always meets the bound, so
    /// `w` replacing an edge breaks it only on its own.)
    fn check_span_exact(&mut self, num_nodes: u32, w: Distance) -> Result<()> {
        if check_span(num_nodes, self.max_weight.max(w)).is_err() {
            let (g, staged, dir) = (&*self.snapshot, &self.staged, self.direction);
            let committed = g.nodes().flat_map(|u| {
                g.edges(u)
                    .filter(move |&(v, _)| !staged.contains_key(&canonical(dir, u.0, v.0)))
                    .map(|(_, w)| w)
            });
            let effective = committed.chain(staged.values().flatten().copied());
            self.max_weight = effective.max().unwrap_or(0);
        }
        check_span(num_nodes, self.max_weight.max(w))
    }

    /// Stage a batch atomically: either every delta stages or none does
    /// (the store is untouched when any delta is invalid). Returns how
    /// many deltas were staged.
    ///
    /// Rollback cost is `O(batch)`, not `O(everything staged)`: only the
    /// overlay entries this batch touched are remembered and restored, so
    /// staging many batches between commits stays linear overall.
    pub fn stage_all(&mut self, deltas: &[GraphDelta]) -> Result<usize> {
        let nodes_before = self.staged_new_nodes;
        // First-touch undo log: the overlay state each key had before this
        // batch (`None` = the key was absent from the overlay, `Some`
        // wraps the prior present-with-weight / deleted entry).
        type PriorOverlay = Option<Option<Distance>>;
        let mut undo: Vec<((u32, u32), PriorOverlay)> = Vec::new();
        let mut touched: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for &d in deltas {
            if let Some(key) = delta_key(self.direction, d) {
                if touched.insert(key) {
                    undo.push((key, self.staged.get(&key).copied()));
                }
            }
            if let Err(e) = self.stage(d) {
                for (key, prior) in undo {
                    match prior {
                        Some(entry) => {
                            self.staged.insert(key, entry);
                        }
                        None => {
                            self.staged.remove(&key);
                        }
                    }
                }
                self.staged_new_nodes = nodes_before;
                return Err(e);
            }
        }
        Ok(deltas.len())
    }

    /// Apply every staged delta and publish a new snapshot, patched from
    /// the current one: untouched rows are copied, and each row a staged
    /// edge touches is rebuilt and re-sorted once, however many deltas the
    /// batch holds. Returns the (possibly unchanged) current snapshot.
    ///
    /// The epoch bumps only when the graph actually changed: committing
    /// nothing — or only no-op reweights — keeps the old snapshot and
    /// epoch, so downstream caches are never invalidated for free.
    pub fn commit(&mut self) -> Arc<Graph> {
        let staged = std::mem::take(&mut self.staged);
        let changed = self.staged_new_nodes > 0
            || staged
                .iter()
                .any(|(&key, &overlay)| self.committed_weight(key) != overlay);
        if !changed {
            return self.snapshot();
        }
        // Arc overlays, one per CSR row an edge touches.
        let mut changes = Vec::with_capacity(2 * staged.len());
        for ((u, v), overlay) in staged {
            changes.push((u, v, overlay));
            if self.direction == EdgeDirection::Undirected {
                changes.push((v, u, overlay));
            }
        }
        changes.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let csr = self
            .snapshot
            .csr()
            .patched(self.effective_num_nodes(), &changes);
        self.staged_new_nodes = 0;
        self.epoch += 1;
        self.snapshot = Arc::new(Graph::from_csr(csr, self.direction));
        self.snapshot()
    }

    /// Stage a batch and commit it in one call (the batch must be valid as
    /// a whole; see [`GraphStore::stage_all`]).
    pub fn apply(&mut self, deltas: &[GraphDelta]) -> Result<Arc<Graph>> {
        self.stage_all(deltas)?;
        Ok(self.commit())
    }
}

/// The overlay key a delta would touch (`None` for node arrivals, which
/// touch only the node counter).
#[inline]
fn delta_key(direction: EdgeDirection, d: GraphDelta) -> Option<(u32, u32)> {
    match d {
        GraphDelta::AddNode => None,
        GraphDelta::AddEdge { u, v, .. }
        | GraphDelta::RemoveEdge { u, v }
        | GraphDelta::Reweight { u, v, .. } => Some(canonical(direction, u, v)),
    }
}

/// Canonical edge key: undirected stores are orientation-free.
#[inline]
fn canonical(direction: EdgeDirection, u: u32, v: u32) -> (u32, u32) {
    match direction {
        EdgeDirection::Directed => (u, v),
        EdgeDirection::Undirected => (u.min(v), u.max(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, DedupPolicy, GraphBuilder};
    use crate::dijkstra::sssp;
    use crate::weight::UNIT;

    fn diamond() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn snapshot_is_initial_graph_at_epoch_zero() {
        let g = diamond();
        let store = GraphStore::new(g.clone());
        assert_eq!(*store.snapshot(), g);
        assert_eq!(store.graph_epoch(), 0);
        assert_eq!(store.num_edges(), 4);
        assert_eq!(store.pending_deltas(), 0);
    }

    #[test]
    fn add_edge_commit_matches_from_scratch_build() {
        let mut store = GraphStore::new(diamond());
        store
            .stage(GraphDelta::AddEdge { u: 1, v: 2, w: 0.5 })
            .unwrap();
        assert_eq!(store.pending_deltas(), 1);
        let snap = store.commit();
        assert_eq!(store.graph_epoch(), 1);
        let scratch = graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (1, 2, 0.5),
            ],
        )
        .unwrap();
        assert_eq!(*snap, scratch);
    }

    #[test]
    fn old_snapshots_survive_commits() {
        let mut store = GraphStore::new(diamond());
        let before = store.snapshot();
        store
            .apply(&[GraphDelta::RemoveEdge { u: 0, v: 1 }])
            .unwrap();
        assert_eq!(before.num_edges(), 4);
        assert_eq!(store.snapshot().num_edges(), 3);
        assert_eq!(store.snapshot().degree(NodeId(0)), 1);
    }

    #[test]
    fn remove_and_reweight_round_trip() {
        let mut store = GraphStore::new(diamond());
        store
            .apply(&[
                GraphDelta::Reweight {
                    u: 0,
                    v: 2,
                    w: 0.25,
                },
                GraphDelta::RemoveEdge { u: 2, v: 3 },
            ])
            .unwrap();
        let snap = store.snapshot();
        let (_, w) = snap.out_neighbors(NodeId(2));
        assert_eq!(w, &[UNIT / 4]); // only 0–2 left, reweighted
        assert_eq!(snap.num_edges(), 3);
    }

    #[test]
    fn add_node_then_connect() {
        let mut store = GraphStore::new(diamond());
        store.stage(GraphDelta::AddNode).unwrap();
        // the new node's id is visible to later deltas in the same batch
        store
            .stage(GraphDelta::AddEdge { u: 4, v: 0, w: 1.0 })
            .unwrap();
        let snap = store.commit();
        assert_eq!(snap.num_nodes(), 5);
        assert_eq!(snap.degree(NodeId(4)), 1);
        assert_eq!(store.graph_epoch(), 1);
    }

    #[test]
    fn validation_is_one_line_errors() {
        let mut store = GraphStore::new(diamond());
        assert!(matches!(
            store.stage(GraphDelta::AddEdge { u: 1, v: 1, w: 1.0 }),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            store.stage(GraphDelta::AddEdge { u: 0, v: 9, w: 1.0 }),
            Err(GraphError::NodeOutOfBounds { node: 9, .. })
        ));
        assert!(matches!(
            store.stage(GraphDelta::AddEdge {
                u: 0,
                v: 3,
                w: -1.0
            }),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            store.stage(GraphDelta::AddEdge { u: 0, v: 1, w: 1.0 }),
            Err(GraphError::EdgeExists { u: 0, v: 1 })
        ));
        // undirected: the reversed orientation is the same edge
        assert!(matches!(
            store.stage(GraphDelta::AddEdge { u: 1, v: 0, w: 1.0 }),
            Err(GraphError::EdgeExists { .. })
        ));
        assert!(matches!(
            store.stage(GraphDelta::RemoveEdge { u: 1, v: 2 }),
            Err(GraphError::UnknownEdge { u: 1, v: 2 })
        ));
        assert!(matches!(
            store.stage(GraphDelta::Reweight { u: 1, v: 2, w: 1.0 }),
            Err(GraphError::UnknownEdge { .. })
        ));
        // nothing staged by any of the rejected deltas
        assert_eq!(store.pending_deltas(), 0);
        assert_eq!(store.graph_epoch(), 0);
    }

    /// A weight at 2^21 is refused, and so is a batch that breaks the span
    /// bound by adding nodes to a graph with a heavy edge; the batch rolls
    /// back whole, the heavy weight included.
    #[test]
    fn stage_holds_the_weight_and_span_bounds() {
        let mut store = GraphStore::new(diamond());
        let at_bound = GraphDelta::Reweight {
            u: 0,
            v: 1,
            w: (1 << 21) as f64,
        };
        assert!(matches!(
            store.stage(at_bound),
            Err(GraphError::InvalidWeight { .. })
        ));
        // 2^20 real units is 2^52 quanta: 2,048 nodes fit, 2,049 do not.
        let heavy = GraphDelta::Reweight {
            u: 0,
            v: 1,
            w: (1 << 20) as f64,
        };
        let mut batch = vec![heavy];
        batch.resize(1 + 2049 - 4, GraphDelta::AddNode);
        let err = store.stage_all(&batch).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::WeightSpan {
                    num_nodes: 2049,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(store.pending_deltas(), 0);
        // the rollback restored the light maximum: the nodes alone stage
        store.apply(&batch[1..]).unwrap();
        assert_eq!(store.num_nodes(), 2049);
        assert!(matches!(
            store.stage(heavy),
            Err(GraphError::WeightSpan {
                num_nodes: 2049,
                ..
            })
        ));
    }

    /// Lowering or removing the heaviest edge makes room for more nodes in
    /// the same batch: the span check rescans instead of refusing on the
    /// stale running maximum.
    #[test]
    fn lowering_the_heaviest_edge_makes_room_for_nodes() {
        let heavy = GraphDelta::Reweight {
            u: 0,
            v: 1,
            w: (1 << 20) as f64,
        };
        let mut batch = vec![heavy];
        batch.resize(1 + 2048 - 4, GraphDelta::AddNode);
        let mut store = GraphStore::new(diamond());
        store.apply(&batch).unwrap();
        assert_eq!(store.num_nodes(), 2048);
        for lighten in [
            GraphDelta::Reweight { u: 0, v: 1, w: 1.0 },
            GraphDelta::RemoveEdge { u: 0, v: 1 },
        ] {
            let mut heavy_store = GraphStore::new((*store.snapshot()).clone());
            assert!(matches!(
                heavy_store.stage(GraphDelta::AddNode),
                Err(GraphError::WeightSpan {
                    num_nodes: 2049,
                    ..
                })
            ));
            heavy_store.apply(&[lighten, GraphDelta::AddNode]).unwrap();
            assert_eq!(heavy_store.num_nodes(), 2049);
        }
    }

    #[test]
    fn stage_all_is_atomic() {
        let mut store = GraphStore::new(diamond());
        let err = store
            .stage_all(&[
                GraphDelta::AddEdge { u: 1, v: 2, w: 1.0 }, // valid
                GraphDelta::RemoveEdge { u: 0, v: 3 },      // unknown edge
            ])
            .unwrap_err();
        assert!(matches!(err, GraphError::UnknownEdge { .. }));
        assert_eq!(store.pending_deltas(), 0, "partial batch must roll back");
        let snap = store.commit();
        assert_eq!(store.graph_epoch(), 0, "rolled-back batch must not bump");
        assert_eq!(*snap, diamond());
    }

    #[test]
    fn staged_deltas_see_each_other() {
        let mut store = GraphStore::new(diamond());
        store.stage(GraphDelta::RemoveEdge { u: 0, v: 1 }).unwrap();
        // re-adding the removed edge in the same batch is legal...
        store
            .stage(GraphDelta::AddEdge { u: 0, v: 1, w: 9.0 })
            .unwrap();
        // ...and removing it twice is not
        store.stage(GraphDelta::RemoveEdge { u: 0, v: 1 }).unwrap();
        assert!(matches!(
            store.stage(GraphDelta::RemoveEdge { u: 0, v: 1 }),
            Err(GraphError::UnknownEdge { .. })
        ));
        let snap = store.commit();
        assert_eq!(snap.num_edges(), 3);
        assert_eq!(store.graph_epoch(), 1);
    }

    #[test]
    fn noop_commit_keeps_epoch_and_snapshot() {
        let mut store = GraphStore::new(diamond());
        let before = store.snapshot();
        // empty commit
        let same = store.commit();
        assert!(Arc::ptr_eq(&before, &same));
        assert_eq!(store.graph_epoch(), 0);
        // reweight to the identical value is a no-op too
        store
            .stage(GraphDelta::Reweight { u: 0, v: 1, w: 1.0 })
            .unwrap();
        let same = store.commit();
        assert!(Arc::ptr_eq(&before, &same), "no-op reweight must not bump");
        assert_eq!(store.graph_epoch(), 0);
        // ...but a real reweight does change state
        store
            .stage(GraphDelta::Reweight { u: 0, v: 1, w: 3.0 })
            .unwrap();
        store.commit();
        assert_eq!(store.graph_epoch(), 1);
    }

    #[test]
    fn directed_store_keeps_orientations_distinct() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        let mut store = GraphStore::new(g);
        // the reverse arc is a different edge in a directed store
        store
            .stage(GraphDelta::AddEdge { u: 1, v: 0, w: 2.0 })
            .unwrap();
        let snap = store.commit();
        assert_eq!(snap.num_arcs(), 2);
        assert!(store.contains_edge(0, 1));
        assert!(store.contains_edge(1, 0));
        store
            .apply(&[GraphDelta::RemoveEdge { u: 0, v: 1 }])
            .unwrap();
        assert!(!store.contains_edge(0, 1));
        assert!(store.contains_edge(1, 0));
    }

    #[test]
    fn restore_pins_the_given_epoch() {
        let store = GraphStore::restore(diamond(), 7);
        assert_eq!(store.graph_epoch(), 7);
        assert_eq!(*store.snapshot(), diamond());
        // commits keep counting from the restored epoch
        let mut store = store;
        store
            .apply(&[GraphDelta::AddEdge { u: 1, v: 2, w: 0.5 }])
            .unwrap();
        assert_eq!(store.graph_epoch(), 8);
    }

    #[test]
    fn staged_deltas_replay_to_the_same_effective_state() {
        let mut store = GraphStore::new(diamond());
        store
            .stage_all(&[
                GraphDelta::AddNode,
                GraphDelta::AddEdge { u: 4, v: 0, w: 0.5 },
                GraphDelta::RemoveEdge { u: 2, v: 3 },
                GraphDelta::Reweight { u: 0, v: 1, w: 9.0 },
                // add-then-remove nets out to nothing
                GraphDelta::AddEdge { u: 1, v: 2, w: 1.0 },
                GraphDelta::RemoveEdge { u: 1, v: 2 },
            ])
            .unwrap();
        let wal = store.staged_deltas();
        let mut replayed = GraphStore::new(diamond());
        replayed.stage_all(&wal).unwrap();
        assert_eq!(*replayed.commit(), *store.commit());
        assert_eq!(replayed.graph_epoch(), store.graph_epoch());
    }

    #[test]
    fn wal_lines_round_trip() {
        let deltas = [
            GraphDelta::AddNode,
            GraphDelta::AddEdge {
                u: 1,
                v: 2,
                w: 0.30000000000000004, // bit-exactness matters
            },
            GraphDelta::RemoveEdge { u: 3, v: 4 },
            GraphDelta::Reweight {
                u: 5,
                v: 6,
                w: 1e-9,
            },
        ];
        for d in deltas {
            let line = d.to_wal_line();
            assert_eq!(GraphDelta::parse_wal_line(&line, 1).unwrap(), d, "{line}");
        }
    }

    /// Off-grid weights survive the WAL: a replayed store commits the
    /// graph, and the digest, of the store that wrote it.
    #[test]
    fn off_grid_weights_survive_a_wal_round_trip() {
        let mut store = GraphStore::new(diamond());
        store
            .stage_all(&[
                GraphDelta::Reweight { u: 0, v: 1, w: 0.1 },
                GraphDelta::AddEdge {
                    u: 1,
                    v: 2,
                    w: 1.0 / 3.0,
                },
                GraphDelta::AddEdge {
                    u: 0,
                    v: 3,
                    w: 1e-12,
                },
            ])
            .unwrap();
        let lines: Vec<String> = store
            .staged_deltas()
            .into_iter()
            .map(GraphDelta::to_wal_line)
            .collect();
        let mut replayed = GraphStore::new(diamond());
        for (i, line) in lines.iter().enumerate() {
            replayed
                .stage(GraphDelta::parse_wal_line(line, i + 1).unwrap())
                .unwrap();
        }
        let (want, got) = (store.commit(), replayed.commit());
        assert_eq!(got, want);
        assert_eq!(got.digest(), want.digest());
    }

    #[test]
    fn wal_parse_errors_are_one_liners() {
        for bad in [
            "",
            "frobnicate 1 2",
            "add 1 2",        // missing weight
            "add 1 2 x",      // bad weight
            "rm 1",           // missing target
            "reweight 1 2",   // missing weight
            "add 1 2 0.5 9",  // trailing tokens
            "add-node extra", // trailing tokens
        ] {
            let err = GraphDelta::parse_wal_line(bad, 3).unwrap_err();
            match err {
                GraphError::Parse { line, .. } => assert_eq!(line, 3, "{bad:?}"),
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn isolated_nodes_survive_round_trips() {
        let mut b = GraphBuilder::new(EdgeDirection::Undirected);
        b.reserve_nodes(6);
        b.add_edge(0, 1, 1.0).unwrap();
        let mut store = GraphStore::new(b.build().unwrap());
        store
            .apply(&[GraphDelta::AddEdge { u: 4, v: 5, w: 1.0 }])
            .unwrap();
        assert_eq!(store.snapshot().num_nodes(), 6);
        assert_eq!(store.snapshot().num_edges(), 2);
    }

    #[test]
    fn multigraph_store_keeps_distances_across_an_unrelated_commit() {
        // 0–1 twice (weights 1 and 5), then 1–2, 2–3
        let mut b = GraphBuilder::new(EdgeDirection::Undirected).dedup_policy(DedupPolicy::KeepAll);
        for (u, v, w) in [(0, 1, 1.0), (0, 1, 5.0), (1, 2, 1.0), (2, 3, 1.0)] {
            b.add_edge(u, v, w).unwrap();
        }
        let multigraph = b.build().unwrap();
        assert!(multigraph.may_have_parallel_arcs());
        let mut store = GraphStore::new(multigraph);
        assert_eq!(store.num_edges(), 3, "parallel arcs collapse at open");
        assert!(!store.snapshot().may_have_parallel_arcs());
        assert_eq!(sssp(&store.snapshot(), NodeId(0))[1], UNIT);
        let snap = store
            .apply(&[GraphDelta::AddEdge { u: 0, v: 3, w: 9.0 }])
            .unwrap();
        assert!(!snap.may_have_parallel_arcs());
        let row0: Vec<_> = snap.edges(NodeId(0)).collect();
        assert_eq!(row0, [(NodeId(1), UNIT), (NodeId(3), 9 * UNIT)]);
        assert_eq!(sssp(&snap, NodeId(0))[1], UNIT);
        let scratch = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 9.0)],
        )
        .unwrap();
        assert_eq!(*snap, scratch);
    }

    #[test]
    fn edges_come_in_row_order_once_each() {
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)],
        )
        .unwrap();
        let edges: Vec<_> = GraphStore::new(g).edges().collect();
        assert_eq!(edges, [(0, 2, 1.0), (0, 1, 2.0), (1, 2, 1.0)]);
    }
}
