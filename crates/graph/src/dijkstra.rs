//! Dijkstra traversal: reusable workspaces and lazy distance browsing.
//!
//! Every algorithm in the paper is a Dijkstra variant: the SDS-tree is
//! Dijkstra on the transpose graph, rank refinement is a bounded Dijkstra
//! from the candidate (run first-in-first-out where settle order is never
//! read: see below), the index build runs a truncated Dijkstra from each
//! hub. A reverse k-ranks query therefore runs *thousands* of short
//! traversals. [`DijkstraWorkspace`] makes each of them allocation-free and
//! proportional to the nodes it touches, not to |V|: a node's whole state —
//! tentative distance, generation stamp, queue position or settled mark —
//! is one 16-byte record that counts only while its stamp is current, so a
//! reset bumps one counter and never walks the frontier it abandons (a
//! refinement aborted at `kRank` leaves most of its pushes unpopped).
//!
//! ### Bounded truncated traversal
//!
//! A caller that will take only the `limit` nearest *counted* nodes
//! (the index builder's `M`-prefix, k-NN, top-k sets) drives
//! [`BoundedBrowser`] instead of [`DistanceBrowser`]. It keeps a cut-off
//! `τ` — the `limit`-th smallest *insertion-time* tentative distance among
//! the counted nodes discovered so far (`∞` until `limit` of them have
//! been discovered) — and a settled node's row is relaxed only while
//! `d + w ≤ τ`: rows are `(weight, target)`-sorted (the `Csr` invariant),
//! so the first edge past `τ` ends the row. Soundness:
//!
//! 1. at any moment `limit` distinct counted nodes have final distance ≤
//!    their insertion-time tentative ≤ `τ`, so the `limit`-th nearest
//!    counted node is within `τ` (decrease-keys are ignored: `τ` is only
//!    looser for it, never wrong);
//! 2. every node within `τ` has all its shortest-path prefixes within `τ`
//!    (weights are non-negative, `τ` never grows) and is therefore found
//!    with its exact distance — conduit nodes that are not counted are
//!    relaxed like any other;
//! 3. hence the first `limit` counted settles carry the same distances and
//!    ranks as the unbounded run.
//!
//! **Tie rule.** The cut is strict (`d + w > τ` ends the row), so the whole
//! tie group at the `limit`-th distance is discovered: after the `limit`-th
//! counted settle [`DijkstraWorkspace::peek_frontier`] still shows a
//! pending tie exactly when the unbounded run would. Only *which* members
//! of a tie group straddling the cut settle first may differ — that is
//! heap order, arbitrary on both sides.
//!
//! ### First-in-first-out traversal
//!
//! A caller that needs the *set* of nodes within a bound and not the order
//! they are reached in (rank refinement counts `S(p)`; it never reads a
//! settle order) begins with [`DijkstraWorkspace::begin_fifo`] and drives
//! [`DijkstraWorkspace::dequeue`] / [`DijkstraWorkspace::relax_correcting`]:
//! a label-correcting traversal. Its queue is a vector of node ids beside
//! the heap, a node's slot position marks it queued, and a dequeue reads
//! the node's current distance from its slot, so a decrease while queued
//! writes one distance and moves nothing. A node whose label drops after it
//! was dequeued is queued again ([`RelaxOutcome::Requeued`]), so when the
//! queue drains every label is the shortest distance — the one Dijkstra
//! computes: both are the least fixpoint of `label(v) = min label(u) + w`,
//! and integer sums are exact.
//!
//! FIFO label correcting is O(|V|·|E|) in the worst case. The guard: before
//! each dequeue, if the traversal's re-queues exceed its insertions, the
//! pending nodes are heapified with their current labels and the *same*
//! traversal finishes in distance order. Nothing is restarted: a dequeued
//! node keeps its stamp and its label, and is queued once more if that
//! label still drops. A node popped in distance order is final (were its
//! label above its distance, the shortest path to it would hold a queued
//! node with a smaller label), so the ordered finish re-queues each node at
//! most once: a traversal's re-queues stay within its insertions plus one
//! row before the switch, and within twice its insertions plus one row in
//! all.

use std::collections::BinaryHeap;

use crate::graph::Graph;
use crate::node::NodeId;
use crate::weight::{Distance, INF};

/// Outcome of relaxing an edge into the frontier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelaxOutcome {
    /// First time this node enters the frontier this traversal.
    Inserted,
    /// The node was already queued and its tentative distance decreased.
    Decreased,
    /// The node had been dequeued and its tentative distance decreased, so
    /// it is queued again (label-correcting traversals only:
    /// [`DijkstraWorkspace::relax_correcting`]).
    Requeued,
    /// No improvement (already settled, or tentative distance not better).
    Unchanged,
}

/// [`Slot::pos`] of a node that has been popped (its distance is final,
/// except in a first-in-first-out traversal, which may queue it again).
const SETTLED: u32 = u32::MAX;

/// [`Slot::pos`] of a node waiting in a first-in-first-out queue.
const QUEUED: u32 = 0;

/// One node's state in one traversal; it counts only while
/// `stamp == generation`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Tentative distance while queued, final once settled.
    dist: Distance,
    stamp: u32,
    /// Index into the heap while queued ([`QUEUED`] in a
    /// first-in-first-out queue), [`SETTLED`] once popped.
    pos: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// A slot no traversal has touched (no traversal runs as generation 0).
const UNTOUCHED: Slot = Slot {
    dist: INF,
    stamp: 0,
    pos: SETTLED,
};

/// Reusable per-traversal state: one 16-byte record per node (tentative
/// distance, generation stamp, heap position or queued / settled mark), the
/// decrease-key binary min-heap over `(distance, node)`, and the node queue
/// of a first-in-first-out traversal (module docs). Reset is O(1):
/// [`DijkstraWorkspace::begin`] bumps the generation and clears the heap.
#[derive(Debug)]
pub struct DijkstraWorkspace {
    slots: Vec<Slot>,
    generation: u32,
    heap: Vec<(Distance, u32)>,
    /// A FIFO traversal's queue: every node it was given, in arrival order
    /// (the source, one per insertion, one per re-queue); `head` is next.
    queue: Vec<u32>,
    head: usize,
    /// `true` while the traversal dequeues first-in-first-out.
    fifo: bool,
    /// Re-queues of the current traversal (module docs, the guard).
    requeues: usize,
    /// Storage of [`BoundedBrowser`]'s cut-off heap, parked here between
    /// traversals so a build's thousands of truncated SSSPs share one
    /// allocation.
    cutoff_buf: BinaryHeap<Distance>,
}

impl DijkstraWorkspace {
    /// Workspace for graphs with up to `n` nodes.
    pub fn new(n: u32) -> Self {
        DijkstraWorkspace {
            slots: vec![UNTOUCHED; n as usize],
            generation: 0,
            heap: Vec::with_capacity(64),
            queue: Vec::new(),
            head: 0,
            fifo: false,
            requeues: 0,
            cutoff_buf: BinaryHeap::new(),
        }
    }

    /// Grow to accommodate a larger graph (no-op if already large enough).
    pub fn ensure_capacity(&mut self, n: u32) {
        if self.slots.len() < n as usize {
            self.slots.resize(n as usize, UNTOUCHED);
        }
    }

    /// Number of nodes this workspace can traverse.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Start a fresh traversal from `source`. Clears all prior state in
    /// O(1): the previous frontier is dropped, not walked.
    pub fn begin(&mut self, source: NodeId) {
        self.heap.clear();
        self.fifo = false;
        self.requeues = 0;
        if self.generation == u32::MAX {
            // Generation wrap: hard-reset the stamps once every 4 billion
            // traversals rather than branching in the hot path.
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.generation = 0;
        }
        self.generation += 1;
        self.slots[source.index()] = Slot {
            dist: 0,
            stamp: self.generation,
            pos: 0,
        };
        self.heap.push((0, source.0));
    }

    /// [`DijkstraWorkspace::begin`] a first-in-first-out traversal (module
    /// docs): drive it with [`DijkstraWorkspace::dequeue`] and
    /// [`DijkstraWorkspace::relax_correcting`].
    pub fn begin_fifo(&mut self, source: NodeId) {
        self.begin(source);
        self.heap.clear();
        self.slots[source.index()].pos = QUEUED;
        self.queue.clear();
        self.queue.push(source.0);
        self.head = 0;
        self.fifo = true;
    }

    /// `v`'s slot if the current traversal has touched it.
    #[inline(always)]
    fn slot(&self, v: NodeId) -> Option<&Slot> {
        let slot = &self.slots[v.index()];
        (slot.stamp == self.generation).then_some(slot)
    }

    /// Tentative (or final) distance of `v` in the current traversal.
    #[inline(always)]
    pub fn dist_of(&self, v: NodeId) -> Option<Distance> {
        self.slot(v).map(|s| s.dist)
    }

    /// Relax `v` to tentative distance `d`.
    #[inline]
    pub fn relax(&mut self, v: NodeId, d: Distance) -> RelaxOutcome {
        let generation = self.generation;
        let slot = &mut self.slots[v.index()];
        if slot.stamp != generation {
            let i = self.heap.len();
            *slot = Slot {
                dist: d,
                stamp: generation,
                pos: i as u32,
            };
            self.heap.push((d, v.0));
            self.sift_up(i);
            RelaxOutcome::Inserted
        } else if slot.pos == SETTLED || d >= slot.dist {
            RelaxOutcome::Unchanged
        } else {
            slot.dist = d;
            let i = slot.pos as usize;
            self.heap[i].0 = d;
            self.sift_up(i);
            RelaxOutcome::Decreased
        }
    }

    /// Label-correcting relax of `v` to tentative distance `d`: as
    /// [`DijkstraWorkspace::relax`], except that a dequeued node whose
    /// distance drops is queued again ([`RelaxOutcome::Requeued`]). In
    /// distance order that never happens before a FIFO traversal's switch
    /// (a popped distance is final).
    #[inline]
    pub fn relax_correcting(&mut self, v: NodeId, d: Distance) -> RelaxOutcome {
        if !self.fifo {
            return self.relax_correcting_ordered(v, d);
        }
        let generation = self.generation;
        let slot = &mut self.slots[v.index()];
        let outcome = if slot.stamp != generation {
            RelaxOutcome::Inserted
        } else if d >= slot.dist {
            return RelaxOutcome::Unchanged;
        } else if slot.pos != SETTLED {
            // (the queue holds nodes; a dequeue reads the slot's distance)
            slot.dist = d;
            return RelaxOutcome::Decreased;
        } else {
            self.requeues += 1;
            RelaxOutcome::Requeued
        };
        *slot = Slot {
            dist: d,
            stamp: generation,
            pos: QUEUED,
        };
        self.queue.push(v.0);
        outcome
    }

    /// [`DijkstraWorkspace::relax_correcting`] after the guard's switch.
    #[cold]
    #[inline(never)]
    fn relax_correcting_ordered(&mut self, v: NodeId, d: Distance) -> RelaxOutcome {
        let generation = self.generation;
        let slot = &mut self.slots[v.index()];
        if slot.stamp != generation || slot.pos != SETTLED || d >= slot.dist {
            return self.relax(v, d);
        }
        let i = self.heap.len();
        *slot = Slot {
            dist: d,
            stamp: generation,
            pos: i as u32,
        };
        self.heap.push((d, v.0));
        self.sift_up(i);
        self.requeues += 1;
        RelaxOutcome::Requeued
    }

    /// The next node of a traversal begun with
    /// [`DijkstraWorkspace::begin_fifo`]: the oldest queued one, or — once
    /// re-queues exceed insertions (module docs, the guard) — the closest
    /// one, as [`DijkstraWorkspace::settle_next`] gives. Returns the node
    /// and its current distance.
    #[inline]
    pub fn dequeue(&mut self) -> Option<(NodeId, Distance)> {
        // The queue holds the source, the insertions and the re-queues, so
        // `re-queues ≤ insertions` is `2 · re-queues < its length`.
        if self.fifo && 2 * self.requeues < self.queue.len() {
            let &v = self.queue.get(self.head)?;
            self.head += 1;
            let slot = &mut self.slots[v as usize];
            slot.pos = SETTLED;
            return Some((NodeId(v), slot.dist));
        }
        self.dequeue_ordered()
    }

    /// [`DijkstraWorkspace::dequeue`] in distance order, switching first if
    /// the traversal is still FIFO: the pending nodes are heapified with
    /// their current distances, and the traversal goes on from there.
    #[cold]
    #[inline(never)]
    fn dequeue_ordered(&mut self) -> Option<(NodeId, Distance)> {
        if self.fifo {
            self.fifo = false;
            self.heap.clear();
            for &v in &self.queue[self.head..] {
                let slot = &mut self.slots[v as usize];
                slot.pos = self.heap.len() as u32;
                self.heap.push((slot.dist, v));
            }
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        }
        self.settle_next()
    }

    /// `false` once a FIFO traversal has switched to distance order (and
    /// for every traversal begun with [`DijkstraWorkspace::begin`]).
    pub fn is_fifo(&self) -> bool {
        self.fifo
    }

    /// Pop the closest frontier node, mark it settled, and return it.
    #[inline]
    pub fn settle_next(&mut self) -> Option<(NodeId, Distance)> {
        if self.heap.is_empty() {
            return None;
        }
        let (d, v) = self.heap.swap_remove(0);
        self.slots[v as usize].pos = SETTLED;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((NodeId(v), d))
    }

    /// The next frontier distance without popping (the refinement
    /// tie-boundary check needs this).
    #[inline]
    pub fn peek_frontier(&self) -> Option<(NodeId, Distance)> {
        debug_assert!(!self.fifo, "a FIFO queue has no closest node");
        self.heap.first().map(|&(d, v)| (NodeId(v), d))
    }

    /// Settle the next node and relax all its out-edges — one full Dijkstra
    /// step. Returns the settled node.
    #[inline]
    pub fn step(&mut self, graph: &Graph) -> Option<(NodeId, Distance)> {
        self.step_within(graph, INF, |_, _, _| INF)
    }

    /// The one Dijkstra step, under a cut-off: settle the next node and
    /// relax its out-edges in row order while `d + w ≤ tau`, ending the row
    /// at the first edge past it (exact: rows are `(weight, target)`-sorted).
    /// `relaxed` sees every edge that was relaxed — target, tentative
    /// distance, outcome — and returns the cut-off for the rest of the row.
    /// Returns the settled node.
    #[inline]
    pub(crate) fn step_within(
        &mut self,
        graph: &Graph,
        mut tau: Distance,
        mut relaxed: impl FnMut(NodeId, Distance, RelaxOutcome) -> Distance,
    ) -> Option<(NodeId, Distance)> {
        let (v, d) = self.settle_next()?;
        let (targets, weights) = graph.out_neighbors(v);
        for (t, w) in targets.iter().zip(weights.iter()) {
            let nd = d + *w;
            if nd > tau {
                break;
            }
            tau = relaxed(*t, nd, self.relax(*t, nd));
        }
        Some((v, d))
    }

    /// `true` if heap entry `a` must sit above heap entry `b`.
    #[inline(always)]
    fn less(&self, a: usize, b: usize) -> bool {
        self.heap[a].0 < self.heap[b].0
    }

    /// Move the entry at `i` up to its place. Binary sift with a hole: the
    /// comparisons — hence the pop order, ties included — are a swap
    /// sift's, but each level writes one entry and one position.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if entry.0 >= above.0 {
                break;
            }
            self.put(i, above);
            i = parent;
        }
        self.put(i, entry);
    }

    /// Move the entry at `i` down to its place (a hole sift, as above).
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.less(r, l) { r } else { l };
            if self.heap[child].0 >= entry.0 {
                break;
            }
            self.put(i, self.heap[child]);
            i = child;
        }
        self.put(i, entry);
    }

    #[inline(always)]
    fn put(&mut self, i: usize, entry: (Distance, u32)) {
        self.heap[i] = entry;
        self.slots[entry.1 as usize].pos = i as u32;
    }

    /// Heap order, and every queued node's slot current and pointing at
    /// its entry.
    #[cfg(test)]
    fn check_invariants(&self) {
        if self.fifo {
            // Every pending node queued once, and marked so.
            let pending = &self.queue[self.head..];
            for (i, &v) in pending.iter().enumerate() {
                let slot = self.slot(NodeId(v)).expect("queued node not stamped");
                assert_eq!(slot.pos, QUEUED, "slot of {v} stale");
                assert!(!pending[..i].contains(&v), "{v} queued twice");
            }
            return;
        }
        for i in 1..self.heap.len() {
            assert!(!self.less(i, (i - 1) / 2), "heap order violated at {i}");
        }
        for (i, &(d, v)) in self.heap.iter().enumerate() {
            let slot = self.slot(NodeId(v)).expect("queued node not stamped");
            assert_eq!((slot.pos, slot.dist), (i as u32, d), "slot of {v} stale");
        }
    }
}

/// Lazy iterator yielding `(node, distance)` in nondecreasing distance order
/// from a source ("distance browsing"). The source itself is yielded first
/// with distance 0.
///
/// ```
/// use rkranks_graph::{graph_from_edges, EdgeDirection, DijkstraWorkspace, DistanceBrowser, NodeId, UNIT};
/// let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
/// let mut ws = DijkstraWorkspace::new(g.num_nodes());
/// let order: Vec<_> = DistanceBrowser::new(&g, &mut ws, NodeId(0)).collect();
/// assert_eq!(order, vec![(NodeId(0), 0), (NodeId(1), UNIT), (NodeId(2), 2 * UNIT)]);
/// ```
pub struct DistanceBrowser<'g, 'w> {
    graph: &'g Graph,
    ws: &'w mut DijkstraWorkspace,
}

impl<'g, 'w> DistanceBrowser<'g, 'w> {
    /// Begin browsing from `source`. Any traversal previously using `ws` is
    /// invalidated.
    pub fn new(graph: &'g Graph, ws: &'w mut DijkstraWorkspace, source: NodeId) -> Self {
        ws.ensure_capacity(graph.num_nodes());
        ws.begin(source);
        DistanceBrowser { graph, ws }
    }

    /// Access the underlying workspace (e.g. to query settled distances).
    pub fn workspace(&self) -> &DijkstraWorkspace {
        self.ws
    }
}

impl Iterator for DistanceBrowser<'_, '_> {
    type Item = (NodeId, Distance);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Distance)> {
        self.ws.step(self.graph)
    }
}

/// The cut-off `τ` of a bounded traversal: the `limit` smallest
/// insertion-time tentative distances among the counted nodes discovered so
/// far, in a max-heap — its top is `τ` once it is full.
#[derive(Debug)]
struct Cutoff {
    limit: usize,
    /// Never longer than `limit`.
    nearest: BinaryHeap<Distance>,
}

impl Cutoff {
    /// `∞` until `limit` counted nodes have been discovered, then the
    /// largest of the `limit` smallest tentative distances.
    #[inline]
    fn tau(&self) -> Distance {
        match self.nearest.peek() {
            Some(&top) if self.nearest.len() == self.limit => top,
            _ => INF,
        }
    }

    /// A counted node entered the frontier at tentative distance `d ≤ τ`.
    #[inline]
    fn discovered(&mut self, d: Distance) {
        if self.nearest.len() < self.limit {
            self.nearest.push(d);
        } else if let Some(mut top) = self.nearest.peek_mut() {
            if d < *top {
                *top = d; // re-sifted when `top` drops
            }
        }
    }
}

/// [`DistanceBrowser`] for a caller that takes only the `limit` nearest
/// *counted* nodes: yields `(node, distance)` in nondecreasing distance
/// order, the source excluded, without feeding a frontier it will never
/// pop (see the module docs for the cut-off `τ`, why it is exact, and the
/// tie rule).
///
/// Everything yielded carries its exact distance; the stream ends when the
/// frontier is empty or its top lies past `τ`. It always covers the first
/// `limit` counted settles and the whole tie group of the last of them,
/// and is the complete enumeration when fewer than `limit` counted nodes
/// are reachable.
///
/// ```
/// use rkranks_graph::{graph_from_edges, BoundedBrowser, DijkstraWorkspace, EdgeDirection, NodeId, UNIT};
/// let g = graph_from_edges(
///     EdgeDirection::Undirected,
///     [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (3, 4, 1.0)],
/// )
/// .unwrap();
/// let mut ws = DijkstraWorkspace::new(g.num_nodes());
/// let mut nearest = BoundedBrowser::new(&g, &mut ws, NodeId(0), 2, |_| true);
/// assert_eq!(nearest.next(), Some((NodeId(1), UNIT)));
/// assert_eq!(nearest.next(), Some((NodeId(2), 2 * UNIT)));
/// // node 3 lies past the cut-off and was never pushed
/// assert_eq!(nearest.pushes(), 2);
/// ```
pub struct BoundedBrowser<'g, 'w, F> {
    graph: &'g Graph,
    ws: &'w mut DijkstraWorkspace,
    counted: F,
    cutoff: Cutoff,
    relaxations: u64,
    pushes: u64,
}

impl<'g, 'w, F: Fn(NodeId) -> bool> BoundedBrowser<'g, 'w, F> {
    /// Begin browsing from `source` for the `limit` nearest nodes that
    /// satisfy `counted` (the source never counts). Any traversal
    /// previously using `ws` is invalidated.
    pub fn new(
        graph: &'g Graph,
        ws: &'w mut DijkstraWorkspace,
        source: NodeId,
        limit: usize,
        counted: F,
    ) -> Self {
        ws.ensure_capacity(graph.num_nodes());
        ws.begin(source);
        let mut nearest = std::mem::take(&mut ws.cutoff_buf);
        nearest.clear();
        let mut browser = BoundedBrowser {
            graph,
            ws,
            counted,
            cutoff: Cutoff { limit, nearest },
            relaxations: 0,
            pushes: 0,
        };
        // The source: settled and relaxed here, never yielded. Nothing at
        // all is within a `limit` of 0, so then its row is not read.
        if limit == 0 {
            browser.ws.settle_next();
        } else {
            browser.step();
        }
        browser
    }

    /// Access the underlying workspace (e.g. to peek at the frontier for a
    /// tie pending at the cut).
    pub fn workspace(&self) -> &DijkstraWorkspace {
        self.ws
    }

    /// Edges relaxed so far, i.e. within the cut-off when their row was
    /// scanned (each settle also pays at most one failed cut-off test).
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// Frontier insertions so far (the source excluded).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    #[inline]
    fn step(&mut self) -> Option<(NodeId, Distance)> {
        let BoundedBrowser {
            graph,
            ws,
            counted,
            cutoff,
            relaxations,
            pushes,
        } = self;
        ws.step_within(graph, cutoff.tau(), |t, nd, outcome| {
            *relaxations += 1;
            if outcome == RelaxOutcome::Inserted {
                *pushes += 1;
                if counted(t) {
                    cutoff.discovered(nd);
                }
            }
            cutoff.tau()
        })
    }
}

impl<F: Fn(NodeId) -> bool> Iterator for BoundedBrowser<'_, '_, F> {
    type Item = (NodeId, Distance);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Distance)> {
        // Past τ a queued distance may still be tentative (the rows that
        // would have decreased it were cut short); within it, it is final.
        match self.ws.peek_frontier() {
            Some((_, d)) if d <= self.cutoff.tau() => self.step(),
            _ => None,
        }
    }
}

impl<F> Drop for BoundedBrowser<'_, '_, F> {
    fn drop(&mut self) {
        self.ws.cutoff_buf = std::mem::take(&mut self.cutoff.nearest);
    }
}

/// Full single-source shortest paths. Allocates the result vector; use a
/// browser + workspace in hot loops.
pub fn sssp(graph: &Graph, source: NodeId) -> Vec<Distance> {
    let mut out = vec![INF; graph.num_nodes() as usize];
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    for (v, d) in DistanceBrowser::new(graph, &mut ws, source) {
        out[v.index()] = d;
    }
    out
}

/// Point-to-point shortest distance with early exit ([`INF`] if unreachable).
pub fn distance(graph: &Graph, s: NodeId, t: NodeId) -> Distance {
    if s == t {
        return 0;
    }
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    for (v, d) in DistanceBrowser::new(graph, &mut ws, s) {
        if v == t {
            return d;
        }
    }
    INF
}

/// A full shortest-path tree: `parents[v]` is `v`'s predecessor on a
/// shortest path from `source` (`None` for the source and unreachable
/// nodes), `dist[v]` the distance. Run on the transpose this is exactly
/// the paper's complete SDS-tree (Figure 2).
pub fn shortest_path_tree(graph: &Graph, source: NodeId) -> (Vec<Option<NodeId>>, Vec<Distance>) {
    let n = graph.num_nodes() as usize;
    let mut parents: Vec<Option<NodeId>> = vec![None; n];
    let mut dist = vec![INF; n];
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    ws.begin(source);
    while let Some((v, d)) = ws.settle_next() {
        dist[v.index()] = d;
        let (targets, weights) = graph.out_neighbors(v);
        for (t, w) in targets.iter().zip(weights.iter()) {
            if ws.relax(*t, d + *w) != RelaxOutcome::Unchanged {
                parents[t.index()] = Some(v);
            }
        }
    }
    // unreachable nodes keep parent None; reachable roots too
    (parents, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, EdgeDirection};
    use crate::weight::UNIT;

    /// `true` once `v` has been popped (its distance is final, unless a
    /// FIFO traversal queues it again).
    fn is_settled(ws: &DijkstraWorkspace, v: NodeId) -> bool {
        ws.slot(v).is_some_and(|s| s.pos == SETTLED)
    }

    /// `true` if `v` is currently queued in the frontier.
    fn in_frontier(ws: &DijkstraWorkspace, v: NodeId) -> bool {
        ws.slot(v).is_some_and(|s| s.pos != SETTLED)
    }

    fn paperish() -> Graph {
        // A small weighted graph with an indirect shortcut: 0-1 (4.0) is
        // beaten by 0-2-1 (1+2).
        graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 4.0),
                (0, 2, 1.0),
                (2, 1, 2.0),
                (1, 3, 1.0),
                (2, 3, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sssp_finds_shortcuts() {
        let g = paperish();
        let d = sssp(&g, NodeId(0));
        assert_eq!(d, vec![0, 3 * UNIT, UNIT, 4 * UNIT]);
    }

    #[test]
    fn browser_yields_nondecreasing() {
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let dists: Vec<Distance> = DistanceBrowser::new(&g, &mut ws, NodeId(0))
            .map(|(_, d)| d)
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(dists.len(), 4);
    }

    #[test]
    fn browser_decrease_key_path() {
        // Node 1 enters the frontier at 4.0 then is decreased to 3.0.
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let order: Vec<(NodeId, Distance)> = DistanceBrowser::new(&g, &mut ws, NodeId(0)).collect();
        assert_eq!(order[0], (NodeId(0), 0));
        assert_eq!(order[1], (NodeId(2), UNIT));
        assert_eq!(order[2], (NodeId(1), 3 * UNIT));
        assert_eq!(order[3], (NodeId(3), 4 * UNIT));
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let first: Vec<_> = DistanceBrowser::new(&g, &mut ws, NodeId(0)).collect();
        let second: Vec<_> = DistanceBrowser::new(&g, &mut ws, NodeId(0)).collect();
        assert_eq!(first, second);
        // and from a different source
        let d3: Vec<_> = DistanceBrowser::new(&g, &mut ws, NodeId(3)).collect();
        assert_eq!(d3[0], (NodeId(3), 0));
    }

    #[test]
    fn early_exit_distance() {
        let g = paperish();
        assert_eq!(distance(&g, NodeId(0), NodeId(3)), 4 * UNIT);
        assert_eq!(distance(&g, NodeId(2), NodeId(2)), 0);
    }

    #[test]
    fn unreachable_is_inf() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        assert_eq!(distance(&g, NodeId(1), NodeId(0)), INF);
        let d = sssp(&g, NodeId(1));
        assert_eq!(d[0], INF);
    }

    #[test]
    fn directed_respects_arc_direction() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert_eq!(distance(&g, NodeId(0), NodeId(2)), 2 * UNIT);
        assert_eq!(distance(&g, NodeId(2), NodeId(0)), INF);
    }

    #[test]
    fn cutoff_is_the_limit_th_smallest_discovery() {
        let mut c = Cutoff {
            limit: 3,
            nearest: BinaryHeap::new(),
        };
        assert_eq!(c.tau(), INF);
        for d in [5 * UNIT, 9 * UNIT] {
            c.discovered(d);
            assert_eq!(c.tau(), INF, "fewer than `limit` discovered");
        }
        c.discovered(7 * UNIT);
        assert_eq!(c.tau(), 9 * UNIT);
        c.discovered(9 * UNIT); // not below the top: no change
        assert_eq!(c.tau(), 9 * UNIT);
        c.discovered(UNIT); // evicts 9.0
        assert_eq!(c.tau(), 7 * UNIT);
        c.discovered(2 * UNIT); // evicts 7.0
        assert_eq!(c.tau(), 5 * UNIT);
        assert_eq!(c.nearest.len(), 3);
    }

    #[test]
    fn bounded_browser_stops_feeding_the_frontier() {
        // Star with a far tail: 0-1 (1), 0-2 (2), 0-3 (2), 0-4 (5), 4-5 (1).
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (0, 2, 2.0),
                (0, 3, 2.0),
                (0, 4, 5.0),
                (4, 5, 1.0),
            ],
        )
        .unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut b = BoundedBrowser::new(&g, &mut ws, NodeId(0), 2, |_| true);
        // the cut is strict: the whole tie group at the 2nd distance is in
        assert_eq!(b.pushes(), 3);
        assert_eq!(b.next(), Some((NodeId(1), UNIT)));
        let (_, d) = b.next().unwrap();
        assert_eq!(d, 2 * UNIT);
        assert_eq!(
            b.workspace().peek_frontier().map(|(_, d)| d),
            Some(2 * UNIT)
        );
        assert_eq!(b.next().map(|(_, d)| d), Some(2 * UNIT));
        // node 4 was never pushed, so the stream ends here
        assert_eq!(b.next(), None);
        assert_eq!(b.pushes(), 3);
        // 3 edges out of the source and node 1's edge back (1 + 1 ≤ τ = 2);
        // the edges back from 2 and 3 lie past the cut-off
        assert_eq!(b.relaxations(), 4);
        drop(b);

        // limit 0 takes nothing; a limit past the reachable set takes all
        assert_eq!(
            BoundedBrowser::new(&g, &mut ws, NodeId(0), 0, |_| true).next(),
            None
        );
        assert_eq!(
            BoundedBrowser::new(&g, &mut ws, NodeId(0), 9, |_| true).count(),
            5
        );
    }

    #[test]
    fn bounded_browser_counts_only_counted_nodes() {
        // Path 0-1-2-3-4 with unit weights; only even nodes count, so the
        // odd ones are conduits: relaxed, settled, yielded — never counted.
        let g = graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        )
        .unwrap();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let order: Vec<_> =
            BoundedBrowser::new(&g, &mut ws, NodeId(0), 1, |v| v.0 % 2 == 0).collect();
        assert_eq!(order, vec![(NodeId(1), UNIT), (NodeId(2), 2 * UNIT)]);
    }

    #[test]
    fn bounded_browser_returns_its_buffer_to_the_workspace() {
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        assert_eq!(ws.cutoff_buf.capacity(), 0);
        BoundedBrowser::new(&g, &mut ws, NodeId(0), 2, |_| true).for_each(drop);
        let parked = ws.cutoff_buf.capacity();
        assert!(parked >= 2);
        BoundedBrowser::new(&g, &mut ws, NodeId(3), 2, |_| true).for_each(drop);
        assert_eq!(ws.cutoff_buf.capacity(), parked);
    }

    #[test]
    fn settled_and_frontier_flags() {
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        ws.begin(NodeId(0));
        assert!(in_frontier(&ws, NodeId(0)));
        let (v, d) = ws.step(&g).unwrap();
        assert_eq!((v, d), (NodeId(0), 0));
        assert!(is_settled(&ws, NodeId(0)));
        assert!(!in_frontier(&ws, NodeId(0)));
        assert!(in_frontier(&ws, NodeId(1)));
        assert_eq!(ws.dist_of(NodeId(2)), Some(UNIT));
        assert_eq!(ws.dist_of(NodeId(3)), None);
    }

    #[test]
    fn relax_outcomes() {
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        ws.begin(NodeId(0));
        assert_eq!(ws.relax(NodeId(1), 10 * UNIT), RelaxOutcome::Inserted);
        assert_eq!(ws.relax(NodeId(1), 12 * UNIT), RelaxOutcome::Unchanged);
        assert_eq!(ws.relax(NodeId(1), 5 * UNIT), RelaxOutcome::Decreased);
        ws.settle_next(); // settles source (0.0)
        ws.settle_next(); // settles node 1 (5.0)
        assert_eq!(ws.relax(NodeId(1), UNIT), RelaxOutcome::Unchanged);
    }

    #[test]
    fn peek_frontier_matches_next_settle() {
        let g = paperish();
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        ws.begin(NodeId(0));
        ws.step(&g);
        let peeked = ws.peek_frontier().unwrap();
        let settled = ws.settle_next().unwrap();
        assert_eq!(peeked, settled);
    }

    #[test]
    fn shortest_path_tree_parents_and_distances() {
        let g = paperish();
        let (parents, dist) = shortest_path_tree(&g, NodeId(0));
        assert_eq!(parents[0], None);
        assert_eq!(parents[2], Some(NodeId(0)));
        assert_eq!(parents[1], Some(NodeId(2))); // shortcut 0-2-1 beats 0-1
        assert_eq!(parents[3], Some(NodeId(1)));
        assert_eq!(dist, vec![0, 3 * UNIT, UNIT, 4 * UNIT]);
    }

    #[test]
    fn shortest_path_tree_unreachable() {
        let g = graph_from_edges(EdgeDirection::Directed, [(0, 1, 1.0)]).unwrap();
        let (parents, dist) = shortest_path_tree(&g, NodeId(1));
        assert_eq!(parents, vec![None, None]);
        assert_eq!(dist[0], INF);
    }

    /// Settle everything still queued.
    fn drain(ws: &mut DijkstraWorkspace) -> Vec<(NodeId, Distance)> {
        std::iter::from_fn(|| ws.settle_next()).collect()
    }

    #[test]
    fn frontier_pops_in_distance_order() {
        let mut ws = DijkstraWorkspace::new(6);
        ws.begin(NodeId(0));
        for (v, d) in [
            (1, 5 * UNIT),
            (2, UNIT),
            (3, 3 * UNIT),
            (4, 2 * UNIT),
            (5, 4 * UNIT),
        ] {
            assert_eq!(ws.relax(NodeId(v), d), RelaxOutcome::Inserted);
        }
        ws.check_invariants();
        let dists: Vec<Distance> = drain(&mut ws).into_iter().map(|(_, d)| d).collect();
        assert_eq!(dists, vec![0, UNIT, 2 * UNIT, 3 * UNIT, 4 * UNIT, 5 * UNIT]);
    }

    #[test]
    fn decrease_moves_a_node_up() {
        let mut ws = DijkstraWorkspace::new(4);
        ws.begin(NodeId(0));
        ws.settle_next();
        ws.relax(NodeId(1), 10 * UNIT);
        ws.relax(NodeId(2), 20 * UNIT);
        ws.relax(NodeId(3), 30 * UNIT);
        assert_eq!(ws.relax(NodeId(3), 5 * UNIT), RelaxOutcome::Decreased);
        ws.check_invariants();
        assert_eq!(ws.settle_next(), Some((NodeId(3), 5 * UNIT)));
    }

    #[test]
    fn relax_ignores_a_larger_distance() {
        let mut ws = DijkstraWorkspace::new(2);
        ws.begin(NodeId(0));
        ws.relax(NodeId(1), UNIT);
        assert_eq!(ws.relax(NodeId(1), 2 * UNIT), RelaxOutcome::Unchanged);
        assert_eq!(ws.dist_of(NodeId(1)), Some(UNIT));
    }

    #[test]
    fn relax_leaves_an_equal_distance_unchanged() {
        let mut ws = DijkstraWorkspace::new(2);
        ws.begin(NodeId(0));
        ws.relax(NodeId(1), UNIT);
        assert_eq!(ws.relax(NodeId(1), UNIT), RelaxOutcome::Unchanged);
        assert_eq!(ws.dist_of(NodeId(1)), Some(UNIT));
    }

    #[test]
    fn frontier_membership_tracks_relax_and_settle() {
        let mut ws = DijkstraWorkspace::new(3);
        ws.begin(NodeId(0));
        ws.settle_next();
        assert!(!in_frontier(&ws, NodeId(1)));
        assert_eq!(ws.dist_of(NodeId(1)), None);
        ws.relax(NodeId(1), 7 * UNIT);
        assert!(in_frontier(&ws, NodeId(1)) && !is_settled(&ws, NodeId(1)));
        assert_eq!(ws.dist_of(NodeId(1)), Some(7 * UNIT));
        ws.settle_next();
        assert!(!in_frontier(&ws, NodeId(1)) && is_settled(&ws, NodeId(1)));
        assert_eq!(ws.dist_of(NodeId(1)), Some(7 * UNIT));
    }

    #[test]
    fn begin_drops_the_abandoned_frontier() {
        let mut ws = DijkstraWorkspace::new(8);
        ws.begin(NodeId(0));
        ws.settle_next();
        for v in 1..8 {
            ws.relax(NodeId(v), u64::from(v));
        }
        // abandoned with seven nodes queued: their slots keep stale
        // positions, which the new generation must ignore
        ws.begin(NodeId(3));
        ws.check_invariants();
        for v in (0..8).filter(|&v| v != 3) {
            assert!(!in_frontier(&ws, NodeId(v)) && !is_settled(&ws, NodeId(v)));
            assert_eq!(ws.dist_of(NodeId(v)), None);
        }
        assert_eq!(ws.relax(NodeId(5), UNIT), RelaxOutcome::Inserted);
        ws.check_invariants();
        assert_eq!(drain(&mut ws), vec![(NodeId(3), 0), (NodeId(5), UNIT)]);
    }

    #[test]
    fn randomized_against_reference_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut ws = DijkstraWorkspace::new(1);
        for trial in 0..50 {
            let n = 2 + (trial % 64) as u32;
            ws.ensure_capacity(n);
            let source = rng.random_range(0..n);
            // the reference: each node's best key and whether it was popped
            let mut best: Vec<Option<Distance>> = vec![None; n as usize];
            let mut settled = vec![false; n as usize];
            ws.begin(NodeId(source));
            best[source as usize] = Some(0);
            for _ in 0..200 {
                if rng.random_range(0..4) == 0 {
                    // a pop: the smallest queued key (any node of a tie)
                    let min = (0..n as usize)
                        .filter(|&v| !settled[v])
                        .filter_map(|v| best[v])
                        .min();
                    let got = ws.settle_next();
                    assert_eq!(got.map(|(_, d)| d), min);
                    if let Some((v, d)) = got {
                        assert!(!settled[v.index()] && best[v.index()] == Some(d));
                        settled[v.index()] = true;
                    }
                } else {
                    let v = rng.random_range(0..n);
                    let key: Distance = rng.random_range(0..100 * UNIT);
                    let slot = &mut best[v as usize];
                    let want = match *slot {
                        _ if settled[v as usize] => RelaxOutcome::Unchanged,
                        None => RelaxOutcome::Inserted,
                        Some(old) if key < old => RelaxOutcome::Decreased,
                        Some(_) => RelaxOutcome::Unchanged,
                    };
                    if want != RelaxOutcome::Unchanged {
                        *slot = Some(key);
                    }
                    assert_eq!(ws.relax(NodeId(v), key), want);
                }
                ws.check_invariants();
            }
            let got = drain(&mut ws);
            assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
            let mut got: Vec<(Distance, u32)> = got.into_iter().map(|(v, d)| (d, v.0)).collect();
            let mut expected: Vec<(Distance, u32)> = (0..n)
                .filter(|&v| !settled[v as usize])
                .filter_map(|v| best[v as usize].map(|k| (k, v)))
                .collect();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn generation_wrap_forgets_every_slot() {
        let mut ws = DijkstraWorkspace::new(5);
        // generation 1: node 0 settled, node 1 queued
        ws.begin(NodeId(0));
        ws.settle_next();
        ws.relax(NodeId(1), UNIT);
        // the last generation before the wrap: node 2 settled, node 3 queued
        ws.generation = u32::MAX - 1;
        ws.begin(NodeId(2));
        ws.settle_next();
        ws.relax(NodeId(3), UNIT);
        assert_eq!(ws.generation, u32::MAX);
        assert!(is_settled(&ws, NodeId(2)) && in_frontier(&ws, NodeId(3)));
        // the wrap: generation 1 again, and nothing of either survives
        ws.begin(NodeId(4));
        assert_eq!(ws.generation, 1);
        for v in (0..4).map(NodeId) {
            assert_eq!(ws.dist_of(v), None, "{v}");
            assert!(!is_settled(&ws, v) && !in_frontier(&ws, v), "{v}");
        }
        for v in (0..4).map(NodeId) {
            assert_eq!(ws.relax(v, 2 * UNIT), RelaxOutcome::Inserted, "{v}");
        }
        ws.check_invariants();
        let dists: Vec<Distance> = drain(&mut ws).into_iter().map(|(_, d)| d).collect();
        assert_eq!(dists, vec![0, 2 * UNIT, 2 * UNIT, 2 * UNIT, 2 * UNIT]);
    }

    #[test]
    fn ensure_capacity_grows_workspace() {
        let mut ws = DijkstraWorkspace::new(2);
        ws.ensure_capacity(10);
        assert_eq!(ws.capacity(), 10);
        let g = graph_from_edges(EdgeDirection::Undirected, [(8, 9, 1.0)]).unwrap();
        let order: Vec<_> = DistanceBrowser::new(&g, &mut ws, NodeId(8)).collect();
        assert_eq!(order, vec![(NodeId(8), 0), (NodeId(9), UNIT)]);
    }

    #[test]
    fn ensure_capacity_grows_the_frontier() {
        let mut ws = DijkstraWorkspace::new(1);
        ws.ensure_capacity(5);
        ws.begin(NodeId(0));
        ws.settle_next();
        assert_eq!(ws.relax(NodeId(4), 2 * UNIT), RelaxOutcome::Inserted);
        ws.check_invariants();
        assert_eq!(ws.settle_next(), Some((NodeId(4), 2 * UNIT)));
    }

    /// Drive a first-in-first-out traversal from `source` over the whole
    /// graph. Returns its insertions, its re-queues, and both counts at
    /// the dequeue where the guard switched it to distance order, if it did.
    fn drain_fifo(g: &Graph, ws: &mut DijkstraWorkspace, source: NodeId) -> FifoRun {
        ws.ensure_capacity(g.num_nodes());
        ws.begin_fifo(source);
        let mut run = FifoRun::default();
        loop {
            let was_fifo = ws.is_fifo();
            let Some((v, d)) = ws.dequeue() else { break };
            if was_fifo && !ws.is_fifo() {
                run.switched = Some((run.requeues, run.insertions));
            }
            let (targets, weights) = g.out_neighbors(v);
            for (t, w) in targets.iter().zip(weights.iter()) {
                match ws.relax_correcting(*t, d + *w) {
                    RelaxOutcome::Inserted => run.insertions += 1,
                    RelaxOutcome::Requeued => run.requeues += 1,
                    RelaxOutcome::Decreased | RelaxOutcome::Unchanged => {}
                }
            }
            ws.check_invariants();
        }
        run
    }

    #[derive(Debug, Default)]
    struct FifoRun {
        insertions: u64,
        requeues: u64,
        switched: Option<(u64, u64)>,
    }

    /// FIFO's worst case, directed: a zero-weight chain `0 → 1 → … → m`,
    /// every chain node `j` into the head of a unit-weight tail
    /// `m+1 → … → m+r` at weight `m + 1 − j`. FIFO reaches the tail from
    /// the chain's start first, and every later chain node improves its
    /// head again: a wave of re-queues down the tail per chain node.
    fn fifo_worst_case(m: u32, r: u32) -> Graph {
        let chain = (0..m).map(|j| (j, j + 1, 0.0));
        let into_tail = (1..=m).map(|j| (j, m + 1, f64::from(m + 1 - j)));
        let tail = (m + 1..m + r).map(|i| (i, i + 1, 1.0));
        graph_from_edges(EdgeDirection::Directed, chain.chain(into_tail).chain(tail)).unwrap()
    }

    #[test]
    fn a_node_whose_distance_drops_after_its_dequeue_is_queued_again() {
        // 0 → 2 → 3 → 1 at zero cost beats 0 → 1 at 2.0, but FIFO dequeues
        // 1 before it reaches 3.
        let mut ws = DijkstraWorkspace::new(4);
        ws.begin_fifo(NodeId(0));
        assert_eq!(ws.dequeue(), Some((NodeId(0), 0)));
        assert_eq!(ws.relax_correcting(NodeId(2), 0), RelaxOutcome::Inserted);
        assert_eq!(
            ws.relax_correcting(NodeId(1), 2 * UNIT),
            RelaxOutcome::Inserted
        );
        assert_eq!(ws.dequeue(), Some((NodeId(2), 0)));
        assert_eq!(ws.relax_correcting(NodeId(3), 0), RelaxOutcome::Inserted);
        assert_eq!(
            ws.dequeue(),
            Some((NodeId(1), 2 * UNIT)),
            "first in, first out"
        );
        assert!(is_settled(&ws, NodeId(1)));
        assert_eq!(ws.dequeue(), Some((NodeId(3), 0)));
        assert_eq!(ws.relax_correcting(NodeId(1), 0), RelaxOutcome::Requeued);
        assert!(in_frontier(&ws, NodeId(1)) && ws.is_fifo());
        assert_eq!(ws.relax_correcting(NodeId(1), 0), RelaxOutcome::Unchanged);
        ws.check_invariants();
        assert_eq!(ws.dequeue(), Some((NodeId(1), 0)));
        assert_eq!(ws.dequeue(), None);
        // a queued node's drop is a decrease, and the entry reads it back
        ws.begin_fifo(NodeId(0));
        ws.dequeue();
        ws.relax_correcting(NodeId(1), 5 * UNIT);
        assert_eq!(
            ws.relax_correcting(NodeId(1), 4 * UNIT),
            RelaxOutcome::Decreased
        );
        ws.check_invariants();
        assert_eq!(ws.dequeue(), Some((NodeId(1), 4 * UNIT)));
    }

    #[test]
    fn a_fifo_traversal_ends_at_the_shortest_distances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut ws = DijkstraWorkspace::new(1);
        let mut requeues = 0;
        for trial in 0..200 {
            let n: u32 = 2 + trial % 30;
            let directed = trial % 2 == 0;
            let edges: Vec<(u32, u32, f64)> = (0..3 * n)
                .map(|_| {
                    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                    let w = if trial % 3 == 0 {
                        rng.random_range(0.0..4.0)
                    } else {
                        [0.0, 1.0, 1.0, 2.0][rng.random_range(0..4usize)]
                    };
                    (u, v, w)
                })
                .filter(|&(u, v, _)| u != v)
                .collect();
            let dir = if directed {
                EdgeDirection::Directed
            } else {
                EdgeDirection::Undirected
            };
            let Ok(g) = graph_from_edges(dir, edges) else {
                continue;
            };
            let source = NodeId(rng.random_range(0..g.num_nodes()));
            let run = drain_fifo(&g, &mut ws, source);
            let got: Vec<Distance> = g.nodes().map(|v| ws.dist_of(v).unwrap_or(INF)).collect();
            assert_eq!(got, sssp(&g, source), "trial {trial}");
            let reached = got.iter().filter(|d| **d < INF).count() as u64;
            assert_eq!(run.insertions, reached - 1, "each node inserted once");
            requeues += run.requeues;
        }
        assert!(requeues > 0, "no trial exercised a re-queue");
    }

    /// The guard (module docs): FIFO alone re-queues `m · r / 2` times on
    /// this graph, the guarded traversal a few dozen.
    #[test]
    fn the_guard_finishes_the_same_traversal_in_distance_order() {
        let (m, r) = (50, 50);
        let g = fifo_worst_case(m, r);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let run = drain_fifo(&g, &mut ws, NodeId(0));
        let (at_switch, inserted_then) = run.switched.expect("the guard fired");
        let row = 2; // the longest row
        assert!(at_switch <= inserted_then + row, "{run:?}");
        assert_eq!(run.insertions, u64::from(m + r), "nothing inserted twice");
        assert!(run.requeues <= run.insertions, "{run:?}");
        let got: Vec<Distance> = g.nodes().map(|v| ws.dist_of(v).unwrap()).collect();
        assert_eq!(got, sssp(&g, NodeId(0)));
    }
}
