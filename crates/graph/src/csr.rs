//! Compressed-sparse-row adjacency storage.
//!
//! One `Csr` stores the out-adjacency of a directed graph (an undirected
//! graph stores each edge in both directions). Neighbor iteration is a pair
//! of contiguous slices — the single hottest access pattern in every
//! algorithm of the paper.
//!
//! **Row order is an invariant:** every row is sorted by `(weight, target)`
//! ascending. Every `Csr` is born in `Csr::from_emitter` ([`Csr::transpose`]
//! included), which establishes it, or in `Csr::patched`, which copies the
//! untouched rows of a sorted `Csr` and re-sorts the ones it changes. A
//! traversal that only wants edges with `d + w < bound` may therefore stop
//! at the first edge that fails the test (float addition is monotone:
//! `w1 <= w2` implies `d + w1 <= d + w2`). `rkranks-core`'s rank
//! refinement relies on exactly that.

use std::ops::Range;

use crate::node::NodeId;
use crate::weight::Distance;

/// CSR adjacency: `offsets[u]..offsets[u+1]` indexes into `targets`/`weights`;
/// each row is sorted by `(weight, target)` (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<Distance>,
}

impl Csr {
    /// Build from the arcs `(source, target, weight)` that `arcs()` yields,
    /// in any order. Every `Csr` is born in this constructor
    /// ([`Csr::transpose`] included) or in [`Csr::patched`].
    ///
    /// A two-pass counting sort straight into the CSR: `arcs` is called
    /// twice and must yield the same arcs both times, once to count the
    /// rows and once to place each arc at its row's cursor, so no arc list
    /// is ever collected. A row holds its arcs in emission order until it
    /// is sorted by `(weight, target)`; with `keep_last`, a reverse pass
    /// over the row first keeps only the last-emitted arc to each target.
    /// `O(n + m + Σ d log d)` time, and rows are short; beyond the CSR it
    /// allocates only `O(n)` stamps and one row's sort buffer. Weights must
    /// be valid (non-NaN); the public entry points
    /// ([`crate::builder::GraphBuilder`], [`crate::GraphStore`]) validate
    /// them.
    pub(crate) fn from_emitter<I>(num_nodes: u32, keep_last: bool, arcs: impl Fn() -> I) -> Csr
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
    {
        let n = num_nodes as usize;
        let mut offsets = vec![0u32; n + 1];
        let mut m = 0usize;
        for (u, _, _) in arcs() {
            offsets[u as usize + 1] += 1;
            m += 1;
        }
        assert!(
            u32::try_from(m).is_ok(),
            "{m} arcs overflow the u32 row offsets"
        );
        // Shifted prefix sum: `offsets[u + 1]` holds row `u`'s start, is its
        // cursor while arcs are placed, and ends at the row's end, the value
        // a CSR keeps there. No cursor array is needed.
        let mut start = 0;
        for o in &mut offsets[1..] {
            (*o, start) = (start, start + *o);
        }
        let mut csr = Csr {
            offsets,
            targets: vec![NodeId(0); m],
            weights: vec![0.0; m],
        };
        for (u, v, w) in arcs() {
            let cursor = &mut csr.offsets[u as usize + 1];
            csr.targets[*cursor as usize] = NodeId(v);
            csr.weights[*cursor as usize] = w;
            *cursor += 1;
        }
        debug_assert_eq!(csr.offsets[n] as usize, m, "`arcs` changed between calls");
        csr.sort_rows(keep_last);
        debug_assert!(csr.rows_are_sorted());
        csr
    }

    /// Sort every row by `(weight, target)`, compacting the CSR in place;
    /// with `keep_last`, a row first drops every arc that a later arc of
    /// the row to the same target overrides.
    fn sort_rows(&mut self, keep_last: bool) {
        let stamps = if keep_last {
            self.num_nodes() as usize
        } else {
            0
        };
        let mut stamp = vec![u32::MAX; stamps];
        let mut row: Vec<(Distance, NodeId)> = Vec::new();
        let (mut lo, mut kept) = (0, 0);
        for u in 0..self.num_nodes() {
            let hi = self.offsets[u as usize + 1] as usize;
            let arcs = self.weights[lo..hi]
                .iter()
                .copied()
                .zip(self.targets[lo..hi].iter().copied());
            row.clear();
            if keep_last {
                row.extend(
                    arcs.rev()
                        .filter(|&(_, t)| std::mem::replace(&mut stamp[t.index()], u) != u),
                );
            } else {
                row.extend(arcs);
            }
            sort_row(&mut row);
            for (slot, &(w, t)) in (kept..).zip(&row) {
                self.weights[slot] = w;
                self.targets[slot] = t;
            }
            kept += row.len();
            lo = hi;
            self.offsets[u as usize + 1] = kept as u32;
        }
        self.truncate(kept);
    }

    /// The CSR with `changes` applied, built by patching this one.
    ///
    /// `changes` are arc overlays `(source, target, overlay)`, sorted by
    /// `(source, target)` with no pair repeated: `Some(w)` leaves the arc
    /// `source -> target` at weight `w` (added or replaced), `None` removes
    /// it (a no-op when absent). Rows `self.num_nodes()..num_nodes` are
    /// appended empty first.
    ///
    /// Each run of untouched rows is copied with one `extend_from_slice`
    /// and its offsets shifted; a touched row becomes its old arcs minus
    /// every changed target, plus the `Some` overlays, sorted by
    /// `(weight, target)`. `O(n + m)` sequential copy plus `Σ d log d` over
    /// the touched rows, and the result equals `from_emitter` of the final
    /// arc list.
    pub(crate) fn patched(&self, num_nodes: u32, changes: &[(u32, u32, Option<f64>)]) -> Csr {
        debug_assert!(num_nodes >= self.num_nodes());
        debug_assert!(changes
            .windows(2)
            .all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        let n = num_nodes as usize;
        let capacity = self.num_arcs() + changes.len();
        assert!(
            u32::try_from(capacity).is_ok(),
            "{capacity} arcs overflow the u32 row offsets"
        );
        let mut out = Csr {
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
        };
        out.offsets.push(0);
        let mut row: Vec<(Distance, NodeId)> = Vec::new();
        let mut copied = 0;
        for group in changes.chunk_by(|a, b| a.0 == b.0) {
            let u = group[0].0 as usize;
            out.extend_rows(self, copied..u);
            let (t, w) = if u < self.num_nodes() as usize {
                self.neighbors(NodeId(u as u32))
            } else {
                (&[][..], &[][..])
            };
            let changed = |t: NodeId| group.binary_search_by_key(&t.0, |c| c.1).is_ok();
            row.clear();
            row.extend(
                w.iter()
                    .copied()
                    .zip(t.iter().copied())
                    .filter(|&(_, t)| !changed(t)),
            );
            row.extend(
                group
                    .iter()
                    .filter_map(|&(_, v, w)| w.map(|w| (w, NodeId(v)))),
            );
            sort_row(&mut row);
            out.weights.extend(row.iter().map(|&(w, _)| w));
            out.targets.extend(row.iter().map(|&(_, t)| t));
            out.offsets.push(out.targets.len() as u32);
            copied = u + 1;
        }
        out.extend_rows(self, copied..n);
        debug_assert!(out.rows_are_sorted());
        out
    }

    /// Append `src`'s rows `rows` to this CSR under construction, whose
    /// last row is `rows.start - 1`. Rows past `src`'s end are empty.
    fn extend_rows(&mut self, src: &Csr, rows: Range<usize>) {
        debug_assert_eq!(self.offsets.len(), rows.start + 1);
        let src_n = src.num_nodes() as usize;
        let (a, b) = (rows.start.min(src_n), rows.end.min(src_n));
        let (lo, hi) = (src.offsets[a], src.offsets[b]);
        let base = self.targets.len() as u32;
        self.targets
            .extend_from_slice(&src.targets[lo as usize..hi as usize]);
        self.weights
            .extend_from_slice(&src.weights[lo as usize..hi as usize]);
        self.offsets
            .extend(src.offsets[a + 1..=b].iter().map(|&o| o - lo + base));
        self.offsets.resize(rows.end + 1, self.targets.len() as u32);
    }

    /// Drop parallel arcs, keeping the lightest of each `(source, target)`
    /// pair — what the builder's default `DedupPolicy::KeepMin` keeps.
    /// Rows are `(weight, target)`-sorted, so the lightest is the first
    /// occurrence and the rows stay sorted. One in-place pass with a
    /// stamp array; a CSR without parallel arcs is left as it was.
    pub(crate) fn drop_parallel_arcs(&mut self) {
        let mut stamp = vec![u32::MAX; self.num_nodes() as usize];
        let (mut lo, mut kept) = (0, 0);
        for u in 0..self.num_nodes() {
            let hi = self.offsets[u as usize + 1] as usize;
            for read in lo..hi {
                let t = self.targets[read];
                if stamp[t.index()] != u {
                    stamp[t.index()] = u;
                    self.targets[kept] = t;
                    self.weights[kept] = self.weights[read];
                    kept += 1;
                }
            }
            lo = hi;
            self.offsets[u as usize + 1] = kept as u32;
        }
        self.truncate(kept);
    }

    /// Keep the first `arcs` arcs, releasing the rest of the storage.
    fn truncate(&mut self, arcs: usize) {
        if arcs < self.targets.len() {
            self.targets.truncate(arcs);
            self.targets.shrink_to_fit();
            self.weights.truncate(arcs);
            self.weights.shrink_to_fit();
        }
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
    pub(crate) fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of stored arcs (directed edges).
    #[inline(always)]
    pub(crate) fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u`.
    #[inline(always)]
    pub(crate) fn degree(&self, u: NodeId) -> u32 {
        let i = u.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Neighbor slice pair for `u`: `(targets, weights)`.
    #[inline(always)]
    pub(crate) fn neighbors(&self, u: NodeId) -> (&[NodeId], &[Distance]) {
        let i = u.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Iterate `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub(crate) fn edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        let (t, w) = self.neighbors(u);
        t.iter().copied().zip(w.iter().copied())
    }

    /// Reverse every arc, producing the transpose adjacency (its rows
    /// `(weight, target)`-sorted like any other `Csr`'s).
    pub(crate) fn transpose(&self) -> Csr {
        Csr::from_emitter(self.num_nodes(), false, || {
            (0..self.num_nodes()).flat_map(|u| self.edges(NodeId(u)).map(move |(t, w)| (t.0, u, w)))
        })
    }

    /// Heap memory footprint in bytes (used by index-size accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.offsets.len() * size_of::<u32>()
            + self.targets.len() * size_of::<NodeId>()
            + self.weights.len() * size_of::<Distance>()
    }
}

/// Order one row's `(weight, target)` pairs: the row-order invariant.
fn sort_row(row: &mut [(Distance, NodeId)]) {
    row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CSR of an arc list, no arc dropped.
    fn csr(num_nodes: u32, arcs: &[(u32, u32, f64)]) -> Csr {
        Csr::from_emitter(num_nodes, false, || arcs.iter().copied())
    }

    fn sample() -> Csr {
        // 0 -> 1 (1.0), 0 -> 2 (2.0), 1 -> 2 (0.5), 3 isolated
        csr(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5)])
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

    type Change = (u32, u32, Option<f64>);

    /// `arcs` with `changes` applied, built from scratch: the reference
    /// `patched` must equal.
    fn rebuilt(num_nodes: u32, arcs: &[(u32, u32, f64)], changes: &[Change]) -> Csr {
        let mut map: std::collections::BTreeMap<(u32, u32), f64> =
            arcs.iter().map(|&(u, v, w)| ((u, v), w)).collect();
        for &(u, v, overlay) in changes {
            match overlay {
                Some(w) => map.insert((u, v), w),
                None => map.remove(&(u, v)),
            };
        }
        let arcs: Vec<_> = map.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        csr(num_nodes, &arcs)
    }

    fn assert_patch(num_nodes: u32, arcs: &[(u32, u32, f64)], new_n: u32, changes: &[Change]) {
        let patched = csr(num_nodes, arcs).patched(new_n, changes);
        assert_eq!(patched, rebuilt(new_n, arcs, changes), "{changes:?}");
    }

    /// Row 0 of a tie-heavy star: weights `{0, 1, 1, 2}` to targets 1–4.
    const TIED: [(u32, u32, f64); 5] = [
        (0, 1, 0.0),
        (0, 2, 1.0),
        (0, 3, 1.0),
        (0, 4, 2.0),
        (1, 2, 1.0),
    ];

    #[test]
    fn patch_removal_can_empty_a_row() {
        let arcs = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5)];
        let p = sample().patched(4, &[(1, 2, None)]);
        assert_eq!(p.degree(NodeId(1)), 0);
        assert_eq!(p, rebuilt(4, &arcs, &[(1, 2, None)]));
        // removing an absent arc touches the row and changes nothing
        assert_eq!(sample().patched(4, &[(3, 0, None)]), sample());
    }

    #[test]
    fn patch_reweight_moves_an_edge_across_its_row() {
        // 0 -> 1 from the front to the back, past the tied pair 2, 3
        let p = csr(5, &TIED).patched(5, &[(0, 1, Some(2.0))]);
        assert_eq!(p.neighbors(NodeId(0)).0, &[2, 3, 1, 4].map(NodeId));
        assert_patch(5, &TIED, 5, &[(0, 1, Some(2.0))]);
        // 0 -> 4 into the tie, ordered by target inside it
        assert_patch(5, &TIED, 5, &[(0, 4, Some(1.0))]);
        // two moves in one row, crossing each other
        assert_patch(5, &TIED, 5, &[(0, 1, Some(1.0)), (0, 3, Some(0.0))]);
    }

    #[test]
    fn patch_reweight_to_zero_goes_first() {
        let p = csr(5, &TIED).patched(5, &[(0, 4, Some(0.0))]);
        assert_eq!(
            p.neighbors(NodeId(0)),
            (&[1, 4, 2, 3].map(NodeId)[..], &[0.0, 0.0, 1.0, 1.0][..])
        );
        assert_patch(5, &TIED, 5, &[(0, 4, Some(0.0))]);
    }

    #[test]
    fn patch_appends_rows_touched_and_untouched() {
        // rows 5 and 7 appended untouched, row 6 appended and touched, and
        // an old row gains an arc to an appended node
        let changes = [(0, 7, Some(0.5)), (6, 1, Some(3.0)), (6, 2, Some(1.0))];
        let p = csr(5, &TIED).patched(8, &changes);
        assert_eq!(p.num_nodes(), 8);
        assert_eq!((p.degree(NodeId(5)), p.degree(NodeId(7))), (0, 0));
        assert_eq!(p.neighbors(NodeId(6)).0, &[NodeId(2), NodeId(1)]);
        assert_patch(5, &TIED, 8, &changes);
        // appending with no change at all
        assert_patch(5, &TIED, 6, &[]);
    }

    #[test]
    fn patch_updates_both_rows_of_an_undirected_edge() {
        let diamond = [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)];
        let arcs: Vec<_> = diamond
            .iter()
            .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
            .collect();
        let changes = [(0, 2, Some(0.5)), (2, 0, Some(0.5))];
        let p = csr(4, &arcs).patched(4, &changes);
        assert_eq!(p.neighbors(NodeId(0)).1, &[0.5, 1.0]);
        assert_eq!(
            p.neighbors(NodeId(2)),
            (&[NodeId(0), NodeId(3)][..], &[0.5, 1.0][..])
        );
        assert_patch(4, &arcs, 4, &changes);
    }

    #[test]
    fn drop_parallel_arcs_keeps_the_lightest() {
        let arcs = [
            (0, 1, 5.0),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 0, 3.0),
            (1, 0, 3.0),
        ];
        let mut c = csr(3, &arcs);
        c.drop_parallel_arcs();
        assert_eq!(c, csr(3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 0, 3.0)]));
        let mut clean = sample();
        clean.drop_parallel_arcs();
        assert_eq!(clean, sample());
    }

    #[test]
    fn keep_last_keeps_each_targets_last_emitted_arc() {
        let arcs = [
            (0, 1, 5.0),
            (0, 2, 1.0),
            (0, 1, 1.0),
            (1, 0, 3.0),
            (0, 1, 4.0),
        ];
        let c = Csr::from_emitter(3, true, || arcs.iter().copied());
        assert_eq!(c, csr(3, &[(0, 2, 1.0), (0, 1, 4.0), (1, 0, 3.0)]));
        // the dropped arcs' storage is released
        assert_eq!(c.targets.capacity(), 3);
    }

    mod patch_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const WEIGHTS: [f64; 4] = [0.0, 1.0, 1.0, 2.0];

        /// `(nodes, appended nodes, base edges, changed edges)`: weights from
        /// `{0, 1, 1, 2}`, a change is a weight index or 4 for a removal,
        /// and changes land on old and appended nodes alike.
        #[allow(clippy::type_complexity)]
        fn arb_patch(
        ) -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, usize)>, Vec<(u32, u32, usize)>)>
        {
            (1u32..=8, 0u32..3).prop_flat_map(|(n, extra)| {
                let all = n + extra;
                (
                    Just(n),
                    Just(extra),
                    proptest::collection::vec((0..n, 0..n, 0usize..4), 0..=24),
                    proptest::collection::vec((0..all, 0..all, 0usize..5), 0..=12),
                )
            })
        }

        /// Edge map -> arc list (both orientations when undirected).
        fn arcs(edges: &BTreeMap<(u32, u32), f64>, undirected: bool) -> Vec<(u32, u32, f64)> {
            edges
                .iter()
                .flat_map(|(&(u, v), &w)| {
                    let back = undirected.then_some((v, u, w));
                    std::iter::once((u, v, w)).chain(back)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn patched_equals_a_fresh_build_of_the_result(
                (n, extra, base, changes) in arb_patch(),
                undirected in any::<bool>(),
            ) {
                let key = |u: u32, v: u32| if undirected { (u.min(v), u.max(v)) } else { (u, v) };
                let mut edges = BTreeMap::new();
                for (u, v, w) in base.into_iter().filter(|(u, v, _)| u != v) {
                    edges.entry(key(u, v)).or_insert(WEIGHTS[w]);
                }
                let before = csr(n, &arcs(&edges, undirected));
                let mut overlay = BTreeMap::new();
                for (u, v, w) in changes.into_iter().filter(|(u, v, _)| u != v) {
                    overlay.insert(key(u, v), WEIGHTS.get(w).copied());
                }
                let mut arc_changes: Vec<Change> = Vec::new();
                for (&(u, v), &w) in &overlay {
                    arc_changes.push((u, v, w));
                    if undirected {
                        arc_changes.push((v, u, w));
                    }
                    match w {
                        Some(w) => edges.insert((u, v), w),
                        None => edges.remove(&(u, v)),
                    };
                }
                arc_changes.sort_unstable_by_key(|&(u, v, _)| (u, v));
                let patched = before.patched(n + extra, &arc_changes);
                let want = csr(n + extra, &arcs(&edges, undirected));
                prop_assert_eq!(patched, want, "changes {:?}", arc_changes);
            }
        }
    }
}
