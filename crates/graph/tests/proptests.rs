//! Property-based tests for the graph substrate.
//!
//! Strategy: generate small random weighted graphs (directed and
//! undirected), then check the fast structures against brute-force
//! reference implementations (Floyd–Warshall, full sorts).

use proptest::prelude::*;
use rkranks_graph::{
    rank_between, rank_matrix, sssp, to_real, DijkstraWorkspace, Distance, DistanceBrowser,
    EdgeDirection, Graph, NodeId, INF,
};

/// Generator: a connected-ish random graph as (node count, edge list).
fn arb_edges(
    max_nodes: u32,
    max_extra_edges: usize,
) -> impl Strategy<Value = (u32, Vec<(u32, u32, f64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        // a random spanning-tree-ish backbone keeps most graphs connected
        let backbone = proptest::collection::vec(0.0f64..10.0, (n - 1) as usize).prop_map(
            move |ws| -> Vec<(u32, u32, f64)> {
                ws.iter()
                    .enumerate()
                    .map(|(i, &w)| (i as u32 + 1, (i as u32) / 2, w))
                    .collect()
            },
        );
        let extra = proptest::collection::vec((0..n, 0..n, 0.0f64..10.0), 0..=max_extra_edges);
        (Just(n), backbone, extra).prop_map(|(n, mut b, e)| {
            b.extend(e.into_iter().filter(|(u, v, _)| u != v));
            (n, b)
        })
    })
}

fn build(direction: EdgeDirection, n: u32, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = rkranks_graph::GraphBuilder::new(direction);
    b.reserve_nodes(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w).unwrap();
    }
    b.build().unwrap()
}

/// Brute-force all-pairs shortest paths.
fn floyd_warshall(g: &Graph) -> Vec<Vec<Distance>> {
    let n = g.num_nodes() as usize;
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for u in g.nodes() {
        for (v, w) in g.edges(u) {
            if w < d[u.index()][v.index()] {
                d[u.index()][v.index()] = w;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k] == INF {
                continue;
            }
            for j in 0..n {
                let alt = d[i][k].saturating_add(d[k][j]);
                if alt < d[i][j] {
                    d[i][j] = alt;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_floyd_warshall_undirected((n, edges) in arb_edges(12, 20)) {
        let g = build(EdgeDirection::Undirected, n, &edges);
        let fw = floyd_warshall(&g);
        for s in g.nodes() {
            let d = sssp(&g, s);
            for t in g.nodes() {
                prop_assert_eq!(d[t.index()], fw[s.index()][t.index()], "d({},{})", s, t);
            }
        }
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_directed((n, edges) in arb_edges(12, 20)) {
        let g = build(EdgeDirection::Directed, n, &edges);
        let fw = floyd_warshall(&g);
        for s in g.nodes() {
            let d = sssp(&g, s);
            for t in g.nodes() {
                prop_assert_eq!(d[t.index()], fw[s.index()][t.index()], "d({},{})", s, t);
            }
        }
    }

    #[test]
    fn browser_is_sorted_and_complete((n, edges) in arb_edges(16, 24)) {
        let g = build(EdgeDirection::Undirected, n, &edges);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let order: Vec<(NodeId, Distance)> = DistanceBrowser::new(&g, &mut ws, NodeId(0)).collect();
        // nondecreasing distances
        prop_assert!(order.windows(2).all(|w| w[0].1 <= w[1].1));
        // every node yielded at most once
        let mut seen = vec![false; g.num_nodes() as usize];
        for (v, _) in &order {
            prop_assert!(!seen[v.index()], "node {v} yielded twice");
            seen[v.index()] = true;
        }
        // distances agree with sssp, and unreachable nodes are not yielded
        let d = sssp(&g, NodeId(0));
        let reachable = d.iter().filter(|&&x| x != INF).count();
        prop_assert_eq!(order.len(), reachable);
        for (v, dist) in order {
            prop_assert_eq!(d[v.index()], dist);
        }
    }

    #[test]
    fn transpose_flips_distances((n, edges) in arb_edges(10, 16)) {
        let g = build(EdgeDirection::Directed, n, &edges);
        let t = g.transpose();
        for s in g.nodes() {
            let d_fwd = sssp(&g, s);
            let d_rev = sssp(&t, s);
            // d_G(u, s) must equal d_{G^T}(s, u)
            for u in g.nodes() {
                let fwd_to_s = sssp(&g, u)[s.index()];
                prop_assert_eq!(fwd_to_s, d_rev[u.index()]);
            }
            let _ = d_fwd;
        }
    }

    #[test]
    fn rank_between_matches_matrix((n, edges) in arb_edges(10, 16)) {
        let g = build(EdgeDirection::Undirected, n, &edges);
        let m = rank_matrix(&g);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t { continue; }
                prop_assert_eq!(rank_between(&g, &mut ws, s, t), m[s.index()][t.index()]);
            }
        }
    }

    #[test]
    fn rank_matrix_is_tie_consistent((n, edges) in arb_edges(10, 16)) {
        // Rank(s,t) must equal 1 + |{p != s : d(s,p) < d(s,t)}| exactly.
        let g = build(EdgeDirection::Undirected, n, &edges);
        let m = rank_matrix(&g);
        for s in g.nodes() {
            let d = sssp(&g, s);
            for t in g.nodes() {
                if s == t { continue; }
                if d[t.index()] == INF {
                    prop_assert_eq!(m[s.index()][t.index()], None);
                    continue;
                }
                let strictly_closer = g
                    .nodes()
                    .filter(|&p| p != s && d[p.index()] < d[t.index()])
                    .count() as u32;
                prop_assert_eq!(m[s.index()][t.index()], Some(strictly_closer + 1));
            }
        }
    }

    #[test]
    fn reverse_topk_sizes_consistent((n, edges) in arb_edges(10, 14), k in 1u32..5) {
        let g = build(EdgeDirection::Undirected, n, &edges);
        let sizes = rkranks_graph::reverse_top_k_sizes(&g, k);
        let m = rank_matrix(&g);
        for q in g.nodes() {
            let expect = g
                .nodes()
                .filter(|&v| v != q && matches!(m[v.index()][q.index()], Some(r) if r <= k))
                .count() as u32;
            prop_assert_eq!(sizes[q.index()], expect, "q={} k={}", q, k);
        }
    }

    /// Distance browsing (§4 of the paper) leans on the Dijkstra invariant
    /// that settled distances never decrease: every pop from
    /// [`DistanceBrowser`] must be >= the previous pop, from every source,
    /// on directed and undirected graphs alike.
    #[test]
    fn browser_pop_order_is_monotone((n, edges) in arb_edges(14, 22), directed in any::<bool>()) {
        let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
        let g = build(dir, n, &edges);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for s in g.nodes() {
            let mut browser = DistanceBrowser::new(&g, &mut ws, s);
            let (first, mut prev) = match browser.next() {
                Some((v, d)) => (v, d),
                None => continue,
            };
            // the source itself is always the first pop, at distance 0
            prop_assert_eq!(first, s);
            prop_assert_eq!(prev, 0);
            for (v, d) in browser {
                prop_assert!(
                    d >= prev,
                    "pop order regressed at {v}: {d} < {prev} (source {s})"
                );
                prop_assert!(d != INF, "unreachable node {v} was yielded");
                prev = d;
            }
        }
    }
}

/// Row order — the invariant distance-bounded traversals rely on.
///
/// Every row of every graph this crate hands out is sorted by
/// `(weight, target)`: straight from the builder under each dedup policy,
/// after any committed update batch, after a transpose, and after a file
/// round-trip. Weights are drawn from `{0, 1, 2}` so ties (where the
/// target breaks the order) and zero weights are the common case.
mod row_order_props {
    use super::*;
    use rkranks_graph::{
        read_graph, write_graph, DedupPolicy, GraphBuilder, GraphDelta, GraphStore,
    };
    use std::collections::BTreeMap;

    fn rows_sorted(g: &Graph) -> bool {
        g.nodes().all(|u| {
            let (t, w) = g.out_neighbors(u);
            (1..t.len()).all(|i| (w[i - 1], t[i - 1]) <= (w[i], t[i]))
        })
    }

    fn tie_heavy(edges: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
        edges
            .iter()
            .map(|&(u, v, w)| (u, v, (w as u32 % 3) as f64))
            .collect()
    }

    /// The arcs a build under `policy` keeps of `arcs` (in the order they
    /// were added), as a sorted `(source, target, weight bits)` list:
    /// `KeepMin` the lightest arc of each pair, `KeepLast` the last one
    /// added, `KeepAll` every arc.
    fn model(arcs: &[(u32, u32, f64)], policy: DedupPolicy) -> Vec<(u32, u32, u64)> {
        let mut kept: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
        for &(u, v, w) in arcs {
            let ws = kept.entry((u, v)).or_default();
            match policy {
                DedupPolicy::KeepAll => ws.push(w),
                DedupPolicy::KeepLast => *ws = vec![w],
                DedupPolicy::KeepMin if ws.first().is_none_or(|&min| w < min) => *ws = vec![w],
                DedupPolicy::KeepMin => {}
            }
        }
        let mut arcs: Vec<_> = kept
            .into_iter()
            .flat_map(|((u, v), ws)| ws.into_iter().map(move |w| (u, v, w.to_bits())))
            .collect();
        arcs.sort_unstable();
        arcs
    }

    fn arcs_of(g: &Graph) -> Vec<(u32, u32, u64)> {
        let mut arcs: Vec<_> = g
            .nodes()
            .flat_map(|u| {
                g.edges(u)
                    .map(move |(v, w)| (u.0, v.0, to_real(w).to_bits()))
            })
            .collect();
        arcs.sort_unstable();
        arcs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Which arc survives a parallel edge: every row of a build, and of
        /// its transpose, holds exactly the `(target, weight)` multiset the
        /// model keeps of the raw edges (of the reversed arcs, for the
        /// transpose). Few nodes and weights from `{0, 1, 2}` make parallel
        /// edges and ties common.
        #[test]
        fn build_and_transpose_match_a_model(
            (n, edges) in arb_edges(8, 40),
            directed in any::<bool>(),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            let edges = tie_heavy(&edges);
            let arcs: Vec<_> = edges
                .iter()
                .flat_map(|&(u, v, w)| std::iter::once((u, v, w)).chain((!directed).then_some((v, u, w))))
                .collect();
            let reversed: Vec<_> = arcs.iter().map(|&(u, v, w)| (v, u, w)).collect();
            for policy in [DedupPolicy::KeepMin, DedupPolicy::KeepLast, DedupPolicy::KeepAll] {
                let mut b = GraphBuilder::new(dir).dedup_policy(policy);
                b.reserve_nodes(n);
                for &(u, v, w) in &edges {
                    b.add_edge(u, v, w).unwrap();
                }
                let g = b.build().unwrap();
                prop_assert_eq!(arcs_of(&g), model(&arcs, policy), "{:?}", policy);
                prop_assert_eq!(arcs_of(&g.transpose()), model(&reversed, policy), "{:?} transpose", policy);
            }
        }

        #[test]
        fn rows_sorted_after_build_transpose_and_reload(
            (n, edges) in arb_edges(12, 30),
            directed in any::<bool>(),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            for policy in [DedupPolicy::KeepMin, DedupPolicy::KeepLast, DedupPolicy::KeepAll] {
                let mut b = GraphBuilder::new(dir).dedup_policy(policy);
                b.reserve_nodes(n);
                for (u, v, w) in tie_heavy(&edges) {
                    b.add_edge(u, v, w).unwrap();
                }
                let g = b.build().unwrap();
                prop_assert!(rows_sorted(&g), "{policy:?}: {g:?}");
                let t = g.transpose();
                prop_assert!(rows_sorted(&t), "{policy:?} transpose: {t:?}");
                prop_assert_eq!(t.transpose(), g.clone());

                let mut file = Vec::new();
                write_graph(&g, &mut file).unwrap();
                let back = read_graph(file.as_slice()).unwrap();
                prop_assert!(rows_sorted(&back), "{policy:?} reloaded: {back:?}");
                if policy != DedupPolicy::KeepAll {
                    // (the reader dedups, so parallel arcs do not round-trip)
                    prop_assert_eq!(back, g);
                }
            }
        }

        #[test]
        fn rows_stay_sorted_across_commits(
            (n, edges) in arb_edges(10, 14),
            stream in proptest::collection::vec((0u32..10, 0u32..10, 0u32..3, any::<bool>()), 1..24),
            directed in any::<bool>(),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            let mut store = GraphStore::new(build(dir, n, &tie_heavy(&edges)));
            for chunk in stream.chunks(5) {
                for &(u, v, w, remove) in chunk {
                    let (u, v, w) = (u % n, v % n, f64::from(w));
                    // Whatever fits the current edge set: an invalid delta
                    // (self-loop) is refused and stages nothing.
                    let delta = match (store.contains_edge(u, v), remove) {
                        (true, true) => GraphDelta::RemoveEdge { u, v },
                        (true, false) => GraphDelta::Reweight { u, v, w },
                        (false, _) => GraphDelta::AddEdge { u, v, w },
                    };
                    let _ = store.stage(delta);
                }
                let snapshot = store.commit();
                prop_assert!(rows_sorted(&snapshot), "epoch {}: {snapshot:?}", store.graph_epoch());
                // ...and is the graph a from-scratch build of the same edges gives.
                let edges: Vec<_> = store.edges().collect();
                prop_assert_eq!(&*snapshot, &build(dir, store.num_nodes(), &edges));
            }
        }
    }
}

/// `Graph::digest` names an edge set, not a history: a replica that
/// reached its graph through committed update batches, one built fresh
/// from the same edges, one that replayed the batches from WAL lines, and
/// one reloaded from a file must all announce the same digest, or a
/// coordinator would refuse a healthy fleet. Weights are off the 2^-32
/// grid, some of them below one quantum.
mod digest_props {
    use super::*;
    use rkranks_graph::{read_graph, write_graph, GraphDelta, GraphStore};

    /// A weight in `[0, 10)`, or one in `[0, 10^-9)`: a few quanta or
    /// less than one.
    fn off_grid_weight() -> impl Strategy<Value = f64> {
        (0.0f64..10.0, any::<bool>()).prop_map(|(w, tiny)| if tiny { w * 1e-10 } else { w })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn digest_depends_only_on_the_edge_set(
            (n, edges) in arb_edges(12, 24),
            stream in proptest::collection::vec(
                (0u32..12, 0u32..12, off_grid_weight(), 0u8..4), 1..24),
            directed in any::<bool>(),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            let mut store = GraphStore::new(build(dir, n, &edges));
            for chunk in stream.chunks(6) {
                for &(u, v, w, op) in chunk {
                    let n = store.effective_num_nodes();
                    let (u, v) = (u % n, v % n);
                    let delta = match (op, store.contains_edge(u, v)) {
                        (0, _) => GraphDelta::AddNode,
                        (1, true) => GraphDelta::RemoveEdge { u, v },
                        (_, true) => GraphDelta::Reweight { u, v, w },
                        (_, false) => GraphDelta::AddEdge { u, v, w },
                    };
                    // A self-loop is refused and stages nothing.
                    let _ = store.stage(delta);
                }
                let mut replayed = GraphStore::new((*store.snapshot()).clone());
                for (i, d) in store.staged_deltas().into_iter().enumerate() {
                    let line = d.to_wal_line();
                    replayed.stage(GraphDelta::parse_wal_line(&line, i + 1).unwrap()).unwrap();
                }
                let patched = store.commit();
                prop_assert_eq!(replayed.commit().digest(), patched.digest());
                let edges: Vec<_> = store.edges().collect();
                let fresh = build(dir, store.num_nodes(), &edges);
                prop_assert_eq!(patched.digest(), fresh.digest(), "epoch {}", store.graph_epoch());

                let mut file = Vec::new();
                write_graph(&patched, &mut file).unwrap();
                let reloaded = read_graph(file.as_slice()).unwrap();
                prop_assert_eq!(reloaded.digest(), patched.digest());

                if let Some(&(u, v, w)) = edges.first() {
                    let reweighted = GraphStore::new((*patched).clone())
                        .apply(&[GraphDelta::Reweight { u, v, w: w + 0.5 }])
                        .unwrap();
                    prop_assert_ne!(reweighted.digest(), patched.digest());
                }
            }
        }
    }
}

/// The bounded truncated traversal against the unbounded one.
///
/// [`BoundedBrowser`] stops feeding its frontier at the `limit`-th nearest
/// counted node; everything a truncated caller reads from it — distances,
/// ranks, the tie pending at the cut, the full enumeration when the limit
/// is never reached — must be what [`DistanceBrowser`] gives. Graphs are
/// directed and undirected, with parallel arcs (`KeepAll`), zero weights,
/// heavy ties (`{0, 1, 1, 2}`) and unreachable parts; every `limit` in
/// `1..=n+1` from every source, under a random `counted` predicate.
mod bounded_browser_props {
    use super::*;
    use rkranks_graph::{
        reverse_top_k, top_k_set, BoundedBrowser, DedupPolicy, GraphBuilder, RankCounter,
    };

    /// No backbone: isolated nodes and several components are the norm.
    /// Weights come from `{0, 1, 1, 2}`.
    fn arb_tie_heavy_edges(
        max_nodes: u32,
        max_edges: usize,
    ) -> impl Strategy<Value = (u32, Vec<(u32, u32, f64)>)> {
        (2..=max_nodes).prop_flat_map(move |n| {
            let edges = proptest::collection::vec((0..n, 0..n, 0usize..4), 0..=max_edges);
            (Just(n), edges).prop_map(|(n, e)| {
                let edges = e
                    .into_iter()
                    .filter(|(u, v, _)| u != v)
                    .map(|(u, v, w)| (u, v, [0.0, 1.0, 1.0, 2.0][w]))
                    .collect();
                (n, edges)
            })
        })
    }

    /// `counted` as a node mask: all nodes, or a random subset.
    fn arb_counted(max_nodes: u32) -> impl Strategy<Value = Vec<bool>> {
        (
            any::<bool>(),
            proptest::collection::vec(any::<bool>(), max_nodes as usize),
        )
            .prop_map(|(all, mask)| if all { vec![true; mask.len()] } else { mask })
    }

    fn multigraph(direction: EdgeDirection, n: u32, edges: &[(u32, u32, f64)]) -> Graph {
        let mut b = GraphBuilder::new(direction).dedup_policy(DedupPolicy::KeepAll);
        b.reserve_nodes(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w).unwrap();
        }
        b.build().unwrap()
    }

    /// Drive `browser` (already past the source) up to and including its
    /// `limit`-th counted settle; `true` when it got there.
    fn take_counted(
        browser: &mut impl Iterator<Item = (NodeId, Distance)>,
        limit: usize,
        counted: &[bool],
    ) -> (Vec<(NodeId, Distance)>, bool) {
        let mut settles = Vec::new();
        let mut taken = 0;
        for (v, d) in browser {
            settles.push((v, d));
            taken += usize::from(counted[v.index()]);
            if counted[v.index()] && taken == limit {
                return (settles, true);
            }
        }
        (settles, false)
    }

    /// "A tie is pending at the cut": the frontier top ties with the last
    /// settle.
    fn tie_pending(settles: &[(NodeId, Distance)], ws: &DijkstraWorkspace) -> bool {
        ws.peek_frontier().map(|(_, d)| d) == settles.last().map(|&(_, d)| d)
    }

    fn counted_ranks(settles: &[(NodeId, Distance)], counted: &[bool]) -> Vec<(Distance, u32)> {
        let mut counter = RankCounter::new();
        settles
            .iter()
            .filter(|(v, _)| counted[v.index()])
            .map(|&(_, d)| (d, counter.on_settle(d)))
            .collect()
    }

    fn assert_bounded_matches_unbounded(g: &Graph, counted: &[bool]) -> Result<(), TestCaseError> {
        let n = g.num_nodes() as usize;
        let all_counted = counted[..n].iter().all(|&c| c);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut ws_ref = DijkstraWorkspace::new(g.num_nodes());
        for s in g.nodes() {
            let dist = sssp(g, s);
            let full: Vec<(NodeId, Distance)> =
                DistanceBrowser::new(g, &mut ws_ref, s).skip(1).collect();
            let reachable_counted = full.iter().filter(|(v, _)| counted[v.index()]).count();
            let mut finite: Vec<Distance> = full.iter().map(|&(_, d)| d).collect();
            finite.dedup();
            let tie_free = finite.len() == full.len();

            for limit in 1..=n + 1 {
                let mut unbounded = DistanceBrowser::new(g, &mut ws_ref, s);
                unbounded.next(); // the source
                let (want, reached) = take_counted(&mut unbounded, limit, counted);
                let want_pending = reached.then(|| tie_pending(&want, unbounded.workspace()));

                let mut bounded = BoundedBrowser::new(g, &mut ws, s, limit, |v| counted[v.index()]);
                let (got, reached) = take_counted(&mut bounded, limit, counted);
                let got_pending = reached.then(|| tie_pending(&got, bounded.workspace()));
                if got_pending == Some(true) {
                    // a tie the frontier claims is a real one
                    let (u, du) = bounded.workspace().peek_frontier().unwrap();
                    prop_assert_eq!(du, dist[u.index()], "s={} limit={}", s, limit);
                }
                prop_assert!(bounded.pushes() <= bounded.relaxations());
                // whatever it yields past the cut is final too (it stops at
                // the first frontier distance that may not be)
                for (v, d) in bounded {
                    prop_assert_eq!(d, dist[v.index()], "s={} limit={} v={}", s, limit, v);
                }

                // every yielded distance is final
                for &(v, d) in &got {
                    prop_assert_eq!(d, dist[v.index()], "s={} limit={} v={}", s, limit, v);
                }
                // same distances and ranks for the counted settles
                prop_assert_eq!(
                    counted_ranks(&got, counted),
                    counted_ranks(&want, counted),
                    "s={} limit={}",
                    s,
                    limit
                );
                prop_assert_eq!(got_pending.is_some(), want_pending.is_some());
                if let (Some(got_pending), Some(&(_, last))) = (got_pending, got.last()) {
                    // A counted node still unsettled at the cut distance
                    // must show as a pending tie (the Check Dictionary's
                    // soundness hangs on it) ...
                    let is_at_cut =
                        |v: NodeId, d: Distance| v != s && counted[v.index()] && d == last;
                    let settled_at_cut = got.iter().filter(|&&(v, d)| is_at_cut(v, d)).count();
                    let all_at_cut = g.nodes().filter(|&v| is_at_cut(v, dist[v.index()])).count();
                    if all_at_cut > settled_at_cut {
                        prop_assert!(
                            got_pending,
                            "s={} limit={}: tie at the cut missed",
                            s,
                            limit
                        );
                    }
                    // ... and with every node counted the answer is the
                    // unbounded run's, whatever the heap order (conduit
                    // nodes tied at the cut may pop before or after it).
                    if all_counted {
                        prop_assert_eq!(Some(got_pending), want_pending, "s={} limit={}", s, limit);
                    }
                }
                if tie_free {
                    prop_assert_eq!(&got, &want, "s={} limit={}", s, limit);
                }
                if reachable_counted < limit {
                    // never bounded: the same traversal, step for step
                    prop_assert_eq!(&got, &full, "s={} limit={}", s, limit);
                }
            }
        }
        Ok(())
    }

    /// The previous (unbounded) body of `top_k_set`.
    fn top_k_set_reference(
        g: &Graph,
        ws: &mut DijkstraWorkspace,
        s: NodeId,
        k: u32,
    ) -> Vec<NodeId> {
        let mut counter = RankCounter::new();
        let mut out = Vec::new();
        for (v, d) in DistanceBrowser::new(g, ws, s) {
            if v == s {
                continue;
            }
            if counter.on_settle(d) > k {
                break;
            }
            out.push(v);
        }
        out
    }

    /// The previous (unbounded) body of `reverse_top_k`.
    fn reverse_top_k_reference(g: &Graph, q: NodeId, k: u32) -> Vec<NodeId> {
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        g.nodes()
            .filter(|&v| v != q && top_k_set_reference(g, &mut ws, v, k).contains(&q))
            .collect()
    }

    fn assert_topk_callers_match_references(g: &Graph) -> Result<(), TestCaseError> {
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        let mut ws_ref = DijkstraWorkspace::new(g.num_nodes());
        for k in 0..=g.num_nodes() + 1 {
            for s in g.nodes() {
                let dist = sssp(g, s);
                // whole tie groups are in the set, so it is determined; the
                // order inside a tie group is heap order
                let got = top_k_set(g, &mut ws, s, k);
                let want = top_k_set_reference(g, &mut ws_ref, s, k);
                let dists =
                    |set: &[NodeId]| set.iter().map(|v| dist[v.index()]).collect::<Vec<_>>();
                prop_assert_eq!(dists(&got), dists(&want), "s={} k={}", s, k);
                let sorted = |mut set: Vec<NodeId>| {
                    set.sort_unstable();
                    set
                };
                prop_assert_eq!(sorted(got), sorted(want), "s={} k={}", s, k);

                prop_assert_eq!(
                    reverse_top_k(g, s, k),
                    reverse_top_k_reference(g, s, k),
                    "q={} k={}",
                    s,
                    k
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bounded_browser_matches_unbounded_on_random_graphs(
            (n, edges) in arb_edges(12, 20),
            directed in any::<bool>(),
            counted in arb_counted(12),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            assert_bounded_matches_unbounded(&build(dir, n, &edges), &counted)?;
        }

        #[test]
        fn bounded_browser_matches_unbounded_on_tie_heavy_multigraphs(
            (n, edges) in arb_tie_heavy_edges(12, 30),
            directed in any::<bool>(),
            counted in arb_counted(12),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            assert_bounded_matches_unbounded(&multigraph(dir, n, &edges), &counted)?;
        }

        #[test]
        fn truncated_callers_match_their_unbounded_bodies(
            (n, edges) in arb_edges(10, 16),
            (tn, tie_edges) in arb_tie_heavy_edges(10, 24),
            directed in any::<bool>(),
        ) {
            let dir = if directed { EdgeDirection::Directed } else { EdgeDirection::Undirected };
            assert_topk_callers_match_references(&build(dir, n, &edges))?;
            assert_topk_callers_match_references(&multigraph(dir, tn, &tie_edges))?;
        }
    }
}

/// The workspace pops in exactly the order the position-indexed heap it
/// replaced did — ties included — so no exact work counter downstream
/// (settles, pushes, refinement outcomes) can move.
///
/// [`ReferenceHeap`] is a copy of that heap: binary, swap sifts. A Dijkstra over it is the reference;
/// the workspace under test is reused across sources, and each full run
/// follows a partial one that abandons its frontier.
mod pop_order_props {
    use super::*;
    use rkranks_graph::{DedupPolicy, GraphBuilder};

    const ABSENT: u32 = u32::MAX;

    struct ReferenceHeap {
        keys: Vec<Distance>,
        items: Vec<u32>,
        pos: Vec<u32>,
    }

    impl ReferenceHeap {
        fn push_or_decrease(&mut self, item: u32, key: Distance) {
            let p = self.pos[item as usize];
            if p == ABSENT {
                self.keys.push(key);
                self.items.push(item);
                self.pos[item as usize] = self.items.len() as u32 - 1;
                self.sift_up(self.items.len() - 1);
            } else if key < self.keys[p as usize] {
                self.keys[p as usize] = key;
                self.sift_up(p as usize);
            }
        }

        fn pop(&mut self) -> Option<(u32, Distance)> {
            let (item, key) = (*self.items.first()?, self.keys[0]);
            self.pos[item as usize] = ABSENT;
            let last = self.items.len() - 1;
            if last > 0 {
                self.items.swap(0, last);
                self.keys.swap(0, last);
                self.pos[self.items[0] as usize] = 0;
            }
            self.items.pop();
            self.keys.pop();
            if !self.items.is_empty() {
                self.sift_down(0);
            }
            Some((item, key))
        }

        fn less(&self, a: usize, b: usize) -> bool {
            self.keys[a] < self.keys[b]
        }

        fn swap_slots(&mut self, a: usize, b: usize) {
            self.items.swap(a, b);
            self.keys.swap(a, b);
            self.pos[self.items[a] as usize] = a as u32;
            self.pos[self.items[b] as usize] = b as u32;
        }

        fn sift_up(&mut self, mut i: usize) {
            while i > 0 && self.less(i, (i - 1) / 2) {
                self.swap_slots(i, (i - 1) / 2);
                i = (i - 1) / 2;
            }
        }

        fn sift_down(&mut self, mut i: usize) {
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                if l < self.items.len() && self.less(l, smallest) {
                    smallest = l;
                }
                if r < self.items.len() && self.less(r, smallest) {
                    smallest = r;
                }
                if smallest == i {
                    return;
                }
                self.swap_slots(i, smallest);
                i = smallest;
            }
        }
    }

    /// The full settle sequence from `s` of a Dijkstra over [`ReferenceHeap`].
    fn reference_settles(g: &Graph, s: NodeId) -> Vec<(NodeId, Distance)> {
        let n = g.num_nodes() as usize;
        let mut heap = ReferenceHeap {
            keys: Vec::new(),
            items: Vec::new(),
            pos: vec![ABSENT; n],
        };
        let mut dist: Vec<Option<Distance>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut out = Vec::new();
        dist[s.index()] = Some(0);
        heap.push_or_decrease(s.0, 0);
        while let Some((v, d)) = heap.pop() {
            settled[v as usize] = true;
            out.push((NodeId(v), d));
            let (targets, weights) = g.out_neighbors(NodeId(v));
            for (t, w) in targets.iter().zip(weights) {
                let nd = d + w;
                if settled[t.index()] || dist[t.index()].is_some_and(|old| nd >= old) {
                    continue;
                }
                dist[t.index()] = Some(nd);
                heap.push_or_decrease(t.0, nd);
            }
        }
        out
    }

    /// Weights from `{0, 1, 1, 2}`, parallel arcs kept: ties everywhere.
    fn arb_tie_heavy_multigraph() -> impl Strategy<Value = Graph> {
        let edges = (2u32..=14).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0usize..4), 0..=36),
            )
        });
        (edges, any::<bool>()).prop_map(|((n, e), directed)| {
            let dir = if directed {
                EdgeDirection::Directed
            } else {
                EdgeDirection::Undirected
            };
            let mut b = GraphBuilder::new(dir).dedup_policy(DedupPolicy::KeepAll);
            b.reserve_nodes(n);
            for (u, v, w) in e.into_iter().filter(|(u, v, _)| u != v) {
                b.add_edge(u, v, [0.0, 1.0, 1.0, 2.0][w]).unwrap();
            }
            b.build().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn settle_sequence_matches_the_reference_heap(
            g in arb_tie_heavy_multigraph(),
            abandon_after in 0usize..6,
        ) {
            let n = g.num_nodes();
            let mut ws = DijkstraWorkspace::new(n);
            for s in g.nodes() {
                let other = NodeId((s.0 + 1) % n);
                DistanceBrowser::new(&g, &mut ws, other).take(abandon_after).for_each(drop);
                let got: Vec<_> = DistanceBrowser::new(&g, &mut ws, s).collect();
                prop_assert_eq!(got, reference_settles(&g, s), "source {}", s);
            }
        }
    }
}
