//! Every node is a test case: the all-queries sweep, the reference at
//! scale.
//!
//! `naive` costs a full Dijkstra per candidate per query, so it can only
//! check small graphs. Reverse rank is a property of every node (Buchnik &
//! Cohen): one Dijkstra from every `p` gives `Rank(p, v)` for every `v` in
//! settle order, and each `v` keeps its `k` smallest ranks, so `n`
//! traversals answer all `n` queries at once. The sweep has its own
//! binary-heap Dijkstra and tie grouping; it uses no `rkranks_core` code
//! and reads weights only through `Graph::edges`.
//!
//! Every query node is checked against `dynamic-three` at `k` ∈ {1, 10,
//! 50}, and every 10th against the other `Strategy::ALL` members (the
//! indexed ones through a built index). The Tiny slice runs in the debug
//! suite, so it samples every 30th node for the others, `naive` included.
//! The Small legs (`sweep_small_*`) are ignored there, and CI runs them in
//! a release build without `naive`. The Medium leg, ignored too, checks
//! `k = 10` only (≈ 4 min in release) and samples every 250th node.
//!
//! Every leg but the Medium one also keeps the full `d(p, q)` and
//! `Rank(p, q)` matrices (≈ 192 MB at Small's 4,000 nodes, one leg's at a
//! time) and checks Theorem 1 decision by decision: on the accepted pass
//! of every query under each dynamic bound set (on Small, the sets other
//! than `dynamic-three` at `k = 10` only), a pop at its node's true
//! distance must claim the true rank when refined or offered as a pendant
//! leaf, and no more than it when pruned. Pops above the true distance
//! (late pops) are counted, not checked; over-claims are reported by the
//! row that won each bound-pruned pop.
//!
//! The zero-weight leg (`dblp_like` with a seeded tenth of its weights
//! set to 0) is the one where a node sits at distance 0 from `q` or from
//! a refined neighbour, the corner the anchor and the pendant rule each
//! guard with `d > 0`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rkranks_core::{
    BoundConfig, EngineContext, IndexAccess, IndexDelta, IndexParams, Partition, PopDecision,
    QueryRequest, Strategy,
};
use rkranks_datasets::{dblp_like, epinions_like, sf_like, Scale};
use rkranks_graph::{to_real, EdgeDirection, Graph, GraphBuilder, NodeId};

const K_MAX: usize = 50;
const DYNAMIC_THREE: Strategy = Strategy::Dynamic(BoundConfig::ALL);

/// Per query node, its `K_MAX` smallest `(Rank(p, q), p)` pairs, sorted.
type Answers = Vec<Vec<(u32, u32)>>;

/// The sweep's traversals: one Dijkstra from every candidate `p`, calling
/// `visit(p, v, d(p, v), Rank(p, v))` for every counted `v` it reaches.
/// With a `V2` mask (bichromatic) the candidates `p` are the nodes
/// outside `V2`, and only `V2` nodes count toward a rank or are queries.
fn traverse(g: &Graph, v2: Option<&[bool]>, mut visit: impl FnMut(usize, usize, u64, u32)) {
    let n = g.num_nodes() as usize;
    let in_v2 = |v: usize| v2.is_none_or(|mask| mask[v]);
    let mut dist = vec![u64::MAX; n];
    let mut reached: Vec<usize> = Vec::new();
    let mut heap = BinaryHeap::new();
    for p in (0..n).filter(|&p| v2.is_none() || !in_v2(p)) {
        for v in reached.drain(..) {
            dist[v] = u64::MAX;
        }
        dist[p] = 0;
        reached.push(p);
        heap.push(Reverse((0, p)));
        // Nodes counted so far, and those strictly closer than `last`.
        let (mut counted, mut closer, mut last) = (0, 0, 0);
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] {
                continue; // a stale entry: `v` was settled closer
            }
            for (t, w) in g.edges(NodeId(v as u32)) {
                let (t, nd) = (t.index(), d + w);
                if nd < dist[t] {
                    if dist[t] == u64::MAX {
                        reached.push(t);
                    }
                    dist[t] = nd;
                    heap.push(Reverse((nd, t)));
                }
            }
            if v == p || !in_v2(v) {
                continue;
            }
            if d > last {
                (closer, last) = (counted, d);
            }
            counted += 1;
            visit(p, v, d, closer + 1);
        }
    }
}

/// The sweep: each query node's `K_MAX` smallest `(Rank(p, q), p)` pairs.
fn sweep(g: &Graph, v2: Option<&[bool]>) -> Answers {
    let mut best: Vec<BinaryHeap<(u32, u32)>> = vec![BinaryHeap::new(); g.num_nodes() as usize];
    traverse(g, v2, |p, v, _, rank| {
        let (entry, kept) = ((rank, p as u32), &mut best[v]);
        if kept.len() < K_MAX {
            kept.push(entry);
        } else if let Some(mut top) = kept.peek_mut().filter(|top| entry < **top) {
            *top = entry;
        }
    });
    best.into_iter().map(BinaryHeap::into_sorted_vec).collect()
}

/// `d(p, q)` and `Rank(p, q)` for every pair the sweep reaches, row `p`
/// (`u64::MAX` / 0 where `p` does not reach a counted `q`).
struct Truth {
    n: usize,
    dist: Vec<u64>,
    rank: Vec<u32>,
}

impl Truth {
    fn new(g: &Graph, v2: Option<&[bool]>) -> Truth {
        let n = g.num_nodes() as usize;
        let (mut dist, mut rank) = (vec![u64::MAX; n * n], vec![0; n * n]);
        traverse(g, v2, |p, v, d, r| {
            (dist[p * n + v], rank[p * n + v]) = (d, r);
        });
        Truth { n, dist, rank }
    }

    fn at(&self, p: NodeId, q: NodeId) -> (u64, u32) {
        let i = p.index() * self.n + q.index();
        (self.dist[i], self.rank[i])
    }
}

/// Every dynamic bound set: Theorem 1 must hold under each.
const DYNAMIC: [BoundConfig; 4] = [
    BoundConfig::PARENT_ONLY,
    BoundConfig::PARENT_HEIGHT,
    BoundConfig::PARENT_COUNT,
    BoundConfig::ALL,
];

/// Theorem 1 on the accepted pass of every query under each
/// [`DYNAMIC`] bound set, `dynamic-three` at `ks` and the others at
/// `others`: each pop at its node's true distance must
/// claim the true rank (`Refined`, `Pendant`) or at most it
/// (`BoundPruned`, `RefinementPruned`), and no pop may sit below its true
/// distance. Prints, per bound set, the share of late pops, the pendant
/// claims and the over-claims by the row that won a `BoundPruned` pop (a
/// refinement's own over-claim is counted apart), and returns the
/// over-claims, one line each.
fn theorem_one(
    name: &str,
    ctx: &EngineContext,
    truth: &Truth,
    ks: &[u32],
    others: &[u32],
) -> Vec<String> {
    let mut scratch = ctx.new_scratch();
    let mut over = Vec::new();
    for bounds in DYNAMIC {
        let strategy = Strategy::Dynamic(bounds);
        let ks = if bounds == BoundConfig::ALL {
            ks
        } else {
            others
        };
        let (mut pops, mut late, mut pendants) = (0u64, 0u64, 0u64);
        let (mut by_source, mut refined) = ([0u64; 4], 0u64);
        let queries = ctx
            .graph()
            .nodes()
            .filter(|&q| ctx.partition().is_none_or(|part| part.is_v2(q)));
        for q in queries {
            for &k in ks {
                let req = QueryRequest::new(q, k).with_strategy(strategy).with_trace();
                let out = ctx.execute(&mut scratch, &req).unwrap();
                for e in &out.trace.expect("traced").events {
                    let claim = match e.decision {
                        PopDecision::Refined { rank, .. } => Ok(rank),
                        PopDecision::Pendant { rank, .. } => {
                            pendants += 1;
                            Ok(rank)
                        }
                        PopDecision::BoundPruned { lower_bound, .. }
                        | PopDecision::RefinementPruned { lower_bound } => Err(lower_bound),
                        _ => continue,
                    };
                    pops += 1;
                    let (d, rank) = truth.at(e.node, q);
                    let wrong = if e.distance > d {
                        late += 1;
                        false
                    } else {
                        e.distance < d || claim.map_or_else(|lb| lb > rank, |r| r != rank)
                    };
                    if !wrong {
                        continue;
                    }
                    match e.decision {
                        PopDecision::BoundPruned { source, .. } => by_source[source as usize] += 1,
                        _ => refined += 1,
                    }
                    over.push(format!(
                        "{name} {strategy} q={q} k={k} p={}: {:?} at {} vs Rank {rank} at {d}",
                        e.node, e.decision, e.distance
                    ));
                }
            }
        }
        let [parent, height, count, check] = by_source;
        eprintln!(
            "{name} {strategy}: {pops} pops ({pendants} pendant), {late} late ({:.1} %), \
             over-claims: parent {parent}, height {height}, count {count}, check {check}, \
             refinement or pendant {refined}",
            100.0 * late as f64 / pops.max(1) as f64,
        );
    }
    over
}

/// `true` if `got` is a correct answer given the `k` smallest
/// `(rank, node)` pairs `want`: the same ranks, and the same nodes below
/// the last rank (a tie at the k-th rank may pick any of its nodes).
fn same_answer(want: &[(u32, u32)], got: &[(u32, u32)]) -> bool {
    let ranks = |a: &[(u32, u32)]| a.iter().map(|e| e.0).collect::<Vec<_>>();
    let boundary = want.last().map_or(0, |e| e.0);
    let below = |a: &[(u32, u32)]| {
        a.iter()
            .filter(|e| e.0 < boundary)
            .copied()
            .collect::<Vec<_>>()
    };
    ranks(want) == ranks(got) && below(want) == below(got)
}

/// Check one graph against the sweep; returns the mismatches, one line
/// each (the first few are printed).
fn leg(name: &str, ctx: &EngineContext, scale: Scale) -> Vec<String> {
    // The other bound sets' Theorem-1 check runs at every `k` on Tiny and
    // at `k = 10` on Small, where each set costs as much as the leg.
    let (ks, others, sample, naive): (&[u32], &[u32], usize, bool) = match scale {
        Scale::Tiny => (&[1, 10, 50], &[1, 10, 50], 30, true),
        Scale::Small => (&[1, 10, 50], &[10], 10, false),
        _ => (&[10], &[], 250, false),
    };
    let g = ctx.graph();
    let mask: Option<Vec<bool>> = ctx
        .partition()
        .map(|part| g.nodes().map(|v| part.is_v2(v)).collect());
    let want = sweep(g, mask.as_deref());
    let mut mismatches = Vec::new();
    if matches!(scale, Scale::Tiny | Scale::Small) {
        // Dropped before the answers are checked, and before the next leg.
        let truth = Truth::new(g, mask.as_deref());
        mismatches.extend(theorem_one(name, ctx, &truth, ks, others));
    }
    let (built, _) = ctx.build_index(&IndexParams {
        k_max: K_MAX as u32,
        ..IndexParams::default()
    });
    let mut scratch = ctx.new_scratch();
    let queries = g
        .nodes()
        .filter(|q| mask.as_ref().is_none_or(|m| m[q.index()]));
    for (i, q) in queries.enumerate() {
        let strategies = Strategy::ALL.into_iter().filter(|&s| {
            s == DYNAMIC_THREE || (i % sample == 0 && (naive || s != Strategy::Naive))
        });
        for strategy in strategies {
            for &k in ks {
                let req = QueryRequest::new(q, k).with_strategy(strategy);
                let delta = &mut IndexDelta::for_index(&built);
                let mut access = IndexAccess::Snapshot {
                    snapshot: &built,
                    delta,
                };
                let binding = strategy.needs_index().then_some(&mut access);
                let got = ctx.execute_with(&mut scratch, binding, &req).unwrap();
                let got: Vec<(u32, u32)> = got
                    .result
                    .entries
                    .iter()
                    .map(|e| (e.rank, e.node.0))
                    .collect();
                let want = &want[q.index()][..want[q.index()].len().min(k as usize)];
                if !same_answer(want, &got) {
                    mismatches.push(format!(
                        "{name} {strategy} q={q} k={k}: {got:?} != {want:?}"
                    ));
                }
            }
        }
    }
    for line in mismatches.iter().take(5) {
        eprintln!("{line}");
    }
    mismatches
}

/// `g` (undirected) with a seeded tenth of its edges at weight 0.
fn zero_a_tenth(g: &Graph, seed: u64) -> Graph {
    let mut edges: Vec<(u32, u32, f64)> = g
        .nodes()
        .flat_map(|u| g.edges(u).map(move |(v, w)| (u.0, v.0, to_real(w))))
        .filter(|&(u, v, _)| u < v)
        .collect();
    edges.shuffle(&mut StdRng::seed_from_u64(seed));
    let zeros = edges.len() / 10;
    edges[..zeros].iter_mut().for_each(|e| e.2 = 0.0);
    let mut b = GraphBuilder::new(EdgeDirection::Undirected);
    b.reserve_nodes(g.num_nodes());
    for (u, v, w) in edges {
        b.add_edge(u, v, w).unwrap();
    }
    b.build().unwrap()
}

/// Every leg of one family at `scale`: `dblp_like`, `epinions_like` and
/// its transpose, `sf_like` monochromatic and over its stores, and
/// `dblp_like` with zero weights.
fn family(family: &str, scale: Scale) -> Vec<String> {
    let seed = 42;
    let mut mismatches = Vec::new();
    let mut run = |name: &str, ctx: EngineContext| mismatches.extend(leg(name, &ctx, scale));
    match family {
        "dblp_like" => run("dblp_like", EngineContext::new(dblp_like(scale, seed))),
        "zero_weights" => {
            let g = zero_a_tenth(&dblp_like(scale, seed), seed);
            run("dblp_like zero weights", EngineContext::new(g));
        }
        "epinions_like" => {
            let g = epinions_like(scale, seed);
            run("epinions_like^T", EngineContext::new(g.transpose()));
            run("epinions_like", EngineContext::new(g));
        }
        "sf_like" => {
            let net = sf_like(scale, seed);
            let stores = Partition::from_v2_mask(net.is_store);
            run("sf_like", EngineContext::new(net.graph.clone()));
            run(
                "sf_like stores",
                EngineContext::bichromatic(net.graph, stores),
            );
        }
        other => unreachable!("no family {other}"),
    }
    mismatches
}

fn assert_no_mismatch(family_name: &str, scale: Scale) {
    let mismatches = family(family_name, scale);
    assert!(
        mismatches.is_empty(),
        "{} answers or Theorem-1 claims differ from the sweep on {family_name} ({scale:?})",
        mismatches.len()
    );
}

#[test]
fn sweep_tiny_dblp_like() {
    assert_no_mismatch("dblp_like", Scale::Tiny);
}

#[test]
fn sweep_tiny_epinions_like() {
    assert_no_mismatch("epinions_like", Scale::Tiny);
}

#[test]
fn sweep_tiny_sf_like() {
    assert_no_mismatch("sf_like", Scale::Tiny);
}

#[test]
fn sweep_tiny_zero_weights() {
    assert_no_mismatch("zero_weights", Scale::Tiny);
}

#[test]
#[ignore = "release: CI's sweep step"]
fn sweep_small_dblp_like() {
    assert_no_mismatch("dblp_like", Scale::Small);
}

#[test]
#[ignore = "release: CI's sweep step"]
fn sweep_small_epinions_like() {
    assert_no_mismatch("epinions_like", Scale::Small);
}

#[test]
#[ignore = "release: CI's sweep step"]
fn sweep_small_sf_like() {
    assert_no_mismatch("sf_like", Scale::Small);
}

#[test]
#[ignore = "release: CI's sweep step"]
fn sweep_small_zero_weights() {
    assert_no_mismatch("zero_weights", Scale::Small);
}

#[test]
#[ignore = "minutes; run with --release --include-ignored"]
fn sweep_medium_dblp_like() {
    assert_no_mismatch("dblp_like", Scale::Medium);
}

/// The sweep itself, on a graph small enough to rank by hand: a path
/// `0 – 1 – 2 – 3` with a pendant `4` on `1`, unit weights.
#[test]
fn the_sweep_ranks_a_small_graph_by_hand() {
    let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0)];
    let g =
        rkranks_graph::graph_from_edges(rkranks_graph::EdgeDirection::Undirected, edges).unwrap();
    let want = sweep(&g, None);
    // Rank(p, 0): from 1 it is 1 (tied with 2 and 4), from 4 it is 2
    // (behind 1), from 2 and from 3 it is 3 (behind 1 and 3, behind 2 and
    // 1).
    assert_eq!(want[0], [(1, 1), (2, 4), (3, 2), (3, 3)]);
    // Only V2 = {0, 3} counts, candidates are 1, 2, 4: Rank(2, 3) = 1,
    // Rank(1, 3) = 2 (0 is closer), Rank(4, 3) = 2.
    let v2 = [true, false, false, true, false];
    assert_eq!(sweep(&g, Some(&v2))[3], [(1, 2), (2, 1), (2, 4)]);
}
