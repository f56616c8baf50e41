//! Tests of the kRank ladder (see the [`super`] module docs).
//!
//! The metamorphic relation under test is ROADMAP 6(d)'s "any `k_rank_hint`
//! ≥ the true `kRank` leaves the answer unchanged", stated for the single
//! pass the ladder is built from: a guess `≥` naive's `kRank` is accepted
//! and yields naive's rank multiset; a guess below it is rejected, never
//! returned short or wrong.
//!
//! Anchored refinement (same module docs) is tested through the same
//! door: `sds_pass` takes the anchor threshold as an argument, so a pass
//! can be run with every completed ball anchoring (`ANCHOR_ALL`), with the
//! rule as shipped (`anchor_above(k)`), or with none (`ANCHOR_NONE`).
//!
//! The ladder itself is one more argument: `execute_on_ladder` runs a
//! request on any `(first guess per k, growth)`, so under `FINE` a
//! 12-node graph climbs several rungs where the shipped ladder would run
//! one or two.

use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use proptest::test_runner::TestCaseError;
use rkranks_graph::{rank_matrix, EdgeDirection, GraphBuilder, ShardSlice};

use super::*;
use crate::index::IndexDelta;

fn arb_graph(directed: bool, max_nodes: u32, max_extra: usize) -> impl PropStrategy<Value = Graph> {
    (3..=max_nodes).prop_flat_map(move |n| {
        // Weights in {1, 2, 3}: heavy ties, where guess == kRank is most
        // likely to be off by one.
        let weight = (1u32..=3).prop_map(f64::from).boxed();
        let backbone = proptest::collection::vec(weight.clone(), (n - 1) as usize);
        let extra = proptest::collection::vec((0..n, 0..n, weight), 0..=max_extra);
        (Just(n), backbone, extra).prop_map(move |(n, bb, extra)| {
            let mut b = GraphBuilder::new(if directed {
                EdgeDirection::Directed
            } else {
                EdgeDirection::Undirected
            });
            b.reserve_nodes(n);
            for (i, w) in bb.into_iter().enumerate() {
                let v = i as u32 + 1;
                b.add_edge(v, v / 2, w).unwrap();
            }
            for (u, v, w) in extra {
                if u != v {
                    b.add_edge(u, v, w).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

/// Where an indexed pass reads and writes.
enum Binding {
    None,
    /// One evolving index shared by every pass of the test case: earlier
    /// (also rejected) passes seed and sharpen later ones.
    Live(RkrIndex),
    Snapshot(RkrIndex, IndexDelta),
}

impl Binding {
    fn access(&mut self) -> Option<IndexAccess<'_>> {
        match self {
            Binding::None => None,
            Binding::Live(index) => Some(IndexAccess::Live(index)),
            Binding::Snapshot(snapshot, delta) => Some(IndexAccess::Snapshot { snapshot, delta }),
        }
    }
}

/// Anchor thresholds: every completed ball with `d(a,q) > 0` / none.
const ANCHOR_ALL: u32 = 0;
const ANCHOR_NONE: u32 = u32::MAX;

/// The threshold `run_sds` passes.
fn anchor_above(k: u32) -> u32 {
    k * LADDER_GUESS_PER_K + 1
}

/// One unlimited pass under `guess`: its result (entries + the pass's
/// own counters) if the pass was accepted.
#[allow(clippy::too_many_arguments)]
fn pass(
    ctx: &EngineContext,
    scratch: &mut QueryScratch,
    q: NodeId,
    k: u32,
    guess: u32,
    anchor_above: u32,
    dynamic: Option<BoundConfig>,
    binding: &mut Binding,
) -> Option<QueryResult> {
    let (pendants, trace) = (true, None);
    ruled_pass(
        ctx,
        scratch,
        q,
        k,
        guess,
        anchor_above,
        pendants,
        dynamic,
        binding,
        trace,
    )
}

/// [`pass`] with the pendant rule allowed or not (`sds_pass` still runs it
/// only where it applies), traced into `trace` if one is given.
#[allow(clippy::too_many_arguments)]
fn ruled_pass(
    ctx: &EngineContext,
    scratch: &mut QueryScratch,
    q: NodeId,
    k: u32,
    guess: u32,
    anchor_above: u32,
    pendants: bool,
    dynamic: Option<BoundConfig>,
    binding: &mut Binding,
    trace: Option<&mut QueryTrace>,
) -> Option<QueryResult> {
    let limits = Limits::for_request(&QueryRequest::new(q, k));
    let mut stats = QueryStats::default();
    let mut access = binding.access();
    let (collector, tripped, anchor) = ctx.sds_pass(
        scratch,
        q,
        k,
        guess,
        anchor_above,
        pendants,
        dynamic,
        access.as_mut(),
        trace,
        &limits,
        &mut stats,
    );
    assert_eq!(tripped, None);
    assert!(
        access.is_none() || anchor.is_none(),
        "an indexed pass anchored"
    );
    assert!(anchor.is_some() || stats.anchored_refinements == 0);
    collector
        .proves_guess()
        .then(|| collector.into_result(stats))
}

/// Every guess from 0 past the largest possible rank, plus the unbounded
/// rung, against naive — for every query node `ctx` accepts, with no
/// anchor and (index-free passes only: an indexed one never anchors) with
/// every completed ball anchoring.
fn check_every_guess(
    ctx: &EngineContext,
    k: u32,
    dynamic: Option<BoundConfig>,
    binding: &mut Binding,
) -> std::result::Result<(), TestCaseError> {
    let n = ctx.graph().num_nodes();
    let mut scratch = ctx.new_scratch();
    for q in ctx.graph().nodes() {
        let naive = QueryRequest::new(q, k).with_strategy(Strategy::Naive);
        let Ok(truth) = ctx.execute(&mut scratch, &naive) else {
            continue; // bichromatic: q outside the query class
        };
        let truth = truth.result.ranks();
        // `None`: fewer than k candidates reach q, no finite guess holds.
        let k_rank = (truth.len() == k as usize).then(|| truth[truth.len() - 1]);
        let anchoring: &[u32] = match binding {
            Binding::None => &[ANCHOR_NONE, ANCHOR_ALL],
            _ => &[ANCHOR_NONE],
        };
        for guess in (0..=n + 1).chain([u32::MAX]) {
            for &above in anchoring {
                let got = pass(ctx, &mut scratch, q, k, guess, above, dynamic, binding);
                let got = got.map(|r| r.ranks());
                if guess == u32::MAX || k_rank.is_some_and(|kr| guess >= kr) {
                    prop_assert_eq!(
                        got.as_ref(),
                        Some(&truth),
                        "q={} k={} guess={} anchor>{} {:?}: a guess >= kRank {:?} must be accepted as naive's answer",
                        q, k, guess, above, dynamic, k_rank
                    );
                } else {
                    prop_assert!(
                        got.is_none(),
                        "q={q} k={k} guess={guess} anchor>{above} {dynamic:?}: accepted {got:?} below kRank {k_rank:?}"
                    );
                }
            }
        }
    }
    Ok(())
}

const UNINDEXED: [Option<BoundConfig>; 5] = [
    None, // static
    Some(BoundConfig::PARENT_ONLY),
    Some(BoundConfig::PARENT_HEIGHT),
    Some(BoundConfig::PARENT_COUNT),
    Some(BoundConfig::ALL),
];

fn check_context(ctx: &EngineContext, k: u32) -> std::result::Result<(), TestCaseError> {
    for dynamic in UNINDEXED {
        check_every_guess(ctx, k, dynamic, &mut Binding::None)?;
    }
    let all = Some(BoundConfig::ALL);
    let live = RkrIndex::empty(ctx.graph().num_nodes(), 64);
    check_every_guess(ctx, k, all, &mut Binding::Live(live))?;
    let (built, _) = ctx.build_index(&IndexParams {
        hub_fraction: 0.3,
        prefix_fraction: 0.5,
        k_max: 64,
        ..Default::default()
    });
    let delta = IndexDelta::for_index(&built);
    check_every_guess(ctx, k, all, &mut Binding::Snapshot(built, delta))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn undirected_guesses(g in arb_graph(false, 12, 14), k in 1u32..5) {
        check_context(&EngineContext::new(g), k)?;
    }

    #[test]
    fn directed_guesses(g in arb_graph(true, 11, 16), k in 1u32..5) {
        check_context(&EngineContext::new(g), k)?;
    }

    #[test]
    fn bichromatic_guesses(
        g in arb_graph(false, 12, 14),
        v2 in proptest::collection::vec(any::<bool>(), 12),
        k in 1u32..4,
    ) {
        let mask: Vec<bool> = v2.into_iter().take(g.num_nodes() as usize).collect();
        check_context(&EngineContext::bichromatic(g, Partition::from_v2_mask(mask)), k)?;
    }

    #[test]
    fn sharded_slice_guesses(g in arb_graph(false, 12, 14), k in 1u32..4, seed in any::<u64>()) {
        for slice in 0..2 {
            let ctx = EngineContext::new(&g).with_shard_slice(ShardSlice::new(slice, 2, seed));
            check_context(&ctx, k)?;
        }
    }
}

/// The ladder `execute_with` runs, and one whose rungs are `k`, `2k`,
/// `4k`, …: on 12 nodes a query climbs up to five of them.
const SHIPPED: (u32, u32) = (LADDER_GUESS_PER_K, LADDER_GROWTH);
const FINE: (u32, u32) = (1, 2);

/// The ladder as specified: how many passes a query with true `kRank`
/// `k_rank` (`None`: `R` can never fill) takes on `n` nodes under `ladder`,
/// and the guess the last one runs under — the first rung at or above
/// `k_rank`, or the unbounded one once a rung reaches `n`.
fn rungs((per_k, growth): (u32, u32), k: u32, n: u32, k_rank: Option<u32>) -> (u64, u32) {
    let (mut guess, mut passes) = (k * per_k, 1);
    while guess < n && k_rank.is_none_or(|kr| kr > guess) {
        guess = guess.saturating_mul(growth);
        passes += 1;
    }
    (passes, if guess >= n { u32::MAX } else { guess })
}

/// Every strategy on `FINE`, for every query node `ctx` accepts: naive's
/// ranks, reached by exactly `rungs` passes under strictly growing guesses
/// of which only the last is accepted. Indexed strategies run once on an
/// evolving live index and once on a frozen built snapshot.
fn check_fine_ladder(ctx: &EngineContext, k: u32) -> std::result::Result<(), TestCaseError> {
    let n = ctx.graph().num_nodes();
    let mut scratch = ctx.new_scratch();
    let (built, _) = ctx.build_index(&IndexParams {
        hub_fraction: 0.3,
        prefix_fraction: 0.5,
        k_max: 64,
        ..Default::default()
    });
    let mut truths = Vec::new();
    for q in ctx.graph().nodes() {
        let naive = QueryRequest::new(q, k).with_strategy(Strategy::Naive);
        if let Ok(truth) = ctx.execute(&mut scratch, &naive) {
            truths.push((q, truth.result.ranks()));
        }
    }
    for strategy in Strategy::ALL {
        let bindings = match strategy {
            Strategy::Naive => continue,
            Strategy::Indexed(_) => vec![
                Binding::Live(RkrIndex::empty(n, 64)),
                Binding::Snapshot(built.clone(), IndexDelta::for_index(&built)),
            ],
            _ => vec![Binding::None],
        };
        for mut binding in bindings {
            for (q, truth) in &truths {
                let k_rank = (truth.len() == k as usize).then(|| truth[truth.len() - 1]);
                let (passes, last_guess) = rungs(FINE, k, n, k_rank);
                let req = QueryRequest::new(*q, k)
                    .with_strategy(strategy)
                    .with_trace();
                let mut access = binding.access();
                let out = ctx
                    .execute_on_ladder(&mut scratch, access.as_mut(), &req, FINE)
                    .unwrap();
                let at = format!("q={q} k={k} {strategy} kRank={k_rank:?}");
                prop_assert!(out.is_complete(), "{at}");
                prop_assert_eq!(&out.result.ranks(), truth, "{}", at);
                let trace = out.trace.as_ref().unwrap();
                prop_assert_eq!(trace.passes.len() as u64, passes, "{}", at);
                prop_assert_eq!(out.stats().sds_passes, passes, "{}", at);
                prop_assert!(
                    trace.passes.windows(2).all(|w| w[0].guess < w[1].guess),
                    "{at}: {:?}",
                    trace.passes
                );
                let (last, rejected) = trace.passes.split_last().unwrap();
                prop_assert!(
                    last.accepted && rejected.iter().all(|p| !p.accepted),
                    "{at}"
                );
                prop_assert_eq!(last.guess, last_guess, "{}", at);
                prop_assert_eq!(out.stats().k_rank_guess, last.guess, "{}", at);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The four families of the every-guess properties above, climbing
    /// the fine ladder end to end.
    #[test]
    fn every_strategy_climbs_a_fine_ladder_to_naives_answer(
        undirected in arb_graph(false, 12, 14),
        directed in arb_graph(true, 11, 16),
        v2 in proptest::collection::vec(any::<bool>(), 12),
        seed in any::<u64>(),
        k in 1u32..5,
    ) {
        check_fine_ladder(&EngineContext::new(&undirected), k)?;
        check_fine_ladder(&EngineContext::new(directed), k)?;
        let mask: Vec<bool> = v2.into_iter().take(undirected.num_nodes() as usize).collect();
        let partition = Partition::from_v2_mask(mask);
        check_fine_ladder(&EngineContext::bichromatic(&undirected, partition), k)?;
        for slice in 0..2 {
            let slice = ShardSlice::new(slice, 2, seed);
            check_fine_ladder(&EngineContext::new(&undirected).with_shard_slice(slice), k)?;
        }
    }
}

/// A hub with `LEAVES` unit-weight leaves, a unit-weight tail of `TAIL`
/// nodes hanging off the hub, and `q` a leaf five times as far out. The
/// hub and every near leaf have the other near leaves and the first four
/// tail nodes closer than `q` and tie at rank `K_RANK`, the true `kRank`
/// for k up to `LEAVES`. `K_RANK` lies just below the first rung for
/// k = 17 (136), so that k takes one pass on any ladder, and far above
/// the first rung for k = 1 and 2, which climb.
///
/// The near leaves are pendants, so a dynamic pass ranks them all the
/// moment the hub's refinement completes (module docs, "Pendant leaves").
/// [`ringed_star_with_tail`] is its twin without pendant leaves.
const LEAVES: u32 = 130;
const TAIL: u32 = 200;
const K_RANK: u32 = LEAVES + 5;
const HUB: NodeId = NodeId(0);
const Q: NodeId = NodeId(LEAVES + 1);

fn star_with_tail() -> Graph {
    star_with_tail_builder().build().unwrap()
}

/// [`star_with_tail`] with a ring of weight 3 through the near leaves. Two
/// leaves are 2 apart through the hub, so the ring is on no shortest path
/// and every rank is unchanged, but no near leaf is a pendant: each one is
/// refined or pruned at its own pop, as in the static algorithm.
fn ringed_star_with_tail() -> Graph {
    let mut b = star_with_tail_builder();
    for leaf in 1..=LEAVES {
        b.add_edge(leaf, leaf % LEAVES + 1, 3.0).unwrap();
    }
    b.build().unwrap()
}

fn star_with_tail_builder() -> GraphBuilder {
    let mut b = GraphBuilder::new(EdgeDirection::Undirected);
    for leaf in 1..=LEAVES {
        b.add_edge(HUB.0, leaf, 1.0).unwrap();
    }
    b.add_edge(HUB.0, Q.0, 5.0).unwrap();
    let mut prev = HUB.0;
    for t in Q.0 + 1..=Q.0 + TAIL {
        b.add_edge(prev, t, 1.0).unwrap();
        prev = t;
    }
    b
}

#[test]
fn every_strategy_agrees_with_naive_on_either_rung() {
    let g = star_with_tail();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    // k = 1 and k = 2 climb to the first rung at or above K_RANK (or the
    // unbounded one); k = 17: the first guess, 136, holds.
    let mut seen = Vec::new();
    for k in [1, 2, 17] {
        let naive = ctx
            .execute(
                &mut scratch,
                &QueryRequest::new(Q, k).with_strategy(Strategy::Naive),
            )
            .unwrap();
        assert_eq!(naive.result.ranks(), vec![K_RANK; k as usize]);
        assert_eq!(naive.stats().sds_passes, 0, "naive has no ladder");
        let (passes, guess) = rungs(SHIPPED, k, g.num_nodes(), Some(K_RANK));
        seen.push((passes, guess));
        for strategy in Strategy::ALL {
            if strategy == Strategy::Naive {
                continue;
            }
            let mut index = RkrIndex::empty(g.num_nodes(), 32);
            let req = QueryRequest::new(Q, k).with_strategy(strategy);
            let out = ctx
                .execute_with(&mut scratch, Some(&mut IndexAccess::Live(&mut index)), &req)
                .unwrap();
            assert!(out.is_complete());
            assert_eq!(out.result.ranks(), naive.result.ranks(), "{strategy} k={k}");
            assert_eq!(out.stats().sds_passes, passes, "{strategy} k={k}");
            assert_eq!(out.stats().k_rank_guess, guess, "{strategy} k={k}");
            assert_eq!(out.stage.sds_passes, passes);
        }
    }
    assert_eq!(seen[2], (1, 17 * LADDER_GUESS_PER_K));
    for &(passes, guess) in &seen[..2] {
        assert!(passes > 1 && guess >= K_RANK, "{seen:?}");
    }
}

#[test]
fn too_few_reachable_candidates_end_on_the_unbounded_rung() {
    // Only 1 and 2 reach q = 0; the other 97 nodes make |V| large enough
    // for a finite guess, which `R` can never prove.
    let mut b = GraphBuilder::new(EdgeDirection::Directed);
    b.reserve_nodes(100);
    b.add_edge(1, 0, 1.0).unwrap();
    b.add_edge(2, 1, 1.0).unwrap();
    for v in 3..100 {
        b.add_edge(0, v, 1.0).unwrap();
    }
    let ctx = EngineContext::new(b.build().unwrap());
    let mut scratch = ctx.new_scratch();
    let (passes, _) = rungs(SHIPPED, 5, 100, None);
    assert!(passes > 1, "finite guesses run first");
    for strategy in [Strategy::Static, Strategy::Dynamic(BoundConfig::ALL)] {
        let req = QueryRequest::new(NodeId(0), 5).with_strategy(strategy);
        let out = ctx.execute(&mut scratch, &req).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.result.nodes(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(out.stats().sds_passes, passes, "{strategy}");
        assert_eq!(out.stats().k_rank_guess, u32::MAX, "{strategy}");
    }
    // A graph smaller than the first guess starts on the unbounded rung.
    let tiny = rkranks_graph::graph_from_edges(EdgeDirection::Directed, [(1, 0, 1.0), (2, 1, 1.0)]);
    let ctx = EngineContext::new(tiny.unwrap());
    let out = ctx
        .execute(&mut ctx.new_scratch(), &QueryRequest::new(NodeId(0), 5))
        .unwrap();
    assert_eq!(out.result.entries.len(), 2);
    assert_eq!(out.stats().sds_passes, 1);
    assert_eq!(out.stats().k_rank_guess, u32::MAX);
}

/// Limits are charged against the whole ladder: each rejected pass spends
/// one refinement (the hub, aborted under the guess), so for k = 1 a
/// budget of one refinement per pass trips *inside* the last pass, after
/// the hub's one completed refinement. The leaves are ringed: pendant
/// leaves would fill `R` from the hub's refinement alone.
#[test]
fn budget_trips_in_a_later_pass_with_exact_entries_and_the_real_bound() {
    let g = ringed_star_with_tail();
    let ranks = rank_matrix(&g);
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let (passes, _) = rungs(SHIPPED, 1, g.num_nodes(), Some(K_RANK));
    let req = QueryRequest::new(Q, 1)
        .with_refine_budget(passes)
        .with_trace();
    let out = ctx.execute(&mut scratch, &req).unwrap();
    assert!(passes > 1, "the budget must span passes");
    assert_eq!(out.stats().sds_passes, passes);
    assert_eq!(
        out.stats().refinement_calls,
        passes,
        "the budget spans passes"
    );
    assert_eq!(out.stats().k_rank_guess, 0, "no pass was accepted");
    assert_eq!(out.result.nodes(), vec![HUB]);
    for e in &out.result.entries {
        assert_eq!(Some(e.rank), ranks[e.node.index()][Q.index()], "{}", e.node);
    }
    // R is full (k = 1), so the bound is its real k-th rank — not the
    // guess the pass ran under, which nothing has proved.
    assert_eq!(
        out.completion,
        Completion::Partial {
            reason: PartialReason::RefineBudgetExhausted,
            k_rank_bound: K_RANK,
        }
    );
    let trace = out.trace.as_ref().unwrap();
    assert_eq!(trace.passes.len() as u64, passes);
    assert!(trace.passes.iter().all(|p| !p.accepted));

    // Tripping before R fills leaves the bound open, whatever the guess.
    let (passes, _) = rungs(SHIPPED, 2, g.num_nodes(), Some(K_RANK));
    let req = QueryRequest::new(Q, 2).with_refine_budget(passes);
    let out = ctx.execute(&mut scratch, &req).unwrap();
    assert_eq!(out.stats().sds_passes, passes);
    assert_eq!(out.result.nodes(), vec![HUB]);
    assert_eq!(
        out.completion,
        Completion::Partial {
            reason: PartialReason::RefineBudgetExhausted,
            k_rank_bound: u32::MAX,
        }
    );
}

#[test]
fn tracing_changes_neither_the_answer_nor_the_counters() {
    let g = star_with_tail();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    for strategy in [Strategy::Static, Strategy::Dynamic(BoundConfig::ALL)] {
        let req = QueryRequest::new(Q, 2).with_strategy(strategy);
        let plain = ctx.execute(&mut scratch, &req).unwrap();
        let traced = ctx.execute(&mut scratch, &req.with_trace()).unwrap();
        assert_eq!(plain.result.entries, traced.result.entries);
        let counters = |s: &QueryStats| {
            (
                s.sds_passes,
                s.k_rank_guess,
                s.sds_popped,
                s.refinement_calls,
                s.refinements_pruned,
                s.refinement_settles,
                s.refinement_pushes,
                s.refinement_requeues,
                s.anchored_refinements,
                s.pendant_offers,
                s.pruned_by_bound,
            )
        };
        assert_eq!(counters(plain.stats()), counters(traced.stats()));

        // One summary per pass, which together account for every
        // refinement; only the last is accepted, and `events` is its alone.
        let trace = traced.trace.unwrap();
        let stats = &traced.result.stats;
        assert_eq!(trace.passes.len() as u64, stats.sds_passes);
        let (last, rejected) = trace.passes.split_last().unwrap();
        assert!(last.accepted && rejected.iter().all(|p| !p.accepted));
        assert_eq!(last.guess, stats.k_rank_guess);
        assert_eq!(last.k_rank, K_RANK);
        assert_eq!(
            trace.passes.iter().map(|p| p.refinements).sum::<u64>(),
            stats.refinement_calls
        );
        assert_eq!(
            trace.passes.iter().map(|p| p.settles).sum::<u64>(),
            stats.refinement_settles
        );
        assert_eq!(
            trace.passes.iter().map(|p| p.pushes).sum::<u64>(),
            stats.refinement_pushes
        );
        assert_eq!(
            trace.passes.iter().map(|p| p.requeues).sum::<u64>(),
            stats.refinement_requeues
        );
        assert_eq!(
            trace.passes.iter().map(|p| p.anchored).sum::<u64>(),
            stats.anchored_refinements
        );
        assert_eq!(
            trace.passes.iter().map(|p| p.pendants).sum::<u64>(),
            stats.pendant_offers
        );
        assert_eq!(trace.refined_nodes().len() as u64, last.refinements);
        assert!(trace.render(None).starts_with("pass 1 guess "));
    }
}

/// One hub with `SPOKES` spokes of slowly growing weight, `q` the middle
/// one, and a few chords among the spokes: short ones that put an
/// *outside* spoke strictly within `d(p,q)` of its partner by a
/// hub-avoiding path, and one between two inside spokes. Every candidate
/// ranks about `SPOKES / 2`, far beyond the first guess for `k = 2`, so
/// the ladder climbs; every rejected rung aborts the hub, and the accepted
/// one refines the hub, then every spoke through it. Heavy chords (3)
/// join every spoke but `q` to another: two spokes are under 2.6 apart
/// through the hub, so no chord is on a shortest path, but no spoke is a
/// pendant that the hub's refinement would rank on the spot (module docs,
/// "Pendant leaves"). `q` keeps the hub as its only neighbour, so a pass
/// that prunes the hub reaches nothing else.
const SPOKES: u32 = 300;
const SPOKE_Q: NodeId = NodeId(SPOKES / 2);

fn hub_and_spokes() -> Graph {
    let mut b = GraphBuilder::new(EdgeDirection::Undirected);
    for spoke in 1..=SPOKES {
        b.add_edge(0, spoke, 1.0 + f64::from(spoke) / 1024.0)
            .unwrap();
    }
    for spoke in 1..SPOKE_Q.0 {
        b.add_edge(spoke, spoke + SPOKE_Q.0, 3.0).unwrap();
    }
    b.add_edge(SPOKES, 1, 3.0).unwrap();
    for (u, v, w) in [
        (200, 250, 0.5),
        (10, 260, 0.25),
        (270, 271, 0.125),
        (20, 30, 0.5),
    ] {
        b.add_edge(u, v, w).unwrap();
    }
    b.build().unwrap()
}

/// The host-independent work guard: below a frozen hub, refinements stop
/// re-pushing the hub's row.
#[test]
fn anchoring_halves_the_pushes_of_a_hub_bound_pass_and_changes_no_rank() {
    let g = hub_and_spokes();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let k = 2;
    let naive = QueryRequest::new(SPOKE_Q, k).with_strategy(Strategy::Naive);
    let naive = ctx.execute(&mut scratch, &naive).unwrap().result;
    let k_rank = naive.ranks().last().copied();
    let (passes, _) = rungs(SHIPPED, k, g.num_nodes(), k_rank);
    assert!(passes > 1, "the first rung cannot hold the hub's ball");
    for dynamic in [None, Some(BoundConfig::ALL)] {
        let served = QueryRequest::new(SPOKE_Q, k).with_strategy(match dynamic {
            None => Strategy::Static,
            Some(b) => Strategy::Dynamic(b),
        });
        let served = ctx.execute(&mut scratch, &served.with_trace()).unwrap();
        assert_eq!(served.result.ranks(), naive.ranks(), "{dynamic:?}");
        assert_eq!(served.stats().sds_passes, passes);
        assert!(served.stats().anchored_refinements > 0);
        let last = *served.trace.as_ref().unwrap().passes.last().unwrap();
        let ball = last.anchor.expect("the accepted rung freezes the hub");
        assert_eq!(ball, (NodeId(0), SPOKE_Q.0), "hub + the spokes before q");
        assert_eq!(last.anchored, served.stats().anchored_refinements);

        let mut run = |above| {
            let none = &mut Binding::None;
            pass(
                &ctx,
                &mut scratch,
                SPOKE_Q,
                k,
                last.guess,
                above,
                dynamic,
                none,
            )
            .unwrap()
        };
        let (anchored, plain) = (run(anchor_above(k)), run(ANCHOR_NONE));
        assert_eq!(anchored.ranks(), naive.ranks());
        assert_eq!(plain.ranks(), naive.ranks());
        assert_eq!(anchored.stats.refinement_pushes, last.pushes);
        assert_eq!(plain.stats.anchored_refinements, 0);
        // The guard is Algorithm 1's, which refines every spoke; on this
        // fixture Theorem 2's parent bound prunes them all once `R` is
        // full, and anchoring only spares the second entry the hub's row.
        let (anchored, plain) = (
            anchored.stats.refinement_pushes,
            plain.stats.refinement_pushes,
        );
        let factor = if dynamic.is_none() { 2 } else { 1 };
        assert!(
            factor * anchored <= plain,
            "{dynamic:?}: {anchored} pushes anchored, {plain} plain"
        );
    }
}

/// The median query cannot move: a pass the first rung accepts never sees
/// a ball big enough to anchor, so it does the same work instruction for
/// instruction with the rule on and off.
#[test]
fn first_rung_queries_do_identical_work_with_and_without_the_rule() {
    use rkranks_datasets::{dblp_like, Scale};
    let g = dblp_like(Scale::Small, 42);
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let (k, dynamic) = (10, Some(BoundConfig::ALL));
    let guess = k * LADDER_GUESS_PER_K;
    let (mut first_rung, mut later) = (0, 0);
    for q in g.nodes() {
        let none = &mut Binding::None;
        let Some(on) = pass(
            &ctx,
            &mut scratch,
            q,
            k,
            guess,
            anchor_above(k),
            dynamic,
            none,
        ) else {
            later += 1;
            continue;
        };
        let off = pass(&ctx, &mut scratch, q, k, guess, ANCHOR_NONE, dynamic, none).unwrap();
        first_rung += 1;
        let work = |s: &QueryStats| {
            (
                s.refinement_calls,
                s.refinement_settles,
                s.refinement_pushes,
                s.anchored_refinements,
            )
        };
        assert_eq!(work(&on.stats), work(&off.stats), "q={q}");
        assert_eq!(on.stats.anchored_refinements, 0, "q={q}");
        assert_eq!(on.entries, off.entries, "q={q}");
    }
    assert!(first_rung > later && later > 0, "{first_rung} / {later}");
}

/// Algorithm 4's offers need the complete ordered enumeration, so a pass
/// with an index binding never anchors — even with the threshold at 0 —
/// and leaves the index exactly as it would without the rule.
#[test]
fn an_indexed_pass_never_anchors_and_writes_the_same_index() {
    let g = hub_and_spokes();
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let all = Some(BoundConfig::ALL);
    let mut run = |binding: &mut Binding, above| {
        let got = pass(
            &ctx,
            &mut scratch,
            SPOKE_Q,
            2,
            u32::MAX,
            above,
            all,
            binding,
        )
        .unwrap();
        assert_eq!(got.stats.anchored_refinements, 0);
        got.stats.refinement_pushes
    };

    let bytes = |index: &RkrIndex| {
        let mut out = Vec::new();
        crate::index_io::write_index(index, &mut out).unwrap();
        out
    };

    let live = || Binding::Live(RkrIndex::empty(g.num_nodes(), 16));
    let (mut on, mut off) = (live(), live());
    assert_eq!(run(&mut on, ANCHOR_ALL), run(&mut off, ANCHOR_NONE));
    let (Binding::Live(on), Binding::Live(off)) = (on, off) else {
        unreachable!()
    };
    assert!(on.rrd_entries() > 0);
    assert_eq!(bytes(&on), bytes(&off));

    let (built, _) = ctx.build_index(&IndexParams {
        hub_fraction: 0.01,
        prefix_fraction: 0.1,
        k_max: 16,
        ..Default::default()
    });
    let snapshot = || Binding::Snapshot(built.clone(), IndexDelta::for_index(&built));
    let (mut on, mut off) = (snapshot(), snapshot());
    assert_eq!(run(&mut on, ANCHOR_ALL), run(&mut off, ANCHOR_NONE));
    let (Binding::Snapshot(_, on), Binding::Snapshot(_, off)) = (on, off) else {
        unreachable!()
    };
    assert!(!on.is_empty());
    assert_eq!(on.len(), off.len());
    let merged = |delta: &IndexDelta| {
        let mut index = built.clone();
        index.merge_delta(delta);
        bytes(&index)
    };
    assert_eq!(merged(&on), merged(&off));
}

/// A refine budget that trips among anchored refinements returns what a
/// tripped budget always returns: exact entries and the collector's real
/// k-th rank.
#[test]
fn budget_tripping_inside_an_anchored_stretch_keeps_entries_exact() {
    let g = hub_and_spokes();
    let ranks = rank_matrix(&g);
    let ctx = EngineContext::new(&g);
    let mut scratch = ctx.new_scratch();
    let naive = QueryRequest::new(SPOKE_Q, 2).with_strategy(Strategy::Naive);
    let k_rank = *ctx
        .execute(&mut scratch, &naive)
        .unwrap()
        .result
        .ranks()
        .last()
        .unwrap();
    // Each rejected pass spends one refinement (the hub, aborted under the
    // guess); the accepted pass refines the hub, then spokes from its ball
    // until the budget runs out.
    let (passes, _) = rungs(SHIPPED, 2, g.num_nodes(), Some(k_rank));
    let req = QueryRequest::new(SPOKE_Q, 2)
        .with_strategy(Strategy::Static)
        .with_refine_budget(40);
    let out = ctx.execute(&mut scratch, &req).unwrap();
    assert_eq!(out.stats().sds_passes, passes);
    assert_eq!(out.stats().refinement_calls, 40);
    assert_eq!(out.stats().anchored_refinements, 40 - passes);
    assert_eq!(out.result.entries.len(), 2);
    for e in &out.result.entries {
        assert_eq!(
            Some(e.rank),
            ranks[e.node.index()][SPOKE_Q.index()],
            "{}",
            e.node
        );
    }
    let Completion::Partial {
        reason: PartialReason::RefineBudgetExhausted,
        k_rank_bound,
    } = out.completion
    else {
        panic!("expected a tripped budget, got {:?}", out.completion);
    };
    assert_eq!(k_rank_bound, out.result.entries[1].rank);
    assert!(k_rank_bound >= k_rank, "{k_rank_bound} bounds {k_rank}");
}

// Pendant leaves (module docs): a degree-1 candidate takes its neighbour's
// rank the moment the neighbour's refinement completes.

const DYNAMIC_THREE: Strategy = Strategy::Dynamic(BoundConfig::ALL);

/// Every `Strategy::ALL` member (the indexed ones on a fresh live index)
/// answers `q` with naive's ranks, and every entry's rank is `rank_matrix`'s
/// `Rank(p, q)` (monochromatic contexts; a bichromatic one is held to naive
/// alone). Returns `dynamic-three`'s traced outcome.
fn agrees_with_the_matrix(ctx: &EngineContext, q: NodeId, k: u32) -> QueryOutcome {
    let g = ctx.graph();
    let matrix = (!ctx.spec().is_bichromatic()).then(|| rank_matrix(g));
    let mut scratch = ctx.new_scratch();
    let naive = QueryRequest::new(q, k).with_strategy(Strategy::Naive);
    let naive = ctx.execute(&mut scratch, &naive).unwrap().result.ranks();
    for strategy in Strategy::ALL {
        let mut index = RkrIndex::empty(g.num_nodes(), 16);
        let mut access = strategy
            .needs_index()
            .then_some(IndexAccess::Live(&mut index));
        let req = QueryRequest::new(q, k).with_strategy(strategy);
        let out = ctx
            .execute_with(&mut scratch, access.as_mut(), &req)
            .unwrap();
        assert_eq!(out.result.ranks(), naive, "{strategy} q={q} k={k}");
        let Some(matrix) = &matrix else { continue };
        for e in &out.result.entries {
            let truth = matrix[e.node.index()][q.index()];
            assert_eq!(Some(e.rank), truth, "{strategy}: {}", e.node);
        }
    }
    let req = QueryRequest::new(q, k)
        .with_strategy(DYNAMIC_THREE)
        .with_trace();
    ctx.execute(&mut scratch, &req).unwrap()
}

/// The accepted pass's decision for `node`.
fn decision(out: &QueryOutcome, node: u32) -> PopDecision {
    let events = &out.trace.as_ref().unwrap().events;
    let event = events.iter().find(|e| e.node == NodeId(node));
    event
        .unwrap_or_else(|| panic!("{node} never popped: {events:?}"))
        .decision
}

/// The rank `node` has in `out`'s answer.
fn rank_in(out: &QueryOutcome, node: u32) -> u32 {
    let entries = &out.result.entries;
    let entry = entries.iter().find(|e| e.node == NodeId(node));
    entry
        .unwrap_or_else(|| panic!("{node} not in {entries:?}"))
        .rank
}

/// `q –0– u –1– t`: `d(u,q) = 0`, so `u` is not strictly closer to `t` than
/// `q` is, and `t` ranks `q` first, as `u` does. Crediting `u` anyway (the
/// `d > 0` guard dropped) ranks `t` second.
#[test]
fn a_pendant_of_a_node_at_distance_zero_takes_its_rank_unchanged() {
    let g = rkranks_graph::graph_from_edges(
        EdgeDirection::Undirected,
        [(0, 1, 0.0), (1, 2, 1.0), (0, 3, 2.0), (3, 4, 2.0)],
    )
    .unwrap();
    let ctx = EngineContext::new(&g);
    // k = 4: every candidate is in the answer, `t` included.
    let out = agrees_with_the_matrix(&ctx, NodeId(0), 4);
    let via = NodeId(1);
    assert_eq!(decision(&out, 2), PopDecision::Pendant { via, rank: 1 });
    assert_eq!(rank_in(&out, 2), 1);
    assert_eq!(rank_in(&out, 1), 1);
}

/// `u` at `d(u,q) = 2` with two pendants: `t1` at weight 1 lies in `S(u)`
/// and leaves the count, `t2` at weight 3 ≥ 2 never was in it. Dropping
/// the `w < d` test ranks `t2` one too low; dropping the whole term ranks
/// `t1` one too high.
#[test]
fn a_pendant_leaves_its_neighbours_count_only_if_it_was_in_it() {
    let g = rkranks_graph::graph_from_edges(
        EdgeDirection::Undirected,
        [
            (0, 1, 2.0),
            (1, 2, 1.0),
            (1, 3, 3.0),
            (0, 4, 1.0),
            (4, 5, 1.0),
        ],
    )
    .unwrap();
    let ctx = EngineContext::new(&g);
    let out = agrees_with_the_matrix(&ctx, NodeId(0), 5);
    let via = NodeId(1);
    assert_eq!(rank_in(&out, 1), 2, "t1 is closer to u than q is");
    assert_eq!(decision(&out, 2), PopDecision::Pendant { via, rank: 2 });
    assert_eq!(decision(&out, 3), PopDecision::Pendant { via, rank: 3 });
    assert_eq!(out.stats().pendant_offers, 3, "t1, t2 and 5");
}

/// `q`'s own pendants rank it first, and nothing refines them.
#[test]
fn the_query_nodes_own_pendants_rank_it_first() {
    let g = rkranks_graph::graph_from_edges(
        EdgeDirection::Undirected,
        [
            (0, 1, 1.0),
            (0, 2, 2.0),
            (0, 3, 3.0),
            (0, 4, 0.5),
            (4, 5, 0.5),
            (5, 0, 2.0),
        ],
    )
    .unwrap();
    let ctx = EngineContext::new(&g);
    let out = agrees_with_the_matrix(&ctx, NodeId(0), 5);
    for t in 1..=3 {
        let via = NodeId(0);
        assert_eq!(decision(&out, t), PopDecision::Pendant { via, rank: 1 });
        assert_eq!(rank_in(&out, t), 1);
    }
    assert!(!out
        .trace
        .as_ref()
        .unwrap()
        .refined_nodes()
        .contains(&NodeId(1)));
    assert_eq!(out.stats().pendant_offers, 3);
}

/// Bichromatic: only a candidate (uncounted) `u` is refined, so only its
/// pendants are offered, and only candidate pendants: a counted pendant is
/// a conduit that stays in `u`'s count, and a candidate pendant of a
/// counted `u` is refined at its own pop.
#[test]
fn bichromatic_pendants_follow_the_counted_terms() {
    // q = 0 counted; u1 = 1 a candidate with a candidate pendant 2 and a
    // counted pendant 3; u2 = 4 counted with a candidate pendant 5; 6
    // counted with a candidate pendant 7, further out.
    let g = rkranks_graph::graph_from_edges(
        EdgeDirection::Undirected,
        [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (1, 3, 0.5),
            (0, 4, 1.0),
            (4, 5, 1.0),
            (0, 6, 3.0),
            (6, 7, 1.0),
        ],
    )
    .unwrap();
    let v2 = [true, false, false, true, true, false, true, false];
    let ctx = EngineContext::bichromatic(&g, Partition::from_v2_mask(v2.to_vec()));
    let out = agrees_with_the_matrix(&ctx, NodeId(0), 4);
    // Rank(1, q) counts 3 (0.5 < 1); so does Rank(2, q) (1.5 < 2), and 1
    // itself is not counted.
    assert_eq!(rank_in(&out, 1), 2);
    let via = NodeId(1);
    assert_eq!(decision(&out, 2), PopDecision::Pendant { via, rank: 2 });
    assert!(matches!(decision(&out, 3), PopDecision::Conduit { .. }));
    // Rank(5, q): 4 is counted and 1 < 2.
    assert!(matches!(
        decision(&out, 5),
        PopDecision::Refined { rank: 2, .. }
    ));
    assert_eq!(rank_in(&out, 5), 2);
    assert_eq!(out.stats().pendant_offers, 1);
}

/// A shard that owns `u` but not its pendant `t` keeps `t` a conduit: it
/// is neither offered nor returned, and the slices still merge to the
/// whole answer.
#[test]
fn a_pendant_another_shard_owns_stays_a_conduit() {
    let g = rkranks_graph::graph_from_edges(
        EdgeDirection::Undirected,
        [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 3, 1.0),
            (3, 4, 1.0),
            (4, 0, 1.5),
        ],
    )
    .unwrap();
    let (q, u, t, k) = (NodeId(0), NodeId(1), NodeId(2), 4);
    let seed = (0..)
        .find(|&s| {
            let slice = ShardSlice::new(0, 2, s);
            slice.owns(u) && !slice.owns(t)
        })
        .unwrap();
    let whole = agrees_with_the_matrix(&EngineContext::new(&g), q, k);
    assert_eq!(
        decision(&whole, 2),
        PopDecision::Pendant { via: u, rank: 2 }
    );
    let mut merged = Vec::new();
    for i in 0..2 {
        let ctx = EngineContext::new(&g).with_shard_slice(ShardSlice::new(i, 2, seed));
        let out = agrees_with_the_matrix(&ctx, q, k);
        if i == 0 {
            assert!(matches!(decision(&out, 2), PopDecision::Conduit { .. }));
            assert!(!out.result.contains(t));
            assert_eq!(out.stats().pendant_offers, 0);
        }
        merged.extend(out.result.ranks());
    }
    merged.sort_unstable();
    merged.truncate(k as usize);
    assert_eq!(merged, whole.result.ranks());
}

/// Where the rule does not apply — the static algorithm, a pass with an
/// index binding, a directed graph — a pass allowed the rule does exactly
/// the work of one that is not, and offers nothing. The dynamic pass on the
/// same undirected fixture shows the two paths do differ where it applies.
#[test]
fn static_indexed_and_directed_passes_do_the_rule_off_work() {
    let undirected = star_with_tail();
    let directed = {
        let mut b = GraphBuilder::new(EdgeDirection::Directed);
        for u in undirected.nodes() {
            for (v, w) in undirected.edges(u) {
                b.add_edge(u.0, v.0, rkranks_graph::to_real(w)).unwrap();
            }
        }
        b.build().unwrap()
    };
    assert!(directed.is_directed() && directed.degree(NodeId(1)) == 1);
    let work = |s: &QueryStats| {
        (
            s.sds_popped,
            s.sds_relaxations,
            s.refinement_calls,
            s.refinements_pruned,
            s.refinement_settles,
            s.refinement_pushes,
            s.anchored_refinements,
            s.pruned_by_bound,
            s.index_exact_hits,
            s.pendant_offers,
        )
    };
    let k = 17;
    let run = |ctx: &EngineContext, dynamic, live: bool, pendants| {
        let mut binding = match live {
            true => Binding::Live(RkrIndex::empty(ctx.graph().num_nodes(), 32)),
            false => Binding::None,
        };
        let mut scratch = ctx.new_scratch();
        let (guess, above) = (u32::MAX, anchor_above(k));
        ruled_pass(
            ctx,
            &mut scratch,
            Q,
            k,
            guess,
            above,
            pendants,
            dynamic,
            &mut binding,
            None,
        )
        .unwrap()
    };
    let all = Some(BoundConfig::ALL);
    let (u, d) = (
        EngineContext::new(&undirected),
        EngineContext::new(&directed),
    );
    for (ctx, dynamic, live, what) in [
        (&u, None, false, "static"),
        (&u, all, true, "indexed-three"),
        (&d, None, false, "directed static"),
        (&d, all, false, "directed dynamic-three"),
        (&d, all, true, "directed indexed-three"),
    ] {
        let (on, off) = (
            run(ctx, dynamic, live, true),
            run(ctx, dynamic, live, false),
        );
        assert_eq!(work(&on.stats), work(&off.stats), "{what}");
        assert_eq!(on.stats.pendant_offers, 0, "{what}");
        assert_eq!(on.entries, off.entries, "{what}");
    }
    let (on, off) = (run(&u, all, false, true), run(&u, all, false, false));
    assert_eq!(on.ranks(), off.ranks());
    assert_eq!(on.stats.pendant_offers, u64::from(LEAVES));
    assert!(on.stats.refinement_calls < off.stats.refinement_calls);
    assert_eq!(off.stats.pendant_offers, 0);

    // Through `execute` too: the ladder offers nothing for these strategies.
    let mut scratch = u.new_scratch();
    let mut index = RkrIndex::empty(undirected.num_nodes(), 32);
    let indexed = QueryRequest::new(Q, k).with_strategy(Strategy::Indexed(BoundConfig::ALL));
    let indexed = u.execute_with(
        &mut scratch,
        Some(&mut IndexAccess::Live(&mut index)),
        &indexed,
    );
    let fixed = QueryRequest::new(Q, k).with_strategy(Strategy::Static);
    let fixed = u.execute(&mut scratch, &fixed).unwrap();
    let across = d.execute(&mut scratch, &QueryRequest::new(Q, k)).unwrap();
    for out in [indexed.unwrap(), fixed, across] {
        assert_eq!(out.stats().pendant_offers, 0);
    }
}
