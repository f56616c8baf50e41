//! `engine_cold`: the paper's §4 hot path with nothing else in the way.
//!
//! In-process `EngineContext::execute`, `dynamic-three`, one scratch,
//! every read a distinct node. `core` filter + refine and `graph`
//! traversal do all the work; `server` and `coord` do none.

use std::sync::Arc;
use std::time::Instant;

use rkranks_core::{results_equivalent, EngineContext, QueryRequest, QueryResult, Strategy};
use rkranks_graph::dijkstra::DijkstraWorkspace;
use rkranks_graph::{rank_between, NodeId};

use crate::rep::{peak_rss_mb, sample_indices, Rep};
use crate::script::{fixture, Params, Script, K};
use crate::trace::Recorder;

/// Answers re-checked per repetition.
const CHECK_SAMPLE: usize = 4;

pub fn run(
    p: &Params,
    seed: u64,
    started: Instant,
    mut rec: Option<&mut Recorder>,
) -> Result<Rep, String> {
    let graph = Arc::new(fixture(p.scale));
    let script = Script::build(p, &graph, seed);
    let ctx = EngineContext::new(Arc::clone(&graph));
    let mut scratch = ctx.new_scratch();
    let mut rep = Rep {
        script_hash: format!("{:016x}", script.hash()),
        ..Rep::default()
    };
    for &q in &script.warmup {
        let out = ctx.execute(&mut scratch, &QueryRequest::new(NodeId(q), K));
        rep.phases[0].op(out.is_ok_and(|o| o.is_complete()));
    }
    let nodes: Vec<u32> = script.reads().collect();
    let sample = sample_indices(nodes.len(), CHECK_SAMPLE, seed);
    let mut kept: Vec<(u32, QueryResult)> = Vec::with_capacity(sample.len());
    let mut latencies = Vec::with_capacity(nodes.len());
    let (mut filter_ns, mut refine_ns) = (0u64, 0u64);
    let (mut refine_calls, mut pruned, mut settles) = (0u64, 0u64, 0u64);

    rep.setup_s = started.elapsed().as_secs_f64();
    let script_start = Instant::now();
    for (i, &q) in nodes.iter().enumerate() {
        let req = QueryRequest::new(NodeId(q), K);
        let start = Instant::now();
        let out = ctx.execute(&mut scratch, &req);
        let end = Instant::now();
        latencies.push((end - start).as_nanos() as u64);
        let Ok(out) = out else {
            rep.phases[1].op(false);
            continue;
        };
        rep.phases[1].op(out.is_complete());
        let (filter, refine) = (
            out.stage.filter.as_nanos() as u64,
            out.stage.refine.as_nanos() as u64,
        );
        filter_ns += filter;
        refine_ns += refine;
        refine_calls += out.stage.refine_calls;
        pruned += out.stage.candidates_pruned;
        settles += out.stats().refinement_settles;
        if let Some(rec) = rec.as_deref_mut() {
            // The stage split comes back as two totals, not as intervals
            // (filter and refine interleave), so the children are laid
            // end to end inside the parent: durations exact, positions
            // synthesised.
            let request = i as u32 + 1;
            let s = rec.at(start);
            let parent = rec.push(0, request, "engine.execute", s, rec.at(end));
            rec.push(parent, request, "core.filter", s, s + filter);
            rec.push(
                parent,
                request,
                "core.refine",
                s + filter,
                s + filter + refine,
            );
        }
        if sample.binary_search(&i).is_ok() {
            kept.push((q, out.result));
        }
    }
    let script_s = script_start.elapsed().as_secs_f64();
    rep.peak_rss_mb = peak_rss_mb();
    let reads_ok = rep.phases[1].ok;
    rep.set_latencies(latencies, script_s, reads_ok);
    rep.counters = vec![
        ("refine_calls".into(), refine_calls),
        ("candidates_pruned".into(), pruned),
        ("refinement_settles".into(), settles),
    ];
    if rec.is_some() {
        let n = nodes.len() as f64;
        rep.layers = vec![
            ("core.filter_ms".into(), filter_ns as f64 / 1e6 / n),
            ("core.refine_ms".into(), refine_ns as f64 / 1e6 / n),
            ("core.refine_calls".into(), refine_calls as f64 / n),
            ("core.candidates_pruned".into(), pruned as f64 / n),
            ("core.refine_settles".into(), settles as f64 / n),
            (
                "core.prune_ratio".into(),
                pruned as f64 / (pruned + refine_calls).max(1) as f64,
            ),
        ];
    }

    // Outside the timed script: the paper's Algorithm 1 (static SDS-tree)
    // must agree on the sampled answers, and every returned rank must be
    // the exact `Rank(u, q)` a plain Dijkstra from `u` counts. (`naive`
    // is the reference on small graphs; at 25k nodes it takes 20–29 s a
    // query.)
    let mut ws = DijkstraWorkspace::new(graph.num_nodes());
    for (q, answer) in &kept {
        let reference = ctx.execute(
            &mut scratch,
            &QueryRequest::new(NodeId(*q), K).with_strategy(Strategy::Static),
        );
        let agrees = reference.is_ok_and(|r| results_equivalent(answer, &r.result));
        let exact = answer
            .entries
            .iter()
            .all(|e| rank_between(&graph, &mut ws, e.node, NodeId(*q)) == Some(e.rank));
        rep.phases[2].check(agrees && exact);
    }
    Ok(rep)
}
