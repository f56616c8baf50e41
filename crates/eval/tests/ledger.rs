//! The exact work ledger: every counter a query reports, summed over a
//! fixed node list per leg, checked against `ledger.txt` line for line.
//!
//! Time is noisy; these counters are not. A change that claims to leave
//! the engine's work alone must leave this file byte-identical, and a
//! change that moves a counter shows which one, on which leg, by how much.
//! Each line is one leg: a graph, a strategy and `k`, over nodes drawn
//! with [`random_queries`] at the benchmark's fixture seed. The last field
//! is a digest of the answers' rank multisets.
//!
//! On a difference the test prints the regenerated file; a change that
//! moves a counter on purpose replaces `ledger.txt` with it and says why.

use rkranks_core::{
    BoundConfig, BoundSource, EngineContext, IndexAccess, IndexParams, Partition, QueryRequest,
    QueryStats, Strategy,
};
use rkranks_datasets::{dblp_like, epinions_like, sf_like, Scale};
use rkranks_eval::workload::random_queries;

/// Seed of every fixture graph and of the node lists.
const SEED: u64 = 42;
/// Query nodes per leg.
const QUERIES: usize = 60;

/// One leg's line: the summed counters and the answers' digest.
fn line(name: &str, ctx: &EngineContext, strategy: Strategy, k: u32) -> String {
    let g = ctx.graph();
    let queries = random_queries(g, QUERIES, SEED, |q| {
        ctx.partition().is_none_or(|part| part.is_v2(q))
    });
    let mut index = strategy.needs_index().then(|| {
        let params = IndexParams {
            k_max: 50,
            ..IndexParams::default()
        };
        ctx.build_index(&params).0
    });
    let mut scratch = ctx.new_scratch();
    let mut total = QueryStats::default();
    // FNV-1a over each answer's ranks, one separator per answer.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for q in queries {
        let req = QueryRequest::new(q, k).with_strategy(strategy);
        let mut access = index.as_mut().map(IndexAccess::Live);
        let out = ctx
            .execute_with(&mut scratch, access.as_mut(), &req)
            .unwrap();
        total.absorb(out.stats());
        for word in out.result.ranks().into_iter().chain([u32::MAX]) {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let s = &total;
    let [parent, height, count, check] = BoundSource::ALL.map(|source| s.pops.wins(source));
    format!(
        "{name} {strategy} k={k}: popped {} relaxations {} bound_pruned {} index_hits {} \
         wins {}/{}/{}/{} refinements {} refinements_pruned {} settles {} pushes {} \
         requeues {} anchored {} pendants {} passes {} ranks {digest:016x}",
        s.sds_popped(),
        s.sds_relaxations,
        s.pruned_by_bound(),
        s.index_exact_hits(),
        parent,
        height,
        count,
        check,
        s.refinement_calls,
        s.refinements_pruned,
        s.refinement_settles,
        s.refinement_pushes,
        s.refinement_requeues,
        s.anchored_refinements,
        s.pendant_offers,
        s.sds_passes,
    )
}

fn ledger() -> String {
    let dblp = EngineContext::new(dblp_like(Scale::Small, SEED));
    let three = Strategy::Dynamic(BoundConfig::ALL);
    let mut lines: Vec<String> = [
        Strategy::Static,
        Strategy::Dynamic(BoundConfig::PARENT_ONLY),
        Strategy::Dynamic(BoundConfig::PARENT_HEIGHT),
        Strategy::Dynamic(BoundConfig::PARENT_COUNT),
        three,
        Strategy::Indexed(BoundConfig::ALL),
    ]
    .into_iter()
    .map(|s| line("dblp_like", &dblp, s, 10))
    .collect();
    lines.push(line("dblp_like", &dblp, three, 50));
    let epinions = EngineContext::new(epinions_like(Scale::Small, SEED));
    lines.push(line("epinions_like", &epinions, three, 10));
    let net = sf_like(Scale::Small, SEED);
    let stores = EngineContext::bichromatic(net.graph, Partition::from_v2_mask(net.is_store));
    lines.push(line("sf_like stores", &stores, three, 10));
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn every_counter_matches_the_ledger() {
    let want = include_str!("ledger.txt");
    let got = ledger();
    if got != want {
        eprintln!("--- regenerated ledger.txt ---\n{got}--- end ---");
        for (g, w) in got.lines().zip(want.lines()).filter(|(g, w)| g != w) {
            eprintln!("was: {w}\nnow: {g}");
        }
        panic!("the work ledger moved (regenerated file above)");
    }
}
