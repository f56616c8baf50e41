//! Table 14: index quality as it absorbs queries.
//!
//! A fixed stream of queries is split into `n` equal segments; the index is
//! re-initialized at each segment boundary. Fewer resets = more accumulated
//! knowledge = fewer refinements and faster queries.

use std::sync::Arc;

use rkranks_core::{BoundConfig, IndexParams, QueryEngine};
use rkranks_datasets::{dblp_like, epinions_like};
use rkranks_graph::Graph;

use crate::experiments::DEFAULT_K;
use crate::report::{fmt_f64, fmt_secs, Table};
use crate::runner::run_indexed_batch;
use crate::workload::random_queries;
use crate::ExpContext;

/// Run the Table 14 protocol on both datasets.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Table> {
    let dblp = Arc::new(dblp_like(ctx.scale, ctx.seed));
    let epin = Arc::new(epinions_like(ctx.scale, ctx.seed));
    vec![
        one_dataset(ctx, "DBLP-like", &dblp),
        one_dataset(ctx, "Epinions-like", &epin),
    ]
}

fn one_dataset(ctx: &ExpContext, label: &str, g: &Arc<Graph>) -> Table {
    // 6 × the base query budget, split into 6 / 3 / 2 / 1 segments — the
    // paper's 1000/2000/3000/6000 protocol scaled to our budget.
    let total = ctx.queries * 6;
    let stream = random_queries(g, total, ctx.seed ^ 0x14, |_| true);
    let engine = QueryEngine::new(Arc::clone(g));
    let params = IndexParams {
        k_max: 100,
        seed: ctx.seed,
        ..Default::default()
    };

    let mut t = Table::new(
        format!(
            "Index updates ({label}, {} nodes, {total} queries)",
            g.num_nodes()
        ),
        "Table 14",
        &["segment size", "query time", "rank refinements"],
    );
    for segments in [6usize, 3, 2, 1] {
        let seg_len = total / segments;
        let mut totals = rkranks_core::QueryStats::default();
        let mut queries = 0u64;
        for chunk in stream.chunks(seg_len) {
            let (mut idx, _) = engine.build_index(&params); // reset
            let out = run_indexed_batch(
                Arc::clone(g),
                None,
                &mut idx,
                chunk,
                DEFAULT_K,
                BoundConfig::ALL,
            )
            .expect("index-updates batch");
            totals.absorb(&out.totals);
            queries += out.queries;
        }
        t.push_row(vec![
            seg_len.to_string(),
            fmt_secs(totals.elapsed.as_secs_f64() / queries.max(1) as f64),
            fmt_f64(totals.refinement_calls as f64 / queries.max(1) as f64),
        ]);
    }
    t.note("shape target (paper Table 14): the longer the index lives (larger segments), the lower the per-query time and refinement count");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    #[test]
    fn longer_segments_reduce_refinements() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            queries: 20,
            ..ExpContext::default()
        };
        let g = Arc::new(dblp_like(ctx.scale, ctx.seed));
        let t = one_dataset(&ctx, "t", &g);
        assert_eq!(t.rows.len(), 4);
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows[3][2].parse().unwrap();
        assert!(
            last <= first + 1e-9,
            "refinements should not grow with index lifetime: {first} -> {last}"
        );
    }
}
