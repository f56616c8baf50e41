//! Index parameter studies: hub percentage `h` (Tables 6–7), prefix
//! percentage `m` (Tables 8–9), and hub-selection strategy (Table 10).

use std::sync::Arc;

use rkranks_core::{BoundConfig, HubStrategy, IndexParams, QueryEngine};
use rkranks_datasets::{dblp_like, epinions_like};
use rkranks_graph::Graph;

use crate::experiments::{DEFAULT_FRACTION, DEFAULT_K, FRACTIONS};
use crate::report::{fmt_bytes, fmt_f64, fmt_secs, Table};
use crate::runner::run_indexed_batch;
use crate::workload::random_queries;
use crate::ExpContext;

fn sweep(ctx: &ExpContext, label: &str, g: &Arc<Graph>, paper_ref: &str, vary_hub: bool) -> Table {
    let queries = random_queries(g, ctx.queries, ctx.seed ^ 0x1d, |_| true);
    let engine = QueryEngine::new(Arc::clone(g));
    let col = if vary_hub { "h" } else { "m" };
    let mut t = Table::new(
        format!("Effect of {col} ({label}, {} nodes)", g.num_nodes()),
        paper_ref,
        &[
            col,
            "index size",
            "build time",
            "query time",
            "rank refinements",
        ],
    );
    for f in FRACTIONS {
        let params = IndexParams {
            hub_fraction: if vary_hub { f } else { DEFAULT_FRACTION },
            prefix_fraction: if vary_hub { DEFAULT_FRACTION } else { f },
            k_max: 100,
            seed: ctx.seed,
            ..Default::default()
        };
        let (mut idx, build) = engine.build_index(&params);
        let size = idx.heap_bytes();
        let out = run_indexed_batch(
            Arc::clone(g),
            None,
            &mut idx,
            &queries,
            DEFAULT_K,
            BoundConfig::ALL,
        )
        .expect("index-params batch");
        t.push_row(vec![
            format!("{f}"),
            fmt_bytes(size),
            fmt_secs(build.build_time.as_secs_f64()),
            fmt_secs(out.mean_seconds()),
            fmt_f64(out.mean_refinements()),
        ]);
    }
    t.note("shape target (paper Tables 6-9): query time and refinements fall mildly as the fraction grows; index size grows slowly (bounded by K entries per node)");
    t
}

/// Tables 6–7: hub percentage sweep on both datasets.
pub(crate) fn hub_pct(ctx: &ExpContext) -> Vec<Table> {
    let dblp = Arc::new(dblp_like(ctx.scale, ctx.seed));
    let epin = Arc::new(epinions_like(ctx.scale, ctx.seed));
    vec![
        sweep(ctx, "DBLP-like", &dblp, "Tables 6-7", true),
        sweep(ctx, "Epinions-like", &epin, "Tables 6-7", true),
    ]
}

/// Tables 8–9: prefix percentage sweep on both datasets.
pub(crate) fn index_pct(ctx: &ExpContext) -> Vec<Table> {
    let dblp = Arc::new(dblp_like(ctx.scale, ctx.seed));
    let epin = Arc::new(epinions_like(ctx.scale, ctx.seed));
    vec![
        sweep(ctx, "DBLP-like", &dblp, "Tables 8-9", false),
        sweep(ctx, "Epinions-like", &epin, "Tables 8-9", false),
    ]
}

/// Table 10: hub-selection strategies.
pub(crate) fn hub_strategy(ctx: &ExpContext) -> Vec<Table> {
    let mut tables = Vec::new();
    for (label, g) in [
        ("DBLP-like", Arc::new(dblp_like(ctx.scale, ctx.seed))),
        (
            "Epinions-like",
            Arc::new(epinions_like(ctx.scale, ctx.seed)),
        ),
    ] {
        let queries = random_queries(&g, ctx.queries, ctx.seed ^ 0x10, |_| true);
        let engine = QueryEngine::new(Arc::clone(&g));
        let mut t = Table::new(
            format!(
                "Hub selection strategies ({label}, {} nodes)",
                g.num_nodes()
            ),
            "Table 10",
            &["strategy", "query time", "rank refinements"],
        );
        for strategy in [
            HubStrategy::Random,
            HubStrategy::DegreeFirst,
            HubStrategy::ClosenessFirst,
        ] {
            let params = IndexParams {
                strategy,
                k_max: 100,
                seed: ctx.seed,
                ..Default::default()
            };
            let (mut idx, _) = engine.build_index(&params);
            let out = run_indexed_batch(
                Arc::clone(&g),
                None,
                &mut idx,
                &queries,
                DEFAULT_K,
                BoundConfig::ALL,
            )
            .expect("hub-strategy batch");
            t.push_row(vec![
                strategy.name().into(),
                fmt_secs(out.mean_seconds()),
                fmt_f64(out.mean_refinements()),
            ]);
        }
        t.note("shape target (paper Table 10): Degree First and Closeness First beat Random; Degree First wins overall, Closeness First is close");
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    fn tiny_ctx() -> ExpContext {
        ExpContext {
            scale: Scale::Tiny,
            queries: 6,
            ..ExpContext::default()
        }
    }

    #[test]
    fn hub_sweep_emits_all_fractions() {
        let tables = hub_pct(&tiny_ctx());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), FRACTIONS.len());
        }
    }

    #[test]
    fn strategy_table_has_three_rows() {
        let tables = hub_strategy(&tiny_ctx());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), 3);
            assert_eq!(t.rows[0][0], "Random");
            assert_eq!(t.rows[1][0], "Degree First");
        }
    }
}
