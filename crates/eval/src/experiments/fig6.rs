//! Figure 6: query time and rank refinements vs `k` for the three
//! framework variants on the DBLP-like and Epinions-like graphs. Beside
//! the paper's refinement count the table prints frontier pushes per
//! query — the work the refinements did — so the ordering can be read on
//! work as well as on time, SDS passes per query — what the kRank
//! ladder (`rkranks_core::context`) spent to get there: 1.0 when every
//! first guess held — and pendant offers per query: degree-1 candidates
//! ranked from their neighbour's refinement instead of by their own (0 for
//! Static, the indexed method and every directed graph, which never take
//! that rule).

use std::sync::Arc;

use rkranks_core::{BoundConfig, IndexParams, QueryEngine, Strategy};
use rkranks_datasets::{dblp_like, epinions_like};
use rkranks_graph::Graph;

use crate::experiments::{DEFAULT_FRACTION, K_VALUES};
use crate::report::{fmt_f64, fmt_secs, Table};
use crate::runner::{run_batch, run_indexed_batch, BatchOutcome};
use crate::workload::random_queries;
use crate::ExpContext;

/// `p50 / p95 / p99` cell for the latency column.
fn fmt_latency(out: &BatchOutcome) -> String {
    let p = out.latency_percentiles();
    format!(
        "{} / {} / {}",
        fmt_secs(p.p50),
        fmt_secs(p.p95),
        fmt_secs(p.p99)
    )
}

/// Run Figure 6 for both datasets.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Table> {
    let dblp = Arc::new(dblp_like(ctx.scale, ctx.seed));
    let epin = Arc::new(epinions_like(ctx.scale, ctx.seed));
    vec![
        one_dataset(ctx, "DBLP-like", &dblp),
        one_dataset(ctx, "Epinions-like", &epin),
    ]
}

fn one_dataset(ctx: &ExpContext, label: &str, g: &Arc<Graph>) -> Table {
    let queries = random_queries(g, ctx.queries, ctx.seed ^ 0xF16, |_| true);
    let mut t = Table::new(
        format!("{label} ({} nodes, {} edges)", g.num_nodes(), g.num_edges()),
        "Figure 6",
        &[
            "k",
            "method",
            "query time",
            "latency p50 / p95 / p99",
            "rank refinements",
            "refinement pushes",
            "SDS passes",
            "pendant offers",
        ],
    );
    let engine = QueryEngine::new(Arc::clone(g));
    let params = IndexParams {
        hub_fraction: DEFAULT_FRACTION,
        prefix_fraction: DEFAULT_FRACTION,
        k_max: *K_VALUES.last().unwrap(),
        seed: ctx.seed,
        ..Default::default()
    };
    for k in K_VALUES {
        if k >= g.num_nodes() {
            continue;
        }
        let mut row = |method: String, out: &BatchOutcome| {
            let per_query = |total: u64| total as f64 / out.queries.max(1) as f64;
            t.push_row(vec![
                k.to_string(),
                method,
                fmt_secs(out.mean_seconds()),
                fmt_latency(out),
                fmt_f64(out.mean_refinements()),
                fmt_f64(per_query(out.totals.refinement_pushes)),
                fmt_f64(per_query(out.totals.sds_passes)),
                fmt_f64(per_query(out.totals.pendant_offers)),
            ]);
        };
        let s = run_batch(
            Arc::clone(g),
            None,
            &queries,
            k,
            Strategy::Static,
            ctx.threads,
        )
        .expect("static batch");
        row("Static".into(), &s);
        let d = run_batch(
            Arc::clone(g),
            None,
            &queries,
            k,
            Strategy::Dynamic(BoundConfig::ALL),
            ctx.threads,
        )
        .expect("dynamic batch");
        row("Dynamic".into(), &d);
        // Fresh index per k so measurements are independent, as in the paper.
        let (mut idx, _) = engine.build_index(&params);
        let i = run_indexed_batch(Arc::clone(g), None, &mut idx, &queries, k, BoundConfig::ALL)
            .expect("indexed batch");
        row("Dynamic Indexed".into(), &i);
    }
    t.note("shape target (paper Fig. 6): cost grows with k; Dynamic cuts refinements vs Static by orders of magnitude; the index cuts them further, with the biggest relative win at small k");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    #[test]
    fn fig6_rows_cover_methods_and_ks() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            queries: 8,
            ..ExpContext::default()
        };
        let tables = run(&ctx);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            // 3 methods per k (k values below the 300-node tiny graphs: all 5)
            assert_eq!(t.rows.len() % 3, 0);
            assert!(!t.rows.is_empty());
            // every method runs the ladder: at least one pass per query
            let passes = t.headers.iter().position(|h| h == "SDS passes").unwrap();
            for row in &t.rows {
                assert!(row[passes].parse::<f64>().unwrap() >= 1.0, "{row:?}");
            }
            // only Dynamic on the undirected DBLP-like graph takes the
            // pendant rule
            let offers = t
                .headers
                .iter()
                .position(|h| h == "pendant offers")
                .unwrap();
            for row in &t.rows {
                let offered = row[offers].parse::<f64>().unwrap() > 0.0;
                let dynamic_dblp = row[1] == "Dynamic" && t.title.starts_with("DBLP");
                assert_eq!(offered, dynamic_dblp, "{}: {row:?}", t.title);
            }
        }
    }

    #[test]
    fn dynamic_prunes_at_least_as_well_as_static() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            queries: 10,
            ..ExpContext::default()
        };
        let g = dblp_like(ctx.scale, ctx.seed);
        let queries = random_queries(&g, ctx.queries, 1, |_| true);
        let s = run_batch(&g, None, &queries, 10, Strategy::Static, 2).unwrap();
        let d = run_batch(
            &g,
            None,
            &queries,
            10,
            Strategy::Dynamic(BoundConfig::ALL),
            2,
        )
        .unwrap();
        assert!(d.totals.refinement_calls <= s.totals.refinement_calls);
    }
}
