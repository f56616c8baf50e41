//! Bound analysis (§6.3.2): Table 11 (which component wins the max) and
//! Tables 12–13 (bound strategies on max-/min-degree query workloads).
//!
//! These run on the *undirected* Epinions-like graph: the count bound only
//! holds on undirected graphs (Lemma 3's footnote), and the paper's own
//! Tables 11–13 report count-bound wins on Epinions, so their runs must
//! have symmetrized it.

use std::sync::Arc;

use rkranks_core::{BoundConfig, BoundSource, Strategy};
use rkranks_datasets::epinions_like_undirected;
use rkranks_graph::{Graph, NodeId};

use crate::report::{fmt_f64, fmt_secs, Table};
use crate::runner::run_batch;
use crate::workload::{max_degree_queries, min_degree_queries, random_queries};
use crate::ExpContext;

/// The k values of the bound analysis (Table 11 includes k = 1).
const BOUND_KS: [u32; 6] = [1, 5, 10, 20, 50, 100];

/// Table 11: share of bound evaluations won by each Theorem-2 component.
pub(crate) fn bound_wins(ctx: &ExpContext) -> Vec<Table> {
    // One Arc up front: the per-k batches below then share the graph
    // instead of cloning the CSR per call.
    let g = Arc::new(epinions_like_undirected(ctx.scale, ctx.seed));
    let queries = random_queries(&g, ctx.queries, ctx.seed ^ 0xB0, |_| true);
    let mut t = Table::new(
        format!(
            "Bound component wins (Epinions-like undirected, {} nodes)",
            g.num_nodes()
        ),
        "Table 11",
        &["k", "Height wins", "Count wins", "Parent wins"],
    );
    for k in BOUND_KS {
        let out = run_batch(
            Arc::clone(&g),
            None,
            &queries,
            k,
            Strategy::Dynamic(BoundConfig::ALL),
            ctx.threads,
        )
        .expect("bound-wins batch");
        let wins = BoundSource::ALL.map(|source| out.totals.pops.wins(source));
        let evaluations = wins.iter().sum::<u64>().max(1) as f64;
        let [parent, height, count, _] = wins.map(|w| 100.0 * w as f64 / evaluations);
        t.push_row(vec![
            k.to_string(),
            format!("{height:.2}%"),
            format!("{count:.2}%"),
            format!("{parent:.2}%"),
        ]);
    }
    t.note("shape target (paper Table 11): Height dominates at k=1 and fades as k grows; Parent takes over (>90% by k=100); Count stays small but grows with k");
    t.note("paper: k=1 Height 87.74% / Parent 12.26%; k=100 Height 5.80% / Count 2.38% / Parent 91.82%");
    vec![t]
}

/// Table 12: the four bound strategies on the highest-degree queries.
pub(crate) fn max_degree(ctx: &ExpContext) -> Vec<Table> {
    let g = Arc::new(epinions_like_undirected(ctx.scale, ctx.seed));
    let queries = max_degree_queries(&g, ctx.queries, |_| true);
    vec![strategy_table(ctx, &g, &queries, "max-degree queries", "Table 12",
        "shape target (paper Table 12): the Height component slashes refinements for hub queries, especially at small k (1.0 refinement at k=1 vs 124 for Parent-only)")]
}

/// Table 13: the four bound strategies on the lowest-degree queries.
pub(crate) fn min_degree(ctx: &ExpContext) -> Vec<Table> {
    let g = Arc::new(epinions_like_undirected(ctx.scale, ctx.seed));
    let queries = min_degree_queries(&g, ctx.queries, |_| true);
    vec![strategy_table(ctx, &g, &queries, "min-degree queries", "Table 13",
        "shape target (paper Table 13): differences are smaller; the Count component helps most at large k on cold queries")]
}

fn strategy_table(
    ctx: &ExpContext,
    g: &Arc<Graph>,
    queries: &[NodeId],
    label: &str,
    paper_ref: &str,
    note: &str,
) -> Table {
    let mut t = Table::new(
        format!(
            "Bound strategies, {label} (Epinions-like undirected, {} nodes)",
            g.num_nodes()
        ),
        paper_ref,
        &["strategy", "k", "query time", "rank refinements"],
    );
    for bounds in [
        BoundConfig::PARENT_ONLY,
        BoundConfig::PARENT_COUNT,
        BoundConfig::PARENT_HEIGHT,
        BoundConfig::ALL,
    ] {
        for k in BOUND_KS {
            let out = run_batch(
                Arc::clone(g),
                None,
                queries,
                k,
                Strategy::Dynamic(bounds),
                ctx.threads,
            )
            .expect("bound-strategy batch");
            t.push_row(vec![
                bounds.name().into(),
                k.to_string(),
                fmt_secs(out.mean_seconds()),
                fmt_f64(out.mean_refinements()),
            ]);
        }
    }
    t.note(note);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    fn tiny_ctx() -> ExpContext {
        ExpContext {
            scale: Scale::Tiny,
            queries: 10,
            ..ExpContext::default()
        }
    }

    #[test]
    fn bound_wins_shares_sum_to_100() {
        let tables = bound_wins(&tiny_ctx());
        for row in &tables[0].rows {
            let total: f64 = row[1..]
                .iter()
                .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((total - 100.0).abs() < 0.1, "row {row:?} sums to {total}");
        }
    }

    #[test]
    fn height_bound_helps_hub_queries() {
        // The paper's headline: with the height bound, a k=1 query from a
        // hub needs exactly 1 refinement.
        let ctx = tiny_ctx();
        let g = epinions_like_undirected(ctx.scale, ctx.seed);
        let queries = max_degree_queries(&g, 5, |_| true);
        let parent = run_batch(
            &g,
            None,
            &queries,
            1,
            Strategy::Dynamic(BoundConfig::PARENT_ONLY),
            1,
        )
        .unwrap();
        let height = run_batch(
            &g,
            None,
            &queries,
            1,
            Strategy::Dynamic(BoundConfig::PARENT_HEIGHT),
            1,
        )
        .unwrap();
        assert!(
            height.totals.refinement_calls <= parent.totals.refinement_calls,
            "height {} > parent {}",
            height.totals.refinement_calls,
            parent.totals.refinement_calls
        );
    }

    #[test]
    fn strategy_tables_have_full_grid() {
        let tables = max_degree(&tiny_ctx());
        assert_eq!(tables[0].rows.len(), 4 * BOUND_KS.len());
    }
}
