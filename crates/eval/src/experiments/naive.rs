//! §6.3.1's naive-baseline comparison: the naive method refines *every*
//! node; the framework refines a few dozen. The paper reports 701 s /
//! 75,878 refinements per naive query on Epinions vs milliseconds for the
//! framework.

use std::sync::Arc;

use rkranks_core::{BoundConfig, Strategy};
use rkranks_datasets::epinions_like;

use crate::report::{fmt_f64, fmt_secs, Table};
use crate::runner::run_batch;
use crate::workload::random_queries;
use crate::ExpContext;

/// Compare naive vs static vs dynamic at k = 1.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Table> {
    let g = Arc::new(epinions_like(ctx.scale, ctx.seed));
    // The naive method is brutally slow by design; a handful of queries is
    // enough to show the gap.
    let queries = random_queries(&g, ctx.queries.min(10), ctx.seed ^ 0xA1, |_| true);
    let mut t = Table::new(
        format!(
            "Naive vs framework, k=1 (Epinions-like, {} nodes)",
            g.num_nodes()
        ),
        "§6.3.1",
        &["method", "query time", "rank refinements"],
    );
    for (name, algo) in [
        ("Naive", Strategy::Naive),
        ("Static", Strategy::Static),
        ("Dynamic", Strategy::Dynamic(BoundConfig::ALL)),
    ] {
        let out =
            run_batch(Arc::clone(&g), None, &queries, 1, algo, ctx.threads).expect("naive batch");
        t.push_row(vec![
            name.into(),
            fmt_secs(out.mean_seconds()),
            fmt_f64(out.mean_refinements()),
        ]);
    }
    t.note("paper (Epinions 75,878 nodes): naive = 701.18s and 75,878 refinements per query; the framework needs a few dozen refinements");
    t.note("shape target: naive refinements = |V| - 1 exactly; framework refinements are orders of magnitude fewer");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    #[test]
    fn naive_refines_everything() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            queries: 3,
            ..ExpContext::default()
        };
        let tables = run(&ctx);
        let rows = &tables[0].rows;
        let naive_ref: f64 = rows[0][2].parse().unwrap();
        let dynamic_ref: f64 = rows[2][2].parse().unwrap();
        // tiny graph has 300 nodes: naive must refine 299 per query
        assert_eq!(naive_ref, 299.0);
        assert!(dynamic_ref < naive_ref);
    }
}
