//! Table 15: index construction cost over the paper's h/m grid.

use rkranks_core::{IndexParams, QueryEngine};
use rkranks_datasets::{dblp_like, epinions_like};

use crate::report::{fmt_bytes, fmt_secs, Table};
use crate::ExpContext;

/// The paper's ten (h, m) combinations.
const GRID: [(f64, f64); 10] = [
    (0.03, 0.1),
    (0.05, 0.1),
    (0.07, 0.1),
    (0.1, 0.1),
    (0.15, 0.1),
    (0.1, 0.03),
    (0.1, 0.05),
    (0.1, 0.07),
    (0.1, 0.1),
    (0.1, 0.15),
];

/// Build the index at every grid point and report cost.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Table> {
    let dblp = dblp_like(ctx.scale, ctx.seed);
    let epin = epinions_like(ctx.scale, ctx.seed);
    let mut t = Table::new(
        format!(
            "Index construction cost (DBLP-like {} / Epinions-like {} nodes)",
            dblp.num_nodes(),
            epin.num_nodes()
        ),
        "Table 15",
        &[
            "h",
            "m",
            "DBLP build",
            "DBLP settles",
            "DBLP edges/settle",
            "DBLP size",
            "Epinions build",
            "Epinions settles",
            "Epinions edges/settle",
            "Epinions size",
        ],
    );
    for (h, m) in GRID {
        let mut cells = vec![format!("{h}"), format!("{m}")];
        for g in [&dblp, &epin] {
            let engine = QueryEngine::new(g);
            let params = IndexParams {
                hub_fraction: h,
                prefix_fraction: m,
                k_max: 100,
                seed: ctx.seed,
                ..Default::default()
            };
            let (idx, stats) = engine.build_index(&params);
            cells.push(fmt_secs(stats.build_time.as_secs_f64()));
            cells.push(stats.settles.to_string());
            cells.push(format!("{:.2}", stats.edges_per_settle()));
            cells.push(fmt_bytes(idx.heap_bytes()));
        }
        t.push_row(cells);
    }
    t.note("shape target (paper Table 15): build time grows roughly linearly in both h and m (2.68h at h=0.03 to 12.94h at h=0.15 on real DBLP)");
    t.note("work: settles = H x M when every hub reaches M nodes (linear in h and in m); edges/settle is what a settle costs on top — a small constant, not the settled nodes' mean degree, because each hub's traversal stops feeding its frontier at its M-th nearest node");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    #[test]
    fn grid_is_fully_reported() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            ..ExpContext::default()
        };
        let tables = run(&ctx);
        assert_eq!(tables[0].rows.len(), GRID.len());
    }

    #[test]
    fn build_cost_grows_with_h() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            ..ExpContext::default()
        };
        let g = dblp_like(ctx.scale, ctx.seed);
        let engine = QueryEngine::new(&g);
        let build = |h: f64| {
            let params = IndexParams {
                hub_fraction: h,
                prefix_fraction: 0.1,
                ..Default::default()
            };
            engine.build_index(&params).1.settles
        };
        assert!(build(0.15) > build(0.03));
    }
}
