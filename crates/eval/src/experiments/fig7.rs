//! Figure 7: bichromatic reverse k-ranks on the road network.
//!
//! Stores are `V2` (queries), communities `V1` (results). The paper's
//! takeaway: on this sparse graph the index helps a lot, while the dynamic
//! machinery's overhead can exceed its benefit at very small k.

use std::sync::Arc;

use rkranks_core::{BoundConfig, IndexParams, Partition, QueryEngine, Strategy};
use rkranks_datasets::sf_like;

use crate::experiments::K_VALUES;
use crate::report::{fmt_f64, fmt_secs, Table};
use crate::runner::{run_batch, run_indexed_batch};
use crate::workload::random_queries;
use crate::ExpContext;

/// Run Figure 7.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Table> {
    let net = sf_like(ctx.scale, ctx.seed);
    let stores = net.stores;
    let g = Arc::new(net.graph);
    let g = &g;
    let part = Partition::from_v2_nodes(g.num_nodes(), &stores);
    let queries = random_queries(g, ctx.queries, ctx.seed ^ 0xF7, |v| part.is_v2(v));
    let mut t = Table::new(
        format!(
            "Bichromatic queries (road network, {} nodes, {} stores)",
            g.num_nodes(),
            stores.len()
        ),
        "Figure 7",
        &["k", "method", "query time", "rank refinements"],
    );
    let engine = QueryEngine::bichromatic(Arc::clone(g), part.clone());
    let params = IndexParams {
        k_max: 100,
        seed: ctx.seed,
        ..Default::default()
    };
    for k in K_VALUES {
        let s = run_batch(
            Arc::clone(g),
            Some(&part),
            &queries,
            k,
            Strategy::Static,
            ctx.threads,
        )
        .expect("static batch");
        t.push_row(vec![
            k.to_string(),
            "Static".into(),
            fmt_secs(s.mean_seconds()),
            fmt_f64(s.mean_refinements()),
        ]);
        let d = run_batch(
            Arc::clone(g),
            Some(&part),
            &queries,
            k,
            Strategy::Dynamic(BoundConfig::ALL),
            ctx.threads,
        )
        .expect("dynamic batch");
        t.push_row(vec![
            k.to_string(),
            "Dynamic".into(),
            fmt_secs(d.mean_seconds()),
            fmt_f64(d.mean_refinements()),
        ]);
        let (mut idx, _) = engine.build_index(&params);
        let i = run_indexed_batch(
            Arc::clone(g),
            Some(&part),
            &mut idx,
            &queries,
            k,
            BoundConfig::ALL,
        )
        .expect("indexed batch");
        t.push_row(vec![
            k.to_string(),
            "Dynamic Indexed".into(),
            fmt_secs(i.mean_seconds()),
            fmt_f64(i.mean_refinements()),
        ]);
    }
    t.note("shape target (paper Fig. 7): the indexed method dominates on this sparse graph, especially at medium/large k; at k=5 the dynamic bookkeeping overhead can make Dynamic no faster than Static");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    #[test]
    fn fig7_emits_three_methods_per_k() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            queries: 5,
            ..ExpContext::default()
        };
        let tables = run(&ctx);
        assert_eq!(tables[0].rows.len(), 3 * K_VALUES.len());
    }
}
