//! Table 2: dataset statistics, paper vs our synthetic stand-ins.

use rkranks_datasets::{dblp_like, epinions_like, sf_like};
use rkranks_graph::metrics::{degree_stats, weight_stats};
use rkranks_graph::traversal::is_weakly_connected;
use rkranks_graph::Graph;

use crate::report::{fmt_f64, Table};
use crate::ExpContext;

/// Paper's Table 2 for the notes.
const PAPER: [(&str, u64, u64, f64); 3] = [
    ("DBLP", 1_314_050, 18_986_618, 14.45),
    ("Epinions", 75_879, 508_837, 6.71),
    ("SF", 321_678, 800_172, 2.49),
];

/// Regenerate the dataset statistics table.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Table> {
    let dblp = dblp_like(ctx.scale, ctx.seed);
    let epin = epinions_like(ctx.scale, ctx.seed);
    let road = sf_like(ctx.scale, ctx.seed);
    let mut t = Table::new(
        format!("Dataset statistics at scale '{}'", ctx.scale.name()),
        "Table 2",
        &[
            "dataset",
            "nodes",
            "edges",
            "avg degree",
            "max degree",
            "directed",
            "connected",
        ],
    );
    let mut push = |name: &str, g: &Graph| {
        let deg = degree_stats(g).expect("non-empty dataset");
        t.push_row(vec![
            name.into(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            fmt_f64(g.average_degree()),
            deg.max.to_string(),
            if g.is_directed() { "yes" } else { "no" }.into(),
            if is_weakly_connected(g) { "yes" } else { "no" }.into(),
        ]);
        let w = weight_stats(g).expect("weighted dataset");
        assert!(w.min >= 0.0, "Definition 1 requires non-negative weights");
    };
    push("DBLP-like", &dblp);
    push("Epinions-like", &epin);
    push("SF-like roads", &road.graph);
    for (name, nodes, edges, avg) in PAPER {
        t.note(format!(
            "paper: {name} = {nodes} nodes, {edges} edges, avg degree {avg}"
        ));
    }
    t.note(format!("SF-like stores marked: {}", road.stores.len()));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_datasets::Scale;

    #[test]
    fn table2_has_three_connected_datasets() {
        let ctx = ExpContext {
            scale: Scale::Tiny,
            ..ExpContext::default()
        };
        let tables = run(&ctx);
        assert_eq!(tables[0].rows.len(), 3);
        for row in &tables[0].rows {
            assert_eq!(row[6], "yes", "{} must be connected", row[0]);
        }
        // directedness column matches the datasets
        assert_eq!(tables[0].rows[0][5], "no");
        assert_eq!(tables[0].rows[1][5], "yes");
        assert_eq!(tables[0].rows[2][5], "no");
    }

    #[test]
    fn degree_regimes_match_paper_targets() {
        let ctx = ExpContext {
            scale: Scale::Small,
            ..ExpContext::default()
        };
        let epin = epinions_like(ctx.scale, ctx.seed);
        let road = sf_like(ctx.scale, ctx.seed);
        assert!(
            (4.0..9.0).contains(&epin.average_degree()),
            "epinions regime ~6.7"
        );
        assert!(
            (2.0..3.2).contains(&road.graph.average_degree()),
            "road regime ~2.5"
        );
    }
}
