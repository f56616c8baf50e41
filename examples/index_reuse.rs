//! The dynamically refined index across a query stream (Table 14's story).
//!
//! ```text
//! cargo run --release --example index_reuse
//! ```
//!
//! Every query writes its refinement discoveries back into the index, so a
//! long-lived index keeps getting cheaper to query. This example runs the
//! same query workload in four segments and prints how the per-segment cost
//! falls as the index warms.

use reverse_k_ranks::prelude::*;
use rkranks_datasets::{collab_graph, CollabParams};
use std::time::Instant;

fn main() {
    let g = collab_graph(&CollabParams::with_authors(1_500, 21));
    println!(
        "graph: {} authors / {} edges — one evolving index, 4 query waves\n",
        g.num_nodes(),
        g.num_edges()
    );

    let mut engine = QueryEngine::new(&g);
    let (mut index, build) = engine.build_index(&IndexParams {
        k_max: 50,
        strategy: HubStrategy::DegreeFirst,
        ..Default::default()
    });
    println!(
        "initial index: {} hubs x prefix {} in {:.2?}, {} rrd entries\n",
        build.hubs,
        build.prefix,
        build.build_time,
        index.rrd_entries()
    );

    // A fixed rotation of query nodes, revisited wave after wave.
    let queries: Vec<NodeId> = g.nodes().filter(|v| v.0 % 37 == 0).collect();
    let k = 10;
    for wave in 1..=4 {
        let start = Instant::now();
        let mut refinements = 0u64;
        let mut hits = 0u64;
        for &q in &queries {
            let req = QueryRequest::new(q, k).with_strategy(Strategy::Indexed(BoundConfig::ALL));
            let r = engine
                .execute_with(Some(&mut IndexAccess::Live(&mut index)), &req)
                .unwrap()
                .result;
            refinements += r.stats.refinement_calls;
            hits += r.stats.index_exact_hits;
        }
        println!(
            "wave {wave}: {:>6.2?} total, {:>6.1} refinements/query, {:>5.1} index hits/query, {} rrd entries",
            start.elapsed(),
            refinements as f64 / queries.len() as f64,
            hits as f64 / queries.len() as f64,
            index.rrd_entries()
        );
    }
}
