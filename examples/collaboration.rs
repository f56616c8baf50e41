//! Collaboration recommendation on a DBLP-style graph.
//!
//! ```text
//! cargo run --release --example collaboration
//! ```
//!
//! The paper's motivating application (§1): recommend collaborators. For a
//! *cold* author (lowest degree) the reverse top-k query returns nothing,
//! while reverse k-ranks always returns k candidates; for a *hot* author
//! reverse top-k floods, while reverse k-ranks shortlists.

use reverse_k_ranks::prelude::*;
use rkranks_datasets::{collab_graph, CollabParams};
use rkranks_graph::reverse_top_k;

fn main() {
    let g = collab_graph(&CollabParams::with_authors(2_000, 7));
    println!(
        "DBLP-like collaboration graph: {} authors, {} edges, avg degree {:.1}\n",
        g.num_nodes(),
        g.num_edges(),
        g.average_degree()
    );

    // A cold author (few collaborations) and a hot one (hub).
    let cold = g
        .nodes()
        .filter(|&v| g.degree(v) > 0)
        .min_by_key(|&v| (g.degree(v), v))
        .expect("non-empty graph");
    let (hot, hot_deg) = g.max_degree().expect("non-empty graph");
    println!("cold author: node {cold} (degree {})", g.degree(cold));
    println!("hot  author: node {hot} (degree {hot_deg})\n");

    let k = 5;
    let mut engine = QueryEngine::new(&g);

    // Pre-build an index so repeated recommendation calls are fast.
    let (mut index, build) = engine.build_index(&IndexParams {
        k_max: 50,
        strategy: HubStrategy::DegreeFirst,
        ..Default::default()
    });
    println!(
        "index: {} hubs, prefix {}, built in {:.2?}\n",
        build.hubs, build.prefix, build.build_time
    );

    for (label, q) in [("cold", cold), ("hot", hot)] {
        let rtk = reverse_top_k(&g, q, k);
        let req = QueryRequest::new(q, k).with_strategy(Strategy::Indexed(BoundConfig::ALL));
        let rkr = engine
            .execute_with(Some(&mut IndexAccess::Live(&mut index)), &req)
            .unwrap()
            .result;
        println!("=== {label} author {q} ===");
        println!("  reverse top-{k}: {} interested author(s)", rtk.len());
        println!("  reverse {k}-ranks (who ranks {q} highest):");
        for e in &rkr.entries {
            println!(
                "    author {:>5} ranks {q} at position {}",
                e.node.to_string(),
                e.rank
            );
        }
        println!(
            "  ({} refinements, {} exact index hits)\n",
            rkr.stats.refinement_calls,
            rkr.stats.index_exact_hits()
        );
    }

    println!("Every query returned exactly {k} recommendations — including the cold");
    println!("author the reverse top-{k} query starves.");
}
