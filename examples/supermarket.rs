//! Bichromatic case study: supermarkets vs communities on a road network
//! (the paper's Wellcome/Parknshop study, Figure 5).
//!
//! ```text
//! cargo run --release --example supermarket
//! ```
//!
//! Stores form the query class `V2`; residential communities form the
//! candidate class `V1`. A reverse k-ranks query from a store returns the
//! k communities that rank this store highest by travel time — the
//! targeted-promotion list the paper motivates.

use reverse_k_ranks::prelude::*;
use rkranks_core::bichromatic::bichromatic_rank;
use rkranks_datasets::{road_network, RoadParams};
use rkranks_graph::{to_real, Distance};

fn main() {
    let net = road_network(&RoadParams::grid(40, 30, 25, 11));
    let g = &net.graph;
    println!(
        "road network: {} junctions, {} road segments, {} stores\n",
        g.num_nodes(),
        g.num_edges(),
        net.stores.len()
    );

    let part = Partition::from_v2_nodes(g.num_nodes(), &net.stores);
    let mut engine = QueryEngine::bichromatic(g, part.clone());

    // Find the two stores closest to each other — direct competitors.
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    let mut competitors: Option<(Distance, NodeId, NodeId)> = None;
    for &s in &net.stores {
        for (v, d) in DistanceBrowser::new(g, &mut ws, s) {
            if v != s && net.is_store[v.index()] {
                if competitors.is_none_or(|(bd, _, _)| d < bd) {
                    competitors = Some((d, s, v));
                }
                break;
            }
        }
    }
    let (dist, wellcome, parknshop) = competitors.expect("at least two stores");
    println!(
        "competing stores: {wellcome} ('Wellcome') and {parknshop} ('Parknshop'), {:.2} apart\n",
        to_real(dist)
    );

    for store in [wellcome, parknshop] {
        let k = 3;
        let result = engine.execute(&QueryRequest::new(store, k)).unwrap().result;
        println!("=== store {store}: top {k} communities to target ===");
        // routes for the promotion team: a shortest-path tree from the store
        let (parents, dists) = rkranks_graph::shortest_path_tree(g, store);
        for e in &result.entries {
            // show the distance context for the recommendation
            let r = bichromatic_rank(g, &part, &mut ws, e.node, store);
            let hops = rkranks_graph::path::reconstruct_path(&parents, store, e.node)
                .map(|p| p.len() - 1)
                .unwrap_or(0);
            println!(
                "  community {:>5}: ranks this store #{} of {} (verified {:?}), {:.2} travel time over {hops} road segments",
                e.node.to_string(),
                e.rank,
                net.stores.len(),
                r,
                to_real(dists[e.node.index()]),
            );
        }
        println!("  ({} rank refinements)\n", result.stats.refinement_calls);
    }

    println!("Unlike a top-k query (nearest communities, who may prefer the rival)");
    println!("or a reverse top-1 query (unbounded result size), the reverse k-ranks");
    println!("query hands each store a fixed-size, preference-ordered target list.");
}
