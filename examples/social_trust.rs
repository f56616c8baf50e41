//! Directed graphs: reverse k-ranks on an Epinions-style trust network.
//!
//! ```text
//! cargo run --release --example social_trust
//! ```
//!
//! On a directed graph `Rank(p, q)` follows arc direction (`p`'s trust
//! radiates outward), so the SDS-tree must grow over the *transpose* and
//! the Lemma-4 count bound is off (its proof needs symmetry). This example
//! shows both, plus the asymmetry of the results.

use reverse_k_ranks::prelude::*;
use rkranks_datasets::{trust_graph, TrustParams};
use rkranks_graph::rank_between;

fn main() {
    let g = trust_graph(&TrustParams::with_users(1_500, 3));
    println!(
        "trust network: {} users, {} trust arcs (directed), avg out-degree {:.1}\n",
        g.num_nodes(),
        g.num_edges(),
        g.average_degree()
    );

    // The most trusted user = highest in-degree.
    let transpose = g.transpose();
    let (influencer, in_deg) = transpose.max_degree().expect("non-empty graph");
    println!("most-trusted user: {influencer} ({in_deg} incoming trust arcs)");

    let mut engine = QueryEngine::new(&g);
    let k = 5;
    let result = engine
        .execute(&QueryRequest::new(influencer, k))
        .unwrap()
        .result;
    println!("\nreverse {k}-ranks of {influencer} — the users who trust them most strongly:");
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    for e in &result.entries {
        // Demonstrate asymmetry: the rank in the other direction differs.
        let back = rank_between(&g, &mut ws, influencer, e.node);
        println!(
            "  user {:>5} ranks {influencer} at #{:<3} while {influencer} ranks them at {:?}",
            e.node.to_string(),
            e.rank,
            back
        );
    }
    println!(
        "\nstats: {} refinements, {} pruned by Theorem-2 bounds, {} SDS pops",
        result.stats.refinement_calls,
        result.stats.pruned_by_bound(),
        result.stats.sds_popped()
    );

    // Show that directedness matters: a barely-trusted user still gets k
    // recommendations (the cold-start case) as long as someone can reach
    // them through the trust web — in-degree 0 users are unreachable and
    // genuinely have no reverse ranks.
    let cold = g
        .nodes()
        .filter(|&v| transpose.degree(v) == 1 && g.degree(v) > 0)
        .min_by_key(|&v| (transpose.degree(v), v));
    if let Some(cold) = cold {
        let r = engine.execute(&QueryRequest::new(cold, k)).unwrap().result;
        println!(
            "\ncold user {cold} (in-degree {}): reverse {k}-ranks still returns {} users",
            transpose.degree(cold),
            r.entries.len()
        );
    }
}
