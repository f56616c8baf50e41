//! Epinions-style directed trust network generator.
//!
//! Stands in for the paper's Epinions dataset (SNAP `soc-Epinions1`,
//! 75,879 users / 508,837 trust arcs, average degree 6.71, directed). Trust
//! statements concentrate on reputable reviewers, so in-degrees are
//! heavy-tailed; we grow the network with preferential attachment on
//! in-degree. Edge weights are Zipf(α = 2) integers, exactly the scheme the
//! paper borrows from [Xiao, Yao & Li, ICDE 2011].
//!
//! Directed graphs matter for correctness coverage: the SDS-tree must run on
//! the transpose, and the count bound (`lcount`) is disabled (Lemma 3's
//! footnote applies to undirected graphs only).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rkranks_graph::{DedupPolicy, EdgeDirection, Graph, GraphBuilder};

use crate::zipf::Zipf;

/// Tuning knobs for the trust-network process.
#[derive(Clone, Debug)]
pub struct TrustParams {
    /// Number of users (nodes).
    pub users: u32,
    /// Average out-degree (arcs per user). Epinions sits at ≈ 6.7.
    pub arcs_per_user: f64,
    /// Zipf support: weights are drawn from `{1, …, zipf_n}`.
    pub zipf_n: usize,
    /// Zipf skew (the paper uses α = 2).
    pub zipf_alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TrustParams {
    /// Defaults matching the Epinions regime for `users` users.
    pub fn with_users(users: u32, seed: u64) -> TrustParams {
        TrustParams {
            users,
            arcs_per_user: 6.7,
            zipf_n: 100,
            zipf_alpha: 2.0,
            seed,
        }
    }
}

/// Generate an undirected variant of the trust graph (same process, edges
/// symmetrized at build time).
///
/// The paper's bound analysis (Tables 11–13) exercises the count bound on
/// Epinions even though Lemma 3 only holds for undirected graphs — their
/// runs must have symmetrized the network. This generator reproduces that
/// setting.
pub fn trust_graph_undirected(params: &TrustParams) -> Graph {
    build_trust(params, EdgeDirection::Undirected)
}

/// Generate the directed trust graph.
///
/// Guarantees: directed, weakly connected, no self-loops or parallel arcs,
/// integer-valued weights in `1..=zipf_n`.
pub fn trust_graph(params: &TrustParams) -> Graph {
    build_trust(params, EdgeDirection::Directed)
}

fn build_trust(params: &TrustParams, direction: EdgeDirection) -> Graph {
    let TrustParams {
        users,
        arcs_per_user,
        zipf_n,
        zipf_alpha,
        seed,
    } = *params;
    assert!(users >= 2, "need at least two users");
    assert!(arcs_per_user >= 1.0, "need at least one arc per user");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(zipf_n, zipf_alpha);

    let target_arcs = (users as f64 * arcs_per_user) as usize;
    // Preferential-attachment slots over *in*-degree; every node gets one
    // base slot so newcomers can be trusted too.
    let mut slots: Vec<u32> = Vec::with_capacity(target_arcs + users as usize);
    let mut b =
        GraphBuilder::with_capacity(direction, target_arcs).dedup_policy(DedupPolicy::KeepMin);
    b.reserve_nodes(users);

    slots.push(0);
    // Growth phase: each newcomer trusts one existing user (guaranteeing
    // weak connectivity) — preferentially a reputable one.
    for u in 1..users {
        slots.push(u);
        let t = pick_target(&mut rng, &slots, u, users);
        let w = zipf.sample(&mut rng) as f64;
        b.add_edge(u, t, w).expect("valid arc");
        slots.push(t);
    }
    // Densification phase: remaining arcs from random truster to
    // preferential trustee.
    let placed = (users - 1) as usize;
    for _ in placed..target_arcs {
        let u = rng.random_range(0..users);
        let t = pick_target(&mut rng, &slots, u, users);
        let w = zipf.sample(&mut rng) as f64;
        b.add_edge(u, t, w).expect("valid arc");
        slots.push(t);
    }

    b.build().expect("generator produces a valid graph")
}

fn pick_target<R: Rng>(rng: &mut R, slots: &[u32], source: u32, users: u32) -> u32 {
    // 80 % preferential by in-degree, 20 % uniform; retry on self-loop.
    loop {
        let t = if rng.random::<f64>() < 0.8 {
            slots[rng.random_range(0..slots.len())]
        } else {
            rng.random_range(0..users)
        };
        if t != source {
            return t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::to_real;
    use rkranks_graph::traversal::is_weakly_connected;
    use rkranks_graph::NodeId;

    fn small() -> Graph {
        trust_graph(&TrustParams::with_users(500, 13))
    }

    #[test]
    fn node_count_and_directedness() {
        let g = small();
        assert_eq!(g.num_nodes(), 500);
        assert!(g.is_directed());
    }

    #[test]
    fn weakly_connected() {
        assert!(is_weakly_connected(&small()));
    }

    #[test]
    fn average_degree_near_target() {
        let g = trust_graph(&TrustParams::with_users(2000, 3));
        let avg = g.average_degree();
        // dedup of parallel arcs eats a little density
        assert!((4.0..7.5).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn in_degrees_are_heavy_tailed() {
        let g = small();
        let t = g.transpose();
        let (_, max_in) = t.max_degree().unwrap();
        assert!(
            max_in as f64 > 5.0 * t.average_degree(),
            "max in-degree {max_in} not heavy-tailed"
        );
    }

    #[test]
    fn weights_are_zipf_integers() {
        let g = small();
        let mut ones = 0usize;
        let mut total = 0usize;
        for u in g.nodes() {
            for (_, w) in g.edges(u) {
                let w = to_real(w);
                assert!((1.0..=100.0).contains(&w));
                assert_eq!(w.fract(), 0.0, "weight {w} not integral");
                total += 1;
                if w == 1.0 {
                    ones += 1;
                }
            }
        }
        // α = 2 puts ~61 % of the mass on 1
        assert!(
            ones as f64 > 0.4 * total as f64,
            "{ones}/{total} weight-1 arcs"
        );
    }

    #[test]
    fn no_self_loops() {
        let g = small();
        for u in g.nodes() {
            for (v, _) in g.edges(u) {
                assert_ne!(u, v);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = trust_graph(&TrustParams::with_users(300, 1));
        let b = trust_graph(&TrustParams::with_users(300, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn some_node_is_unpopular() {
        // The reverse-top-k motivation needs "cold" nodes: check in-degree 0
        // or 1 exists.
        let g = small();
        let t = g.transpose();
        let min_in = g.nodes().map(|u| t.degree(u)).min().unwrap();
        assert!(min_in <= 1, "min in-degree {min_in}");
        let _ = NodeId(0);
    }
}
