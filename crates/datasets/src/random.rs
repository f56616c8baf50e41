//! Seeded random graph generators for fuzzing and property tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rkranks_graph::{EdgeDirection, Graph, GraphBuilder};

/// G(n, m): `n` nodes, about `m` distinct random edges, plus a random
/// spanning backbone when `connected` is set (so every node is reachable in
/// the weak sense). Weights uniform in `weight_range`.
pub fn gnm_graph(
    n: u32,
    m: usize,
    direction: EdgeDirection,
    connected: bool,
    weight_range: (f64, f64),
    seed: u64,
) -> Graph {
    assert!(n >= 1);
    let (lo, hi) = weight_range;
    assert!(lo >= 0.0 && hi > lo, "invalid weight range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(direction, m + n as usize);
    b.reserve_nodes(n);
    if connected {
        for v in 1..n {
            let u = rng.random_range(0..v);
            let w = rng.random_range(lo..hi);
            b.add_edge(v, u, w).unwrap();
        }
    }
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < m && attempts < m * 10 + 100 {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        let w = rng.random_range(lo..hi);
        b.add_edge(u, v, w).unwrap();
        placed += 1;
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::traversal::is_weakly_connected;

    #[test]
    fn gnm_connected_flag_works() {
        let g = gnm_graph(50, 30, EdgeDirection::Undirected, true, (0.1, 1.0), 4);
        assert!(is_weakly_connected(&g));
        assert_eq!(g.num_nodes(), 50);
    }

    #[test]
    fn gnm_directed() {
        let g = gnm_graph(30, 60, EdgeDirection::Directed, true, (0.5, 2.0), 8);
        assert!(g.is_directed());
        assert!(is_weakly_connected(&g));
    }

    #[test]
    fn gnm_deterministic() {
        let a = gnm_graph(40, 80, EdgeDirection::Undirected, false, (0.0, 1.0), 3);
        let b = gnm_graph(40, 80, EdgeDirection::Undirected, false, (0.0, 1.0), 3);
        assert_eq!(a, b);
    }
}
