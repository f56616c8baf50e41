//! SF-style road network with stores (bichromatic workloads).
//!
//! Stands in for the paper's SF dataset (DIMACS San-Francisco-bay road
//! network, 321,270 nodes / 800,172 edges, average degree 2.49, plus 408
//! stores crawled from GeoDeg and snapped to the nearest road node). We
//! build a jittered grid, keep a random spanning tree to guarantee
//! connectivity, and knock out a fraction of the remaining grid edges to
//! reach road-network sparsity (average degree ≈ 2.5). Edge weights model
//! travel time: Euclidean length × a per-edge speed factor.
//!
//! A random subset of nodes is marked as **stores** (`V2` in Definition 3);
//! all remaining nodes are **communities** (`V1`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rkranks_graph::{EdgeDirection, Graph, GraphBuilder, NodeId};

/// Tuning knobs for the road-network generator.
#[derive(Clone, Debug)]
pub struct RoadParams {
    /// Grid width (nodes per row).
    pub width: u32,
    /// Grid height (rows).
    pub height: u32,
    /// Fraction of non-tree grid edges removed (0 = full grid ≈ degree 4;
    /// 0.55 lands near road-network sparsity ≈ 2.5).
    pub knockout: f64,
    /// Number of store nodes to mark.
    pub stores: u32,
    /// Positional jitter as a fraction of grid spacing.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RoadParams {
    /// Defaults for a `width × height` grid with `stores` stores.
    pub fn grid(width: u32, height: u32, stores: u32, seed: u64) -> RoadParams {
        RoadParams {
            width,
            height,
            knockout: 0.55,
            stores,
            jitter: 0.3,
            seed,
        }
    }
}

/// A road network: the graph, node coordinates, and the store marking.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    /// The road graph (undirected).
    pub graph: Graph,
    /// Node coordinates (for examples that print maps).
    pub positions: Vec<(f64, f64)>,
    /// Store node ids, ascending.
    pub stores: Vec<NodeId>,
    /// `is_store[v]` marks the `V2` class of Definition 3.
    pub is_store: Vec<bool>,
}

/// Generate the road network.
///
/// Guarantees: undirected, connected (spanning tree retained), positive
/// travel-time weights, exactly `min(stores, nodes)` distinct stores.
pub fn road_network(params: &RoadParams) -> RoadNetwork {
    let RoadParams {
        width,
        height,
        knockout,
        stores,
        jitter,
        seed,
    } = *params;
    assert!(width >= 2 && height >= 2, "grid must be at least 2×2");
    assert!(
        (0.0..=1.0).contains(&knockout),
        "knockout must be a fraction"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = width * height;
    let id = |x: u32, y: u32| y * width + x;

    // Jittered positions.
    let mut positions = Vec::with_capacity(n as usize);
    for y in 0..height {
        for x in 0..width {
            let jx = rng.random_range(-jitter..jitter);
            let jy = rng.random_range(-jitter..jitter);
            positions.push((x as f64 + jx, y as f64 + jy));
        }
    }

    // All grid edges (right + down neighbors).
    let mut grid_edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n as usize);
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                grid_edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < height {
                grid_edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    grid_edges.shuffle(&mut rng);

    // Randomized Kruskal: the first edges joining two components form a
    // uniform-ish random spanning tree that is always kept.
    let mut dsu = Dsu::new(n);
    let mut b = GraphBuilder::with_capacity(EdgeDirection::Undirected, grid_edges.len());
    b.reserve_nodes(n);
    let add = |b: &mut GraphBuilder, rng: &mut StdRng, u: u32, v: u32| {
        let (ax, ay) = positions[u as usize];
        let (bx, by) = positions[v as usize];
        let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(1e-6);
        // speed factor: most roads similar, some slow (hills, lights)
        let speed = rng.random_range(0.8..1.6);
        b.add_edge(u, v, dist * speed).expect("valid road edge");
    };
    for &(u, v) in &grid_edges {
        // spanning-tree edges are always kept; others survive the knockout
        let keep = dsu.union(u, v) || rng.random::<f64>() >= knockout;
        if keep {
            add(&mut b, &mut rng, u, v);
        }
    }
    let graph = b.build().expect("road network is valid");

    // Stores: distinct random nodes.
    let mut ids: Vec<NodeId> = graph.nodes().collect();
    ids.shuffle(&mut rng);
    let mut store_ids: Vec<NodeId> = ids.into_iter().take(stores.min(n) as usize).collect();
    store_ids.sort_unstable();
    let mut is_store = vec![false; n as usize];
    for &s in &store_ids {
        is_store[s.index()] = true;
    }

    RoadNetwork {
        graph,
        positions,
        stores: store_ids,
        is_store,
    }
}

/// Minimal union–find for the spanning-tree construction.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: u32) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Returns `true` if the sets were disjoint (edge joins components).
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.parent[ra as usize] = rb;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::to_real;
    use rkranks_graph::traversal::is_weakly_connected;

    fn small() -> RoadNetwork {
        road_network(&RoadParams::grid(20, 15, 12, 3))
    }

    #[test]
    fn node_count_and_connectivity() {
        let r = small();
        assert_eq!(r.graph.num_nodes(), 300);
        assert!(is_weakly_connected(&r.graph));
        assert!(!r.graph.is_directed());
    }

    #[test]
    fn sparsity_matches_road_regime() {
        let r = road_network(&RoadParams::grid(50, 40, 100, 5));
        let avg = r.graph.average_degree();
        assert!((2.0..3.2).contains(&avg), "average degree {avg}");
    }

    #[test]
    fn stores_are_distinct_and_marked() {
        let r = small();
        assert_eq!(r.stores.len(), 12);
        let mut sorted = r.stores.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        for &s in &r.stores {
            assert!(r.is_store[s.index()]);
        }
        assert_eq!(r.is_store.iter().filter(|&&b| b).count(), 12);
    }

    #[test]
    fn weights_reflect_geometry() {
        let r = small();
        for u in r.graph.nodes() {
            for (v, w) in r.graph.edges(u) {
                let w = to_real(w);
                let (ax, ay) = r.positions[u.index()];
                let (bx, by) = r.positions[v.index()];
                let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                assert!(w > 0.0);
                assert!(
                    w >= dist * 0.8 - 1e-9 && w <= dist * 1.6 + 1e-9,
                    "weight {w} outside speed band for length {dist}"
                );
            }
        }
    }

    #[test]
    fn knockout_zero_keeps_full_grid() {
        let r = road_network(&RoadParams {
            width: 5,
            height: 4,
            knockout: 0.0,
            stores: 2,
            jitter: 0.1,
            seed: 1,
        });
        // full grid: 4*4 + 5*3 = 31 edges
        assert_eq!(r.graph.num_edges(), 31);
    }

    #[test]
    fn knockout_one_leaves_spanning_tree() {
        let r = road_network(&RoadParams {
            width: 6,
            height: 6,
            knockout: 1.0,
            stores: 2,
            jitter: 0.1,
            seed: 2,
        });
        assert_eq!(r.graph.num_edges() as u32, r.graph.num_nodes() - 1);
        assert!(is_weakly_connected(&r.graph));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = road_network(&RoadParams::grid(10, 10, 5, 9));
        let b = road_network(&RoadParams::grid(10, 10, 5, 9));
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.stores, b.stores);
    }

    #[test]
    fn stores_capped_by_node_count() {
        let r = road_network(&RoadParams::grid(2, 2, 99, 0));
        assert_eq!(r.stores.len(), 4);
    }
}
