//! Live-update workload generation: seeded streams of graph deltas.
//!
//! The churn experiments and the snapshot-equivalence proptests need
//! update streams that are *valid by construction* against an evolving
//! graph — every `AddEdge` names a pair that does not exist yet, every
//! `RemoveEdge`/`Reweight` names one that does, and node ids stay in
//! range as `AddNode`s land. [`update_stream`] tracks the effective edge
//! set while it samples, so any prefix of the stream applies cleanly
//! through `rkranks_graph::GraphStore` at any batch cadence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rkranks_graph::{Graph, GraphDelta};
use std::collections::HashSet;

/// Shape of an update stream: relative op frequencies and the weight
/// range for new/reweighted edges.
#[derive(Clone, Copy, Debug)]
pub struct UpdateStreamParams {
    /// Number of deltas to generate.
    pub ops: usize,
    /// RNG seed (streams are deterministic given seed + base graph).
    pub seed: u64,
    /// Relative frequency of `AddEdge`.
    pub add_edges: u32,
    /// Relative frequency of `RemoveEdge`.
    pub remove_edges: u32,
    /// Relative frequency of `Reweight`.
    pub reweights: u32,
    /// Relative frequency of `AddNode`.
    pub add_nodes: u32,
    /// Minimum sampled edge weight (must be positive and finite).
    pub min_weight: f64,
    /// Maximum sampled edge weight.
    pub max_weight: f64,
}

impl Default for UpdateStreamParams {
    /// A churny but growth-biased mix: mostly edge inserts, some
    /// removals and reweights, occasional node arrivals — the shape of a
    /// social/collaboration graph absorbing new activity.
    fn default() -> Self {
        UpdateStreamParams {
            ops: 100,
            seed: 42,
            add_edges: 6,
            remove_edges: 2,
            reweights: 3,
            add_nodes: 1,
            min_weight: 0.1,
            max_weight: 2.0,
        }
    }
}

/// Generate a valid-by-construction update stream against `graph`.
///
/// The sampler tracks the effective state (base graph + every delta
/// already emitted), so replaying the stream through a
/// `rkranks_graph::GraphStore` — in one batch or many — never hits a
/// validation error. When a sampled kind is momentarily impossible (no
/// edge left to remove, or the graph is too dense to find a fresh pair
/// quickly) it degrades to the nearest possible kind instead of failing,
/// so the stream always has exactly `params.ops` deltas.
pub fn update_stream(graph: &Graph, params: &UpdateStreamParams) -> Vec<GraphDelta> {
    assert!(
        params.min_weight > 0.0 && params.max_weight >= params.min_weight,
        "weight range must be positive and non-empty"
    );
    let total = params.add_edges + params.remove_edges + params.reweights + params.add_nodes;
    assert!(total > 0, "at least one op kind must have a nonzero weight");
    if params.ops == 0 {
        // Nothing to sample: skip the edge list and set below.
        return Vec::new();
    }
    let undirected = !graph.is_directed();
    let key = |u: u32, v: u32| {
        if undirected {
            (u.min(v), u.max(v))
        } else {
            (u, v)
        }
    };
    // Dense edge list for uniform removal/reweight sampling, set for
    // O(1) membership. Kept in sync with every emitted delta.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(graph.num_edges());
    for u in graph.nodes() {
        for (v, _) in graph.edges(u) {
            if !undirected || u.0 < v.0 {
                edges.push(key(u.0, v.0));
            }
        }
    }
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut num_nodes = graph.num_nodes();

    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut out = Vec::with_capacity(params.ops);
    let weight = |rng: &mut StdRng| rng.random_range(params.min_weight..=params.max_weight);
    while out.len() < params.ops {
        let mut roll = rng.random_range(0..total);
        let mut kind = 0usize; // 0 add, 1 remove, 2 reweight, 3 add-node
        for (i, w) in [
            params.add_edges,
            params.remove_edges,
            params.reweights,
            params.add_nodes,
        ]
        .into_iter()
        .enumerate()
        {
            if roll < w {
                kind = i;
                break;
            }
            roll -= w;
        }
        // Kinds that need an existing edge degrade to an insert when the
        // graph has none left.
        if (kind == 1 || kind == 2) && edges.is_empty() {
            kind = 0;
        }
        match kind {
            0 => {
                // A few tries to find a fresh pair; a dense (or tiny)
                // graph degrades to a node arrival, which always works.
                let mut placed = false;
                if num_nodes >= 2 {
                    for _ in 0..32 {
                        let u = rng.random_range(0..num_nodes);
                        let v = rng.random_range(0..num_nodes);
                        if u == v || present.contains(&key(u, v)) {
                            continue;
                        }
                        let k = key(u, v);
                        present.insert(k);
                        edges.push(k);
                        out.push(GraphDelta::AddEdge {
                            u,
                            v,
                            w: weight(&mut rng),
                        });
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    out.push(GraphDelta::AddNode);
                    num_nodes += 1;
                }
            }
            1 => {
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                present.remove(&(u, v));
                out.push(GraphDelta::RemoveEdge { u, v });
            }
            2 => {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                out.push(GraphDelta::Reweight {
                    u,
                    v,
                    w: weight(&mut rng),
                });
            }
            _ => {
                out.push(GraphDelta::AddNode);
                num_nodes += 1;
            }
        }
    }
    out
}

/// Convenience: the default mix with a given length and seed.
pub fn default_update_stream(graph: &Graph, ops: usize, seed: u64) -> Vec<GraphDelta> {
    update_stream(
        graph,
        &UpdateStreamParams {
            ops,
            seed,
            ..UpdateStreamParams::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_graph::{graph_from_edges, EdgeDirection, GraphStore};

    fn base() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [(0, 1, 1.0), (1, 2, 1.5), (2, 3, 0.5), (3, 0, 2.0)],
        )
        .unwrap()
    }

    #[test]
    fn an_empty_stream_still_checks_its_params() {
        let g = base();
        assert!(default_update_stream(&g, 0, 7).is_empty());
        let empty = |params: UpdateStreamParams| {
            let params = UpdateStreamParams { ops: 0, ..params };
            std::panic::catch_unwind(|| update_stream(&g, &params)).map_err(|e| {
                e.downcast_ref::<&str>()
                    .map_or_else(String::new, |m| m.to_string())
            })
        };
        let bad_range = UpdateStreamParams {
            min_weight: 2.0,
            max_weight: 1.0,
            ..UpdateStreamParams::default()
        };
        let no_kind = UpdateStreamParams {
            add_edges: 0,
            remove_edges: 0,
            reweights: 0,
            add_nodes: 0,
            ..UpdateStreamParams::default()
        };
        let not_positive = UpdateStreamParams {
            min_weight: 0.0,
            ..UpdateStreamParams::default()
        };
        assert_eq!(empty(UpdateStreamParams::default()), Ok(Vec::new()));
        for params in [bad_range, not_positive] {
            let err = empty(params).unwrap_err();
            assert!(err.contains("weight range"), "{err}");
        }
        assert!(empty(no_kind).unwrap_err().contains("op kind"));
    }

    #[test]
    fn stream_is_deterministic_and_sized() {
        let g = base();
        let a = default_update_stream(&g, 50, 7);
        let b = default_update_stream(&g, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert_ne!(a, default_update_stream(&g, 50, 8), "seed must matter");
    }

    #[test]
    fn stream_applies_cleanly_at_any_cadence() {
        let g = base();
        let stream = default_update_stream(&g, 120, 3);
        for cadence in [1usize, 7, 120] {
            let mut store = GraphStore::new(g.clone());
            for chunk in stream.chunks(cadence) {
                store
                    .apply(chunk)
                    .unwrap_or_else(|e| panic!("cadence {cadence}: {e}"));
            }
        }
    }

    #[test]
    fn directed_streams_apply_cleanly() {
        let g = graph_from_edges(
            EdgeDirection::Directed,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        )
        .unwrap();
        let stream = default_update_stream(&g, 80, 11);
        let mut store = GraphStore::new(g);
        store.apply(&stream).unwrap();
    }

    #[test]
    fn removal_heavy_stream_survives_edge_exhaustion() {
        let g = base();
        let stream = update_stream(
            &g,
            &UpdateStreamParams {
                ops: 60,
                seed: 1,
                add_edges: 0,
                remove_edges: 10,
                reweights: 1,
                add_nodes: 0,
                ..UpdateStreamParams::default()
            },
        );
        assert_eq!(stream.len(), 60);
        let mut store = GraphStore::new(g);
        store.apply(&stream).unwrap();
    }

    #[test]
    fn weights_respect_the_configured_range() {
        let g = base();
        let stream = update_stream(
            &g,
            &UpdateStreamParams {
                ops: 200,
                seed: 5,
                min_weight: 0.5,
                max_weight: 0.75,
                ..UpdateStreamParams::default()
            },
        );
        for d in &stream {
            if let GraphDelta::AddEdge { w, .. } | GraphDelta::Reweight { w, .. } = d {
                assert!((0.5..=0.75).contains(w), "weight {w} out of range");
            }
        }
    }
}
