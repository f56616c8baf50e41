//! Property tests for the versioned graph store: live updates are
//! *exactly* equivalent to rebuilding from scratch.
//!
//! For random base graphs × random update streams × random batch
//! cadences:
//!
//! 1. the snapshot `GraphStore` publishes after the final commit is
//!    **identical** (CSR equality) to a `GraphBuilder` build of the final
//!    edge list, where "final edge list" is computed by an independent
//!    test-side replay of the deltas over a hash map;
//! 2. reverse k-ranks answers on that snapshot — via the unified
//!    `execute` path with the dynamic strategy — match the
//!    [`Strategy::Naive`] brute force on the same snapshot;
//! 3. node-heavy streams with rolled-back batches between commits keep
//!    (1), and the staged state's WAL replays to the same commit.
//!
//! Together these close the loop the serving daemon depends on: an
//! updated graph answers queries exactly as if it had been loaded fresh.

use std::collections::HashMap;

use proptest::prelude::*;
use rkranks_core::{EngineContext, QueryRequest, Strategy as QueryStrategy};
use rkranks_datasets::{update_stream, UpdateStreamParams};
use rkranks_graph::{to_real, EdgeDirection, Graph, GraphBuilder, GraphDelta, GraphStore};

/// Generator: a connected-ish random weighted graph as (node count,
/// direction, edge list).
fn arb_graph(
    max_nodes: u32,
    max_extra_edges: usize,
) -> impl Strategy<Value = (u32, bool, Vec<(u32, u32, f64)>)> {
    (2..=max_nodes, proptest::arbitrary::any::<bool>()).prop_flat_map(move |(n, directed)| {
        let backbone = proptest::collection::vec(0.05f64..10.0, (n - 1) as usize).prop_map(
            move |ws| -> Vec<(u32, u32, f64)> {
                ws.iter()
                    .enumerate()
                    .map(|(i, &w)| (i as u32 + 1, (i as u32) / 2, w))
                    .collect()
            },
        );
        let extra = proptest::collection::vec((0..n, 0..n, 0.05f64..10.0), 0..=max_extra_edges);
        (Just(n), Just(directed), backbone, extra).prop_map(|(n, directed, mut b, e)| {
            b.extend(e.into_iter().filter(|(u, v, _)| u != v));
            (n, directed, b)
        })
    })
}

fn build(n: u32, direction: EdgeDirection, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = GraphBuilder::new(direction);
    b.reserve_nodes(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w).unwrap();
    }
    b.build().unwrap()
}

/// Independent replay of the delta semantics: a canonical-keyed weight
/// map plus a node counter. This is the test's ground truth — it shares
/// no code with `GraphStore`.
struct Replay {
    undirected: bool,
    nodes: u32,
    edges: HashMap<(u32, u32), f64>,
}

impl Replay {
    fn new(g: &Graph) -> Replay {
        let undirected = !g.is_directed();
        let mut edges = HashMap::new();
        for u in g.nodes() {
            for (v, w) in g.edges(u) {
                if !undirected || u.0 < v.0 {
                    edges.insert((u.0, v.0), to_real(w));
                }
            }
        }
        Replay {
            undirected,
            nodes: g.num_nodes(),
            edges,
        }
    }

    fn key(&self, u: u32, v: u32) -> (u32, u32) {
        if self.undirected {
            (u.min(v), u.max(v))
        } else {
            (u, v)
        }
    }

    fn apply(&mut self, d: GraphDelta) {
        match d {
            GraphDelta::AddNode => self.nodes += 1,
            GraphDelta::AddEdge { u, v, w } | GraphDelta::Reweight { u, v, w } => {
                self.edges.insert(self.key(u, v), w);
            }
            GraphDelta::RemoveEdge { u, v } => {
                self.edges.remove(&self.key(u, v));
            }
        }
    }

    fn final_graph(&self, direction: EdgeDirection) -> Graph {
        let edges: Vec<(u32, u32, f64)> =
            self.edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        build(self.nodes, direction, &edges)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any update stream, applied through `GraphStore` at any batch
    /// cadence, publishes exactly the graph a from-scratch build of the
    /// final edge list produces — and one graph epoch bump per
    /// state-changing commit.
    #[test]
    fn snapshots_equal_from_scratch_builds(
        (n, directed, edges) in arb_graph(10, 14),
        ops in 1usize..40,
        cadence in 1usize..12,
        seed in 0u64..1000,
    ) {
        let direction = if directed {
            EdgeDirection::Directed
        } else {
            EdgeDirection::Undirected
        };
        let base = build(n, direction, &edges);
        let stream = update_stream(&base, &UpdateStreamParams {
            ops,
            seed,
            ..UpdateStreamParams::default()
        });

        let mut replay = Replay::new(&base);
        let mut store = GraphStore::new(base.clone());
        let mut commits = 0u64;
        for chunk in stream.chunks(cadence) {
            for &d in chunk {
                replay.apply(d);
            }
            let epoch_before = store.graph_epoch();
            store.apply(chunk).expect("valid-by-construction stream");
            // mid-stream invariant: every committed snapshot equals the
            // replay's from-scratch build at the same point
            prop_assert_eq!(&*store.snapshot(), &replay.final_graph(direction));
            commits += (store.graph_epoch() != epoch_before) as u64;
        }
        prop_assert_eq!(store.graph_epoch(), commits, "one bump per changing commit");
        prop_assert_eq!(store.snapshot().num_nodes(), replay.nodes);
    }

    /// Appended rows, wired in while their ids are still staged, with a
    /// rejected batch rolled back before every commit: each snapshot still
    /// equals the from-scratch build, and the staged state written out as a
    /// WAL (`staged_deltas`, read against the snapshot's rows) replays on a
    /// fresh store to the same commit.
    #[test]
    fn add_node_heavy_stream_with_rollbacks_replays_its_wal(
        (n, directed, edges) in arb_graph(8, 10),
        ops in 1usize..40,
        cadence in 1usize..8,
        seed in 0u64..1000,
    ) {
        let direction = if directed {
            EdgeDirection::Directed
        } else {
            EdgeDirection::Undirected
        };
        let base = build(n, direction, &edges);
        let stream = update_stream(&base, &UpdateStreamParams {
            ops,
            seed,
            add_nodes: 6,
            ..UpdateStreamParams::default()
        });

        let mut replay = Replay::new(&base);
        let mut store = GraphStore::new(base);
        for chunk in stream.chunks(cadence) {
            for &d in chunk {
                replay.apply(d);
            }
            store.stage_all(chunk).expect("valid-by-construction stream");
            let wal = store.staged_deltas();
            // Valid up to a self-loop at the end: it stages nothing.
            let fresh = store.effective_num_nodes();
            let rejected = [
                GraphDelta::AddNode,
                GraphDelta::AddEdge { u: 0, v: fresh, w: 1.0 },
                GraphDelta::AddEdge { u: 1, v: 1, w: 1.0 },
            ];
            prop_assert!(store.stage_all(&rejected).is_err());
            prop_assert_eq!(store.staged_deltas(), wal.clone());

            let mut restored = GraphStore::new((*store.snapshot()).clone());
            restored.stage_all(&wal).expect("a WAL replays onto its snapshot");
            let snapshot = store.commit();
            prop_assert_eq!(&*snapshot, &replay.final_graph(direction));
            prop_assert_eq!(&*restored.commit(), &*snapshot);
        }
    }

    /// On the updated snapshot, the production query path (dynamic
    /// strategy through `execute`) matches the §2 naive brute force for
    /// every query node — the updated graph answers exactly like a
    /// freshly loaded one.
    #[test]
    fn execute_on_updated_snapshot_matches_naive(
        (n, directed, edges) in arb_graph(8, 10),
        ops in 1usize..24,
        seed in 0u64..1000,
        k in 1u32..4,
    ) {
        let direction = if directed {
            EdgeDirection::Directed
        } else {
            EdgeDirection::Undirected
        };
        let base = build(n, direction, &edges);
        let stream = update_stream(&base, &UpdateStreamParams {
            ops,
            seed,
            ..UpdateStreamParams::default()
        });
        let mut store = GraphStore::new(base);
        store.apply(&stream).expect("valid-by-construction stream");
        let snapshot = store.snapshot();

        let ctx = EngineContext::new(snapshot.clone());
        let mut scratch = ctx.new_scratch();
        for q in snapshot.nodes() {
            let naive = ctx
                .execute(
                    &mut scratch,
                    &QueryRequest::new(q, k).with_strategy(QueryStrategy::Naive),
                )
                .unwrap()
                .result;
            let dynamic = ctx
                .execute(&mut scratch, &QueryRequest::new(q, k))
                .unwrap()
                .result;
            prop_assert_eq!(naive.ranks(), dynamic.ranks(), "q={}", q);
        }
    }
}
