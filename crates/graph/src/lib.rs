//! # rkranks-graph
//!
//! Graph substrate for the reverse k-ranks query reproduction (EDBT 2017,
//! Qian et al.). Everything the paper's algorithms stand on is implemented
//! here from scratch:
//!
//! * CSR weighted graphs ([`Graph`], [`GraphBuilder`]) with transpose views
//!   for directed SDS-trees;
//! * versioned live graphs ([`GraphStore`]): staged [`GraphDelta`] batches
//!   (add/remove edge, add node, reweight) committed into immutable
//!   epoch-tagged `Arc<Graph>` snapshots — the substrate for serving
//!   queries while the graph changes;
//! * reusable, generation-stamped [`DijkstraWorkspace`]s — one 16-byte
//!   record per node and the decrease-key heap of Algorithms 1–4 — the lazy
//!   [`DistanceBrowser`] ("distance browsing") for full SSSPs, and its
//!   truncated form [`BoundedBrowser`], which stops feeding the frontier
//!   at the `limit`-th nearest node — index building, k-NN and top-k sets
//!   all share it;
//! * exact distances: every weight on one fixed grid of 2^-32 real units,
//!   every [`Distance`] a `u64` count of them ([`UNIT`] per real unit,
//!   [`to_real`] back for output), so a sum is the same in every order;
//! * tie-aware rank semantics ([`RankCounter`], [`rank_between`],
//!   [`rank_matrix`]) implementing Definition 1 exactly;
//! * the competitor queries (top-k, reverse top-k) used by the paper's
//!   effectiveness analysis (§6.2);
//! * sampled closeness centrality for the Closeness-First hub
//!   strategy (§5.1);
//! * plain-text edge-list I/O.
//!
//! The query algorithms themselves live in `rkranks-core`; synthetic
//! datasets in `rkranks-datasets`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod builder;
pub mod centrality;
mod csr;
pub mod dijkstra;
mod error;
mod graph;
mod io;
pub mod metrics;
mod node;
pub mod path;
mod rank;
mod shard;
mod store;
mod topk;
pub mod traversal;
mod weight;

pub use builder::{graph_from_edges, DedupPolicy, EdgeDirection, GraphBuilder};
pub use dijkstra::{
    distance, shortest_path_tree, sssp, BoundedBrowser, DijkstraWorkspace, DistanceBrowser,
    RelaxOutcome,
};
pub use error::{GraphError, Result};
pub use graph::Graph;
pub use io::{load_graph, read_graph, save_graph, write_atomic, write_graph};
pub use node::NodeId;
pub use rank::{rank_between, rank_matrix, RankCounter};
pub use shard::{ShardMap, ShardSlice};
pub use store::{GraphDelta, GraphStore};
pub use topk::{
    agreement_rate, reverse_top_k, reverse_top_k_sizes, reverse_top_k_stats, top_k_set,
};
pub use weight::{to_real, Distance, INF, UNIT};
