//! # rkranks-core
//!
//! Reverse k-ranks queries on large graphs — a from-scratch Rust
//! implementation of Qian, Li, Mamoulis, Liu & Cheung, *Reverse k-Ranks
//! Queries on Large Graphs*, EDBT 2017.
//!
//! Given a weighted graph and a query node `q`, the reverse k-ranks query
//! returns the `k` nodes that rank `q` highest by shortest-path distance —
//! a recommendation primitive whose result size is always `k`, unlike
//! reverse top-k / RkNN queries that starve cold nodes and flood hot ones.
//!
//! ## Quick start
//!
//! Every query is a [`QueryRequest`] — node, `k`, a [`Strategy`], and
//! optional trace/deadline/budget — executed by one entry point:
//!
//! ```
//! use rkranks_core::{QueryEngine, QueryRequest};
//! use rkranks_graph::{graph_from_edges, EdgeDirection, NodeId};
//!
//! // A little collaboration graph.
//! let g = graph_from_edges(EdgeDirection::Undirected, [
//!     (0, 1, 1.0), (1, 2, 0.2), (1, 3, 0.3), (2, 4, 1.0),
//! ]).unwrap();
//!
//! let mut engine = QueryEngine::new(&g);
//! // Default strategy: §4 dynamic search with all Theorem-2 bounds.
//! let outcome = engine.execute(&QueryRequest::new(NodeId(0), 2)).unwrap();
//! assert!(outcome.is_complete());
//! assert_eq!(outcome.result.entries.len(), 2);
//! // outcome.result.entries[i].rank is the exact Rank(node, q)
//! ```
//!
//! ## The evaluation strategies
//!
//! | [`Strategy`] | Paper | String form |
//! |---|---|---|
//! | [`Strategy::Naive`] | §2 | `naive` |
//! | [`Strategy::Static`] | §3 | `static` |
//! | [`Strategy::Dynamic`] | §4 | `dynamic[-parent\|-height\|-count\|-three]` |
//! | [`Strategy::Indexed`] | §5 | `indexed[-…]`, with an [`IndexAccess`] binding |
//!
//! The string forms round-trip through [`Strategy::name`] /
//! [`std::str::FromStr`], so the same spelling selects algorithms in the
//! `rkr` CLI, the serving protocol, and the eval harness. Requests with a
//! [`QueryRequest::deadline`] or [`QueryRequest::refine_budget`] may
//! return a [`Completion::Partial`] outcome whose entries are still exact
//! — see [`Completion`].
//!
//! Bichromatic queries (§6.3.4) use [`QueryEngine::bichromatic`] with a
//! [`Partition`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod bichromatic;
mod context;
mod engine;
mod index;
mod index_io;
pub mod refine;
mod request;
mod result;
mod scratch;
mod snapshot;
mod spec;
mod stats;
mod telemetry;
mod trace;
mod validate;

pub use context::{EngineContext, QueryScratch};
pub use engine::{BoundConfig, QueryEngine};
pub use index::{HubStrategy, IndexAccess, IndexDelta, IndexParams, RkrIndex};
pub use index_io::{load_index, read_index, save_index, write_index};
pub use request::{Completion, PartialReason, QueryOutcome, QueryRequest, Strategy};
pub use result::{QueryResult, ResultEntry, TopKCollector};
pub use snapshot::{load_snapshot, save_snapshot};
pub use spec::{Partition, QuerySpec};
pub use stats::{QueryStageStats, QueryStats};
pub use telemetry::{
    render_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue,
    MetricsSnapshot, Registry,
};
pub use trace::PopDecision;
pub use validate::{assert_all_strategies_match, assert_equivalent, results_equivalent};
