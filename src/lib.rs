//! # reverse-k-ranks
//!
//! A from-scratch Rust implementation of **Reverse k-Ranks Queries on Large
//! Graphs** (Qian, Li, Mamoulis, Liu, Cheung — EDBT 2017): the
//! filter-and-refine SDS-tree framework, the dynamic Theorem-2 rank bounds,
//! and the dynamically refined hub index, plus the substrates (CSR graphs,
//! decrease-key Dijkstra, ranking primitives) and synthetic stand-ins for
//! the paper's DBLP / Epinions / SF datasets.
//!
//! This crate is a facade: its [`prelude`] re-exports the names
//! applications use from the workspace crates, so they can depend on one
//! name.
//!
//! ```
//! use reverse_k_ranks::prelude::*;
//!
//! // The paper's Figure 1 graph: Alice is a new researcher with one weak
//! // link; who is most likely to collaborate with her?
//! let g = toy::paper_example();
//! let mut engine = QueryEngine::new(&g);
//! let outcome = engine.execute(&QueryRequest::new(toy::ALICE, 2)).unwrap();
//! // Example 1: the reverse 2-ranks of Alice are Bob and Caroline.
//! assert_eq!(outcome.result.nodes(), vec![toy::BOB, toy::CAROLINE]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// One-stop imports for applications.
pub mod prelude {
    pub use rkranks_coord::CoordConfig;
    pub use rkranks_core::{
        BoundConfig, Completion, EngineContext, HubStrategy, IndexAccess, IndexParams, Partition,
        QueryEngine, QueryOutcome, QueryRequest, QueryResult, QuerySpec, RkrIndex, Strategy,
    };
    pub use rkranks_datasets::{toy, Scale};
    pub use rkranks_graph::{
        DijkstraWorkspace, DistanceBrowser, EdgeDirection, Graph, GraphBuilder, NodeId, ShardMap,
        ShardSlice,
    };
    pub use rkranks_server::{Client, QueryOptions, ServerConfig};
}
