//! # rkranks-server
//!
//! `rkrd` — a network serving subsystem for reverse k-ranks queries: a
//! hand-rolled TCP daemon (the build environment is offline, so no tokio —
//! a fixed pool of event-loop workers on raw `epoll(7)` syscalls)
//! speaking a newline-delimited JSON protocol, plus the blocking
//! [`Client`] the `rkr serve` / `rkr query --remote` CLI paths use.
//! The event loop is the [`reactor`], generic over the [`reactor::Service`]
//! that answers requests: `rkrd` ([`serve_store`]) and the `rkr coord`
//! coordinator both run it, with per-connection write backpressure and
//! bounded request lines.
//!
//! On top of the transport sits the serving-side performance layer:
//!
//! * a **live graph**: the daemon owns a [`rkranks_graph::GraphStore`];
//!   `update` ops stage edge/node deltas that commit into fresh immutable
//!   graph snapshots under a monotonically increasing *graph epoch* —
//!   where a commit is asked for: in the worker that stages an `update`
//!   before it replies (every `rkr serve` daemon), on a `flush`, and at
//!   shutdown; queries keep serving throughout, and every reply says
//!   which graph epoch answered it;
//! * **one served strategy**: every query runs the §4 dynamic search
//!   (`dynamic-three`); a request naming any other strategy gets an error
//!   reply pointing at `rkr query` / `rkr batch`, which run every strategy
//!   in-process;
//! * an **LRU result cache** keyed by `(node, k, graph epoch)`
//!   ([`cache::ResultCache`]) answering repeated queries for hot nodes
//!   without touching the graph, and
//! * **epoch-based invalidation**: a committed graph update bumps the
//!   graph epoch, which keys the cache, strands the whole cache and
//!   *retires* the [`rkranks_core::RkrIndex`] the daemon holds (no query
//!   reads it; it sits beside the graph store and rides along in
//!   checkpoints): stale rank knowledge is
//!   unsound on a changed graph ([`rkranks_core::RkrIndex::graph_epoch`]
//!   documents why);
//! * **durable restarts**: with a snapshot path configured
//!   ([`ServerConfig::snapshot`]) the daemon checkpoints its serving state
//!   — committed graph, index, epoch pair, and any staged WAL — as a
//!   [`rkranks_core::save_snapshot`] bundle after every commit of staged
//!   updates, on a `checkpoint` op, and at shutdown; a restart through
//!   [`rkranks_core::load_snapshot`] + [`serve_store`] resumes serving
//!   rank-identical answers at the same epochs.
//!
//! ## Loopback quickstart
//!
//! ```
//! use rkranks_core::RkrIndex;
//! use rkranks_graph::{graph_from_edges, EdgeDirection};
//! use rkranks_server::{spawn, Client, ServerConfig};
//!
//! let g = graph_from_edges(EdgeDirection::Undirected, [
//!     (0, 1, 1.0), (1, 2, 0.2), (1, 3, 0.3), (2, 4, 1.0),
//! ]).unwrap();
//! let index = RkrIndex::empty(g.num_nodes(), 16);
//! let handle = spawn(g, None, index, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client.query(0, 2).unwrap();
//! assert_eq!(reply.entries.len(), 2);
//! assert!(client.query(0, 2).unwrap().cached); // hot node: cache hit
//!
//! client.shutdown().unwrap();
//! let outcome = handle.join(); // the graph the daemon ended on
//! assert_eq!(outcome.graph_epoch, 0);
//! ```
//!
//! [`Request`] and [`Reply`] are the wire messages, one JSON object per
//! line; [`ServerConfig`] holds the daemon's settings.
//!
//! The daemon tier (this crate, `rkranks_coord`, and the `rkr` facade)
//! is Linux-only; the engine and the paper's experiment harness build
//! anywhere.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "rkranks_server is Linux-only: rkrd serves on epoll(7). The engine and the \
     experiments crates (rkranks_graph, rkranks_core, rkranks_datasets, rkranks_eval) \
     build anywhere."
);

pub mod cache;
mod client;
mod conn;
mod event;
pub mod json;
pub mod log;
pub mod metrics;
mod protocol;
pub mod reactor;
mod server;

pub use cache::{CacheKey, ResultCache};
pub use client::{Client, ClientError, QueryOptions, MAX_REPLY_BYTES};
pub use protocol::{
    BatchReply, HelloReply, QueryReply, Reply, Request, StatsReply, UpdateOp, PROTOCOL_VERSION,
};
pub use server::{check_served, serve_store, spawn, spawn_store, ServerConfig, ServerHandle};
