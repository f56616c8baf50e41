//! # rkranks-coord
//!
//! The coordinator for **replicated rkrd serving**: one daemon
//! (`rkr coord`) that speaks the same newline-delimited JSON protocol as
//! `rkrd` on its front side, sends each read to one `rkrd` replica
//! ("shard") of the fleet behind it, and broadcasts each write to all of
//! them.
//!
//! ## Deployment model
//!
//! Every shard is a full replica: it loads the whole graph and answers
//! every query over the whole candidate set. Shard `i` of `n` (started
//! with `rkr serve --shard-id i --shard-count n`) announces its place in
//! its `hello` so the coordinator can verify the wiring; the place does
//! not change any answer. A query goes to the lowest-index live replica,
//! and its answer is the coordinator's: asking a second replica would run
//! the same search twice for the same answer. Candidates are not
//! partitioned: a shard that ranked only a slice of them would fill its
//! result set late and prune little, costing two orders of magnitude more
//! engine work for the same answer. Routing each query to its node's
//! owner instead of replica 0 (ROADMAP item 4) waits for the benchmark's
//! re-levelling (item 1(h)), whose traced probe expects replica 0 to have
//! answered every read.
//!
//! ## Consistency
//!
//! * **Handshake** — each shard connection opens with a `hello`
//!   exchange; the coordinator verifies the protocol version, that the
//!   daemon's shard identity (index/count/seed) matches its slot in the
//!   `--shards` list, that the whole fleet shares one partition seed, and
//!   that every replica at the newest graph epoch announces the same graph
//!   digest. Digests are compared on a worker's first read, after every
//!   write and on every redial; replicas on different graphs are refused
//!   with an error naming both, before either answers.
//! * **Writes** — `update` batches broadcast to every shard behind a
//!   write gate (readers share it, writers exclude them) and are
//!   *flushed immediately*, so every accepted write commits on every
//!   shard before the next query round observes it and shard graph
//!   epochs advance in lockstep. A shard that fails mid-broadcast makes
//!   the reply a loud error naming it: the fleet must be assumed
//!   non-uniform until that shard is restored.
//! * **Reads** — replies carry the graph epoch they were computed at.
//!   A replica whose reply is behind the newest epoch the fleet reported
//!   is flushed and asked once more; still behind, the next replica
//!   answers.
//! * **Failures** — an unreachable replica is skipped and the next one in
//!   index order answers: any live replica's answer is complete, so shard
//!   loss never makes an answer `partial` (that flag means a deadline).
//!   Writes, which must reach every replica, fail loudly until the fleet
//!   is whole.
//!
//! The coordinator serves `stats`/`metrics` from its own registry
//! (`rkrd_coord_*`: per-shard latency histograms, fan-out width, entry
//! counts, shard error counters), answers `hello` with role `"coord"` and
//! the graph digest it last verified, and
//! forwards `flush`/`checkpoint` to the whole fleet. `shutdown` stops
//! the coordinator only — shards are independent daemons with their own
//! lifecycles.
//!
//! ## Front end
//!
//! The coordinator runs `rkrd`'s reactor ([`rkranks_server::reactor`]):
//! the same epoll workers, write backpressure, line cap, accept-error
//! policy and front-side instruments, with one `ShardPool` as each
//! worker's state (so the read path takes no lock beyond the write
//! gate). It takes `rkrd`'s default worker count (4) and write high-water
//! mark; neither is a coordinator knob.
//!
//! * A worker blocks for one request, as an `rkrd` worker blocks for one
//!   engine call: at most 4 requests are in flight at once, however many
//!   connections are open. Parked connections cost a wake-up nothing.
//! * Idle workers wake every 25 ms to check for shutdown; the request
//!   path pays no timer. `shutdown` (the protocol op or
//!   [`CoordHandle::stop`]) raises the flag, and each worker closes its
//!   connections as it exits.
//!
//! ## Loopback quickstart
//!
//! ```no_run
//! use rkranks_coord::{spawn_coord, CoordConfig};
//! use rkranks_server::Client;
//!
//! let config = CoordConfig::new(vec![
//!     "127.0.0.1:7001".into(), // shard 0 of 2
//!     "127.0.0.1:7002".into(), // shard 1 of 2
//! ]);
//! let handle = spawn_coord("127.0.0.1:0", config).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client.query(0, 5).unwrap(); // rank-identical to one box
//! # drop(reply);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod metrics;
mod pool;

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use rkranks_server::reactor::{Reactor, Service};
use rkranks_server::{
    check_served, HelloReply, Reply, Request, ServerConfig, StatsReply, PROTOCOL_VERSION,
};

pub use metrics::CoordMetrics;
use pool::ShardPool;

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// Shard addresses in shard-id order (`--shards A,B,C` means A is
    /// shard 0 of 3). Must be non-empty and must name every shard of
    /// the fleet exactly once — the handshake enforces it.
    pub shards: Vec<String>,
    /// How long one shard reply may take before the shard counts as
    /// dead for this request (and the connection is redialed next time).
    pub shard_reply_timeout: Duration,
    /// Frontside request-line cap, mirroring the shard daemon's.
    pub max_line_bytes: usize,
}

impl CoordConfig {
    /// A config for the given fleet with defaults: a 30 s reply timeout
    /// and 1 MiB lines.
    pub fn new(shards: Vec<String>) -> CoordConfig {
        CoordConfig {
            shards,
            shard_reply_timeout: Duration::from_secs(30),
            max_line_bytes: 1024 * 1024,
        }
    }
}

/// State every reactor worker shares.
struct CoordShared {
    config: CoordConfig,
    metrics: Arc<CoordMetrics>,
    /// The write gate: queries and batches hold it shared, update /
    /// flush / checkpoint broadcasts hold it exclusively. With all
    /// writes routed through the coordinator this keeps shard graph
    /// epochs aligned outside a write window, so the laggard flush on the
    /// read path ([`ShardPool::query`]) is a fallback, not the norm. It
    /// guards no data, so a worker that panics while holding it leaves
    /// nothing torn: later requests take it through the poison.
    write_gate: RwLock<()>,
    shutdown: AtomicBool,
}

/// A running coordinator's handle: its bound address and the reactor
/// thread to join after a client sends `shutdown`.
pub struct CoordHandle {
    addr: SocketAddr,
    thread: JoinHandle<()>,
    shared: Arc<CoordShared>,
}

impl CoordHandle {
    /// The address the coordinator is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator's telemetry (live handles, not a snapshot).
    pub fn metrics(&self) -> Arc<CoordMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Ask the coordinator to stop without a protocol `shutdown` (used
    /// by tests and signal handlers); pair with [`CoordHandle::join`].
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Wait for every reactor worker to exit.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Bind `addr` and run the coordinator on a background thread.
pub fn spawn_coord(addr: impl ToSocketAddrs, config: CoordConfig) -> io::Result<CoordHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let (shared, reactor) = start(listener, config)?;
    let serving = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("coord".into())
        .spawn(move || reactor.run(&*serving, &serving.metrics.front, &serving.shutdown))?;
    Ok(CoordHandle {
        addr,
        thread,
        shared,
    })
}

/// Run the coordinator on the calling thread until a client sends
/// `shutdown`. The CLI path (`rkr coord`).
pub fn serve_coord(listener: TcpListener, config: CoordConfig) -> io::Result<()> {
    let (shared, reactor) = start(listener, config)?;
    reactor.run(&*shared, &shared.metrics.front, &shared.shutdown);
    Ok(())
}

/// The shared state and the reactor (`rkrd`'s default shape with the
/// configured line cap) for one coordinator.
fn start(listener: TcpListener, config: CoordConfig) -> io::Result<(Arc<CoordShared>, Reactor)> {
    let front = ServerConfig {
        max_line_bytes: config.max_line_bytes,
        ..ServerConfig::default()
    };
    let shared = new_shared(config)?;
    Ok((Arc::new(shared), Reactor::new(listener, &front)?))
}

fn new_shared(config: CoordConfig) -> io::Result<CoordShared> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a coordinator needs at least one shard address",
        ));
    }
    let metrics = Arc::new(CoordMetrics::new(config.shards.len()));
    Ok(CoordShared {
        config,
        metrics,
        write_gate: RwLock::new(()),
        shutdown: AtomicBool::new(false),
    })
}

impl Service for CoordShared {
    type Worker = ShardPool;

    fn worker(&self) -> ShardPool {
        ShardPool::new(&self.config, Arc::clone(&self.metrics))
    }

    /// Serve one parsed request against the fleet.
    fn execute(&self, pool: &mut ShardPool, req: Request) -> Reply {
        let (m, gate) = (&self.metrics, &self.write_gate);
        match req {
            Request::Query {
                node,
                k,
                cache,
                strategy,
                deadline_ms,
            } => {
                // Refused here as rkrd would refuse it, uncounted, before
                // any shard sees the line.
                let served = check_served(ServerConfig::default().bounds, strategy.as_deref());
                if let Err(msg) = served {
                    return Reply::Error(msg);
                }
                let _read = gate.read().unwrap_or_else(PoisonError::into_inner);
                m.queries.inc();
                pool.query(node, k, cache, strategy, deadline_ms)
            }
            Request::Batch { nodes, k } => {
                let _read = gate.read().unwrap_or_else(PoisonError::into_inner);
                m.batches.inc();
                pool.batch(&nodes, k)
            }
            Request::Update { ops } => {
                let _write = gate.write().unwrap_or_else(PoisonError::into_inner);
                m.updates.inc();
                // The merged reply mirrors the single-box shape: staged
                // count and the pre-commit graph epoch. Deterministic
                // validation against identical replicated graphs means the
                // per-shard replies agree; max() is belt and braces.
                let (staged, graph_epoch) = match pool.broadcast(&Request::Update { ops }) {
                    Ok(replies) => replies
                        .iter()
                        .filter_map(|r| match r {
                            Reply::Update {
                                staged,
                                graph_epoch,
                            } => Some((*staged, *graph_epoch)),
                            _ => None,
                        })
                        .max()
                        .unwrap_or((0, 0)),
                    Err(e) => {
                        return Reply::Error(format!(
                            "update did not reach the whole fleet ({e}); the fleet may be \
                             non-uniform — restore the failed shard(s) before writing again"
                        ))
                    }
                };
                // Commit on every shard now: a prompt shard committed the
                // batch before replying and commits nothing here, but a
                // flush-only one (`merge_every` 0) would hold it until its
                // own next flush and let graph epochs drift apart.
                if let Err(e) = pool.broadcast(&Request::Flush) {
                    return Reply::Error(format!(
                        "update staged everywhere but the commit flush failed ({e}); \
                         restore the failed shard(s) — the next query round will \
                         re-flush the laggards"
                    ));
                }
                // A batch that nets to nothing commits nothing, so the
                // fleet's graph is read back, not assumed — and checked.
                if let Err(e) = pool.hello_round() {
                    return Reply::Error(format!("update committed, but {e}"));
                }
                Reply::Update {
                    staged,
                    graph_epoch,
                }
            }
            Request::Flush => {
                let _write = gate.write().unwrap_or_else(PoisonError::into_inner);
                match pool.broadcast(&Request::Flush) {
                    // Every shard commits the same staged batch, so the fleet
                    // committed the max of the shards' counts, not their sum.
                    Ok(replies) => {
                        let (mut epoch, mut merged) = (0, 0);
                        for r in &replies {
                            if let Reply::Flush {
                                epoch: e,
                                merged: d,
                            } = r
                            {
                                epoch = epoch.max(*e);
                                merged = merged.max(*d);
                            }
                        }
                        match pool.hello_round() {
                            Ok(()) => Reply::Flush { epoch, merged },
                            Err(e) => Reply::Error(format!("flush committed, but {e}")),
                        }
                    }
                    Err(e) => Reply::Error(e),
                }
            }
            Request::Checkpoint => {
                let _write = gate.write().unwrap_or_else(PoisonError::into_inner);
                match pool.broadcast(&Request::Checkpoint) {
                    Ok(replies) => replies
                        .into_iter()
                        .find(|r| matches!(r, Reply::Checkpoint { .. }))
                        .unwrap_or(Reply::Error("empty checkpoint fan-out".into())),
                    Err(e) => Reply::Error(e),
                }
            }
            Request::Stats => Reply::Stats(stats_snapshot(self)),
            Request::Metrics => Reply::Metrics(m.registry.snapshot()),
            // The coordinator computes nothing itself; its slow-query story
            // is the per-shard rings (`rkr ctl SHARD slow-queries`).
            Request::SlowQueries => Reply::SlowQueries(Vec::new()),
            Request::Hello => Reply::Hello(HelloReply {
                v: PROTOCOL_VERSION,
                role: "coord".into(),
                shard: None,
                epoch: 0,
                graph_epoch: m.graph_epoch.get(),
                nodes: m.graph_nodes.get(),
                edges: m.graph_edges.get(),
                graph_digest: *m
                    .graph_digest
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            }),
            // The reactor delivers the farewell and raises the flag;
            // shards keep running.
            Request::Shutdown => Reply::Shutdown,
        }
    }
}

/// The coordinator's `stats` view: fan-out and front-side counters where
/// they map onto the shared reply shape, zeros where a field is
/// shard-only (cache, commits — read those per shard).
fn stats_snapshot(shared: &CoordShared) -> StatsReply {
    let (m, front) = (&shared.metrics, &shared.metrics.front);
    StatsReply {
        v: PROTOCOL_VERSION,
        queries: m.queries.get(),
        partial_results: m.partials.get(),
        graph_epoch: m.graph_epoch.get(),
        graph_nodes: m.graph_nodes.get(),
        graph_edges: m.graph_edges.get(),
        workers: ServerConfig::default().workers as u64,
        updates_applied: m.updates.get(),
        accept_errors: front.accept_errors.get(),
        wakeups: front.wake_drain_seconds.count(),
        backpressure_pauses: front.backpressure_pauses.get(),
        oversize_lines: front.oversize_lines.get(),
        ..StatsReply::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_core::RkrIndex;
    use rkranks_server::{spawn, Client, ServerConfig};

    /// A worker that panics holding the write gate poisons it; the gate
    /// guards `()`, so later requests must still be served.
    #[test]
    fn a_poisoned_write_gate_still_serves() {
        let g = rkranks_datasets::toy::paper_example();
        let index = RkrIndex::empty(g.num_nodes(), 4);
        let shard = spawn(g, None, index, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let config = CoordConfig::new(vec![shard.addr().to_string()]);
        let shared = new_shared(config).expect("one-shard fleet");
        std::thread::scope(|s| {
            let dying = s.spawn(|| {
                let _write = shared.write_gate.write();
                panic!("a worker dies holding the write gate");
            });
            assert!(dying.join().is_err());
        });
        assert!(shared.write_gate.is_poisoned());

        let mut pool = ShardPool::new(&shared.config, Arc::clone(&shared.metrics));
        let query = Request::Query {
            node: 0,
            k: 2,
            cache: true,
            strategy: None,
            deadline_ms: None,
        };
        let reply = shared.execute(&mut pool, query);
        assert!(
            matches!(&reply, Reply::Query(q) if q.entries.len() == 2),
            "{reply:?}"
        );
        let reply = shared.execute(&mut pool, Request::Stats);
        assert!(
            matches!(&reply, Reply::Stats(s) if s.queries == 1),
            "{reply:?}"
        );

        drop(pool);
        Client::connect(shard.addr()).unwrap().shutdown().unwrap();
        shard.join();
    }
}
