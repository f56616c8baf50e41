//! # rkranks-coord
//!
//! The coordinator for **replicated rkrd serving**: one daemon
//! (`rkr coord`) that speaks the same newline-delimited JSON protocol as
//! `rkrd` on its front side and fans every request out to a fleet of
//! `rkrd` replicas ("shards") behind it.
//!
//! ## Deployment model
//!
//! Every shard is a full replica: it loads the whole graph and answers
//! every query over the whole candidate set. Shard `i` of `n` (started
//! with `rkr serve --shard-id i --shard-count n`) announces its place in
//! its `hello` so the coordinator can verify the wiring; the place does
//! not change any answer. A query goes to every live replica and the
//! coordinator returns one replica's complete answer after checking that
//! the replicas agree on the ranks (see [`pool`]). Candidates are not
//! partitioned: a shard that ranked only a slice of them would fill its
//! result set late and prune little, costing two orders of magnitude
//! more engine work for the same answer.
//!
//! ## Consistency
//!
//! * **Handshake** — each shard connection opens with a `hello`
//!   exchange; the coordinator verifies the protocol version, that the
//!   daemon's shard identity (index/count/seed) matches its slot in the
//!   `--shards` list, and that the whole fleet shares one partition seed.
//! * **Writes** — `update` batches broadcast to every shard behind a
//!   write gate (readers share it, writers exclude them) and are
//!   *flushed immediately*, so every accepted write commits on every
//!   shard before the next query round observes it and shard graph
//!   epochs advance in lockstep. A shard that fails mid-broadcast makes
//!   the reply a loud error naming it: the fleet must be assumed
//!   non-uniform until that shard is restored.
//! * **Reads** — replies carry the graph epoch they were computed at;
//!   the answer comes from a replica at the highest epoch, and replicas
//!   behind it are flushed (not re-asked). Complete replies at that
//!   epoch must agree on the ranks, or the request fails naming both
//!   replicas.
//! * **Failures** — an unreachable replica is skipped: any live
//!   replica's answer is complete, so shard loss never makes an answer
//!   `partial` (that flag means a deadline). Writes, which must reach
//!   every replica, fail loudly until the fleet is whole.
//!
//! The coordinator serves `stats`/`metrics` from its own registry
//! (`rkrd_coord_*`: per-shard latency histograms, fan-out width, entry
//! counts, shard error counters), answers `hello` with role `"coord"`, and
//! forwards `flush`/`checkpoint` to the whole fleet. `shutdown` stops
//! the coordinator only — shards are independent daemons with their own
//! lifecycles.
//!
//! ## Threads, parking and wake-ups
//!
//! The front side is thread-per-connection: one accept thread, and one
//! handler thread per client connection that owns its own [`ShardPool`]
//! (so the fan-out path takes no lock beyond the write gate). Every
//! thread *parks in the kernel* and is woken by the event it waits for —
//! there is no timer, tick or poll anywhere on the request path:
//!
//! * a handler parks in a blocking `read` with no timeout, does exactly
//!   one `read` per turn ([`Conn::fill_once`]) and serves every complete
//!   line that read buffered before it reads again, so a request is
//!   fanned out the moment its bytes arrive and a pipelined burst is
//!   never left behind a blocked `read`;
//! * the accept thread parks in a blocking `accept`;
//! * `shutdown` (the protocol op or [`CoordHandle::stop`]) sets the flag
//!   and wakes the accept thread with a loopback connection to the
//!   listener's own port; the accept thread then calls
//!   `shutdown(Both)` on its clone of every live front stream, which
//!   turns each parked `read` into EOF, and joins the handlers.
//!
//! An idle coordinator therefore makes no wake-ups at all, whatever the
//! number of parked connections. Thread-per-connection stays for now
//! because the alternative is the shard daemon's readiness loop, and
//! sharing that loop between `rkrd` and the coordinator is a refactor of
//! its own (ROADMAP item 9) that should not be half-done inside a latency
//! fix; blocking streams give the same "woken by the bytes" behaviour
//! with the fan-out code unchanged.
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

pub mod metrics;
pub mod pool;

use std::io;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rkranks_server::conn::{Conn, Fill, LineStatus};
use rkranks_server::log::{self, LogLevel};
use rkranks_server::metrics::duration_ns;
use rkranks_server::{ConnectPolicy, HelloReply, Reply, Request, StatsReply, PROTOCOL_VERSION};

pub use metrics::CoordMetrics;
pub use pool::ShardPool;

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// Shard addresses in shard-id order (`--shards A,B,C` means A is
    /// shard 0 of 3). Must be non-empty and must name every shard of
    /// the fleet exactly once — the handshake enforces it.
    pub shards: Vec<String>,
    /// How shard connections are (re)established.
    pub connect: ConnectPolicy,
    /// How long one shard reply may take before the shard counts as
    /// dead for this fan-out (and the connection is redialed next time).
    pub shard_reply_timeout: Duration,
    /// Frontside request-line cap, mirroring the shard daemon's.
    pub max_line_bytes: usize,
}

impl CoordConfig {
    /// A config for the given fleet with defaults: three connect
    /// attempts with backoff, a 30 s reply timeout, 1 MiB lines.
    pub fn new(shards: Vec<String>) -> CoordConfig {
        CoordConfig {
            shards,
            connect: ConnectPolicy::retrying(3),
            shard_reply_timeout: Duration::from_secs(30),
            max_line_bytes: 1024 * 1024,
        }
    }
}

/// State shared between the accept loop and every connection handler.
struct CoordShared {
    config: CoordConfig,
    metrics: Arc<CoordMetrics>,
    /// The write gate: queries and batches hold it shared, update /
    /// flush / checkpoint broadcasts hold it exclusively. With all
    /// writes routed through the coordinator this keeps shard graph
    /// epochs aligned outside a write window, so the laggard flush in
    /// [`ShardPool::scatter_query`] is a fallback, not the norm. It
    /// guards no data, so a handler that panics while holding it leaves
    /// nothing torn: later requests take it through the poison.
    write_gate: RwLock<()>,
    shutdown: AtomicBool,
    /// Where a loopback connection reaches the coordinator's own
    /// listener — how [`CoordShared::request_shutdown`] wakes the accept
    /// thread out of its blocking `accept`.
    wake_addr: SocketAddr,
}

impl CoordShared {
    /// Raise the shutdown flag and wake the accept thread, which closes
    /// every live front connection and joins the handlers.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The connection itself is the message; a failed connect means
        // the listener is already gone.
        let _ = TcpStream::connect(self.wake_addr);
    }
}

/// A running coordinator's handle: its bound address and the accept
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
        self.shared.request_shutdown();
    }

    /// Wait for the accept loop (and every handler it spawned) to exit.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Bind `addr` and run the coordinator on a background thread.
pub fn spawn_coord(addr: impl ToSocketAddrs, config: CoordConfig) -> io::Result<CoordHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(new_shared(config, local)?);
    let accept_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("coord-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(CoordHandle {
        addr: local,
        thread,
        shared,
    })
}

/// Run the coordinator on the calling thread until a client sends
/// `shutdown`. The CLI path (`rkr coord`).
pub fn serve_coord(listener: TcpListener, config: CoordConfig) -> io::Result<()> {
    let shared = Arc::new(new_shared(config, listener.local_addr()?)?);
    accept_loop(listener, shared);
    Ok(())
}

fn new_shared(config: CoordConfig, local: SocketAddr) -> io::Result<CoordShared> {
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
        wake_addr: loopback_of(local),
    })
}

/// The address a local connection to a listener bound at `local` must
/// dial: a wildcard bind (`0.0.0.0`, `::`) is reachable on loopback.
fn loopback_of(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// How long the accept thread backs off after an `accept` *error* (fd
/// exhaustion, above all) before trying again — the one sleep in this
/// crate, and only on that error path.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Accept front connections until shutdown: park in a blocking `accept`,
/// spawn one handler thread per connection, and keep a clone of each live
/// stream so shutdown can turn every handler's parked `read` into EOF.
fn accept_loop(listener: TcpListener, shared: Arc<CoordShared>) {
    let mut handlers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    // One log line per burst of accept errors; the next successful
    // accept re-arms it (the discipline of rkrd's `accept_ready`).
    let mut error_logged = false;
    loop {
        let accepted = listener
            .accept()
            .and_then(|(stream, _)| Ok((stream.try_clone()?, stream)));
        if shared.shutdown.load(Ordering::SeqCst) {
            // What was accepted is the wake-up connection (or a client
            // that raced it): dropped unserved either way.
            break;
        }
        match accepted {
            Ok((waker, stream)) => {
                error_logged = false;
                handlers.retain(|(_, h)| !h.is_finished());
                let conn_shared = Arc::clone(&shared);
                if let Ok(h) = std::thread::Builder::new()
                    .name("coord-conn".into())
                    .spawn(move || handle_conn(stream, conn_shared))
                {
                    handlers.push((waker, h));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                shared.metrics.accept_errors.inc();
                if !error_logged && log::enabled(LogLevel::Error) {
                    log::write(
                        LogLevel::Error,
                        format_args!(
                            "coordinator accept failed: {e} (fd limit? counting, not \
                             logging, further errors in this burst)"
                        ),
                    );
                }
                error_logged = true;
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    for (waker, _) in &handlers {
        let _ = waker.shutdown(Shutdown::Both);
    }
    for (_, h) in handlers {
        let _ = h.join();
    }
}

/// Serve one frontside connection: a blocking stream driven through the
/// shard daemon's own [`Conn`] framing layer (in-place line extraction,
/// bounded lines, buffered writes), so the coordinator and the shards
/// reject oversize input and frame replies identically. The thread parks
/// in `read` with no timeout; each turn is exactly one `read`, then every
/// complete line it buffered is served before the next `read` — reading
/// again first could block with requests already in hand. The connection
/// ends on EOF, which is also how shutdown reaches a parked handler.
fn handle_conn(stream: TcpStream, shared: Arc<CoordShared>) {
    let max_line = shared.config.max_line_bytes;
    if stream.set_nodelay(true).is_err() {
        return;
    }
    shared.metrics.connections_open.add(1);
    let mut conn = Conn::new(stream);
    let mut pool = ShardPool::new(&shared.config, Arc::clone(&shared.metrics));
    'serve: while let Ok(fill) = conn.fill_once() {
        // A request's clock starts when the `read` that completed its
        // line returns — or, for a pipelined successor, when the reply
        // before it was handed to the socket.
        let mut started = Instant::now();
        loop {
            let parsed = match conn.peek_line(max_line) {
                LineStatus::Partial => break,
                LineStatus::Oversize => {
                    let _ = send_reply(
                        &mut conn,
                        &Reply::Error(format!("bad request: line exceeds {max_line} bytes")),
                    );
                    break 'serve;
                }
                LineStatus::Line(bytes) => {
                    let text = String::from_utf8_lossy(bytes);
                    let text = text.trim();
                    if text.is_empty() {
                        None
                    } else {
                        Some(Request::from_line(text).map_err(|m| format!("bad request: {m}")))
                    }
                }
            };
            conn.consume_line();
            let Some(result) = parsed else { continue };
            let reply = match result {
                Ok(Request::Shutdown) => {
                    let mut line = Reply::Shutdown.to_json().render();
                    line.push('\n');
                    // Farewell first: the wake-up makes the accept thread
                    // close this socket along with the others.
                    conn.send_final(line.as_bytes());
                    shared.request_shutdown();
                    break 'serve;
                }
                Ok(req) => execute(&shared, &mut pool, req),
                Err(msg) => Reply::Error(msg),
            };
            if send_reply(&mut conn, &reply).is_err() {
                break 'serve;
            }
            shared
                .metrics
                .request_seconds
                .record(duration_ns(started.elapsed()));
            started = Instant::now();
        }
        conn.compact();
        if fill == Fill::Eof {
            break;
        }
    }
    // The accept thread still holds a clone of this socket; dropping ours
    // alone would leave the peer waiting for a close that never comes.
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.metrics.connections_open.sub(1);
}

fn send_reply(conn: &mut Conn, reply: &Reply) -> io::Result<()> {
    let mut line = reply.to_json().render();
    line.push('\n');
    conn.send(line.as_bytes())
}

/// Serve one parsed request against the fleet.
fn execute(shared: &CoordShared, pool: &mut ShardPool, req: Request) -> Reply {
    let (m, gate) = (&shared.metrics, &shared.write_gate);
    match req {
        Request::Query {
            node,
            k,
            cache,
            strategy,
            deadline_ms,
        } => {
            let _read = gate.read().unwrap_or_else(PoisonError::into_inner);
            m.queries.inc();
            pool.scatter_query(node, k, cache, strategy, deadline_ms)
        }
        Request::Batch { nodes, k } => {
            let _read = gate.read().unwrap_or_else(PoisonError::into_inner);
            m.batches.inc();
            pool.scatter_batch(&nodes, k)
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
            // Commit immediately on every shard: staged writes that
            // lingered would commit on each shard's own merger pass and
            // let graph epochs drift apart.
            match pool.broadcast(&Request::Flush) {
                Ok(_) => {
                    // The coupled flush committed the staged batch, so the
                    // fleet now serves the next epoch.
                    m.graph_epoch.set(graph_epoch + 1);
                }
                Err(e) => {
                    return Reply::Error(format!(
                        "update staged everywhere but the commit flush failed ({e}); \
                         restore the failed shard(s) — the next query round will \
                         re-flush the laggards"
                    ))
                }
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
                    Reply::Flush { epoch, merged }
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
        Request::Stats => Reply::Stats(stats_snapshot(shared)),
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
        }),
        // Handled by the connection loop before execute.
        Request::Shutdown => Reply::Shutdown,
    }
}

/// The coordinator's `stats` view: fan-out counters where they map onto
/// the shared reply shape, zeros where a field is shard-only (cache,
/// merger, event-loop internals — read those per shard).
fn stats_snapshot(shared: &CoordShared) -> StatsReply {
    let m = &shared.metrics;
    StatsReply {
        v: PROTOCOL_VERSION,
        queries: m.queries.get(),
        partial_results: m.partials.get(),
        graph_epoch: m.graph_epoch.get(),
        graph_nodes: m.graph_nodes.get(),
        graph_edges: m.graph_edges.get(),
        workers: m.connections_open.get(),
        batches: m.batches.get(),
        updates_applied: m.updates.get(),
        ..StatsReply::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_core::RkrIndex;
    use rkranks_server::{spawn, Client, ServerConfig};

    /// A handler that panics holding the write gate poisons it; the gate
    /// guards `()`, so later requests must still be served.
    #[test]
    fn a_poisoned_write_gate_still_serves() {
        let g = rkranks_datasets::toy::paper_example();
        let index = RkrIndex::empty(g.num_nodes(), 4);
        let shard = spawn(g, None, index, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let config = CoordConfig::new(vec![shard.addr().to_string()]);
        let shared = new_shared(config, shard.addr()).expect("one-shard fleet");
        std::thread::scope(|s| {
            let dying = s.spawn(|| {
                let _write = shared.write_gate.write();
                panic!("a handler dies holding the write gate");
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
        let reply = execute(&shared, &mut pool, query);
        assert!(
            matches!(&reply, Reply::Query(q) if q.entries.len() == 2),
            "{reply:?}"
        );
        let reply = execute(&shared, &mut pool, Request::Stats);
        assert!(
            matches!(&reply, Reply::Stats(s) if s.queries == 1),
            "{reply:?}"
        );

        drop(pool);
        Client::connect(shard.addr()).unwrap().shutdown().unwrap();
        shard.join();
    }
}
