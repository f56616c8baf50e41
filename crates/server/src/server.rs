//! The `rkrd` daemon: the engine behind the [`crate::reactor`], serving
//! the newline-delimited JSON protocol over TCP against a *live* graph.
//!
//! ## Serving architecture
//!
//! * **The reactor runs the connections.** Event-loop workers,
//!   write backpressure ([`ServerConfig::write_high_water`]) and bounded
//!   lines ([`ServerConfig::max_line_bytes`]) live in
//!   [`crate::reactor`]; `rkrd` is its [`Service`]. Each worker owns one
//!   [`QueryScratch`], so steady-state queries allocate almost nothing.
//!   Each query takes the live `(context, index)` pair under one read
//!   lock; a `batch` takes it once for all its nodes, so one batch
//!   answers from one graph epoch.
//! * **The graph is versioned, not frozen.** A
//!   [`rkranks_graph::GraphStore`] holds the committed graph; `update`
//!   ops stage validated [`GraphDelta`] batches, and the merger commits
//!   them: it publishes a fresh immutable `Arc<Graph>` snapshot tagged
//!   with a bumped *graph epoch*, builds a new [`EngineContext`] for it,
//!   and **retires** the rank index (fresh empty index at the new graph
//!   epoch — rank knowledge is unsound on a changed graph, see
//!   [`RkrIndex::graph_epoch`]). Queries in flight keep the
//!   `(context, index)` pair they started with and stay correct *for
//!   their epoch*.
//! * **The index is held read-only.** A request without a `strategy`
//!   runs `dynamic` with the configured bounds ([`ServerConfig::bounds`])
//!   and never reads the index. Only explicit `indexed-*` requests
//!   consult it, through [`IndexAccess::Snapshot`] with a write-log that
//!   is dropped when the query returns: served traffic never changes the
//!   index.
//! * **The merger** owns the graph store and commits staged graph deltas
//!   *promptly* — on its next pass after they are staged, query traffic
//!   or not. With `merge_every` 0 it never runs, and staged deltas wait
//!   for a `flush` op or shutdown.
//! * **The result cache** is an LRU keyed by
//!   `(node, k, strategy, index epoch, graph epoch)`
//!   ([`crate::cache::ResultCache`]). A graph commit strands *every*
//!   entry — the answers themselves changed. Partial (deadline-cut)
//!   answers are never cached.
//!
//! Within one graph epoch, query results are rank-identical to the plain
//! dynamic strategy regardless of strategy or cache state — the index
//! only ever prunes work — so caching and concurrency never cost
//! correctness. Across graph epochs, the epoch tag on every reply says
//! exactly which graph answered.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use rkranks_core::{
    save_snapshot, BoundConfig, Completion, EngineContext, IndexAccess, IndexDelta,
    MetricsSnapshot, PartialReason, Partition, QueryRequest, QueryScratch, QueryStageStats,
    RkrIndex, Strategy,
};
use rkranks_graph::{Graph, GraphDelta, GraphStore, NodeId, ShardSlice};

use crate::cache::{CacheKey, ResultCache};
use crate::log::{log_error, log_info};
use crate::metrics::{duration_ns, Metrics, QueryOutcome};
use crate::protocol::{
    BatchReply, HelloReply, QueryReply, Reply, Request, ShardIdentity, SlowQueryRecord, StatsReply,
    UpdateOp, PROTOCOL_VERSION,
};
use crate::reactor::{Reactor, Service};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; each multiplexes its share of the connections on
    /// one event loop.
    pub workers: usize,
    /// Result-cache entries (`0` disables caching entirely).
    pub cache_capacity: usize,
    /// When staged graph updates commit: `0` means only on an explicit
    /// `flush` op and at shutdown; any other value means on the merger's
    /// next pass after they are staged, query traffic or not.
    pub merge_every: u64,
    /// Bound configuration of the *default* strategy (the dynamic
    /// search) — used when a request names no `strategy` of its own;
    /// requests with an explicit strategy carry their own bounds.
    pub bounds: BoundConfig,
    /// Snapshot bundle path (`rkranks_core::snapshot` format). When set,
    /// the daemon checkpoints its serving state there — after every
    /// commit of staged updates, on a `checkpoint` op, and at shutdown —
    /// so a restart via [`rkranks_core::load_snapshot`] + [`serve_store`]
    /// resumes at the same epoch pair. `None` (the default) serves purely
    /// in memory.
    pub snapshot: Option<PathBuf>,
    /// Write-backpressure high-water mark (bytes). A connection whose
    /// queued outbound replies reach this stops being read (and parsed)
    /// until the backlog fully drains, so a slow client throttles itself
    /// instead of growing the daemon's memory; the backlog itself is
    /// bounded by one reply past the mark. `0` is the degenerate
    /// pause-after-every-reply setting (valid, mostly for tests).
    pub write_high_water: usize,
    /// Maximum request-line length in bytes (newline excluded). Longer
    /// lines get a one-line `bad request` error and the connection is
    /// closed — a client streaming garbage without a newline cannot grow
    /// a read buffer without limit.
    pub max_line_bytes: usize,
    /// Slow-query threshold in milliseconds: a served query whose
    /// end-to-end service time reaches it is captured in the in-memory
    /// slow-query ring (retrievable with the `slow-queries` op) and
    /// counted in `rkrd_slow_queries_total`. `None` (the default)
    /// disables capture entirely; `Some(0)` records every query — useful
    /// for tests and short traces.
    pub slow_query_ms: Option<u64>,
    /// This daemon's place in a fleet (`rkr serve --shard-id I
    /// --shard-count N`), announced in `hello` so a coordinator can
    /// verify the wiring; it does not change any answer.
    pub shard: Option<ShardSlice>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_capacity: 4096,
            merge_every: 64,
            bounds: BoundConfig::ALL,
            snapshot: None,
            write_high_water: 256 * 1024,
            max_line_bytes: 1024 * 1024,
            slow_query_ms: None,
            shard: None,
        }
    }
}

/// What a finished daemon hands back: the graph it ended on.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The final committed graph snapshot.
    pub graph: Arc<Graph>,
    /// The final graph epoch (0 if no update ever committed).
    pub graph_epoch: u64,
}

/// The consistent `(context, index)` pair queries read. Swapped
/// wholesale — under one lock — so a worker can never pair a new graph
/// with a stale index or vice versa. The index is read-only: only a graph
/// commit replaces it (with an empty one at the new graph epoch).
#[derive(Clone)]
struct LiveState {
    ctx: Arc<EngineContext>,
    index: Arc<RkrIndex>,
    graph_epoch: u64,
}

/// Everything the worker, merger, and control paths share.
struct Shared {
    config: ServerConfig,
    partition: Option<Partition>,
    live: RwLock<LiveState>,
    /// The canonical graph and its staged deltas. Its lock is held from
    /// staging or commit through publication, so `live` only ever changes
    /// under it.
    store: Mutex<GraphStore>,
    /// Wakes the merger when a batch is staged (paired with `store`).
    staged_signal: Condvar,
    cache: Option<Mutex<ResultCache>>,
    /// `(graph epoch, Graph::digest)` of the live graph the last `hello`
    /// saw: filled at start, then recomputed by the first `hello` after a
    /// commit, so no commit pays for it.
    digest: Mutex<(u64, u64)>,
    /// Every counter, gauge, and histogram the daemon exports — the
    /// registry behind both the `stats` and `metrics` ops, plus the
    /// slow-query ring.
    metrics: Metrics,
    shutdown: AtomicBool,
}

/// Build the engine context for a snapshot: bichromatic when a partition
/// is configured, plain otherwise. Both the startup path and the merger's
/// post-commit rebuild go through here.
fn build_context(graph: Arc<Graph>, partition: &Option<Partition>) -> EngineContext {
    match partition {
        Some(p) => EngineContext::bichromatic(graph, p.clone()),
        None => EngineContext::new(graph),
    }
}

/// Serve until a client sends `shutdown`. Blocks the calling thread; use
/// [`spawn`] for a background daemon. `index` is held read-only for
/// explicit `indexed-*` requests until the first graph commit retires
/// it. Returns the final graph and graph epoch.
pub fn serve(
    graph: Graph,
    partition: Option<Partition>,
    mut index: RkrIndex,
    listener: TcpListener,
    config: &ServerConfig,
) -> ServeOutcome {
    let store = GraphStore::new(graph);
    index.set_graph_epoch(store.graph_epoch());
    serve_store(store, partition, index, listener, config)
}

/// [`serve`] for a pre-built [`GraphStore`] — the restart path. A store
/// restored from a snapshot bundle keeps its graph epoch, and any WAL
/// deltas re-staged into it commit at the daemon's first commit,
/// exactly as the staged batch would have before the restart.
///
/// # Panics
///
/// The index must be tagged with the store's graph epoch — a bundle
/// loaded through [`rkranks_core::load_snapshot`] guarantees this; a
/// hand-assembled mismatched pair panics rather than serve ranks
/// computed against a different graph. A worker whose `epoll_create1`
/// or listener registration fails also panics, naming the syscall,
/// before any thread starts.
pub fn serve_store(
    store: GraphStore,
    partition: Option<Partition>,
    index: RkrIndex,
    listener: TcpListener,
    config: &ServerConfig,
) -> ServeOutcome {
    assert_eq!(
        index.graph_epoch(),
        store.graph_epoch(),
        "index/graph epoch mismatch: the index does not describe this graph"
    );
    let mut config = config.clone();
    config.workers = config.workers.max(1);
    // Restored WAL deltas are already staged in the store; the merger
    // commits them on its first pass.
    let staged_at_start = store.pending_deltas() as u64;
    let ctx = build_context(store.snapshot(), &partition);
    // Pay the one-off transpose build and the graph digest before the
    // first query is timed.
    ctx.sds_graph();
    let digest = Mutex::new((store.graph_epoch(), ctx.graph().digest()));
    let shared = Shared {
        live: RwLock::new(LiveState {
            ctx: Arc::new(ctx),
            index: Arc::new(index),
            graph_epoch: store.graph_epoch(),
        }),
        store: Mutex::new(store),
        staged_signal: Condvar::new(),
        cache: (config.cache_capacity > 0)
            .then(|| Mutex::new(ResultCache::new(config.cache_capacity))),
        digest,
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        partition,
        config,
    };
    shared.metrics.updates_staged.set(staged_at_start);
    shared.metrics.workers.set(shared.config.workers as u64);
    shared
        .metrics
        .cache_capacity
        .set(shared.config.cache_capacity as u64);
    log_info!(
        "serving: {} workers, epoll event loop, cache {}, {} commits",
        shared.config.workers,
        shared.config.cache_capacity,
        if shared.config.merge_every > 0 {
            "prompt"
        } else {
            "flush-only"
        }
    );
    // A failure stops startup naming the syscall before any thread starts,
    // never leaves a worker silently missing.
    let reactor =
        Reactor::new(listener, &shared.config).unwrap_or_else(|e| panic!("rkrd cannot start: {e}"));
    std::thread::scope(|s| {
        if shared.config.merge_every > 0 {
            s.spawn(|| merger_loop(&shared));
        }
        reactor.run(&shared, &shared.metrics.front, &shared.shutdown);
        // Wake the merger so it sees the flag and exits promptly.
        shared.staged_signal.notify_all();
    });
    // Every worker has joined, so every accepted update is staged; this
    // final commit (here, not in the merger, which can observe the
    // shutdown flag while a worker is still staging) lands them all.
    let mut store = shared.store.lock().expect("store lock poisoned");
    merge_pending(&shared, &mut store);
    // The shutdown checkpoint is unconditional (the commit-point ones only
    // fire when a commit ran): even a daemon that served nothing leaves a
    // loadable bundle behind, so `--snapshot FILE` is load-or-create
    // across its first restart.
    if shared.config.snapshot.is_some() {
        if let Err(msg) = checkpoint_locked(&shared, &store) {
            log_error!("{msg}");
        }
    }
    ServeOutcome {
        graph: store.snapshot(),
        graph_epoch: store.graph_epoch(),
    }
}

/// A handle to a daemon running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<ServeOutcome>,
}

impl ServerHandle {
    /// The address the daemon is listening on (with the real port when the
    /// bind address asked for an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the daemon to shut down (a client must send the `shutdown`
    /// op) and return its final state.
    pub fn join(self) -> ServeOutcome {
        self.thread.join().expect("server thread panicked")
    }
}

/// Bind `addr` and serve on a background thread. The daemon owns the
/// graph; it stops when a client sends the `shutdown` op.
pub fn spawn(
    graph: Graph,
    partition: Option<Partition>,
    index: RkrIndex,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || serve(graph, partition, index, listener, &config));
    Ok(ServerHandle { addr, thread })
}

/// [`spawn`] for a pre-built [`GraphStore`] — see [`serve_store`] for the
/// restart semantics (and the epoch-mismatch panic).
pub fn spawn_store(
    store: GraphStore,
    partition: Option<Partition>,
    index: RkrIndex,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let thread =
        std::thread::spawn(move || serve_store(store, partition, index, listener, &config));
    Ok(ServerHandle { addr, thread })
}

/// Encode a [`BoundConfig`] for the cache key.
fn bounds_bits(b: BoundConfig) -> u8 {
    b.use_height as u8 | (b.use_count as u8) << 1
}

/// Derive the cache-key strategy byte from a request's [`Strategy`]:
/// distinct strategies (and distinct bound configurations within one)
/// must never share cache entries.
fn strategy_bits(s: Strategy) -> u8 {
    match s {
        Strategy::Naive => 0x10,
        Strategy::Static => 0x20,
        Strategy::Dynamic(b) => 0x40 | bounds_bits(b),
        Strategy::Indexed(b) => 0x80 | bounds_bits(b),
    }
}

impl Shared {
    /// The consistent live `(context, index)` pair, under one read lock.
    fn live(&self) -> LiveState {
        self.live.read().expect("live lock poisoned").clone()
    }

    /// The digest of `live`'s graph, computed only when the graph epoch
    /// moved since the last `hello` (epochs never repeat within a run).
    fn graph_digest(&self, live: &LiveState) -> u64 {
        let mut cached = self.digest.lock().expect("digest lock poisoned");
        if cached.0 != live.graph_epoch {
            *cached = (live.graph_epoch, live.ctx.graph().digest());
        }
        cached.1
    }
}

impl Service for Shared {
    type Worker = QueryScratch;

    fn worker(&self) -> QueryScratch {
        self.live().ctx.new_scratch()
    }

    fn execute(&self, scratch: &mut QueryScratch, req: Request) -> Reply {
        match req {
            Request::Query {
                node,
                k,
                cache,
                strategy,
                deadline_ms,
            } => {
                let live = self.live();
                let strategy = strategy.as_deref();
                match run_query(self, scratch, &live, node, k, cache, strategy, deadline_ms) {
                    Ok(q) => Reply::Query(q),
                    Err(msg) => Reply::Error(msg),
                }
            }
            Request::Batch { nodes, k } => {
                // One live pair for the whole batch: every answer comes from
                // the same graph epoch.
                let live = self.live();
                let mut results = Vec::with_capacity(nodes.len());
                let mut cached = 0u64;
                for node in nodes {
                    match run_query(self, scratch, &live, node, k, true, None, None) {
                        Ok(q) => {
                            cached += q.cached as u64;
                            results.push(q.entries);
                        }
                        Err(msg) => return Reply::Error(msg),
                    }
                }
                Reply::Batch(BatchReply {
                    results,
                    cached,
                    epoch: live.index.epoch(),
                    graph_epoch: live.graph_epoch,
                })
            }
            Request::Update { ops } => match stage_updates(self, &ops) {
                Ok((staged, graph_epoch)) => Reply::Update {
                    staged,
                    graph_epoch,
                },
                Err(msg) => Reply::Error(msg),
            },
            Request::Stats => Reply::Stats(stats_snapshot(self)),
            Request::Metrics => Reply::Metrics(metrics_snapshot(self)),
            Request::SlowQueries => Reply::SlowQueries(self.metrics.slow_log.snapshot()),
            Request::Flush => {
                let mut store = self.store.lock().expect("store lock poisoned");
                let merged = merge_pending(self, &mut store);
                Reply::Flush {
                    epoch: self.live().index.epoch(),
                    merged,
                }
            }
            Request::Checkpoint => {
                // Deliberately no commit first: a checkpoint persists the
                // serving state *as it stands* — committed graph, index, and
                // staged-but-uncommitted deltas as the WAL — so forcing
                // durability never changes commit semantics (with
                // `merge_every` 0, staged updates still wait for `flush`).
                let store = self.store.lock().expect("store lock poisoned");
                match checkpoint_locked(self, &store) {
                    Ok((epoch, graph_epoch)) => Reply::Checkpoint { epoch, graph_epoch },
                    Err(msg) => Reply::Error(msg),
                }
            }
            // The reactor delivers the farewell and raises the flag.
            Request::Shutdown => Reply::Shutdown,
            Request::Hello => {
                let live = self.live();
                Reply::Hello(HelloReply {
                    v: PROTOCOL_VERSION,
                    role: if self.config.shard.is_some() {
                        "shard".into()
                    } else {
                        "server".into()
                    },
                    shard: self.config.shard.map(|s| ShardIdentity {
                        index: s.index(),
                        shards: s.shards(),
                        seed: s.seed(),
                    }),
                    epoch: live.index.epoch(),
                    graph_epoch: live.graph_epoch,
                    nodes: u64::from(live.ctx.graph().num_nodes()),
                    edges: live.ctx.graph().num_edges() as u64,
                    graph_digest: Some(self.graph_digest(&live)),
                })
            }
        }
    }
}

/// Validate and stage a batch of graph updates (all-or-nothing; the
/// merger's next pass or the next `flush` commits it).
fn stage_updates(shared: &Shared, ops: &[UpdateOp]) -> Result<(u64, u64), String> {
    if shared.partition.is_some() {
        // A partition is a fixed labelling of a fixed node set; growing or
        // rewiring the graph under it has no defined semantics (yet).
        return Err("live updates are not supported on bichromatic servers".into());
    }
    let deltas: Vec<GraphDelta> = ops.iter().map(|&op| op.into()).collect();
    let mut store = shared.store.lock().expect("store lock poisoned");
    let before = store.pending_deltas();
    let staged = store.stage_all(&deltas).map_err(|e| e.to_string())? as u64;
    // Count *effective* staged deltas, not ops: a batch's ops can collapse
    // onto one overlay entry (rm X + re-add X), and the gauge must agree
    // with what the store will actually hand to the commit.
    shared
        .metrics
        .updates_staged
        .add((store.pending_deltas() - before) as u64);
    let graph_epoch = store.graph_epoch();
    drop(store);
    // Wake the merger: staged updates commit on its next pass without
    // waiting for query traffic.
    shared.staged_signal.notify_one();
    Ok((staged, graph_epoch))
}

#[allow(clippy::too_many_arguments)]
fn run_query(
    shared: &Shared,
    scratch: &mut QueryScratch,
    live: &LiveState,
    node: u32,
    k: u32,
    use_cache: bool,
    strategy: Option<&str>,
    deadline_ms: Option<u64>,
) -> Result<QueryReply, String> {
    let start = Instant::now();
    // The request's strategy string maps straight onto the unified
    // Strategy; absent, the daemon serves its configured default — the
    // dynamic search, which never reads the index.
    let strategy = match strategy {
        Some(name) => name.parse::<Strategy>()?,
        None => Strategy::Dynamic(shared.config.bounds),
    };
    shared.metrics.queries.inc();
    let LiveState {
        ctx,
        index,
        graph_epoch,
    } = live;
    let (epoch, graph_epoch) = (index.epoch(), *graph_epoch);
    let key = CacheKey {
        node,
        k,
        strategy: strategy_bits(strategy),
        // Graph-only strategies never read the index: key them with the
        // index-epoch-independent sentinel. The graph epoch is part of
        // every key — nothing survives a graph commit.
        epoch: if strategy.needs_index() {
            epoch
        } else {
            crate::cache::EPOCH_INDEPENDENT
        },
        graph_epoch,
    };
    if use_cache {
        if let Some(cache) = &shared.cache {
            let hit = cache
                .lock()
                .expect("cache lock poisoned")
                .get(&key)
                .cloned();
            if let Some(entries) = hit {
                note_served(
                    shared,
                    strategy,
                    QueryOutcome::Hit,
                    start,
                    node,
                    k,
                    epoch,
                    graph_epoch,
                    None,
                );
                // A cached entry is always a *complete* answer (partial
                // results are never inserted), so it satisfies any
                // deadline trivially.
                return Ok(QueryReply {
                    entries,
                    cached: true,
                    epoch,
                    graph_epoch,
                    partial: false,
                });
            }
        }
    }
    let mut req = QueryRequest::new(NodeId(node), k).with_strategy(strategy);
    if let Some(ms) = deadline_ms {
        req = req.with_deadline(Duration::from_millis(ms));
    }
    let outcome = if strategy.needs_index() {
        // The held index is read-only: what this query learns goes to a
        // write-log that is dropped when it returns.
        let mut delta = IndexDelta::for_index(index);
        let mut access = IndexAccess::Snapshot {
            snapshot: index,
            delta: &mut delta,
        };
        ctx.execute_with(scratch, Some(&mut access), &req)
    } else {
        ctx.execute(scratch, &req)
    }
    .map_err(|e| e.to_string())?;
    let entries: Vec<(u32, u32)> = outcome
        .result
        .entries
        .iter()
        .map(|e| (e.node.0, e.rank))
        .collect();
    let stage = outcome.stage;
    shared
        .metrics
        .filter_seconds
        .record(duration_ns(stage.filter));
    shared
        .metrics
        .refine_seconds
        .record(duration_ns(stage.refine));
    let partial = match outcome.completion {
        Completion::Complete => false,
        Completion::Partial { reason, .. } => {
            shared.metrics.partial_results.inc();
            if reason == PartialReason::DeadlineExceeded {
                shared.metrics.deadline_exceeded.inc();
            }
            true
        }
    };
    // Partial answers are never cached: a later, un-deadlined query for
    // the same key must not be short-changed by an earlier caller's
    // latency budget.
    if use_cache && !partial {
        if let Some(cache) = &shared.cache {
            cache
                .lock()
                .expect("cache lock poisoned")
                .insert(key, entries.clone());
        }
    }
    let served_as = if partial {
        QueryOutcome::Partial
    } else {
        QueryOutcome::Miss
    };
    note_served(
        shared,
        strategy,
        served_as,
        start,
        node,
        k,
        epoch,
        graph_epoch,
        Some(stage),
    );
    Ok(QueryReply {
        entries,
        cached: false,
        epoch,
        graph_epoch,
        partial,
    })
}

/// Post-answer accounting every successfully served query goes through:
/// the end-to-end latency lands in the `(strategy, outcome)` histogram,
/// and — with a slow-query threshold configured — a query at or over it
/// is captured in the slow-query ring. Cache hits pass no stage split
/// (they did no filter or refine work), which keeps the exported
/// invariant `filter + refine ≤ total` across any traffic mix.
#[allow(clippy::too_many_arguments)]
fn note_served(
    shared: &Shared,
    strategy: Strategy,
    outcome: QueryOutcome,
    start: Instant,
    node: u32,
    k: u32,
    epoch: u64,
    graph_epoch: u64,
    stage: Option<QueryStageStats>,
) {
    let total = start.elapsed();
    shared.metrics.record_query(strategy, outcome, total);
    let Some(threshold_ms) = shared.config.slow_query_ms else {
        return;
    };
    if total < Duration::from_millis(threshold_ms) {
        return;
    }
    shared.metrics.slow_queries.inc();
    shared.metrics.slow_log.push(SlowQueryRecord {
        node,
        k,
        strategy: strategy.name().to_string(),
        cached: outcome == QueryOutcome::Hit,
        epoch,
        graph_epoch,
        total_ns: duration_ns(total),
        filter_ns: stage.map_or(0, |s| duration_ns(s.filter)),
        refine_ns: stage.map_or(0, |s| duration_ns(s.refine)),
        sds_passes: stage.map_or(0, |s| s.sds_passes),
        k_rank_guess: stage.map_or(0, |s| s.k_rank_guess),
        completion: if outcome == QueryOutcome::Partial {
            "partial".to_string()
        } else {
            "complete".to_string()
        },
    });
}

/// The one commit point (the merger, `flush` and shutdown): commit the
/// staged graph updates; if the graph changed, retire the index, publish
/// the new `(context, index)` pair and purge the stranded cache entries;
/// then checkpoint. The caller holds the store lock throughout, so two
/// commits cannot publish out of order. Returns how many staged deltas it
/// committed (0: nothing was staged).
fn merge_pending(shared: &Shared, store: &mut GraphStore) -> u64 {
    let staged = store.pending_deltas();
    if staged == 0 {
        return 0;
    }
    let pass_start = Instant::now();
    let epoch_before = store.graph_epoch();
    // The store patches its previous snapshot: only the CSR rows the
    // staged edges touch are rebuilt, the rest are copied.
    let snapshot = store.commit();
    let graph_epoch = store.graph_epoch();
    // The commit drained the store; every staging op happens under the
    // store lock we hold, so zero is the authoritative count.
    shared.metrics.updates_staged.set(0);
    if graph_epoch != epoch_before {
        // Applied = committed by a graph-changing commit; a no-op commit
        // (e.g. a reweight to the current weight) drains its staged deltas
        // without counting them, so `updates_applied` always reconciles
        // with `graph_commits`.
        shared.metrics.updates_applied.add(staged as u64);
        // The graph changed: retire the index (rank knowledge from the
        // old graph is unsound on the new one) and build a context for
        // the new snapshot.
        let k_max = shared
            .live
            .read()
            .expect("live lock poisoned")
            .index
            .k_max();
        let mut index = RkrIndex::empty(snapshot.num_nodes(), k_max);
        index.set_graph_epoch(graph_epoch);
        let index_epoch = index.epoch();
        let ctx = build_context(snapshot, &shared.partition);
        // The merger pays the transpose build, not the first query.
        ctx.sds_graph();
        *shared.live.write().expect("live lock poisoned") = LiveState {
            ctx: Arc::new(ctx),
            index: Arc::new(index),
            graph_epoch,
        };
        if let Some(cache) = &shared.cache {
            cache
                .lock()
                .expect("cache lock poisoned")
                .purge_stale(graph_epoch, index_epoch);
        }
        shared.metrics.graph_commits.inc();
        log_info!("graph commit: epoch {epoch_before} -> {graph_epoch}, {staged} deltas");
    }
    shared.metrics.merges.inc();
    // A commit refreshes the snapshot bundle (still under the store lock,
    // so the bundle is a consistent cut). Failures are logged and serving
    // continues — durability is best-effort, availability is not.
    if shared.config.snapshot.is_some() {
        if let Err(msg) = checkpoint_locked(shared, store) {
            log_error!("{msg}");
        }
    }
    shared
        .metrics
        .merge_pass_seconds
        .record(duration_ns(pass_start.elapsed()));
    staged as u64
}

/// Persist the serving state — committed graph, live index, and any
/// staged-but-uncommitted deltas as the WAL — to the configured snapshot
/// path, recording the duration in `rkrd_checkpoint_seconds` (successes
/// only — a failed checkpoint is a logged error, not a latency sample).
/// The caller holds the store lock, under which alone the index changes,
/// so the bundle is a consistent cut. Returns the
/// `(index epoch, graph epoch)` pair the bundle holds.
fn checkpoint_locked(shared: &Shared, store: &GraphStore) -> Result<(u64, u64), String> {
    let start = Instant::now();
    let path = shared
        .config
        .snapshot
        .as_deref()
        .ok_or("this daemon has no snapshot path (start it with --snapshot FILE)")?;
    let index = Arc::clone(&shared.live.read().expect("live lock poisoned").index);
    save_snapshot(store, &index, path)
        .map_err(|e| format!("checkpoint to {} failed: {e}", path.display()))?;
    shared
        .metrics
        .checkpoint_seconds
        .record(duration_ns(start.elapsed()));
    Ok((index.epoch(), store.graph_epoch()))
}

/// The merger (run only when `merge_every` is nonzero): commits staged
/// updates as soon as a batch is staged, until shutdown. The final commit
/// happens in `serve` after every worker has joined, so an update staged
/// while the merger exits is not lost.
fn merger_loop(shared: &Shared) {
    let mut store = shared.store.lock().expect("store lock poisoned");
    while !shared.shutdown.load(Ordering::Acquire) {
        merge_pending(shared, &mut store);
        // Staging happens under this lock, so no batch slips in between
        // the commit and the wait; the timeout only bounds how late an
        // unsignalled shutdown is seen.
        store = shared
            .staged_signal
            .wait_timeout(store, Duration::from_millis(50))
            .expect("store lock poisoned")
            .0;
    }
}

/// Refresh every mirror and state gauge from its authoritative source —
/// the LRU's own counters and byte estimate, and the live epoch pair —
/// so a snapshot taken right after is current, not
/// last-time-anyone-asked stale.
fn refresh_mirrors(shared: &Shared) {
    let m = &shared.metrics;
    if let Some(cache) = &shared.cache {
        let cache = cache.lock().expect("cache lock poisoned");
        let (h, mi, e, s) = cache.counters();
        m.mirror_cache(h, mi, e, s);
        m.cache_entries.set(cache.len() as u64);
        m.cache_bytes.set(cache.approx_bytes() as u64);
    }
    let live = shared.live.read().expect("live lock poisoned");
    m.index_epoch.set(live.index.epoch());
    m.graph_epoch.set(live.graph_epoch);
    m.graph_nodes.set(live.ctx.graph().num_nodes() as u64);
    m.graph_edges.set(live.ctx.graph().num_edges() as u64);
}

/// The full registry snapshot the `metrics` op serves (the superset of
/// `stats`: every counter and gauge plus the latency histograms).
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    refresh_mirrors(shared);
    shared.metrics.registry.snapshot()
}

fn stats_snapshot(shared: &Shared) -> StatsReply {
    refresh_mirrors(shared);
    let m = &shared.metrics;
    StatsReply {
        v: PROTOCOL_VERSION,
        queries: m.queries.get(),
        cache_hits: m.cache_hits.get(),
        cache_misses: m.cache_misses.get(),
        cache_entries: m.cache_entries.get(),
        cache_evictions: m.cache_evictions.get(),
        cache_stale_evicted: m.cache_stale_evicted.get(),
        cache_capacity: shared.config.cache_capacity as u64,
        cache_bytes: m.cache_bytes.get(),
        epoch: m.index_epoch.get(),
        merges: m.merges.get(),
        workers: shared.config.workers as u64,
        partial_results: m.partial_results.get(),
        deadline_exceeded: m.deadline_exceeded.get(),
        graph_epoch: m.graph_epoch.get(),
        graph_commits: m.graph_commits.get(),
        updates_applied: m.updates_applied.get(),
        graph_nodes: m.graph_nodes.get(),
        graph_edges: m.graph_edges.get(),
        accept_errors: m.front.accept_errors.get(),
        wakeups: m.front.wakeups.get(),
        backpressure_pauses: m.front.backpressure_pauses.get(),
        oversize_lines: m.front.oversize_lines.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, QueryOptions};
    use rkranks_graph::{graph_from_edges, EdgeDirection};

    fn grid() -> Graph {
        graph_from_edges(
            EdgeDirection::Undirected,
            [
                (0, 1, 1.0),
                (1, 2, 1.5),
                (2, 3, 0.5),
                (3, 0, 2.0),
                (1, 3, 1.0),
            ],
        )
        .unwrap()
    }

    fn spawn_grid(config: ServerConfig) -> ServerHandle {
        let g = grid();
        let index = RkrIndex::empty(g.num_nodes(), 16);
        spawn(g, None, index, "127.0.0.1:0", config).expect("bind loopback")
    }

    #[test]
    fn query_stats_flush_shutdown_round_trip() {
        let handle = spawn_grid(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            merge_every: 0, // merges only via flush → deterministic epochs
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();

        let first = client.query(0, 2).unwrap();
        assert_eq!(first.entries.len(), 2);
        assert!(!first.cached);
        assert_eq!(first.epoch, 0);
        assert_eq!(first.graph_epoch, 0);

        // repeat: served from cache, same entries
        let second = client.query(0, 2).unwrap();
        assert!(second.cached);
        assert_eq!(second.entries, first.entries);

        // nothing is staged, so a flush commits nothing and changes nothing
        let (epoch, merged) = client.flush().unwrap();
        assert_eq!((epoch, merged), (0, 0));

        // the cached entry is still current → a hit, same entries
        let third = client.query(0, 2).unwrap();
        assert!(third.cached, "a flush with nothing staged must not evict");
        assert_eq!(third.epoch, epoch);
        assert_eq!(third.entries, first.entries);

        let stats = client.stats().unwrap();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_stale_evicted, 0);
        assert_eq!(stats.epoch, epoch);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.graph_epoch, 0, "query-only traffic never bumps it");
        assert_eq!(stats.graph_commits, 0);

        client.shutdown().unwrap();
        let outcome = handle.join();
        assert_eq!(outcome.graph_epoch, 0);
    }

    /// A request without a strategy is served by `dynamic-three`: it
    /// shares the explicit strategy's cache entry, and it never reads the
    /// held index, so a `k` above the index's `K` is answered — only an
    /// explicit `indexed-*` request is bounded by it.
    #[test]
    fn default_strategy_is_dynamic_three_and_ignores_the_index() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let explicit = |name: &str| QueryOptions {
            strategy: Some(name.into()),
            ..QueryOptions::default()
        };

        let default = client.query(0, 2).unwrap();
        assert!(!default.cached);
        let dynamic = client.query_opts(0, 2, &explicit("dynamic-three")).unwrap();
        assert!(dynamic.cached, "default and dynamic-three share one entry");
        assert_eq!(dynamic.entries, default.entries);

        // The grid's index has K = 16.
        let wide = client.query(1, 17).unwrap();
        assert_eq!(wide.entries.len(), 3, "every other node ranks node 1");
        let err = client
            .query_opts(1, 17, &explicit("indexed-three"))
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn batch_and_error_replies() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let batch = client.batch(&[0, 1, 0], 2).unwrap();
        assert_eq!(batch.results.len(), 3);
        assert_eq!(batch.results[0].len(), 2);
        assert!(batch.cached >= 1, "the repeated node should hit the cache");

        // an invalid node is an error, and the connection survives it
        let err = client.query(99, 2).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
        let indexed = QueryOptions {
            strategy: Some("indexed-three".into()),
            ..QueryOptions::default()
        };
        let err = client.query_opts(0, 99, &indexed).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(client.stats().is_ok(), "connection must stay usable");

        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn uncached_queries_skip_the_cache() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let uncached = QueryOptions {
            cache: false,
            ..QueryOptions::default()
        };
        client.query_opts(0, 2, &uncached).unwrap();
        let reply = client.query_opts(0, 2, &uncached).unwrap();
        assert!(!reply.cached);
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.cache_entries, 0);
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn cacheless_server_works() {
        let handle = spawn_grid(ServerConfig {
            workers: 2,
            cache_capacity: 0,
            merge_every: 1,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        for _ in 0..4 {
            let r = client.query(0, 2).unwrap();
            assert!(!r.cached);
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_capacity, 0);
        assert_eq!(stats.cache_hits, 0);
        client.shutdown().unwrap();
        handle.join();
    }

    /// Regression: idle keep-alive connections must not starve the pool.
    /// With a single worker, parked clients and active clients share it —
    /// control ops (and shutdown!) stay reachable.
    #[test]
    fn idle_connections_do_not_starve_the_worker_pool() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let addr = handle.addr();
        // two clients connect and go idle without sending anything
        let mut idle_a = Client::connect(addr).unwrap();
        let mut idle_b = Client::connect(addr).unwrap();
        // a third client must still be served by the one worker
        let mut active = Client::connect(addr).unwrap();
        let reply = active.query(0, 2).unwrap();
        assert_eq!(reply.entries.len(), 2);
        // the parked clients wake up and get served too
        assert_eq!(idle_a.query(1, 2).unwrap().entries.len(), 2);
        assert!(idle_b.stats().unwrap().queries >= 2);
        // shutdown is reachable while the idle connections are still open
        active.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn malformed_lines_get_error_replies() {
        use std::io::{BufRead, BufReader, Write};
        let handle = spawn_grid(ServerConfig::default());
        let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        writer.write_all(b"this is not json\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("bad request"), "{line}");
        // the same connection still serves valid requests
        line.clear();
        writer
            .write_all(b"{\"op\":\"query\",\"node\":0,\"k\":1}\n")
            .unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        line.clear();
        writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("bye"), "{line}");
        handle.join();
    }

    #[test]
    fn update_flush_changes_answers_and_epochs() {
        let handle = spawn_grid(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            merge_every: 0, // commits only on flush → deterministic epochs
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let hello = client.hello().unwrap();
        assert_eq!(hello.graph_digest, Some(grid().digest()));

        let before = client.query(0, 2).unwrap();
        assert_eq!(before.graph_epoch, 0);
        // warm the cache
        assert!(client.query(0, 2).unwrap().cached);

        // a new node at distance 0.01 from node 0 must enter its answer
        let (staged, graph_epoch) = client
            .update(&[
                UpdateOp::AddNode,
                UpdateOp::AddEdge {
                    u: 4,
                    v: 0,
                    w: 0.01,
                },
            ])
            .unwrap();
        assert_eq!(staged, 2);
        assert_eq!(graph_epoch, 0, "staged, not yet committed");
        // staged updates are invisible until the flush commits them
        assert!(client.query(0, 2).unwrap().cached, "cache still valid");

        client.flush().unwrap();
        let after = client.query(0, 2).unwrap();
        assert_eq!(after.graph_epoch, 1);
        assert!(!after.cached, "graph commit must strand every cached entry");
        assert_ne!(
            after.entries, before.entries,
            "the new nearest neighbor must change the answer"
        );
        assert!(
            after.entries.iter().any(|&(n, _)| n == 4),
            "node 4 sits at distance 0.01 from the query node and must              enter the answer: {:?}",
            after.entries
        );

        let stats = client.stats().unwrap();
        assert_eq!(stats.graph_epoch, 1);
        assert_eq!(stats.graph_commits, 1);
        assert_eq!(stats.updates_applied, 2);
        assert_eq!(stats.graph_nodes, 5);
        assert_eq!(stats.graph_edges, 6);

        // the commit left the digest to the next hello, which names the
        // new graph
        let digest = client.hello().unwrap().graph_digest;
        assert_ne!(digest, hello.graph_digest);

        client.shutdown().unwrap();
        let outcome = handle.join();
        assert_eq!(outcome.graph_epoch, 1);
        assert_eq!(outcome.graph.num_nodes(), 5);
        assert_eq!(digest, Some(outcome.graph.digest()));
    }

    #[test]
    fn invalid_updates_are_one_line_errors_and_stage_nothing() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();

        for (ops, needle) in [
            (vec![UpdateOp::AddEdge { u: 1, v: 1, w: 1.0 }], "self-loop"),
            (
                vec![UpdateOp::AddEdge {
                    u: 0,
                    v: 99,
                    w: 1.0,
                }],
                "out of bounds",
            ),
            (
                vec![UpdateOp::AddEdge {
                    u: 0,
                    v: 2,
                    w: -3.0,
                }],
                "invalid weight",
            ),
            (
                vec![UpdateOp::AddEdge { u: 0, v: 1, w: 1.0 }],
                "already exists",
            ),
            (vec![UpdateOp::RemoveEdge { u: 0, v: 2 }], "no edge"),
            (
                // the valid first op must roll back with the invalid second
                vec![
                    UpdateOp::AddEdge { u: 0, v: 2, w: 1.0 },
                    UpdateOp::AddEdge { u: 2, v: 0, w: 5.0 },
                ],
                "already exists",
            ),
        ] {
            let err = client.update(&ops).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "ops {ops:?}: expected '{needle}' in '{err}'"
            );
            // the connection survives and nothing was staged
            assert!(client.stats().is_ok());
        }
        client.flush().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.graph_epoch, 0, "rejected batches must not commit");
        assert_eq!(stats.updates_applied, 0);

        client.shutdown().unwrap();
        handle.join();
    }

    /// Regression: a batch whose ops collapse onto one staged delta
    /// (remove X, re-add X) must count one effective delta, not leave the
    /// staged counter with a remainder that can never drain.
    #[test]
    fn collapsed_update_batches_do_not_strand_the_staged_counter() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let (staged, _) = client
            .update(&[
                UpdateOp::RemoveEdge { u: 0, v: 1 },
                UpdateOp::AddEdge { u: 0, v: 1, w: 7.0 },
            ])
            .unwrap();
        assert_eq!(staged, 2, "both ops were accepted");
        client.flush().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.updates_applied, 1,
            "the two ops collapsed onto one effective delta"
        );
        assert_eq!(stats.graph_epoch, 1, "the reweight-by-collapse committed");
        // a second flush has nothing graph-side left to do
        client.flush().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.graph_epoch, 1);
        assert_eq!(stats.graph_commits, 1);
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn cadence_commits_staged_updates_without_flush() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 2,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .update(&[UpdateOp::Reweight { u: 0, v: 1, w: 9.0 }])
            .unwrap();
        // the merger commits the staged reweight without any explicit
        // flush while queries keep arriving
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            for n in 0..4 {
                client.query(n, 2).unwrap();
            }
            let stats = client.stats().unwrap();
            if stats.graph_epoch >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "cadence never committed the staged update: {stats:?}"
            );
        }
        client.shutdown().unwrap();
        assert_eq!(handle.join().graph_epoch, 1);
    }

    /// Liveness: an update-only client (no query traffic at all) must
    /// still see its staged updates commit when `merge_every` is nonzero —
    /// updates are not allowed to wait for reads that may never come.
    #[test]
    fn updates_commit_without_query_traffic() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 64,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .update(&[UpdateOp::RemoveEdge { u: 0, v: 1 }])
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = client.stats().unwrap();
            if stats.graph_epoch == 1 {
                assert_eq!(stats.queries, 0, "stats must not count as queries");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "update never committed without query traffic: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        client.shutdown().unwrap();
        assert_eq!(handle.join().graph_epoch, 1);
    }

    /// The cache-key contract [`strategy_bits`] documents: distinct
    /// strategies never share a byte, so they never share cache entries.
    #[test]
    fn strategy_bits_is_injective_over_every_strategy() {
        let mut bytes: Vec<u8> = Strategy::ALL.iter().map(|&s| strategy_bits(s)).collect();
        bytes.sort_unstable();
        bytes.dedup();
        assert_eq!(bytes.len(), Strategy::ALL.len(), "{bytes:?}");
    }

    #[test]
    fn checkpoint_requires_a_snapshot_path() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let err = client.checkpoint().unwrap_err();
        assert!(err.to_string().contains("no snapshot path"), "{err}");
        // the connection survives the refusal
        assert!(client.stats().is_ok());
        client.shutdown().unwrap();
        handle.join();
    }

    /// `--snapshot FILE` is load-or-create: even a daemon that served no
    /// traffic at all must leave a loadable bundle at shutdown.
    #[test]
    fn shutdown_leaves_a_loadable_bundle_even_without_traffic() {
        let path = std::env::temp_dir().join(format!("rkr-srv-{}.rkrsnap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: Some(path.clone()),
            ..Default::default()
        });
        let client = Client::connect(handle.addr()).unwrap();
        client.shutdown().unwrap();
        handle.join();
        let (store, index) = rkranks_core::load_snapshot(&path).expect("bundle must load");
        assert_eq!(store.graph_epoch(), 0);
        assert_eq!(index.graph_epoch(), 0);
        assert_eq!(store.snapshot().num_nodes(), grid().num_nodes());
        assert_eq!(store.pending_deltas(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bichromatic_servers_reject_updates() {
        let g = grid();
        let n = g.num_nodes();
        let index = RkrIndex::empty(n, 16);
        let partition = Partition::from_v2_nodes(n, &[NodeId(0), NodeId(1)]);
        let handle = spawn(
            g,
            Some(partition),
            index,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        let err = client
            .update(&[UpdateOp::RemoveEdge { u: 0, v: 1 }])
            .unwrap_err();
        assert!(err.to_string().contains("bichromatic"), "{err}");
        client.shutdown().unwrap();
        handle.join();
    }

    /// Pull one named sample out of a metrics snapshot (there must be
    /// exactly one without labels per name).
    fn sample<'a>(
        snap: &'a rkranks_core::MetricsSnapshot,
        name: &str,
    ) -> &'a rkranks_core::MetricSample {
        snap.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("no sample named {name}"))
    }

    fn counter_value(snap: &rkranks_core::MetricsSnapshot, name: &str) -> u64 {
        match sample(snap, name).value {
            rkranks_core::MetricValue::Counter(v) | rkranks_core::MetricValue::Gauge(v) => v,
            _ => panic!("{name} is not a counter/gauge"),
        }
    }

    /// The tentpole acceptance invariants, end to end over the wire: the
    /// latency-histogram family counts exactly the queries served (split
    /// by outcome), and the stage histograms never exceed the end-to-end
    /// totals (`filter + refine ≤ total`).
    #[test]
    fn metrics_histograms_account_for_every_query() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 16,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        for node in [0u32, 1, 2, 3] {
            client.query(node, 2).unwrap();
        }
        client.query(0, 2).unwrap(); // cache hit
        client.query(1, 2).unwrap(); // cache hit
        let snap = client.metrics().unwrap();

        assert_eq!(counter_value(&snap, "rkrd_queries_total"), 6);
        let (mut total_count, mut total_sum) = (0u64, 0f64);
        let (mut hits, mut misses) = (0u64, 0u64);
        for s in &snap.samples {
            if s.name != "rkrd_query_seconds" {
                continue;
            }
            let rkranks_core::MetricValue::Histogram(h) = &s.value else {
                panic!("rkrd_query_seconds must be a histogram");
            };
            total_count += h.count;
            total_sum += h.scaled_sum();
            match s.labels.iter().find(|(k, _)| k == "outcome") {
                Some((_, o)) if o == "hit" => hits += h.count,
                Some((_, o)) if o == "miss" => misses += h.count,
                _ => {}
            }
        }
        assert_eq!(
            total_count, 6,
            "the latency family must count every served query"
        );
        assert_eq!(hits, 2);
        assert_eq!(misses, 4);

        // Stage histograms cover computed queries only, and their summed
        // time fits inside the end-to-end total.
        let stage = |name: &str| match &sample(&snap, name).value {
            rkranks_core::MetricValue::Histogram(h) => (h.count, h.scaled_sum()),
            _ => panic!("{name} must be a histogram"),
        };
        let (filter_count, filter_sum) = stage("rkrd_filter_seconds");
        let (refine_count, refine_sum) = stage("rkrd_refine_seconds");
        assert_eq!(filter_count, 4, "one filter sample per computed query");
        assert_eq!(refine_count, 4);
        assert!(
            filter_sum + refine_sum <= total_sum,
            "stage time {} must fit inside end-to-end time {}",
            filter_sum + refine_sum,
            total_sum
        );

        // Mirrors agree with stats, and the byte gauge is live.
        let stats = client.stats().unwrap();
        assert_eq!(counter_value(&snap, "rkrd_cache_hits_total"), 2);
        assert_eq!(stats.cache_hits, 2);
        assert!(stats.cache_bytes > 0, "4 cached entries occupy bytes");
        assert_eq!(counter_value(&snap, "rkrd_cache_bytes"), stats.cache_bytes);

        // The metrics/stats ops themselves never count as queries.
        let again = client.metrics().unwrap();
        assert_eq!(counter_value(&again, "rkrd_queries_total"), 6);

        client.shutdown().unwrap();
        handle.join();
    }

    /// With `slow_query_ms: Some(0)` every served query lands in the
    /// ring, with the stage split and cache flag intact.
    #[test]
    fn slow_query_log_captures_at_the_threshold() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 16,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            slow_query_ms: Some(0),
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client.query(0, 2).unwrap();
        client.query(0, 2).unwrap(); // hit
        client
            .query_opts(
                1,
                2,
                &QueryOptions {
                    strategy: Some("naive".into()),
                    ..QueryOptions::default()
                },
            )
            .unwrap();

        let log = client.slow_queries().unwrap();
        assert_eq!(log.len(), 3, "threshold 0 captures everything");
        assert_eq!(log[0].node, 0);
        assert!(!log[0].cached);
        assert_eq!(log[0].completion, "complete");
        assert!(log[0].total_ns >= log[0].filter_ns + log[0].refine_ns);
        assert!(log[0].sds_passes >= 1 && log[0].k_rank_guess > 0);
        assert!(log[1].cached, "the repeat is a cache hit");
        assert_eq!(log[1].sds_passes, 0, "hits run no ladder");
        assert_eq!(log[1].filter_ns, 0, "hits do no stage work");
        assert_eq!(log[1].refine_ns, 0);
        assert_eq!(log[2].strategy, "naive");
        assert_eq!(log[2].sds_passes, 0, "naive has no ladder");

        let snap = client.metrics().unwrap();
        assert_eq!(counter_value(&snap, "rkrd_slow_queries_total"), 3);

        client.shutdown().unwrap();
        handle.join();
    }

    /// Without a threshold (the default), nothing is ever captured.
    #[test]
    fn slow_query_log_is_off_by_default() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 16,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client.query(0, 2).unwrap();
        assert!(client.slow_queries().unwrap().is_empty());
        client.shutdown().unwrap();
        handle.join();
    }

    /// The registry snapshot renders as valid Prometheus text exposition
    /// and reports live serving gauges.
    #[test]
    fn metrics_render_and_gauges_track_the_live_state() {
        let handle = spawn_grid(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client.query(0, 2).unwrap();
        client
            .update(&[UpdateOp::Reweight { u: 0, v: 1, w: 9.0 }])
            .unwrap();
        let (epoch, merged) = client.flush().unwrap();
        assert_eq!(merged, 1, "the flush commits the one staged delta");
        let snap = client.metrics().unwrap();
        assert_eq!(counter_value(&snap, "rkrd_index_epoch"), epoch);
        assert_eq!(counter_value(&snap, "rkrd_graph_epoch"), 1);
        assert_eq!(counter_value(&snap, "rkrd_graph_nodes"), 4);
        assert_eq!(counter_value(&snap, "rkrd_workers"), 2);
        assert_eq!(counter_value(&snap, "rkrd_merges_total"), 1);
        assert!(counter_value(&snap, "rkrd_connections_open") >= 1);
        let text = rkranks_core::render_prometheus(&snap);
        assert!(text.contains("# TYPE rkrd_queries_total counter"));
        assert!(text.contains("# TYPE rkrd_query_seconds histogram"));
        assert!(text.contains("rkrd_query_seconds_bucket{strategy=\"dynamic-three\","));
        client.shutdown().unwrap();
        handle.join();
    }
}
