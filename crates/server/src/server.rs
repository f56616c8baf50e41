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
//!   Each query takes the live context and its epoch pair under one read
//!   lock; a `batch` takes them once for all its nodes, so one batch
//!   answers from one graph epoch.
//! * **The graph is versioned, not frozen.** A
//!   [`rkranks_graph::GraphStore`] holds the committed graph; `update`
//!   ops stage validated [`GraphDelta`] batches, and a commit publishes a
//!   fresh immutable `Arc<Graph>` snapshot tagged with a bumped *graph
//!   epoch*, builds a new [`EngineContext`] for it, and **retires** the
//!   rank index (fresh empty index at the new graph epoch — rank
//!   knowledge is unsound on a changed graph, see
//!   [`RkrIndex::graph_epoch`]). Queries in flight keep the context they
//!   started with and stay correct *for their epoch*.
//! * **One strategy is served.** Every query runs the paper's §4 dynamic
//!   search with the configured bounds ([`ServerConfig::bounds`];
//!   `dynamic-three` at every configuration the CLI builds). A request
//!   whose `strategy` names any other strategy gets one error reply
//!   pointing at `rkr query` / `rkr batch`, which run the full strategy
//!   matrix in-process. The daemon reads no index: the one it holds sits
//!   under the store lock beside the graph store, where only a
//!   checkpoint reads it and only a commit replaces it, so snapshot
//!   bundles keep their format.
//! * **Commits happen where they are asked for**, each by the worker
//!   that asked, under the store lock: an `update` on a prompt daemon
//!   ([`ServerConfig::merge_every`] > 0) before its reply, a `flush`, and
//!   shutdown; a prompt daemon also commits restored WAL deltas before
//!   it serves. With `merge_every` 0 staged deltas wait for a `flush` op
//!   or shutdown.
//! * **The result cache** is an LRU keyed by `(node, k, graph epoch)`
//!   ([`crate::cache::ResultCache`]; the key's strategy and index-epoch
//!   fields are constants here). A graph commit strands *every* entry —
//!   the answers themselves changed. Partial (deadline-cut) answers are
//!   never cached.
//!
//! Caching and concurrency never cost correctness: within one graph
//! epoch a cached answer is the answer the dynamic search computes.
//! Across graph epochs, the epoch tag on every reply says exactly which
//! graph answered.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use rkranks_core::{
    save_snapshot, BoundConfig, Completion, EngineContext, Partition, QueryRequest, QueryScratch,
    QueryStageStats, RkrIndex, Strategy,
};
use rkranks_graph::{Graph, GraphDelta, GraphStore, NodeId, ShardSlice};

use crate::cache::{CacheKey, ResultCache, EPOCH_INDEPENDENT};
use crate::log::{log_error, log_info};
use crate::metrics::{duration_ns, Metrics, QueryOutcome};
use crate::protocol::{
    BatchReply, HelloReply, QueryReply, Reply, Request, ShardIdentity, SlowQueryRecord, StatsReply,
    PROTOCOL_VERSION,
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
    /// `flush` op and at shutdown; any other value makes the daemon
    /// *prompt*: the worker that stages an `update` commits it before
    /// replying, and WAL deltas restored into the store commit before the
    /// daemon serves. Only zero versus nonzero matters.
    pub merge_every: u64,
    /// Bound configuration of the one served strategy, the dynamic
    /// search: `Strategy::Dynamic(bounds)` answers every query.
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

/// What a query takes: the live context and the epoch pair it answers
/// at, swapped wholesale under one lock at each graph commit. It holds no
/// index — no query reads one.
#[derive(Clone)]
struct LiveState {
    ctx: Arc<EngineContext>,
    graph_epoch: u64,
    index_epoch: u64,
}

/// The canonical graph, its staged deltas and the index that describes
/// it. Only a checkpoint reads the index and only a commit replaces it,
/// both under the one lock that guards this.
struct Store {
    graph: GraphStore,
    index: RkrIndex,
}

/// Everything the workers and control paths share.
struct Shared {
    config: ServerConfig,
    partition: Option<Partition>,
    live: RwLock<LiveState>,
    /// Held from staging or commit through publication, so `live` only
    /// ever changes under it.
    store: Mutex<Store>,
    cache: Option<Mutex<ResultCache>>,
    /// `(graph epoch, Graph::digest)` of the live graph the last `hello`
    /// saw: filled at start, then recomputed by the first `hello` after a
    /// commit, so no commit pays for it.
    digest: Mutex<(u64, u64)>,
    /// Every counter, gauge, and histogram the daemon exports — the
    /// registry both the `stats` and `metrics` ops read, plus the
    /// slow-query ring.
    metrics: Metrics,
    shutdown: AtomicBool,
}

/// Set the gauges that report the live state: its epoch pair and graph
/// size. Called at start and at each graph commit.
fn gauge_live(m: &Metrics, live: &LiveState) {
    let graph = live.ctx.graph();
    m.index_epoch.set(live.index_epoch);
    m.graph_epoch.set(live.graph_epoch);
    m.graph_nodes.set(u64::from(graph.num_nodes()));
    m.graph_edges.set(graph.num_edges() as u64);
}

/// Set the gauges that report the cache's size, under its lock, after an
/// insert or a purge.
fn gauge_cache(m: &Metrics, cache: &ResultCache) {
    m.cache_entries.set(cache.len() as u64);
    m.cache_bytes.set(cache.approx_bytes() as u64);
}

/// Serve `store` until a client sends `shutdown`. Blocks the calling
/// thread; use [`spawn`] or [`spawn_store`] for a background daemon. No
/// query reads `index`; it is checkpointed with the graph until the first
/// graph commit retires it. A store restored from a snapshot bundle keeps
/// its graph epoch, and any WAL deltas re-staged into it commit before
/// the first reply on a prompt daemon ([`ServerConfig::merge_every`] >
/// 0), at the first `flush` or shutdown otherwise — exactly as the staged
/// batch would have before the restart. Returns the final graph and
/// graph epoch.
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
    let ctx = EngineContext::with_partition(store.snapshot(), partition.clone());
    // Pay the one-off transpose build and the graph digest before the
    // first query is timed.
    ctx.sds_graph();
    let digest = Mutex::new((store.graph_epoch(), ctx.graph().digest()));
    let live = LiveState {
        ctx: Arc::new(ctx),
        graph_epoch: store.graph_epoch(),
        index_epoch: index.epoch(),
    };
    let metrics = Metrics::new();
    gauge_live(&metrics, &live);
    metrics.updates_staged.set(store.pending_deltas() as u64);
    metrics.workers.set(config.workers as u64);
    metrics.cache_capacity.set(config.cache_capacity as u64);
    let shared = Shared {
        live: RwLock::new(live),
        store: Mutex::new(Store {
            graph: store,
            index,
        }),
        cache: (config.cache_capacity > 0)
            .then(|| Mutex::new(ResultCache::new(config.cache_capacity))),
        digest,
        metrics,
        shutdown: AtomicBool::new(false),
        partition,
        config,
    };
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
    // A prompt daemon serves no state older than what it was handed:
    // restored WAL deltas commit before the first reply.
    if shared.config.merge_every > 0 {
        merge_pending(
            &shared,
            &mut shared.store.lock().expect("store lock poisoned"),
        );
    }
    // A failure stops startup naming the syscall before any thread starts,
    // never leaves a worker silently missing.
    let reactor =
        Reactor::new(listener, &shared.config).unwrap_or_else(|e| panic!("rkrd cannot start: {e}"));
    reactor.run(&shared, &shared.metrics.front, &shared.shutdown);
    // Every worker has joined, so every accepted update is staged; this
    // final commit lands any a flush-only daemon still holds.
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
        graph: store.graph.snapshot(),
        graph_epoch: store.graph.graph_epoch(),
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
    mut index: RkrIndex,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || {
        let store = GraphStore::new(graph);
        index.set_graph_epoch(store.graph_epoch());
        serve_store(store, partition, index, listener, &config)
    });
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

impl Shared {
    /// The live context and its epoch pair, under one read lock.
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
                match check_served(self.config.bounds, strategy.as_deref())
                    .and_then(|()| run_query(self, scratch, &live, node, k, cache, deadline_ms))
                {
                    Ok(q) => Reply::Query(q),
                    Err(msg) => Reply::Error(msg),
                }
            }
            Request::Batch { nodes, k } => {
                // One live state for the whole batch: every answer comes
                // from the same graph epoch.
                let live = self.live();
                let mut results = Vec::with_capacity(nodes.len());
                let mut cached = 0u64;
                for node in nodes {
                    match run_query(self, scratch, &live, node, k, true, None) {
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
                    epoch: live.index_epoch,
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
            Request::Metrics => Reply::Metrics(self.metrics.registry.snapshot()),
            Request::SlowQueries => Reply::SlowQueries(self.metrics.slow_log.snapshot()),
            Request::Flush => {
                let mut store = self.store.lock().expect("store lock poisoned");
                let merged = merge_pending(self, &mut store);
                Reply::Flush {
                    epoch: store.index.epoch(),
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
                    epoch: live.index_epoch,
                    graph_epoch: live.graph_epoch,
                    nodes: u64::from(live.ctx.graph().num_nodes()),
                    edges: live.ctx.graph().num_edges() as u64,
                    graph_digest: Some(self.graph_digest(&live)),
                })
            }
        }
    }
}

/// Validate and stage a batch of graph updates (all-or-nothing). A prompt
/// daemon commits it here, before the reply; a flush-only one leaves it
/// for the next `flush` or shutdown. Returns the staged op count and the
/// graph epoch it was staged at.
fn stage_updates(shared: &Shared, deltas: &[GraphDelta]) -> Result<(u64, u64), String> {
    if shared.partition.is_some() {
        // A partition is a fixed labelling of a fixed node set; growing or
        // rewiring the graph under it has no defined semantics (yet).
        return Err("live updates are not supported on bichromatic servers".into());
    }
    let mut store = shared.store.lock().expect("store lock poisoned");
    let staged = store.graph.stage_all(deltas).map_err(|e| e.to_string())? as u64;
    // The store's count of *effective* staged deltas, not ops: a batch's
    // ops can collapse onto one overlay entry (rm X + re-add X).
    shared
        .metrics
        .updates_staged
        .set(store.graph.pending_deltas() as u64);
    let graph_epoch = store.graph.graph_epoch();
    if shared.config.merge_every > 0 {
        merge_pending(shared, &mut store);
    }
    Ok((staged, graph_epoch))
}

/// Refuse a query's `strategy` unless it names the one strategy `rkrd`
/// serves, the dynamic search under `bounds`; `None` is always served.
/// `rkrd` checks before a query is counted, `rkr coord` before a line
/// reaches any shard.
pub fn check_served(bounds: BoundConfig, strategy: Option<&str>) -> Result<(), String> {
    let Some(name) = strategy else {
        return Ok(());
    };
    let asked = name.parse::<Strategy>()?;
    let served = Strategy::Dynamic(bounds);
    if asked == served {
        return Ok(());
    }
    Err(format!(
        "rkrd serves only '{served}'; run '{asked}' in-process with `rkr query --algo {asked}` \
         or `rkr batch --algo {asked}`"
    ))
}

fn run_query(
    shared: &Shared,
    scratch: &mut QueryScratch,
    live: &LiveState,
    node: u32,
    k: u32,
    use_cache: bool,
    deadline_ms: Option<u64>,
) -> Result<QueryReply, String> {
    let start = Instant::now();
    shared.metrics.queries.inc();
    let (ctx, epoch, graph_epoch) = (&live.ctx, live.index_epoch, live.graph_epoch);
    // The served strategy reads no index, so the index epoch never keys
    // an entry; the graph epoch keys every one — nothing survives a
    // graph commit.
    let key = CacheKey {
        node,
        k,
        strategy: 0,
        epoch: EPOCH_INDEPENDENT,
        graph_epoch,
    };
    if let (true, Some(cache)) = (use_cache, &shared.cache) {
        let hit = cache
            .lock()
            .expect("cache lock poisoned")
            .get(&key)
            .cloned();
        match hit {
            None => shared.metrics.cache_misses.inc(),
            Some(entries) => {
                // The hit is counted by its `outcome="hit"` latency sample.
                note_served(
                    shared,
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
    let mut req =
        QueryRequest::new(NodeId(node), k).with_strategy(Strategy::Dynamic(shared.config.bounds));
    if let Some(ms) = deadline_ms {
        req = req.with_deadline(Duration::from_millis(ms));
    }
    let outcome = ctx.execute(scratch, &req).map_err(|e| e.to_string())?;
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
    // A partial answer is counted by its `outcome="partial"` latency
    // sample; the deadline is the only limit rkrd sets.
    let partial = matches!(outcome.completion, Completion::Partial { .. });
    // Partial answers are never cached: a later, un-deadlined query for
    // the same key must not be short-changed by an earlier caller's
    // latency budget.
    if let (true, false, Some(cache)) = (use_cache, partial, &shared.cache) {
        let mut cache = cache.lock().expect("cache lock poisoned");
        if cache.insert(key, entries.clone()) {
            shared.metrics.cache_evictions.inc();
        }
        gauge_cache(&shared.metrics, &cache);
    }
    let served_as = if partial {
        QueryOutcome::Partial
    } else {
        QueryOutcome::Miss
    };
    note_served(
        shared,
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
/// the end-to-end latency lands in the `outcome` histogram,
/// and — with a slow-query threshold configured — a query at or over it
/// is captured in the slow-query ring. Cache hits pass no stage split
/// (they did no filter or refine work), which keeps the exported
/// invariant `filter + refine ≤ total` across any traffic mix.
#[allow(clippy::too_many_arguments)]
fn note_served(
    shared: &Shared,
    outcome: QueryOutcome,
    start: Instant,
    node: u32,
    k: u32,
    epoch: u64,
    graph_epoch: u64,
    stage: Option<QueryStageStats>,
) {
    let total = start.elapsed();
    shared.metrics.record_query(outcome, total);
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

/// The one commit function (an `update` on a prompt daemon, a restored
/// WAL on a prompt daemon's start, `flush` and shutdown): commit the
/// staged graph updates; if the graph changed, retire the index, publish
/// the new live context and purge the stranded cache entries; then
/// checkpoint. The caller holds the store lock throughout, so two
/// commits cannot publish out of order. Returns how many staged deltas it
/// committed (0: nothing was staged).
fn merge_pending(shared: &Shared, store: &mut Store) -> u64 {
    let staged = store.graph.pending_deltas();
    if staged == 0 {
        return 0;
    }
    let pass_start = Instant::now();
    let epoch_before = store.graph.graph_epoch();
    // The store patches its previous snapshot: only the CSR rows the
    // staged edges touch are rebuilt, the rest are copied.
    let snapshot = store.graph.commit();
    let graph_epoch = store.graph.graph_epoch();
    shared
        .metrics
        .updates_staged
        .set(store.graph.pending_deltas() as u64);
    if graph_epoch != epoch_before {
        // Applied = committed by a graph-changing commit; a no-op commit
        // (e.g. a reweight to the current weight) drains its staged deltas
        // without counting them, so `updates_applied` always reconciles
        // with `graph_commits`.
        shared.metrics.updates_applied.add(staged as u64);
        // The graph changed: retire the index (rank knowledge from the
        // old graph is unsound on the new one) and build a context for
        // the new snapshot.
        let mut index = RkrIndex::empty(snapshot.num_nodes(), store.index.k_max());
        index.set_graph_epoch(graph_epoch);
        let index_epoch = index.epoch();
        store.index = index;
        let ctx = EngineContext::with_partition(snapshot, shared.partition.clone());
        // The committing worker pays the transpose build, not the first
        // query.
        ctx.sds_graph();
        let live = LiveState {
            ctx: Arc::new(ctx),
            graph_epoch,
            index_epoch,
        };
        gauge_live(&shared.metrics, &live);
        *shared.live.write().expect("live lock poisoned") = live;
        if let Some(cache) = &shared.cache {
            let mut cache = cache.lock().expect("cache lock poisoned");
            let purged = cache.purge_stale(graph_epoch, index_epoch);
            shared.metrics.cache_stale_evicted.add(purged as u64);
            gauge_cache(&shared.metrics, &cache);
        }
        shared.metrics.graph_commits.inc();
        log_info!("graph commit: epoch {epoch_before} -> {graph_epoch}, {staged} deltas");
    }
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

/// Persist the serving state — committed graph, index, and any
/// staged-but-uncommitted deltas as the WAL — to the configured snapshot
/// path, recording the duration in `rkrd_checkpoint_seconds` (successes
/// only — a failed checkpoint is a logged error, not a latency sample).
/// The caller holds the store lock, so the bundle is a consistent cut.
/// Returns the `(index epoch, graph epoch)` pair the bundle holds.
fn checkpoint_locked(shared: &Shared, store: &Store) -> Result<(u64, u64), String> {
    let start = Instant::now();
    let path = shared
        .config
        .snapshot
        .as_deref()
        .ok_or("this daemon has no snapshot path (start it with --snapshot FILE)")?;
    save_snapshot(&store.graph, &store.index, path)
        .map_err(|e| format!("checkpoint to {} failed: {e}", path.display()))?;
    shared
        .metrics
        .checkpoint_seconds
        .record(duration_ns(start.elapsed()));
    Ok((store.index.epoch(), store.graph.graph_epoch()))
}

/// The `stats` reply: each field read from the one instrument that
/// records it — a counter or gauge, or a histogram's count where the
/// field counts timed events (cache hits, partial answers, commits,
/// wake-ups).
fn stats_snapshot(shared: &Shared) -> StatsReply {
    let m = &shared.metrics;
    let partial = m.answered(QueryOutcome::Partial);
    StatsReply {
        v: PROTOCOL_VERSION,
        queries: m.queries.get(),
        cache_hits: m.answered(QueryOutcome::Hit),
        cache_misses: m.cache_misses.get(),
        cache_entries: m.cache_entries.get(),
        cache_evictions: m.cache_evictions.get(),
        cache_stale_evicted: m.cache_stale_evicted.get(),
        cache_capacity: shared.config.cache_capacity as u64,
        cache_bytes: m.cache_bytes.get(),
        epoch: m.index_epoch.get(),
        merges: m.merge_pass_seconds.count(),
        workers: shared.config.workers as u64,
        partial_results: partial,
        deadline_exceeded: partial,
        graph_epoch: m.graph_epoch.get(),
        graph_commits: m.graph_commits.get(),
        updates_applied: m.updates_applied.get(),
        graph_nodes: m.graph_nodes.get(),
        graph_edges: m.graph_edges.get(),
        accept_errors: m.front.accept_errors.get(),
        wakeups: m.front.wake_drain_seconds.count(),
        backpressure_pauses: m.front.backpressure_pauses.get(),
        oversize_lines: m.front.oversize_lines.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, QueryOptions, Reply, Request};
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

    /// Send one query naming `strategy` and decode the reply line.
    fn query_as(client: &mut Client, node: u32, k: u32, strategy: &str) -> Reply {
        let line = client
            .raw(&Request::Query {
                node,
                k,
                cache: true,
                strategy: Some(strategy.into()),
                deadline_ms: None,
            })
            .unwrap();
        Reply::from_line(&line).unwrap()
    }

    /// A request without a strategy is served by `dynamic-three`: naming
    /// it shares the same cache entry, and no index bounds `k` — a `k`
    /// above the held index's `K` is answered. Any other strategy is
    /// refused, an `indexed-*` one included.
    #[test]
    fn default_strategy_is_dynamic_three_and_ignores_the_index() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();

        let default = client.query(0, 2).unwrap();
        assert!(!default.cached);
        let Reply::Query(dynamic) = query_as(&mut client, 0, 2, "dynamic-three") else {
            panic!("dynamic-three must be answered");
        };
        assert!(dynamic.cached, "default and dynamic-three share one entry");
        assert_eq!(dynamic.entries, default.entries);

        // The grid's index has K = 16.
        let wide = client.query(1, 17).unwrap();
        assert_eq!(wide.entries.len(), 3, "every other node ranks node 1");
        let Reply::Error(msg) = query_as(&mut client, 1, 17, "indexed-three") else {
            panic!("indexed-three must be refused");
        };
        assert!(msg.contains("rkr query"), "{msg}");

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
        let Reply::Error(msg) = query_as(&mut client, 0, 2, "naive") else {
            panic!("naive must be refused");
        };
        assert!(msg.contains("rkr batch"), "{msg}");
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
                GraphDelta::AddNode,
                GraphDelta::AddEdge {
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
            (
                vec![GraphDelta::AddEdge { u: 1, v: 1, w: 1.0 }],
                "self-loop",
            ),
            (
                vec![GraphDelta::AddEdge {
                    u: 0,
                    v: 99,
                    w: 1.0,
                }],
                "out of bounds",
            ),
            (
                vec![GraphDelta::AddEdge {
                    u: 0,
                    v: 2,
                    w: -3.0,
                }],
                "invalid weight",
            ),
            (
                vec![GraphDelta::AddEdge { u: 0, v: 1, w: 1.0 }],
                "already exists",
            ),
            (vec![GraphDelta::RemoveEdge { u: 0, v: 2 }], "no edge"),
            (
                // the valid first op must roll back with the invalid second
                vec![
                    GraphDelta::AddEdge { u: 0, v: 2, w: 1.0 },
                    GraphDelta::AddEdge { u: 2, v: 0, w: 5.0 },
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
                GraphDelta::RemoveEdge { u: 0, v: 1 },
                GraphDelta::AddEdge { u: 0, v: 1, w: 7.0 },
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

    /// Under any nonzero `merge_every` a staged update commits without an
    /// explicit `flush`: every query that follows it on the connection is
    /// answered on the new graph, and a later flush finds nothing to do.
    #[test]
    fn cadence_commits_staged_updates_without_flush() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 2,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .update(&[GraphDelta::Reweight { u: 0, v: 1, w: 9.0 }])
            .unwrap();
        for n in 0..4 {
            let reply = client.query(n, 2).unwrap();
            assert_eq!(reply.graph_epoch, 1, "query {n} saw the staged graph");
        }
        let stats = client.stats().unwrap();
        assert_eq!((stats.graph_epoch, stats.graph_commits), (1, 1));
        let (_, merged) = client.flush().unwrap();
        assert_eq!(merged, 0, "the cadence already committed the reweight");
        client.shutdown().unwrap();
        assert_eq!(handle.join().graph_epoch, 1);
    }

    /// A prompt daemon commits an `update` before replying: with no
    /// `flush` and no query traffic, the next request on the connection
    /// already sees the new graph. The reply still names the epoch the
    /// batch was staged at.
    #[test]
    fn updates_commit_without_query_traffic() {
        let handle = spawn_grid(ServerConfig {
            workers: 1,
            cache_capacity: 8,
            merge_every: 64,
            ..Default::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let (staged, staged_at) = client
            .update(&[
                GraphDelta::AddNode,
                GraphDelta::AddEdge {
                    u: 4,
                    v: 0,
                    w: 0.01,
                },
            ])
            .unwrap();
        assert_eq!((staged, staged_at), (2, 0));

        let stats = client.stats().unwrap();
        assert_eq!(
            stats.graph_epoch, 1,
            "the update committed before its reply"
        );
        assert_eq!(stats.graph_commits, 1);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.queries, 0, "stats must not count as queries");
        let snap = client.metrics().unwrap();
        assert_eq!(counter_value(&snap, "rkrd_updates_staged"), 0);

        let reply = client.query(0, 2).unwrap();
        assert_eq!(reply.graph_epoch, 1);
        assert!(
            reply.entries.iter().any(|&(n, _)| n == 4),
            "node 4 sits at distance 0.01 from the query node: {:?}",
            reply.entries
        );
        let (_, merged) = client.flush().unwrap();
        assert_eq!(merged, 0, "nothing is left for a flush to commit");
        client.shutdown().unwrap();
        assert_eq!(handle.join().graph_epoch, 1);
    }

    /// A prompt daemon commits the WAL deltas a restored bundle carries
    /// before it answers anything; a flush-only one leaves them staged
    /// until asked.
    #[test]
    fn restored_wal_commits_before_the_first_reply_on_a_prompt_daemon() {
        let path = std::env::temp_dir().join(format!("rkr-srv-wal-{}.rkrsnap", std::process::id()));
        let mut store = GraphStore::new(grid());
        store
            .stage_all(&[GraphDelta::Reweight { u: 0, v: 1, w: 9.0 }])
            .unwrap();
        save_snapshot(&store, &RkrIndex::empty(4, 16), &path).unwrap();
        for (merge_every, graph_epoch) in [(64, 1), (0, 0)] {
            let (store, index) = rkranks_core::load_snapshot(&path).unwrap();
            assert_eq!(store.pending_deltas(), 1, "the bundle carries the WAL");
            let handle = spawn_store(
                store,
                None,
                index,
                "127.0.0.1:0",
                ServerConfig {
                    workers: 1,
                    merge_every,
                    ..Default::default()
                },
            )
            .expect("bind loopback");
            let mut client = Client::connect(handle.addr()).unwrap();
            let stats = client.stats().unwrap();
            assert_eq!(stats.graph_epoch, graph_epoch, "merge_every {merge_every}");
            let staged = counter_value(&client.metrics().unwrap(), "rkrd_updates_staged");
            assert_eq!(staged, 1 - graph_epoch, "merge_every {merge_every}");
            client.shutdown().unwrap();
            assert_eq!(handle.join().graph_epoch, 1, "shutdown commits the rest");
        }
        let _ = std::fs::remove_file(&path);
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
            .update(&[GraphDelta::RemoveEdge { u: 0, v: 1 }])
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

        // Stats reads the hit histogram's count, and the byte gauge is live.
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_hits, hits);
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
        client.query(1, 3).unwrap();

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
        assert_eq!((log[2].node, log[2].k), (1, 3));
        assert!(!log[2].cached);

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
            .update(&[GraphDelta::Reweight { u: 0, v: 1, w: 9.0 }])
            .unwrap();
        let (epoch, merged) = client.flush().unwrap();
        assert_eq!(merged, 1, "the flush commits the one staged delta");
        let snap = client.metrics().unwrap();
        assert_eq!(counter_value(&snap, "rkrd_index_epoch"), epoch);
        assert_eq!(counter_value(&snap, "rkrd_graph_epoch"), 1);
        assert_eq!(counter_value(&snap, "rkrd_graph_nodes"), 4);
        assert_eq!(counter_value(&snap, "rkrd_workers"), 2);
        match &sample(&snap, "rkrd_merge_pass_seconds").value {
            rkranks_core::MetricValue::Histogram(h) => assert_eq!(h.count, 1, "one commit"),
            other => panic!("rkrd_merge_pass_seconds must be a histogram: {other:?}"),
        }
        assert!(counter_value(&snap, "rkrd_connections_open") >= 1);
        let text = rkranks_core::render_prometheus(&snap);
        assert!(text.contains("# TYPE rkrd_queries_total counter"));
        assert!(text.contains("# TYPE rkrd_query_seconds histogram"));
        assert!(text.contains("rkrd_query_seconds_bucket{outcome=\"miss\","));
        client.shutdown().unwrap();
        handle.join();
    }
}
