//! The three served workloads: `serve_hot`, `serve_churn` (one in-process
//! `rkrd`) and `fleet_scatter` (two shard daemons behind `rkr coord`).
//!
//! Closed loop, depth 1: one client thread sends the next op only after
//! the previous reply is decoded. `serve_churn`'s writer is a second
//! connection driven by the same thread — each commit happens when the
//! reader has completed a fixed number of reads, never at a time — so a
//! read never races a commit and `cache_hits` repeats exactly.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

use rkranks_coord::{spawn_coord, CoordConfig, CoordHandle, CoordMetrics};
use rkranks_core::{
    results_equivalent, BoundConfig, EngineContext, IndexParams, MetricValue, MetricsSnapshot,
    QueryRequest, QueryResult, QueryStats, ResultEntry, RkrIndex,
};
use rkranks_graph::{Graph, GraphStore, NodeId, ShardMap, ShardSlice};
use rkranks_server::{spawn, Client, Reply, Request, ServerConfig, ServerHandle, UpdateOp};

use crate::rep::{peak_rss_mb, sample_indices, Phase, Rep};
use crate::script::{fixture, Op, Params, Script, Workload, K};
use crate::stats::percentile;
use crate::trace::{summarize, NameSummary, Recorder};

/// Replies re-answered in-process per repetition.
const CHECK_SAMPLE: usize = 16;
/// Shards of the `fleet_scatter` fleet.
const SHARDS: u32 = 2;
/// Direct shard-0 hits timed after a traced `fleet_scatter` script.
const DIRECT_HITS: usize = 2_000;

/// The index every served workload starts from (≈ 2.0 s to build at 25k
/// nodes, inside `setup_s`).
pub fn index_params() -> IndexParams {
    IndexParams {
        hub_fraction: 0.05,
        prefix_fraction: 0.05,
        k_max: 32,
        ..Default::default()
    }
}

/// Deterministic daemon state: merges and graph commits happen only on an
/// explicit `flush`, never on the merger's timer.
pub fn server_config(shard: Option<ShardSlice>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        cache_capacity: 4096,
        merge_every: 0,
        bounds: BoundConfig::ALL,
        shard,
        ..Default::default()
    }
}

/// Shard `index`'s candidate slice in the `fleet_scatter` fleet.
pub fn shard_slice(index: u32) -> ShardSlice {
    ShardMap::new(SHARDS, 0x5EED).slice(index)
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// The daemons of one repetition, all threads of this process.
struct Stack {
    shards: Vec<ServerHandle>,
    coord: Option<CoordHandle>,
}

impl Stack {
    fn start(graph: &Graph, index: &RkrIndex, fleet: bool) -> Result<Stack, String> {
        let slices: Vec<Option<ShardSlice>> = if fleet {
            (0..SHARDS).map(|i| Some(shard_slice(i))).collect()
        } else {
            vec![None]
        };
        let mut shards = Vec::new();
        for slice in slices {
            let handle = spawn(
                graph.clone(),
                None,
                index.clone(),
                "127.0.0.1:0",
                server_config(slice),
            )
            .map_err(|e| err("bind daemon", e))?;
            shards.push(handle);
        }
        let coord = if fleet {
            let addrs = shards.iter().map(|s| s.addr().to_string()).collect();
            Some(
                spawn_coord("127.0.0.1:0", CoordConfig::new(addrs))
                    .map_err(|e| err("bind coordinator", e))?,
            )
        } else {
            None
        };
        Ok(Stack { shards, coord })
    }

    /// Where the workload's client connects.
    fn front(&self) -> SocketAddr {
        self.coord
            .as_ref()
            .map_or_else(|| self.shards[0].addr(), CoordHandle::addr)
    }

    /// Shut every daemon down and wait for its threads.
    fn stop(self, front: Client) -> Result<(), String> {
        front.shutdown().map_err(|e| err("shutdown", e))?;
        if let Some(coord) = self.coord {
            coord.join();
            for shard in &self.shards {
                connect(shard.addr())?
                    .shutdown()
                    .map_err(|e| err("shard shutdown", e))?;
            }
        }
        for shard in self.shards {
            shard.join();
        }
        Ok(())
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| err("connect", e))?;
    client.hello().map_err(|e| err("hello", e))?;
    Ok(client)
}

/// The one read op every served workload sends.
pub fn query_request(node: u32) -> Request {
    Request::Query {
        node,
        k: K,
        cache: true,
        strategy: None,
        deadline_ms: None,
    }
}

/// The first reply seen for each `(node, graph_epoch)`: what every later
/// hit must equal, and what the check phase re-answers in-process.
type FirstReplies = HashMap<(u32, u64), Vec<(u32, u32)>>;

pub fn run(
    p: &Params,
    seed: u64,
    started: Instant,
    mut rec: Option<&mut Recorder>,
) -> Result<Rep, String> {
    let fleet = p.workload == Workload::FleetScatter;
    let graph = fixture(p.scale);
    let script = Script::build(p, &graph, seed);
    let (index, _) = EngineContext::new(&graph).build_index(&index_params());
    let stack = Stack::start(&graph, &index, fleet)?;
    drop(index);
    let mut reader = connect(stack.front())?;
    let mut writer = match p.commits() {
        0 => None,
        _ => Some(connect(stack.front())?),
    };
    let mut rep = Rep {
        script_hash: format!("{:016x}", script.hash()),
        ..Rep::default()
    };
    let mut first = FirstReplies::new();

    // serve_hot: fill the cache — from here on every reply must say
    // `cached: true`. (Nothing merges without a `flush`, so the index
    // epoch the entries are keyed by cannot move under the script.)
    let must_hit = p.workload == Workload::ServeHot;
    if must_hit {
        for &node in &script.hot {
            let reply = reader.query(node, K);
            rep.phases[0].op(reply.as_ref().is_ok_and(|r| !r.partial));
            if let Ok(r) = reply {
                first.insert((node, r.graph_epoch), r.entries);
            }
        }
    }

    let reads = script.reads().count();
    let (mut hit_ns, mut miss_ns) = (Vec::with_capacity(reads), Vec::with_capacity(reads));
    let (mut commits, mut reads_ok) = (0u64, 0u64);
    rep.setup_s = started.elapsed().as_secs_f64();
    let script_start = Instant::now();
    for (i, op) in script.ops.iter().enumerate() {
        let request = i as u32 + 1;
        match op {
            Op::Query(node) => {
                let req = query_request(*node);
                let t0 = Instant::now();
                let sent = reader.send(&req);
                let t1 = Instant::now();
                let reply = sent.and_then(|()| reader.recv());
                let t2 = Instant::now();
                if let Some(rec) = rec.as_deref_mut() {
                    let (a, b, c) = (rec.at(t0), rec.at(t1), rec.at(t2));
                    let parent = rec.push(0, request, "client.query", a, c);
                    rec.push(parent, request, "client.send", a, b);
                    rec.push(parent, request, "client.recv", b, c);
                }
                let Ok(Reply::Query(reply)) = reply else {
                    rep.phases[1].op(false);
                    continue;
                };
                let ns = (t2 - t0).as_nanos() as u64;
                if reply.cached {
                    hit_ns.push(ns);
                } else {
                    miss_ns.push(ns);
                }
                let key = (*node, reply.graph_epoch);
                let mut ok =
                    !reply.partial && reply.graph_epoch == commits && (reply.cached || !must_hit);
                match first.get(&key) {
                    Some(seen) if reply.cached => ok &= *seen == reply.entries,
                    _ => drop(first.insert(key, reply.entries)),
                }
                rep.phases[1].op(ok);
                reads_ok += u64::from(ok);
            }
            // Writes and commits spend wall time but are not read ops.
            Op::Commit(batch) => {
                let writer = writer.as_mut().expect("a script with commits has a writer");
                let ops: Vec<UpdateOp> = batch.iter().map(|&d| d.into()).collect();
                let t0 = Instant::now();
                let staged = writer.update(&ops);
                let t1 = Instant::now();
                let flushed = writer.flush();
                let t2 = Instant::now();
                if let Some(rec) = rec.as_deref_mut() {
                    rec.push(0, request, "writer.update", rec.at(t0), rec.at(t1));
                    rec.push(0, request, "writer.flush", rec.at(t1), rec.at(t2));
                }
                commits += 1;
                rep.phases[1].op(staged.is_ok_and(|(n, _)| n == batch.len() as u64));
                rep.phases[1].op(flushed.is_ok());
            }
        }
    }
    let script_s = script_start.elapsed().as_secs_f64();
    rep.peak_rss_mb = peak_rss_mb();

    let latencies = hit_ns.iter().chain(&miss_ns).copied().collect();
    rep.set_latencies(latencies, script_s, reads_ok);

    // Counters the daemons kept: read from each one directly (the
    // coordinator's `stats` has no cache fields).
    let (mut cache_hits, mut queries, mut graph_commits) = (0, 0, 0);
    let mut shard_metrics = None;
    for shard in &stack.shards {
        let mut direct = connect(shard.addr())?;
        let stats = direct.stats().map_err(|e| err("stats", e))?;
        cache_hits += stats.cache_hits;
        queries += stats.queries;
        graph_commits = stats.graph_commits;
        if rec.is_some() && shard_metrics.is_none() {
            shard_metrics = Some(direct.metrics().map_err(|e| err("metrics", e))?);
        }
    }
    rep.counters = vec![
        ("cache_hits".into(), cache_hits),
        ("commits".into(), graph_commits),
    ];

    if let Some(rec) = rec {
        hit_ns.sort_unstable();
        let spans = summarize(rec.spans());
        rep.layers = match &stack.coord {
            Some(coord) => {
                let direct_us = direct_hit_p50_us(stack.shards[0].addr(), script.hot[0])?;
                fleet_layers(&coord.metrics(), &hit_ns, &miss_ns, direct_us)
            }
            None => {
                let daemon = shard_metrics.as_ref().expect("read above when traced");
                let hit_ratio = cache_hits as f64 / queries.max(1) as f64;
                daemon_layers(&spans, daemon, &hit_ns, &miss_ns, hit_ratio)
            }
        };
    }

    drop(writer);
    stack.stop(reader)?;

    check_replies(graph, &script, &first, seed, &mut rep.phases[2]);
    Ok(rep)
}

/// Mean of `ns` in ms (0 when empty).
fn mean_ms(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e6 / ns.len().max(1) as f64
}

/// Per-layer metrics of a traced repetition against one `rkrd`
/// (`hit_ns` ascending).
fn daemon_layers(
    spans: &BTreeMap<&'static str, NameSummary>,
    daemon: &MetricsSnapshot,
    hit_ns: &[u64],
    miss_ns: &[u64],
    cache_hit_ratio: f64,
) -> Vec<(String, f64)> {
    let span_mean = |name: &str, unit_ns: f64| {
        let s = spans.get(name)?;
        Some(s.total_ns as f64 / unit_ns / s.count as f64)
    };
    let hit_us = |p: f64| percentile(hit_ns, p).map(|ns| ns as f64 / 1e3);
    let miss_ms = (!miss_ns.is_empty()).then(|| mean_ms(miss_ns));
    [
        ("server.client_send_us", span_mean("client.send", 1e3)),
        ("server.client_recv_us", span_mean("client.recv", 1e3)),
        ("server.hit_roundtrip_us", hit_us(0.5)),
        ("server.hit_p99_us", hit_us(0.99)),
        ("server.miss_roundtrip_ms", miss_ms),
        (
            "server.engine_filter_ms",
            histogram_mean_ms(daemon, "rkrd_filter_seconds"),
        ),
        (
            "server.engine_refine_ms",
            histogram_mean_ms(daemon, "rkrd_refine_seconds"),
        ),
        ("server.cache_hit_ratio", Some(cache_hit_ratio)),
        ("server.update_stage_ms", span_mean("writer.update", 1e6)),
        ("server.flush_commit_ms", span_mean("writer.flush", 1e6)),
    ]
    .into_iter()
    .filter_map(|(name, value)| Some((name.to_string(), value?)))
    .collect()
}

/// Per-layer metrics of a traced repetition through the coordinator
/// (`hit_ns` ascending; `direct_us` is the same warm key's round-trip to
/// shard 0 without the coordinator).
fn fleet_layers(
    coord: &CoordMetrics,
    hit_ns: &[u64],
    miss_ns: &[u64],
    direct_us: f64,
) -> Vec<(String, f64)> {
    let hit_ms = percentile(hit_ns, 0.5).map(|ns| ns as f64 / 1e6);
    let mean = |sum: u64, count: u64| sum as f64 / count.max(1) as f64;
    let mut layers = vec![
        ("coord.hit_roundtrip_ms".to_string(), hit_ms),
        (
            "coord.overhead_ms".to_string(),
            hit_ms.map(|ms| ms - direct_us / 1e3),
        ),
        ("coord.direct_hit_roundtrip_us".to_string(), Some(direct_us)),
        (
            "coord.miss_roundtrip_ms".to_string(),
            Some(mean_ms(miss_ns)),
        ),
    ];
    for (i, h) in coord.shard_seconds.iter().enumerate() {
        let ms = mean(h.sum(), h.count()) / 1e6;
        layers.push((format!("coord.shard_ms.{i}"), Some(ms)));
    }
    layers.push((
        "coord.merge_prune_ratio".to_string(),
        Some(mean(
            coord.candidates_returned.get(),
            coord.candidates_received.get(),
        )),
    ));
    layers.push((
        "coord.fanout_width".to_string(),
        Some(mean(coord.fanout_width.sum(), coord.fanout_width.count())),
    ));
    layers
        .into_iter()
        .filter_map(|(name, value)| Some((name, value?)))
        .collect()
}

/// Mean of a daemon-side latency histogram, in ms (`None` while empty).
fn histogram_mean_ms(snapshot: &MetricsSnapshot, family: &str) -> Option<f64> {
    snapshot.samples.iter().find_map(|s| match &s.value {
        MetricValue::Histogram(h) if s.name == family && h.count > 0 => {
            Some(h.scaled_sum() * 1e3 / h.count as f64)
        }
        _ => None,
    })
}

/// p50 round-trip of a warm key asked of one shard directly: the base the
/// coordinator's own cost is measured against.
fn direct_hit_p50_us(shard: SocketAddr, node: u32) -> Result<f64, String> {
    let mut client = connect(shard)?;
    let mut ns = Vec::with_capacity(DIRECT_HITS);
    for _ in 0..DIRECT_HITS {
        let t0 = Instant::now();
        let reply = client.query(node, K).map_err(|e| err("direct hit", e))?;
        ns.push(t0.elapsed().as_nanos() as u64);
        if !reply.cached {
            return Err("direct shard query of a warm key missed the cache".into());
        }
    }
    ns.sort_unstable();
    Ok(ns[ns.len() / 2] as f64 / 1e3)
}

/// Re-answer a seeded sample of replies in-process with `dynamic-three`
/// on a `GraphStore` replayed to each reply's `graph_epoch`.
fn check_replies(
    graph: Graph,
    script: &Script,
    first: &FirstReplies,
    seed: u64,
    phase: &mut Phase,
) {
    let mut keys: Vec<(u64, u32)> = first.keys().map(|&(node, epoch)| (epoch, node)).collect();
    keys.sort_unstable();
    let sample: Vec<(u64, u32)> = sample_indices(keys.len(), CHECK_SAMPLE, seed)
        .into_iter()
        .map(|i| keys[i])
        .collect();
    let mut store = GraphStore::new(graph);
    let mut batches = script.ops.iter().filter_map(|op| match op {
        Op::Commit(batch) => Some(batch),
        Op::Query(_) => None,
    });
    for epoch in 0.. {
        let ctx = EngineContext::new(store.snapshot());
        let mut scratch = ctx.new_scratch();
        for &(_, node) in sample.iter().filter(|(e, _)| *e == epoch) {
            let reply = QueryResult {
                entries: first[&(node, epoch)]
                    .iter()
                    .map(|&(node, rank)| ResultEntry {
                        node: NodeId(node),
                        rank,
                    })
                    .collect(),
                stats: QueryStats::default(),
            };
            let reference = ctx.execute(&mut scratch, &QueryRequest::new(NodeId(node), K));
            phase.check(reference.is_ok_and(|r| results_equivalent(&reply, &r.result)));
        }
        let Some(batch) = batches.next() else { break };
        if store.stage_all(batch).is_err() {
            phase.op(false);
            break;
        }
        store.commit();
    }
}
