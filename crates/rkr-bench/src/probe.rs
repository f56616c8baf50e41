//! The probe phase of a traced run: direct, timed calls into each crate's
//! public functions — codec, cache, store, index, snapshot, the strategy
//! ladder — measured from outside, one layer at a time. These numbers do
//! not depend on the workload or on `--seed`.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rkranks_core::{
    load_snapshot, save_snapshot, BoundConfig, EngineContext, IndexAccess, IndexDelta,
    QueryRequest, Strategy,
};
use rkranks_datasets::{default_update_stream, Scale};
use rkranks_eval::workload::random_queries;
use rkranks_graph::{sssp, GraphStore};
use rkranks_server::cache::EPOCH_INDEPENDENT;
use rkranks_server::{spawn, CacheKey, Client, QueryReply, Reply, Request, ResultCache};

use crate::script::{fixture, FIXTURE_SEED, K, UPDATE_BATCH};
use crate::served::{index_params, query_request, server_config, shard_slice};

/// Nodes the strategy ladder runs on: the head of the `engine_cold` list.
const LADDER_NODES: usize = 16;
const SSSP_SOURCES: usize = 32;
const CODEC_CALLS: usize = 100_000;
const CACHE_CAPACITY: usize = 4096;
const PURGE_LIVE: u32 = 256;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Mean µs per call of `f` over [`CODEC_CALLS`] calls.
fn mean_us<T>(mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..CODEC_CALLS {
        black_box(f(black_box(i)));
    }
    t.elapsed().as_secs_f64() * 1e6 / CODEC_CALLS as f64
}

/// Run every probe; `scratch_dir` (inside the build directory) holds the
/// snapshot bundle for the moment it exists.
pub fn run(scale: Scale, scratch_dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    let t = Instant::now();
    let graph = fixture(scale);
    put("datasets.generate_s", t.elapsed().as_secs_f64());

    let owned = graph.clone();
    let t = Instant::now();
    let mut store = GraphStore::new(owned);
    put("graph.store_open_ms", ms_since(t));

    let batch = default_update_stream(&graph, UPDATE_BATCH, FIXTURE_SEED);
    let t = Instant::now();
    store
        .stage_all(&batch)
        .map_err(|e| format!("probe commit: {e}"))?;
    black_box(store.commit());
    put("graph.commit_ms", ms_since(t));
    drop(store);

    let sources = random_queries(&graph, SSSP_SOURCES, FIXTURE_SEED, |_| true);
    let t = Instant::now();
    for &s in &sources {
        black_box(sssp(&graph, s));
    }
    put("graph.sssp_ms", ms_since(t) / sources.len() as f64);

    let graph = Arc::new(graph);
    let ctx = EngineContext::new(Arc::clone(&graph));
    let t = Instant::now();
    let (index, _) = ctx.build_index(&index_params());
    put("core.index_build_s", t.elapsed().as_secs_f64());

    // The strategy ladder: mean execute time per strategy on one node list.
    let nodes = &sources[..LADDER_NODES.min(sources.len())];
    let mut scratch = ctx.new_scratch();
    let mut ladder = |ctx: &EngineContext, strategy: Strategy| -> Result<f64, String> {
        let t = Instant::now();
        for &q in nodes {
            let req = QueryRequest::new(q, K).with_strategy(strategy);
            black_box(ctx.execute(&mut scratch, &req).map_err(|e| e.to_string())?);
        }
        Ok(ms_since(t) / nodes.len() as f64)
    };
    put("core.strategy.static_ms", ladder(&ctx, Strategy::Static)?);
    let dynamic_ms = ladder(&ctx, Strategy::Dynamic(BoundConfig::ALL))?;
    put("core.strategy.dynamic-three_ms", dynamic_ms);
    let sliced = EngineContext::new(Arc::clone(&graph)).with_shard_slice(shard_slice(0));
    let sliced_ms = ladder(&sliced, Strategy::Dynamic(BoundConfig::ALL))?;
    put("core.sharded_slowdown_x", sliced_ms / dynamic_ms);

    let indexed = Strategy::Indexed(BoundConfig::ALL);
    let mut deltas = Vec::with_capacity(nodes.len());
    let t = Instant::now();
    for &q in nodes {
        let mut delta = IndexDelta::for_index(&index);
        let mut access = IndexAccess::Snapshot {
            snapshot: &index,
            delta: &mut delta,
        };
        let req = QueryRequest::new(q, K).with_strategy(indexed);
        black_box(
            ctx.execute_with(&mut scratch, Some(&mut access), &req)
                .map_err(|e| e.to_string())?,
        );
        deltas.push(delta);
    }
    put(
        "core.strategy.indexed-three.cold_ms",
        ms_since(t) / nodes.len() as f64,
    );
    let mut live = index.clone();
    let mut warm_ms = 0.0;
    for _pass in 0..2 {
        let t = Instant::now();
        for &q in nodes {
            let req = QueryRequest::new(q, K).with_strategy(indexed);
            let mut access = IndexAccess::Live(&mut live);
            black_box(
                ctx.execute_with(&mut scratch, Some(&mut access), &req)
                    .map_err(|e| e.to_string())?,
            );
        }
        warm_ms = ms_since(t) / nodes.len() as f64;
    }
    put("core.strategy.indexed-three.warm_ms", warm_ms);
    drop(live);

    let mut master = index.clone();
    let t = Instant::now();
    for delta in &deltas {
        master.merge_delta(delta);
    }
    put("core.index_merge_ms", ms_since(t));
    drop(master);

    std::fs::create_dir_all(scratch_dir).map_err(|e| format!("probe scratch dir: {e}"))?;
    let bundle = scratch_dir.join("probe.snapshot");
    let store = GraphStore::new(graph.as_ref().clone());
    let t = Instant::now();
    save_snapshot(&store, &index, &bundle).map_err(|e| format!("snapshot save: {e}"))?;
    put("core.snapshot_save_ms", ms_since(t));
    let t = Instant::now();
    black_box(load_snapshot(&bundle).map_err(|e| format!("snapshot load: {e}"))?);
    put("core.snapshot_load_ms", ms_since(t));
    std::fs::remove_file(&bundle).map_err(|e| format!("snapshot remove: {e}"))?;
    drop(store);

    // Codec: the serve_hot request line and a captured k = 10 reply.
    let request = query_request(nodes[0].0);
    let request_line = request.to_json().render();
    put(
        "server.request_encode_us",
        mean_us(|_| request.to_json().render()),
    );
    put(
        "server.request_parse_us",
        mean_us(|_| Request::from_line(&request_line)),
    );
    let answer = ctx
        .execute(&mut scratch, &QueryRequest::new(nodes[0], K))
        .map_err(|e| e.to_string())?;
    let entries: Vec<(u32, u32)> = answer
        .result
        .entries
        .iter()
        .map(|e| (e.node.0, e.rank))
        .collect();
    let reply = Reply::Query(QueryReply {
        entries: entries.clone(),
        cached: true,
        epoch: 1,
        graph_epoch: 0,
        partial: false,
    });
    let reply_line = reply.to_json().render();
    put(
        "server.reply_encode_us",
        mean_us(|_| reply.to_json().render()),
    );
    put(
        "server.reply_decode_us",
        mean_us(|_| Reply::from_line(&reply_line)),
    );

    // Cache: a 4096-entry cache filled to capacity, hit, then purged.
    let key = |node: u32, graph_epoch: u64| CacheKey {
        node,
        k: K,
        strategy: 0,
        epoch: EPOCH_INDEPENDENT,
        graph_epoch,
    };
    let mut cache = ResultCache::new(CACHE_CAPACITY);
    let t = Instant::now();
    for node in 0..CACHE_CAPACITY as u32 {
        cache.insert(key(node, 0), entries.clone());
    }
    put(
        "server.cache_insert_us",
        t.elapsed().as_secs_f64() * 1e6 / CACHE_CAPACITY as f64,
    );
    put(
        "server.cache_get_us",
        mean_us(|i| cache.get(&key((i % 64) as u32, 0)).map(Vec::len)),
    );
    let mut cache = ResultCache::new(CACHE_CAPACITY);
    for node in 0..PURGE_LIVE {
        cache.insert(key(node, 0), entries.clone());
    }
    let t = Instant::now();
    let purged = cache.purge_stale(1, 0);
    put("server.cache_purge_ms", ms_since(t));
    if purged != PURGE_LIVE as usize {
        return Err(format!(
            "cache purge dropped {purged} of {PURGE_LIVE} stale entries"
        ));
    }

    // Spawn: bind, start the workers, answer the first hello.
    let (owned_graph, owned_index) = (graph.as_ref().clone(), index.clone());
    let t = Instant::now();
    let handle = spawn(
        owned_graph,
        None,
        owned_index,
        "127.0.0.1:0",
        server_config(None),
    )
    .map_err(|e| format!("probe spawn: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("probe connect: {e}"))?;
    client.hello().map_err(|e| format!("probe hello: {e}"))?;
    put("server.spawn_ms", ms_since(t));
    client
        .shutdown()
        .map_err(|e| format!("probe shutdown: {e}"))?;
    handle.join();

    Ok(out)
}
