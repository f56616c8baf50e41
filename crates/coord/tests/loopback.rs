//! Coordinator loopback integration: a coordinator fronting N in-process
//! `rkrd` replicas must serve answers rank-identical to the single-box
//! dynamic search, with the cache on and off as the single-daemon
//! loopback suite runs — including live graph updates routed through the
//! coordinator mid-traffic — must keep answering completely from the
//! survivors when any replica is killed, must never answer from a replica
//! behind the fleet's graph epoch, and must refuse to answer when
//! replicas serve different graphs.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rkranks_coord::{spawn_coord, CoordConfig, CoordHandle};
use rkranks_core::{
    BoundConfig, EngineContext, MetricValue, MetricsSnapshot, QueryRequest, RkrIndex,
};
use rkranks_datasets::default_update_stream;
use rkranks_datasets::Zipf;
use rkranks_datasets::{collab_graph, CollabParams};
use rkranks_graph::{to_real, Graph, GraphDelta, GraphStore, ShardMap, ShardSlice};
use rkranks_server::{
    spawn, Client, ClientError, Reply, Request, ServerConfig, ServerHandle, UpdateOp,
    MAX_REPLY_BYTES,
};

const K: u32 = 5;
const K_MAX: u32 = 16;
const SHARDS: u32 = 3;
const SHARD_SEED: u64 = 0x5EED;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 40;

fn test_graph() -> Graph {
    collab_graph(&CollabParams::with_authors(150, 0xC0FFEE))
}

fn zipf_workload(n: u32, count: usize, seed: u64) -> Vec<u32> {
    let z = Zipf::new(n as usize, 1.2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (z.sample(&mut rng) - 1) as u32)
        .collect()
}

/// Ground truth: per-node ranks from the plain single-box dynamic search.
fn expected_ranks(g: &Graph) -> BTreeMap<u32, Vec<u32>> {
    let ctx = EngineContext::new(g);
    let mut scratch = ctx.new_scratch();
    g.nodes()
        .map(|q| {
            let r = ctx
                .execute(&mut scratch, &QueryRequest::new(q, K))
                .unwrap()
                .result;
            (q.0, r.ranks())
        })
        .collect()
}

/// Spawn the whole fleet: `SHARDS` shard daemons over replicas of `g`.
fn spawn_fleet(g: &Graph, cache_capacity: usize, merge_every: u64) -> Vec<ServerHandle> {
    spawn_shards(g, SHARDS, cache_capacity, merge_every)
}

fn spawn_shards(
    g: &Graph,
    shards: u32,
    cache_capacity: usize,
    merge_every: u64,
) -> Vec<ServerHandle> {
    let map = ShardMap::new(shards, SHARD_SEED);
    (0..shards)
        .map(|i| spawn_replica(g, map.slice(i), cache_capacity, merge_every))
        .collect()
}

/// One replica of `g` announcing `slice` as its place in the fleet.
fn spawn_replica(
    g: &Graph,
    slice: ShardSlice,
    cache_capacity: usize,
    merge_every: u64,
) -> ServerHandle {
    spawn(
        g.clone(),
        None,
        RkrIndex::empty(g.num_nodes(), K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            cache_capacity,
            merge_every,
            bounds: BoundConfig::ALL,
            shard: Some(slice),
            ..Default::default()
        },
    )
    .expect("bind shard")
}

fn shard_addrs(fleet: &[ServerHandle]) -> Vec<String> {
    fleet.iter().map(|h| h.addr().to_string()).collect()
}

/// The tentpole acceptance test: 4 concurrent Zipf clients against the
/// coordinator, with the cache on and off, every answer rank-identical to
/// single-box `dynamic-three`.
#[test]
fn scatter_gather_matches_single_box_across_zipf_matrix() {
    let g = test_graph();
    let n = g.num_nodes();
    let expected = expected_ranks(&g);

    for cache_capacity in [0, 1024] {
        let fleet = spawn_fleet(&g, cache_capacity, 1);
        let coord = spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet)))
            .expect("bind coordinator");
        let addr = coord.addr();

        std::thread::scope(|s| {
            for client_id in 0..CLIENTS {
                let expected = &expected;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let workload = zipf_workload(n, QUERIES_PER_CLIENT, 0xBEEF ^ client_id as u64);
                    for (i, node) in workload.into_iter().enumerate() {
                        let reply = client.query(node, K).expect("query");
                        assert!(!reply.partial, "healthy fleet must answer complete");
                        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
                        assert_eq!(
                            &got, &expected[&node],
                            "cache={cache_capacity} client={client_id} i={i} \
                             node={node}: ranks diverged"
                        );
                    }
                });
            }
        });

        // The coordinator's own telemetry must show one replica answering:
        // shard 0 timed every query, the others only the first-read
        // `hello` round of each reactor worker, and every entry received
        // was returned.
        let m = coord.metrics();
        let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
        let workers = ServerConfig::default().workers as u64;
        assert_eq!(m.queries.get(), total);
        assert!(m.fanout_width.count() >= total);
        assert!(
            m.shard_seconds[0].count() >= total,
            "shard 0's latency histogram must record every query"
        );
        for i in 0..SHARDS as usize {
            if i > 0 {
                assert!(
                    m.shard_seconds[i].count() <= workers,
                    "shard {i} must see hello rounds only, not queries"
                );
            }
            assert_eq!(m.shard_errors[i].get(), 0);
        }
        let received = m.candidates_received.get();
        let returned = m.candidates_returned.get();
        assert_eq!(received, returned);
        assert_eq!(m.partials.get(), 0);

        let ctl = Client::connect(addr).expect("connect ctl");
        ctl.shutdown().expect("coordinator shutdown");
        coord.join();
        for shard in fleet {
            let c = Client::connect(shard.addr()).expect("connect shard");
            c.shutdown().expect("shard shutdown");
            shard.join();
        }
    }
}

/// Live GraphDelta batches routed through the coordinator mid-traffic:
/// each phase's update batch commits on every shard before the reply
/// returns, and every subsequent query is rank-identical to an offline
/// replay of the same stream.
#[test]
fn live_updates_through_the_coordinator_stay_rank_identical() {
    const PHASE_OPS: usize = 8;
    const PHASES: usize = 3;

    let g = test_graph();
    let stream = default_update_stream(&g, PHASE_OPS * PHASES, 0xFEED);
    let mut store = GraphStore::new(g.clone());
    let mut expected = vec![expected_ranks(&g)];
    for batch in stream.chunks(PHASE_OPS) {
        let snap = store.apply(batch).expect("valid stream");
        expected.push(expected_ranks(&snap));
    }

    // merge_every=0: shards commit only on the coordinator's flushes, so
    // the write path under test is the coordinator's update+flush gate.
    let fleet = spawn_fleet(&g, 1024, 0);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let addr = coord.addr();
    let mut ctl = Client::connect(addr).expect("connect ctl");

    for (phase, batch) in std::iter::once(None)
        .chain(stream.chunks(PHASE_OPS).map(Some))
        .enumerate()
    {
        if let Some(batch) = batch {
            let ops: Vec<UpdateOp> = batch.to_vec();
            let (staged, pre_epoch) = ctl.update(&ops).expect("update through coordinator");
            assert_eq!(staged, ops.len() as u64);
            assert_eq!(pre_epoch, phase as u64 - 1, "staging reports the old epoch");
        }
        let n_phase = expected[phase].len() as u32;
        std::thread::scope(|s| {
            for client_id in 0..CLIENTS {
                let expected = &expected[phase];
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let workload = zipf_workload(n_phase, 20, 0xFADE ^ client_id as u64);
                    for node in workload {
                        let reply = client.query(node, K).expect("query");
                        assert!(!reply.partial);
                        assert_eq!(
                            reply.graph_epoch, phase as u64,
                            "coordinator writes commit before the reply returns"
                        );
                        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
                        assert_eq!(
                            &got, &expected[&node],
                            "phase {phase} node {node}: sharded serving diverged from replay"
                        );
                    }
                });
            }
        });
    }

    // A batch staged on every shard directly is committed by one
    // coordinator flush, which reports it once, not once per shard.
    for shard in &fleet {
        let mut direct = Client::connect(shard.addr()).expect("connect shard");
        direct
            .update(&[UpdateOp::AddNode])
            .expect("stage on a shard");
    }
    store
        .apply(&[GraphDelta::AddNode])
        .expect("replay the staged node");
    let (_, merged) = ctl.flush().expect("fleet flush");
    assert_eq!(merged, 1, "the fleet committed one staged delta");

    ctl.shutdown().expect("coordinator shutdown");
    coord.join();
    for shard in fleet {
        let outcome = {
            let c = Client::connect(shard.addr()).expect("connect shard");
            c.shutdown().expect("shard shutdown");
            shard.join()
        };
        assert_eq!(outcome.graph_epoch, PHASES as u64 + 1);
        assert_eq!(*outcome.graph, *store.snapshot(), "shard == replay graph");
    }
}

/// Kill one replica — the primary (shard 0, which answers every read
/// while it lives) or a secondary: the survivors hold the whole graph, so
/// single queries still come back complete and rank-identical to one box,
/// a batch succeeds on the survivors, and nothing hangs.
#[test]
fn killed_replica_leaves_complete_answers_from_the_survivors() {
    let g = test_graph();
    let expected = expected_ranks(&g);
    for dead_shard in [0usize, 1] {
        let mut fleet = spawn_fleet(&g, 0, 1);
        let coord =
            spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
        let mut client = Client::connect(coord.addr()).expect("connect");

        // Warm the pool so the kill severs live connections (the harder
        // path: a mid-flight transport error, then a refused reconnect).
        let healthy = client.query(0, K).expect("healthy query");
        assert!(!healthy.partial);

        let dead = fleet.remove(dead_shard);
        {
            let c = Client::connect(dead.addr()).expect("connect doomed shard");
            c.shutdown().expect("shard shutdown");
        }
        dead.join();

        let started = Instant::now();
        let ranks = |entries: &[(u32, u32)]| entries.iter().map(|&(_, r)| r).collect::<Vec<u32>>();
        for node in [3u32, 17, 42, 99] {
            let reply = client.query(node, K).expect("a survivor answers");
            assert!(
                !reply.partial,
                "dead {dead_shard}, node {node}: a dead replica must not make the answer partial"
            );
            assert_eq!(
                ranks(&reply.entries),
                expected[&node],
                "dead {dead_shard}, node {node}"
            );
        }
        let nodes = [1u32, 2, 3];
        let batch = client
            .batch(&nodes, K)
            .expect("a batch succeeds on the survivors");
        for (node, entries) in nodes.iter().zip(&batch.results) {
            assert_eq!(
                ranks(entries),
                expected[node],
                "dead {dead_shard}, batch node {node}"
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "queries with a dead replica must not hang"
        );

        // Reads go to shard 0 while it lives, so only a dead primary is
        // noticed (and counted); a dead secondary costs reads nothing.
        let m = coord.metrics();
        assert_eq!(m.partials.get(), 0);
        for i in 0..SHARDS as usize {
            let errors = m.shard_errors[i].get();
            if i == dead_shard && i == 0 {
                assert!(errors > 0, "the dead primary's error counter must move");
            } else {
                assert_eq!(errors, 0, "dead {dead_shard}: shard {i} saw errors");
            }
        }

        drop(client);
        let ctl = Client::connect(coord.addr()).expect("connect ctl");
        ctl.shutdown().expect("coordinator shutdown");
        coord.join();
        shutdown_fleet(fleet);
    }
}

/// Two replicas a commit apart: shard 1 has committed a hub-edge
/// reweight written to it directly, so shard 0 — the one a read goes to
/// first — holds the older graph with nothing staged to catch up with.
/// Returns the fleet, the newer graph's ranks, and the nodes to ask.
fn spawn_fleet_with_a_stale_primary(g: &Graph) -> (Vec<ServerHandle>, BTreeMap<u32, Vec<u32>>) {
    let (hub, _) = g.max_degree().expect("a non-empty graph");
    let (v, w) = g.edges(hub).next().expect("the hub has an edge");
    let delta = GraphDelta::Reweight {
        u: hub.0,
        v: v.0,
        w: to_real(w) * 4.0 + 1.0,
    };
    let newer = GraphStore::new(g.clone())
        .apply(&[delta])
        .expect("reweight an existing edge");
    let fleet = spawn_shards(g, 2, 1024, 0);
    let mut direct = Client::connect(fleet[1].addr()).expect("connect shard 1");
    direct.update(&[delta]).expect("stage on shard 1");
    direct.flush().expect("commit on shard 1");
    assert_eq!(direct.hello().expect("hello").graph_epoch, 1);
    (fleet, expected_ranks(&newer))
}

/// A replica one commit behind never answers a query: it must come back
/// at the newer graph epoch with the newer graph's ranks, after one flush
/// and re-ask of the laggard.
#[test]
fn a_replica_behind_the_fleets_graph_epoch_never_answers() {
    let g = test_graph();
    let (fleet, newer_truth) = spawn_fleet_with_a_stale_primary(&g);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    let (hub, _) = g.max_degree().expect("a non-empty graph");
    for node in [hub.0, 3, 17] {
        let reply = client.query(node, K).expect("query");
        assert_eq!(
            reply.graph_epoch, 1,
            "node {node}: a stale replica answered"
        );
        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
        assert_eq!(got, newer_truth[&node], "node {node}");
    }
    assert!(
        coord.metrics().epoch_retries.get() > 0,
        "the laggard must have been flushed and re-asked"
    );

    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// A batch skips the stale replica the same way: one replica answers the
/// whole batch, at the newer graph epoch.
#[test]
fn a_batch_skips_a_replica_behind_the_fleets_graph_epoch() {
    let g = test_graph();
    let (fleet, newer_truth) = spawn_fleet_with_a_stale_primary(&g);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    let nodes = [3u32, 17, 42];
    let batch = client.batch(&nodes, K).expect("batch");
    assert_eq!(batch.graph_epoch, 1, "a stale replica answered the batch");
    for (node, entries) in nodes.iter().zip(&batch.results) {
        let got: Vec<u32> = entries.iter().map(|&(_, r)| r).collect();
        assert_eq!(got, newer_truth[node], "batch node {node}");
    }

    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// Replicas that do not serve the same graph are caught: shard 1 serves
/// the test graph with one hub edge reweighted (same node count, so the
/// handshake passes). A query whose ranks differ between the two is an
/// error naming both shards, never either answer.
#[test]
fn replicas_that_disagree_are_refused() {
    let g = test_graph();
    let (hub, _) = g.max_degree().expect("a non-empty graph");
    let (v, _) = g.edges(hub).next().expect("the hub has an edge");
    let skewed = GraphStore::new(g.clone())
        .apply(&[GraphDelta::Reweight {
            u: hub.0,
            v: v.0,
            w: 1e6,
        }])
        .expect("reweight an existing edge");
    let (truth, skewed_truth) = (expected_ranks(&g), expected_ranks(&skewed));
    let split = truth.keys().find(|&q| truth[q] != skewed_truth[q]);
    let split = *split.expect("reweighting a hub edge changes some answer");
    let same = truth.keys().find(|&q| truth[q] == skewed_truth[q]);
    let same = *same.expect("some answer does not see the reweighted edge");

    let map = ShardMap::new(2, SHARD_SEED);
    let fleet = vec![
        spawn_replica(&g, map.slice(0), 0, 0),
        spawn_replica(&skewed, map.slice(1), 0, 0),
    ];
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");

    match client.query(split, K) {
        Err(rkranks_server::ClientError::Server(msg)) => assert!(
            msg.contains("shards 0 and 1") && msg.contains("graph epoch 0"),
            "the refusal must name both shards and the epoch, got: {msg}"
        ),
        other => panic!("node {split}: disagreeing replicas must be refused, got {other:?}"),
    }

    // A node whose ranks the two graphs happen to agree on is refused too:
    // the fleet is miswired whichever query exposes it, and on a fresh
    // connection as on the one that was already refused.
    for mut client in [client, Client::connect(coord.addr()).expect("connect")] {
        match client.query(same, K) {
            Err(rkranks_server::ClientError::Server(msg)) => assert!(
                msg.contains("shards 0 and 1") && msg.contains("graph epoch 0"),
                "the refusal must name both shards and the epoch, got: {msg}"
            ),
            other => panic!("node {same}: disagreeing replicas must be refused, got {other:?}"),
        }
    }
    let client = Client::connect(coord.addr()).expect("connect");

    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// The handshake layer: `hello` against the coordinator identifies it as
/// role `"coord"` speaking the current protocol version, and a fleet
/// whose address list disagrees with the shards' own identities is
/// refused with a one-line error instead of serving wrong merges.
#[test]
fn handshake_verifies_roles_and_misordered_fleets_are_refused() {
    let g = test_graph();
    let fleet = spawn_fleet(&g, 0, 1);

    // Correct order: hello says coord, and a query works.
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    let hello = client.hello().expect("hello");
    assert_eq!(hello.role, "coord");
    assert_eq!(hello.v, rkranks_server::PROTOCOL_VERSION);
    assert!(hello.shard.is_none());
    client.query(5, K).expect("query through verified fleet");

    // A shard answers hello with its identity.
    let mut direct = Client::connect(fleet[2].addr()).expect("connect shard");
    let shard_hello = direct.hello().expect("shard hello");
    assert_eq!(shard_hello.role, "shard");
    let id = shard_hello.shard.expect("shard identity");
    assert_eq!((id.index, id.shards, id.seed), (2, SHARDS, SHARD_SEED));

    // Swapped addresses: the handshake must catch the miswiring on the
    // first fan-out and refuse to serve.
    let mut swapped = shard_addrs(&fleet);
    swapped.swap(0, 1);
    let bad = spawn_coord("127.0.0.1:0", CoordConfig::new(swapped)).expect("bind bad coord");
    let mut bad_client = Client::connect(bad.addr()).expect("connect");
    let err = bad_client.query(5, K);
    match err {
        Err(rkranks_server::ClientError::Server(msg)) => {
            assert!(
                msg.contains("identifies as shard"),
                "miswiring error must name the identity mismatch, got: {msg}"
            );
        }
        other => panic!("misordered fleet must be refused, got {other:?}"),
    }

    let ctl = Client::connect(coord.addr()).expect("ctl");
    ctl.shutdown().expect("shutdown coord");
    coord.join();
    bad.stop();
    bad.join();
    for shard in fleet {
        let c = Client::connect(shard.addr()).expect("connect shard");
        c.shutdown().expect("shard shutdown");
        shard.join();
    }
}

/// A two-shard fleet with the result cache on, and a coordinator in
/// front of it — the shape the latency and framing tests below share.
fn spawn_cached_pair(g: &Graph) -> (Vec<ServerHandle>, CoordHandle) {
    let fleet = spawn_shards(g, 2, 1024, 0);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    (fleet, coord)
}

fn shutdown_fleet(fleet: Vec<ServerHandle>) {
    for shard in fleet {
        let c = Client::connect(shard.addr()).expect("connect shard");
        c.shutdown().expect("shard shutdown");
        shard.join();
    }
}

/// One reply off a raw front connection, bounded by the stream's read
/// timeout.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reply within the bound");
    assert!(n > 0, "coordinator closed the connection");
    Reply::from_line(line.trim()).expect("a protocol reply line")
}

/// The latency regression guard: a cached query through the coordinator
/// costs round-trips, not timer ticks. 200 hits took 6.4 s when every
/// request slept out a 25 ms (32 ms observed) receive timeout; they take
/// milliseconds without one. The bound is generous on purpose — it fails
/// on any reintroduced tick, not on a noisy host.
#[test]
fn cached_queries_through_the_coordinator_pay_no_timer() {
    let g = test_graph();
    let (fleet, coord) = spawn_cached_pair(&g);
    let mut client = Client::connect(coord.addr()).expect("connect");
    let warm = client.query(7, K).expect("warming query");
    assert!(!warm.cached);

    let started = Instant::now();
    for i in 0..200 {
        let reply = client.query(7, K).expect("cached query");
        assert!(
            reply.cached,
            "query {i} must be served from the shard caches"
        );
        assert_eq!(reply.entries, warm.entries);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "200 cached queries took {elapsed:?}: something on the coordinator's \
         request path is waiting on a clock"
    );

    let m = coord.metrics();
    client.shutdown().expect("coordinator shutdown");
    coord.join();
    // The coordinator timed each of them itself (read only after the
    // join: a reply reaches the client before its sample is recorded).
    assert_eq!(m.front.request_seconds.count(), 201);
    assert_eq!(m.front.accept_errors.get(), 0);
    shutdown_fleet(fleet);
}

/// A strategy `rkrd` does not serve is refused through the coordinator
/// too: one error reply naming the in-process command, and the same
/// connection keeps answering.
#[test]
fn unserved_strategies_are_refused_through_the_coordinator() {
    let g = test_graph();
    let expected = expected_ranks(&g);
    let (fleet, coord) = spawn_cached_pair(&g);
    let unserved = Request::Query {
        node: 7,
        k: K,
        cache: true,
        strategy: Some("indexed-three".into()),
        deadline_ms: None,
    };
    // rkrd's own refusal, asked of shard 1 directly.
    let mut direct = Client::connect(fleet[1].addr()).expect("connect shard 1");
    let rkrd_refusal = direct.raw(&unserved).expect("one reply line");
    // Shard 0's request count, read twice to learn what one read adds.
    let mut shard0 = Client::connect(fleet[0].addr()).expect("connect shard 0");
    let mut requests_seen = || {
        let snapshot = shard0.metrics().expect("shard 0 metrics");
        let sample = snapshot
            .samples
            .iter()
            .find(|s| s.name == "rkrd_request_seconds");
        match sample.map(|s| &s.value) {
            Some(MetricValue::Histogram(h)) => h.count,
            other => panic!("no rkrd_request_seconds histogram: {other:?}"),
        }
    };
    let (a, b) = (requests_seen(), requests_seen());

    let mut client = Client::connect(coord.addr()).expect("connect");
    let line = client.raw(&unserved).expect("one reply line");
    let Reply::Error(msg) = Reply::from_line(&line).expect("a protocol reply line") else {
        panic!("indexed-three must be refused: {line}");
    };
    assert!(msg.contains("rkr query"), "{msg}");
    assert_eq!(line, rkrd_refusal, "the coordinator refuses as rkrd does");
    assert_eq!(
        requests_seen() - b,
        b - a,
        "the refused line reached shard 0"
    );
    let reply = client.query(7, K).expect("the connection keeps answering");
    let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
    assert_eq!(got, expected[&7]);
    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// Framing edges of the one-read-then-serve loop: a request that ends
/// exactly on a read-chunk boundary (one chunk, then two) must be served
/// without waiting for more bytes, a pipelined burst that arrives in one
/// segment must be answered completely and in order, and an oversize
/// line must end in an error line and a close the peer can see.
#[test]
fn framing_edges_of_the_one_read_then_serve_loop() {
    let g = test_graph();
    let (fleet, coord) = spawn_cached_pair(&g);
    let mut stream = TcpStream::connect(coord.addr()).expect("connect raw");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    for total in [4096usize, 8192] {
        let mut line = format!(r#"{{"op":"query","node":3,"k":{K}}}"#);
        line.push_str(&" ".repeat(total - 1 - line.len()));
        line.push('\n');
        assert_eq!(line.len(), total);
        stream.write_all(line.as_bytes()).unwrap();
        let reply = read_reply(&mut reader);
        assert!(
            matches!(reply, Reply::Query(_)),
            "{total}-byte request got: {reply:?}"
        );
    }

    let burst = r#"{"op":"stats"}"#.to_string() + "\n";
    stream.write_all(burst.repeat(64).as_bytes()).unwrap();
    for i in 0..64 {
        match read_reply(&mut reader) {
            Reply::Stats(s) => assert_eq!(s.queries, 2, "burst reply {i}"),
            other => panic!("burst reply {i} is not a stats reply: {other:?}"),
        }
    }

    drop((stream, reader));
    coord.stop();
    coord.join();

    // A line over the cap is refused with one error line and then the
    // coordinator hangs up — the peer must see the close, not a socket
    // held open by the accept thread's clone of it.
    let small = CoordConfig {
        max_line_bytes: 64,
        ..CoordConfig::new(shard_addrs(&fleet))
    };
    let coord = spawn_coord("127.0.0.1:0", small).expect("bind small-line coord");
    let mut stream = TcpStream::connect(coord.addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    stream.write_all(&[b'x'; 200]).unwrap();
    let mut rest = String::new();
    stream
        .read_to_string(&mut rest)
        .expect("error line, then EOF, within the bound");
    assert!(rest.contains("exceeds 64 bytes"), "got: {rest}");
    coord.stop();
    coord.join();
    shutdown_fleet(fleet);
}

/// One request line of 100,000 `[`s — about 100 KB, far under the line
/// cap — once overflowed a coordinator worker's stack while it parsed and
/// aborted `rkr coord`. It now gets an error reply, and the same
/// connection goes on answering queries.
#[test]
fn deeply_nested_coordinator_line_gets_an_error_reply() {
    let g = test_graph();
    let expected = expected_ranks(&g);
    let (fleet, coord) = spawn_cached_pair(&g);
    let mut client = Client::connect(coord.addr()).expect("connect");

    let hostile = format!(
        "{{\"op\":\"batch\",\"k\":3,\"nodes\":{}\n",
        "[".repeat(100_000)
    );
    client.send_line(&hostile).expect("send");
    match client.recv() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("nesting"), "{msg}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    let reply = client.query(3, K).expect("query on the same connection");
    let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
    assert_eq!(got, expected[&3]);

    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// Shutdown without a tick: idle front connections are parked in `read`
/// with no timeout, so both `CoordHandle::stop()` and a protocol
/// `shutdown` from one client must wake the accept thread and close every
/// other parked connection (each client observes EOF) promptly.
#[test]
fn shutdown_closes_parked_connections_promptly() {
    let g = test_graph();
    for by_protocol in [false, true] {
        let (fleet, coord) = spawn_cached_pair(&g);
        let mut parked: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(coord.addr()).expect("connect idle"))
            .collect();
        // A round-trip on each proves its handler thread is up and parked
        // again before the shutdown races it.
        for s in &mut parked {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(b"{\"op\":\"hello\"}\n").unwrap();
            read_reply(&mut BufReader::new(s.try_clone().unwrap()));
        }
        assert_eq!(coord.metrics().front.connections_open.get(), 8);

        let started = Instant::now();
        if by_protocol {
            let ctl = Client::connect(coord.addr()).expect("connect ctl");
            ctl.shutdown().expect("coordinator shutdown");
        } else {
            coord.stop();
        }
        coord.join();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "shutdown (protocol: {by_protocol}) with 8 parked connections took {elapsed:?}"
        );
        for (i, s) in parked.iter_mut().enumerate() {
            let mut rest = Vec::new();
            let n = s
                .read_to_end(&mut rest)
                .unwrap_or_else(|e| panic!("parked client {i} saw {e}, not EOF"));
            assert_eq!(n, 0, "parked client {i} got unexpected bytes");
        }
        shutdown_fleet(fleet);
    }
}

/// The coordinator's graph bookkeeping comes from the fleet after every
/// write, not from arithmetic: a reweight to the current weight commits
/// nothing on any replica, so the coordinator's `hello` keeps the shards'
/// graph epoch, and an `add-node` raises its node count by one.
#[test]
fn writes_through_the_coordinator_report_the_fleets_graph() {
    let g = test_graph();
    let (hub, _) = g.max_degree().expect("a non-empty graph");
    let (v, w) = g.edges(hub).next().expect("the hub has an edge");
    let fleet = spawn_shards(&g, 2, 0, 0);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    let mut direct = Client::connect(fleet[0].addr()).expect("connect shard");

    client
        .update(&[UpdateOp::Reweight {
            u: hub.0,
            v: v.0,
            w: to_real(w),
        }])
        .expect("a no-op reweight");
    let shard_hello = direct.hello().expect("shard hello");
    assert_eq!(
        shard_hello.graph_epoch, 0,
        "a batch that nets to nothing commits nothing"
    );
    assert_eq!(
        client.hello().expect("hello").graph_epoch,
        shard_hello.graph_epoch
    );

    let before = client.stats().expect("stats");
    assert_eq!(before.graph_nodes, u64::from(g.num_nodes()));
    assert_eq!(
        before.workers, 4,
        "the reactor's workers, not open connections"
    );
    client.update(&[UpdateOp::AddNode]).expect("add-node");
    let after = client.stats().expect("stats");
    assert_eq!(after.graph_nodes, before.graph_nodes + 1);
    assert_eq!(after.graph_epoch, 1);
    assert_eq!(client.hello().expect("hello").nodes, before.graph_nodes + 1);

    drop(direct);
    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// Parked-connection fairness on the coordinator's reactor: far more idle
/// connections than workers neither starve nor slow an active client, and
/// a parked connection is served the moment it speaks.
#[test]
fn parked_connections_neither_starve_nor_slow_coordinator_clients() {
    const PARKED: usize = 300;
    const ROUND_TRIPS: usize = 100;

    let g = test_graph();
    let expected = expected_ranks(&g);
    let (fleet, coord) = spawn_cached_pair(&g);
    let parked: Vec<TcpStream> = (0..PARKED)
        .map(|i| {
            TcpStream::connect(coord.addr()).unwrap_or_else(|e| panic!("parked conn {i}: {e}"))
        })
        .collect();

    let mut client = Client::connect(coord.addr()).expect("connect active");
    let started = Instant::now();
    for (i, node) in zipf_workload(g.num_nodes(), ROUND_TRIPS, 0x1D1E)
        .into_iter()
        .enumerate()
    {
        let reply = client.query(node, K).expect("query");
        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
        assert_eq!(&got, &expected[&node], "i={i} node={node}: ranks diverged");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "{ROUND_TRIPS} round-trips took {elapsed:?} with {PARKED} parked conns"
    );

    let late = &parked[PARKED / 2];
    late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    (&*late)
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("late write");
    match read_reply(&mut BufReader::new(late.try_clone().unwrap())) {
        Reply::Stats(s) => assert_eq!(s.queries, ROUND_TRIPS as u64),
        other => panic!("parked conn got {other:?}"),
    }

    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// A counter out of a metrics snapshot.
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .find_map(|s| match s.value {
            MetricValue::Counter(v) if s.name == name => Some(v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no counter {name}"))
}

/// Write backpressure on the coordinator's reactor: a client pipelining
/// megabytes of replies without reading pauses the coordinator's reads
/// (the pause is counted), and once it reads, every reply arrives, in
/// order — each `metrics` reply counts exactly the queries before it.
#[test]
fn pipelined_coordinator_replies_survive_backpressure() {
    const PIPELINED: u64 = 4000;

    let g = test_graph();
    let (fleet, coord) = spawn_cached_pair(&g);
    let stream = TcpStream::connect(coord.addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let pair = format!("{{\"op\":\"query\",\"node\":7,\"k\":{K}}}\n{{\"op\":\"metrics\"}}\n");
    let burst = pair.repeat(PIPELINED as usize);
    let sender = std::thread::spawn(move || writer.write_all(burst.as_bytes()));

    // Read nothing until the coordinator has paused this connection.
    let m = coord.metrics();
    let deadline = Instant::now() + Duration::from_secs(20);
    while m.front.backpressure_pauses.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "the backlog never reached the high-water mark"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut reader = BufReader::new(stream);
    for i in 1..=PIPELINED {
        match read_reply(&mut reader) {
            Reply::Query(q) => assert!(!q.partial, "query {i}"),
            other => panic!("reply {i} is not a query reply: {other:?}"),
        }
        match read_reply(&mut reader) {
            Reply::Metrics(snap) => {
                assert_eq!(
                    counter(&snap, "rkrd_coord_queries_total"),
                    i,
                    "metrics reply {i}"
                )
            }
            other => panic!("reply {i} is not a metrics reply: {other:?}"),
        }
    }
    sender.join().unwrap().expect("the whole burst was written");

    drop(reader);
    coord.stop();
    coord.join();
    shutdown_fleet(fleet);
}

/// Oversize lines on the coordinator's reactor: one error line, then the
/// close, the rejection counted in the coordinator's own `stats`, and
/// everyone else still served.
#[test]
fn oversize_coordinator_lines_are_counted_and_close_the_connection() {
    let g = test_graph();
    let fleet = spawn_shards(&g, 2, 0, 0);
    let small = CoordConfig {
        max_line_bytes: 64,
        ..CoordConfig::new(shard_addrs(&fleet))
    };
    let coord = spawn_coord("127.0.0.1:0", small).expect("bind coord");
    let mut stream = TcpStream::connect(coord.addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut big = vec![b'x'; 200];
    big.push(b'\n');
    stream.write_all(&big).unwrap();
    let mut rest = String::new();
    stream
        .read_to_string(&mut rest)
        .expect("error line, then EOF");
    assert!(rest.contains("exceeds 64 bytes"), "got: {rest}");

    let mut ctl = Client::connect(coord.addr()).expect("connect ctl");
    assert_eq!(
        ctl.query(3, K).expect("still serving").entries.len(),
        K as usize
    );
    assert_eq!(ctl.stats().expect("stats").oversize_lines, 1);
    ctl.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}

/// A replica that answers `hello` as the real shard at `real` does, then
/// answers anything else with a reply line that never ends: it streams
/// [`MAX_REPLY_BYTES`] plus 16 MiB with no newline, then stalls until the
/// peer hangs up. (The bound keeps a client without a cap from reading
/// without limit: it waits out its reply timeout instead.)
fn spawn_streaming_replica(real: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut upstream = Client::connect(real).expect("connect the real shard");
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                    if !line.contains("\"hello\"") {
                        let chunk = vec![b'x'; 1 << 20];
                        for _ in 0..(MAX_REPLY_BYTES >> 20) + 16 {
                            if conn.write_all(&chunk).is_err() {
                                return;
                            }
                        }
                        let _ = reader.read_to_end(&mut Vec::new());
                        return;
                    }
                    let hello = upstream.raw(&Request::Hello).expect("real hello");
                    conn.write_all(format!("{hello}\n").as_bytes()).unwrap();
                    line.clear();
                }
            });
        }
    });
    addr
}

/// A replica whose reply line never ends is cut at the client's reply cap:
/// the coordinator fails it, counts one error against it, and answers
/// from the next replica.
#[test]
fn a_replica_streaming_an_endless_reply_line_fails_over() {
    let g = test_graph();
    let expected = expected_ranks(&g);
    let fleet = spawn_shards(&g, 2, 0, 0);
    let addrs = vec![
        spawn_streaming_replica(fleet[0].addr()).to_string(),
        fleet[1].addr().to_string(),
    ];
    let coord = spawn_coord("127.0.0.1:0", CoordConfig::new(addrs)).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    // Without the cap the coordinator reads on until its 30 s shard reply
    // timeout; this bound fails the test first.
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();

    let reply = client.query(17, K).expect("replica 1 answers");
    let ranks: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
    assert_eq!(ranks, expected[&17]);
    assert!(!reply.partial);
    let errors = client
        .metrics()
        .expect("metrics")
        .samples
        .into_iter()
        .find_map(|s| match s.value {
            MetricValue::Counter(v)
                if s.name == "rkrd_coord_shard_errors_total"
                    && s.labels == [("shard".to_string(), "0".to_string())] =>
            {
                Some(v)
            }
            _ => None,
        });
    assert_eq!(errors, Some(1), "one failure counted against replica 0");

    client.shutdown().expect("coordinator shutdown");
    coord.join();
    shutdown_fleet(fleet);
}
