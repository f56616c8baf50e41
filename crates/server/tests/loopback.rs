//! Loopback integration: concurrent clients issuing a Zipf-skewed workload
//! against a live `rkrd` daemon must get results rank-identical to
//! in-process `dynamic-three`, with the cache on and off — and the `stats`
//! op's hit/miss and epoch counters must show the cache and the
//! epoch-based invalidation actually working.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rkranks_core::{BoundConfig, EngineContext, QueryRequest, RkrIndex, Strategy};
use rkranks_datasets::default_update_stream;
use rkranks_datasets::Zipf;
use rkranks_datasets::{collab_graph, CollabParams};
use rkranks_graph::{graph_from_edges, EdgeDirection, Graph, GraphDelta, GraphStore};
use rkranks_server::{spawn, Client, ClientError, ServerConfig, UpdateOp};

const K: u32 = 5;
const K_MAX: u32 = 16;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 40;

fn test_graph() -> Graph {
    collab_graph(&CollabParams::with_authors(150, 0xC0FFEE))
}

/// A Zipf(α = 1.2) workload over the node ids: a few hot nodes dominate,
/// like real recommendation traffic — exactly what a result cache exists
/// for.
fn zipf_workload(n: u32, count: usize, seed: u64) -> Vec<u32> {
    let z = Zipf::new(n as usize, 1.2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (z.sample(&mut rng) - 1) as u32)
        .collect()
}

/// Ground truth: per-node ranks from the plain dynamic search.
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

#[test]
fn concurrent_zipf_clients_match_query_dynamic() {
    let g = test_graph();
    let n = g.num_nodes();
    let expected = expected_ranks(&g);

    for cache_capacity in [0, 1024] {
        let handle = spawn(
            test_graph(),
            None,
            RkrIndex::empty(n, K_MAX),
            "127.0.0.1:0",
            ServerConfig {
                workers: CLIENTS,
                cache_capacity,
                bounds: BoundConfig::ALL,
                snapshot: None,
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let addr = handle.addr();

        std::thread::scope(|s| {
            for client_id in 0..CLIENTS {
                let expected = &expected;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let workload = zipf_workload(n, QUERIES_PER_CLIENT, 0xBEEF ^ client_id as u64);
                    for (i, node) in workload.into_iter().enumerate() {
                        let reply = client.query(node, K).expect("query");
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

        let mut client = Client::connect(addr).expect("connect for stats");
        let stats = client.stats().expect("stats");
        let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
        assert_eq!(stats.queries, total, "cache={cache_capacity}: lost queries");
        if cache_capacity > 0 {
            assert_eq!(
                stats.cache_hits + stats.cache_misses,
                total,
                "every cached-path query is a hit or a miss"
            );
            assert!(
                stats.cache_hits > 0,
                "a Zipf workload must produce repeat hits (misses={})",
                stats.cache_misses
            );
        } else {
            assert_eq!(stats.cache_hits + stats.cache_misses, 0);
            assert_eq!(stats.cache_entries, 0);
        }
        // query-only traffic leaves the index and the cache untouched
        assert_eq!(stats.epoch, 0, "served queries never change the index");
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.cache_stale_evicted, 0);

        client.shutdown().expect("shutdown");
        handle.join();
    }
}

/// Deterministic epoch-invalidation walk-through: hit, a flush with
/// nothing staged (no change), a committed update (graph-epoch bump),
/// miss — the `stats` counters tell the story at every step.
#[test]
fn epoch_bump_evicts_stale_entries() {
    let g = test_graph();
    let n = g.num_nodes();
    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            merge_every: 0, // commits only on flush → epochs move on command
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let cold = client.query(0, K).expect("cold query");
    assert!(!cold.cached);
    assert_eq!(cold.epoch, 0);
    let warm = client.query(0, K).expect("warm query");
    assert!(warm.cached, "repeat query must be served from the cache");
    assert_eq!(warm.entries, cold.entries);

    let before = client.stats().expect("stats");
    assert_eq!((before.cache_hits, before.cache_misses), (1, 1));
    assert_eq!(before.epoch, 0);
    assert_eq!(before.cache_stale_evicted, 0);

    // query-only traffic stages nothing: a flush commits nothing and
    // leaves the index epoch and the cached entry alone
    let (epoch, merged) = client.flush().expect("empty flush");
    assert_eq!((epoch, merged), (0, 0));
    let after_flush = client.stats().expect("stats");
    assert_eq!(after_flush.epoch, 0, "an empty flush must not invalidate");
    assert_eq!(after_flush.merges, 0);
    assert_eq!(after_flush.cache_stale_evicted, 0);
    assert!(client.query(0, K).expect("still warm").cached);

    // a committed update bumps the graph epoch, which strands the entry
    let (staged, _) = client
        .update(&[UpdateOp::AddNode])
        .expect("stage an update");
    assert_eq!(staged, 1);
    let (epoch, merged) = client.flush().expect("commit flush");
    assert_eq!((epoch, merged), (0, 1), "the commit retires the index");

    let after_commit = client.stats().expect("stats");
    assert_eq!(after_commit.graph_epoch, 1);
    assert_eq!(after_commit.merges, 1);
    assert!(
        after_commit.cache_stale_evicted >= 1,
        "the commit must purge the graph-epoch-0 entry"
    );

    let reheat = client.query(0, K).expect("post-bump query");
    assert!(!reheat.cached, "stale entry must not serve the new epoch");
    assert_eq!(reheat.graph_epoch, 1);
    let ranks = |e: &[(u32, u32)]| e.iter().map(|&(_, r)| r).collect::<Vec<_>>();
    assert_eq!(
        ranks(&reheat.entries),
        ranks(&cold.entries),
        "an isolated new node changes no rank"
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

/// The unified strategy strings travel over the wire: a remote query can
/// select any algorithm/bound configuration the local path accepts, the
/// ranks agree across all of them, deadline-bounded queries come back
/// flagged partial, and the `stats` op reports the partial/deadline
/// counters.
#[test]
fn strategies_and_deadlines_over_the_wire() {
    use rkranks_server::QueryOptions;

    let g = test_graph();
    let n = g.num_nodes();
    let expected = expected_ranks(&g);
    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Every strategy name resolves remotely and returns the same ranks
    // the local dynamic search computes. Distinct strategies must not
    // share cache entries, so each first call is a miss.
    for strategy in Strategy::ALL {
        let reply = client
            .query_opts(
                7,
                K,
                &QueryOptions {
                    strategy: Some(strategy.name().into()),
                    ..QueryOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()));
        assert!(!reply.cached, "{strategy}: fresh key must miss");
        assert!(!reply.partial, "{strategy}: no limits were set");
        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
        assert_eq!(&got, &expected[&7], "{strategy}: ranks diverged");
    }

    // An unknown strategy — a retired one (`dynamic-hub`, PR 25)
    // included — is a protocol-level error, not a dropped connection: the
    // same client serves the next query below.
    for bad in ["turbo", "dynamic-hub"] {
        let err = client
            .query_opts(
                7,
                K,
                &QueryOptions {
                    strategy: Some(bad.into()),
                    ..QueryOptions::default()
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown strategy"), "{bad}: {err}");
    }

    // A zero deadline always trips: the reply is flagged partial. Node 9
    // is fresh (never cached above), so the lookup misses and the
    // partial computation runs. (Partial-answer exactness invariants are
    // covered by core's partial-result tests; here we assert the wire
    // semantics.)
    let partial = client
        .query_opts(
            9,
            K,
            &QueryOptions {
                deadline_ms: Some(0),
                ..QueryOptions::default()
            },
        )
        .expect("deadline query");
    assert!(partial.partial, "a 0ms deadline must trip");

    // Partial answers are never cached: the same key queried again
    // without a deadline is a miss that computes the complete answer.
    let complete = client.query(9, K).expect("follow-up query");
    assert!(!complete.cached, "partial result must not have been cached");
    assert!(!complete.partial);
    let got: Vec<u32> = complete.entries.iter().map(|&(_, r)| r).collect();
    assert_eq!(&got, &expected[&9]);

    let stats = client.stats().expect("stats");
    assert!(
        stats.partial_results >= 1,
        "partial counter missing: {stats:?}"
    );
    assert!(
        stats.deadline_exceeded >= 1,
        "deadline counter missing: {stats:?}"
    );
    assert!(
        stats.deadline_exceeded <= stats.partial_results,
        "deadline-exceeded is a subset of partial"
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

/// The mixed read/write acceptance scenario: a daemon ingesting update
/// batches stays rank-identical to a single-threaded in-process replay
/// of the same batches through a `GraphStore`, phase by phase — and the
/// graph/index epochs move exactly when they should: query-only traffic
/// never bumps the graph epoch, every committed batch bumps it once, and
/// each commit retires the index (its epoch restarts at 0).
#[test]
fn updates_match_single_threaded_replay() {
    const PHASE_OPS: usize = 12;
    const PHASES: usize = 3;

    let g = test_graph();
    let stream = default_update_stream(&g, PHASE_OPS * PHASES, 0xD1CE);
    // Single-threaded replay: ground truth ranks per graph epoch.
    let mut store = GraphStore::new(g.clone());
    let mut expected = vec![expected_ranks(&g)];
    for batch in stream.chunks(PHASE_OPS) {
        let snap = store.apply(batch).expect("valid stream");
        assert_eq!(
            store.graph_epoch(),
            expected.len() as u64,
            "each generated batch must actually change the graph"
        );
        expected.push(expected_ranks(&snap));
    }

    let handle = spawn(
        g,
        None,
        RkrIndex::empty(store.snapshot().num_nodes(), K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS,
            cache_capacity: 1024,
            merge_every: 0, // commits land exactly at our flushes
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    let mut ctl = Client::connect(addr).expect("connect ctl");

    for (phase, batch) in std::iter::once(None)
        .chain(stream.chunks(PHASE_OPS).map(Some))
        .enumerate()
    {
        if let Some(batch) = batch {
            let ops: Vec<UpdateOp> = batch.iter().map(|&d| d.into()).collect();
            let (staged, pre_epoch) = ctl.update(&ops).expect("update");
            assert_eq!(staged, ops.len() as u64);
            assert_eq!(pre_epoch, phase as u64 - 1, "staging reports the old epoch");
            ctl.flush().expect("flush commits the batch");
            let stats = ctl.stats().expect("stats");
            assert_eq!(stats.graph_epoch, phase as u64, "one bump per commit");
            assert_eq!(
                stats.epoch, 0,
                "a graph commit must retire the index, not merge into it"
            );
            assert_eq!(stats.graph_commits, phase as u64);
        }
        let n_phase = expected[phase].len() as u32;
        std::thread::scope(|s| {
            for client_id in 0..CLIENTS {
                let expected = &expected[phase];
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let workload =
                        zipf_workload(n_phase, QUERIES_PER_CLIENT, 0xFADE ^ client_id as u64);
                    for node in workload {
                        let reply = client.query(node, K).expect("query");
                        assert_eq!(
                            reply.graph_epoch, phase as u64,
                            "no in-between commits exist in this phase"
                        );
                        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
                        assert_eq!(
                            &got, &expected[&node],
                            "phase {phase} node {node}: daemon diverged from replay                              (cached={})",
                            reply.cached
                        );
                    }
                });
            }
        });
        // Query-only traffic must not move the graph epoch.
        let stats = ctl.stats().expect("stats");
        assert_eq!(stats.graph_epoch, phase as u64);
        assert_eq!(stats.graph_commits, phase as u64);
    }

    // Zipf traffic repeats nodes, so caching worked in every phase; the
    // cross-phase evictions prove no entry survived a graph commit.
    let stats = ctl.stats().expect("stats");
    assert!(stats.cache_hits > 0, "zipf repeats must hit within a phase");
    assert!(
        stats.cache_stale_evicted > 0,
        "graph commits must purge the cache"
    );

    ctl.shutdown().expect("shutdown");
    let outcome = handle.join();
    assert_eq!(outcome.graph_epoch, PHASES as u64);
    assert_eq!(*outcome.graph, *store.snapshot(), "daemon == replay graph");
}

/// Readers hammering *while* commits land: every reply must match the
/// ground truth of the graph epoch it reports — a cache entry served
/// across a graph-epoch bump would pair a new epoch with old ranks and
/// fail the lookup below.
#[test]
fn concurrent_readers_stay_consistent_across_commits() {
    const PHASE_OPS: usize = 10;
    const PHASES: usize = 3;
    const READERS: usize = 3;
    const READS: usize = 80;

    let g = test_graph();
    let n = g.num_nodes();
    let stream = default_update_stream(&g, PHASE_OPS * PHASES, 0xFEED);
    let mut store = GraphStore::new(g.clone());
    let mut expected = vec![expected_ranks(&g)];
    for batch in stream.chunks(PHASE_OPS) {
        let snap = store.apply(batch).expect("valid stream");
        expected.push(expected_ranks(&snap));
    }
    assert_eq!(store.graph_epoch(), PHASES as u64);

    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: READERS + 1,
            cache_capacity: 1024,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    std::thread::scope(|s| {
        for reader in 0..READERS {
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // query only the original nodes: they exist in every epoch
                let workload = zipf_workload(n, READS, 0xACE ^ reader as u64);
                for node in workload {
                    let reply = client.query(node, K).expect("query");
                    let truth = &expected[reply.graph_epoch as usize];
                    let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
                    assert_eq!(
                        &got, &truth[&node],
                        "epoch {} node {node}: reply inconsistent with its own epoch                          (cached={})",
                        reply.graph_epoch, reply.cached
                    );
                }
            });
        }
        // the writer commits the phases while the readers run
        let mut writer = Client::connect(addr).expect("connect writer");
        for batch in stream.chunks(PHASE_OPS) {
            let ops: Vec<UpdateOp> = batch.iter().map(|&d| d.into()).collect();
            writer.update(&ops).expect("update");
            writer.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });

    let mut ctl = Client::connect(addr).expect("connect ctl");
    let stats = ctl.stats().expect("stats");
    assert_eq!(stats.graph_epoch, PHASES as u64);
    ctl.shutdown().expect("shutdown");
    handle.join();
}

/// The durability acceptance scenario: a daemon that committed live
/// updates, served queries, and has one more batch staged is
/// checkpointed; a second daemon restored from that bundle serves
/// rank-identical answers at the same `(index epoch, graph epoch)` pair,
/// and its restored WAL commits to exactly the graph the first daemon's
/// own commit produced.
#[test]
fn snapshot_restart_resumes_identical_serving_state() {
    use rkranks_core::load_snapshot;
    use rkranks_server::spawn_store;

    let dir = std::env::temp_dir().join(format!("rkr-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bundle = dir.join("first.rkrsnap");
    let bundle2 = dir.join("second.rkrsnap");
    let config = |snapshot: &std::path::Path| ServerConfig {
        workers: 2,
        cache_capacity: 64,
        merge_every: 0, // commits land exactly at our flushes
        bounds: BoundConfig::ALL,
        snapshot: Some(snapshot.to_path_buf()),
        ..Default::default()
    };

    // First life: commit one update batch, serve queries, then stage a
    // second batch WITHOUT committing it.
    let g = test_graph();
    let n = g.num_nodes();
    let stream = default_update_stream(&g, 8, 0xA11CE);
    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        config(&bundle),
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let ops: Vec<UpdateOp> = stream.iter().map(|&d| d.into()).collect();
    client.update(&ops).expect("stage batch A");
    client.flush().expect("commit batch A");
    let ranks = |e: &[(u32, u32)]| e.iter().map(|&(_, r)| r).collect::<Vec<u32>>();
    let before: Vec<Vec<u32>> = (0..8)
        .map(|node| ranks(&client.query(node, K).expect("query").entries))
        .collect();
    let stats = client.stats().expect("stats");
    assert_eq!(stats.graph_epoch, 1);
    let committed_nodes = stats.graph_nodes as u32;
    // Batch B stays staged: checkpoint must carry it as the WAL.
    let batch_b = [
        UpdateOp::AddNode,
        UpdateOp::AddEdge {
            u: 0,
            v: committed_nodes,
            w: 0.05,
        },
    ];
    client.update(&batch_b).expect("stage batch B");
    let (cp_epoch, cp_graph_epoch) = client.checkpoint().expect("checkpoint");
    assert_eq!(cp_epoch, stats.epoch, "bundle holds the live index");
    assert_eq!(cp_graph_epoch, 1, "staged batch B must not have committed");

    // The bundle is a consistent cut of the first life: epoch-1 graph,
    // the retired index, and batch B's two effective deltas as the WAL.
    let (store, index) = load_snapshot(&bundle).expect("load the checkpoint");
    assert_eq!(store.graph_epoch(), 1);
    assert_eq!(index.epoch(), cp_epoch);
    assert_eq!(index.graph_epoch(), 1);
    assert_eq!(store.pending_deltas(), 2, "batch B rides in the WAL");

    // Second life, restored from the bundle while the first still runs.
    let handle2 = spawn_store(store, None, index, "127.0.0.1:0", config(&bundle2))
        .expect("bind second loopback");
    let mut client2 = Client::connect(handle2.addr()).expect("connect restored");
    let stats2 = client2.stats().expect("stats");
    assert_eq!(stats2.epoch, cp_epoch, "index epoch survives the restart");
    assert_eq!(stats2.graph_epoch, 1, "graph epoch survives the restart");
    for node in 0..8 {
        let reply = client2.query(node, K).expect("restored query");
        assert_eq!(reply.graph_epoch, 1);
        assert_eq!(
            ranks(&reply.entries),
            before[node as usize],
            "node {node}: restored daemon diverged from its first life"
        );
    }

    // The restored WAL commits at the next flush, exactly as the
    // staged batch would have before the restart...
    client2.flush().expect("commit the restored WAL");
    let stats2 = client2.stats().expect("stats");
    assert_eq!(stats2.graph_epoch, 2, "the WAL batch commits once");
    assert_eq!(stats2.updates_applied, 2);
    client2.shutdown().expect("shutdown restored");
    let outcome2 = handle2.join();

    // ...and the first daemon commits its own staged copy at shutdown:
    // both lives must land on the identical graph.
    client.shutdown().expect("shutdown first");
    let outcome1 = handle.join();
    assert_eq!(outcome1.graph_epoch, 2);
    assert_eq!(outcome2.graph_epoch, 2);
    assert_eq!(
        *outcome1.graph, *outcome2.graph,
        "WAL replay must reproduce the commit it deferred"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Parked-connection fairness: several hundred idle keep-alive
/// connections must cost nothing per request — control ops and queries
/// on an active client stay fast and correct, and the parked connections
/// are still live (not dropped, not starved) when they finally speak.
#[test]
fn parked_connections_do_not_slow_active_clients() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    const PARKED: usize = 300;
    const ROUND_TRIPS: usize = 100;

    let g = test_graph();
    let n = g.num_nodes();
    let expected = expected_ranks(&g);

    let handle = spawn(
        test_graph(),
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            merge_every: 8,
            bounds: BoundConfig::ALL,
            snapshot: None,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // Park connections that never send a byte.
    let parked: Vec<TcpStream> = (0..PARKED)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("parked conn {i}: {e}")))
        .collect();

    // An active client round-trips queries and control ops through the
    // crowd. Every reply must still be rank-correct, and the whole run
    // must stay far from any O(parked)-per-request pathology.
    let mut client = Client::connect(addr).expect("connect active");
    let workload = zipf_workload(n, ROUND_TRIPS, 0x1D1E);
    let started = Instant::now();
    for (i, node) in workload.into_iter().enumerate() {
        let reply = client.query(node, K).expect("query");
        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
        assert_eq!(
            &got, &expected[&node],
            "i={i} node={node}: ranks diverged among parked conns"
        );
    }
    client.flush().expect("flush");
    let stats = client.stats().expect("stats");
    let elapsed = started.elapsed();
    assert_eq!(stats.queries, ROUND_TRIPS as u64);
    assert!(
        elapsed < Duration::from_secs(15),
        "{ROUND_TRIPS} round-trips took {elapsed:?} with {PARKED} parked conns"
    );

    // A parked connection is still serviced the moment it speaks.
    let late = &parked[PARKED / 2];
    let mut writer = late.try_clone().expect("clone parked");
    let mut reader = BufReader::new(late);
    writer
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("late write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("late read");
    assert!(line.contains("\"ok\":true"), "parked conn got {line}");

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Satellite: request lines over `max_line_bytes` get a one-line
/// `bad request` error, the connection closes, the rejection is counted,
/// and the daemon keeps serving everyone else.
#[test]
fn oversize_request_lines_are_rejected_and_close_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let g = test_graph();
    let n = g.num_nodes();

    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            cache_capacity: 0,
            merge_every: 0,
            bounds: BoundConfig::ALL,
            snapshot: None,
            max_line_bytes: 64,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).expect("connect raw");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // under the cap: served normally
    writer.write_all(b"{\"op\":\"stats\"}\n").expect("write");
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":true"), "{line}");

    // over the cap: one error line, then the connection is gone
    let mut big = vec![b'x'; 200];
    big.push(b'\n');
    writer.write_all(&big).expect("write oversize");
    line.clear();
    reader.read_line(&mut line).expect("read error line");
    assert!(
        line.contains("\"ok\":false") && line.contains("exceeds 64 bytes"),
        "{line}"
    );
    line.clear();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => {}
        Ok(m) => panic!("expected close, got {m} more bytes: {line}"),
    }

    // the daemon survives and counted the rejection
    let mut ctl = Client::connect(addr).expect("connect ctl");
    let stats = ctl.stats().expect("stats");
    assert_eq!(stats.oversize_lines, 1);
    ctl.shutdown().expect("shutdown");
    handle.join();
}

/// One request line of 100,000 `[`s — about 100 KB, far under the line
/// cap — once overflowed a worker's stack while it parsed and aborted the
/// daemon. It now gets an error reply, and the same connection goes on
/// answering queries.
#[test]
fn deeply_nested_request_line_gets_an_error_reply() {
    let g = test_graph();
    let n = g.num_nodes();
    let expected = expected_ranks(&g);
    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

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

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Pipelining + write backpressure: with the high-water mark at the
/// degenerate `0`, every reply pauses reads and the pause/resume cycle
/// must still serve a one-burst pipeline completely and in order.
#[test]
fn pipelined_queries_batch_and_survive_backpressure() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const PIPELINED: usize = 50;

    let g = test_graph();
    let n = g.num_nodes();

    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            cache_capacity: 0,
            merge_every: 8,
            bounds: BoundConfig::ALL,
            snapshot: None,
            write_high_water: 0,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).expect("connect raw");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // the whole pipeline goes out before a single reply is read
    let workload = zipf_workload(n, PIPELINED, 0x9A9A);
    let mut burst = String::new();
    for &node in &workload {
        burst.push_str(&format!("{{\"op\":\"query\",\"node\":{node},\"k\":{K}}}\n"));
    }
    writer.write_all(burst.as_bytes()).expect("write burst");
    for (i, &node) in workload.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        assert!(
            line.contains("\"ok\":true") && line.contains("\"result\""),
            "reply {i} (node {node}): {line}"
        );
    }

    let mut ctl = Client::connect(addr).expect("connect ctl");
    let stats = ctl.stats().expect("stats");
    assert_eq!(stats.queries, PIPELINED as u64);
    assert!(stats.wakeups >= 1);
    assert!(
        stats.backpressure_pauses >= PIPELINED as u64,
        "high-water 0 must pause after every reply, got {}",
        stats.backpressure_pauses
    );
    ctl.shutdown().expect("shutdown");
    handle.join();
}

/// Weights cross the wire in real units and land on the distance grid: an
/// off-grid batch commits to the digest an in-process store reaches. A
/// weight at 2^21, and a batch that adds nodes to a graph with a heavy
/// edge past the span bound, are error replies that keep the graph.
#[test]
fn updates_land_on_the_grid_and_past_its_bounds_are_refused() {
    let g = graph_from_edges(EdgeDirection::Undirected, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
    let handle = spawn(
        g.clone(),
        None,
        RkrIndex::empty(g.num_nodes(), K_MAX),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let off_grid = [
        UpdateOp::Reweight { u: 0, v: 1, w: 0.1 },
        UpdateOp::AddEdge {
            u: 0,
            v: 2,
            w: 1e-12,
        },
        UpdateOp::Reweight {
            u: 1,
            v: 2,
            w: 1.0 / 3.0,
        },
    ];
    client.update(&off_grid).expect("stage");
    client.flush().expect("commit");
    let mut store = GraphStore::new(g);
    let want = store.apply(&off_grid.map(GraphDelta::from)).unwrap();
    let digest = client.hello().expect("hello").graph_digest;
    assert_eq!(digest, Some(want.digest()));

    // 2^20 real units is 2^52 quanta: 2,048 nodes fit, 2,049 do not.
    let mut heavy = vec![UpdateOp::Reweight {
        u: 0,
        v: 1,
        w: (1 << 20) as f64,
    }];
    heavy.resize(1 + 2049 - 3, UpdateOp::AddNode);
    let at_bound = vec![UpdateOp::Reweight {
        u: 0,
        v: 1,
        w: (1 << 21) as f64,
    }];
    for (batch, bound) in [(at_bound, "2^21"), (heavy, "2^31")] {
        match client.update(&batch) {
            Err(ClientError::Server(msg)) => assert!(msg.contains(bound), "{msg}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
        client.flush().expect("flush");
        let hello = client.hello().expect("hello");
        assert_eq!((hello.graph_digest, hello.graph_epoch), (digest, 1));
    }

    client.shutdown().expect("shutdown");
    handle.join();
}
