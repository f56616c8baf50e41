//! The wire, byte for byte. Each message below is pinned to the exact
//! line `to_line` renders, and that line decodes back to the message.
//! A codec change that moves one byte of any line fails here; a
//! deliberate wire change edits this file and bumps `PROTOCOL_VERSION`.

use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
use rkranks_server::{BatchReply, HelloReply, QueryReply, Reply, Request, StatsReply, UpdateOp};

fn pin_request(req: Request, line: &str) {
    assert_eq!(req.to_line(), format!("{line}\n"), "{req:?}");
    assert_eq!(Request::from_line(line), Ok(req), "{line}");
}

fn pin_reply(reply: Reply, line: &str) {
    assert_eq!(reply.to_line(), format!("{line}\n"), "{reply:?}");
    assert_eq!(Reply::from_line(line), Ok(reply), "{line}");
}

#[test]
fn every_request_renders_its_pinned_line() {
    pin_request(
        Request::Query {
            node: 17,
            k: 10,
            cache: true,
            strategy: None,
            deadline_ms: None,
        },
        r#"{"op":"query","node":17,"k":10}"#,
    );
    pin_request(
        Request::Query {
            node: 4,
            k: 3,
            cache: false,
            strategy: Some("dynamic-three".into()),
            deadline_ms: Some(25),
        },
        r#"{"op":"query","node":4,"k":3,"cache":false,"strategy":"dynamic-three","deadline_ms":25}"#,
    );
    pin_request(
        Request::Batch {
            nodes: vec![3, 17, 5],
            k: 10,
        },
        r#"{"op":"batch","nodes":[3,17,5],"k":10}"#,
    );
    pin_request(
        Request::Update {
            ops: vec![
                UpdateOp::AddNode,
                UpdateOp::AddEdge { u: 3, v: 9, w: 0.5 },
                UpdateOp::RemoveEdge { u: 1, v: 2 },
                UpdateOp::Reweight {
                    u: 4,
                    v: 5,
                    w: 0.123456789,
                },
            ],
        },
        r#"{"op":"update","ops":[["add-node"],["add",3,9,0.5],["rm",1,2],["reweight",4,5,0.123456789]]}"#,
    );
    pin_request(Request::Stats, r#"{"op":"stats"}"#);
    pin_request(Request::Metrics, r#"{"op":"metrics"}"#);
    pin_request(Request::SlowQueries, r#"{"op":"slow-queries"}"#);
    pin_request(Request::Flush, r#"{"op":"flush"}"#);
    pin_request(Request::Checkpoint, r#"{"op":"checkpoint"}"#);
    pin_request(Request::Shutdown, r#"{"op":"shutdown"}"#);
    pin_request(Request::Hello, r#"{"op":"hello"}"#);
}

#[test]
fn every_reply_renders_its_pinned_line() {
    pin_reply(
        Reply::Error("node 99 is not in \"g\"\n".into()),
        r#"{"ok":false,"error":"node 99 is not in \"g\"\n"}"#,
    );
    pin_reply(
        Reply::Query(QueryReply {
            entries: vec![(1, 2), (3, 2)],
            cached: true,
            epoch: 7,
            graph_epoch: 2,
            partial: false,
        }),
        r#"{"ok":true,"result":[[1,2],[3,2]],"cached":true,"epoch":7,"graph_epoch":2}"#,
    );
    pin_reply(
        Reply::Query(QueryReply {
            entries: vec![(9, 1)],
            cached: false,
            epoch: 0,
            graph_epoch: 5,
            partial: true,
        }),
        r#"{"ok":true,"result":[[9,1]],"cached":false,"epoch":0,"graph_epoch":5,"partial":true}"#,
    );
    pin_reply(
        Reply::Batch(BatchReply {
            results: vec![vec![(1, 1)], vec![]],
            cached: 1,
            epoch: 3,
            graph_epoch: 1,
        }),
        r#"{"ok":true,"results":[[[1,1]],[]],"cached":1,"epoch":3,"graph_epoch":1}"#,
    );
    pin_reply(
        Reply::Hello(HelloReply {
            v: 7,
            role: "coord".into(),
            shard: None,
            epoch: 0,
            graph_epoch: 0,
            nodes: 0,
            edges: 0,
            graph_digest: None,
        }),
        r#"{"ok":true,"role":"coord","v":7,"epoch":0,"graph_epoch":0,"nodes":0,"edges":0}"#,
    );
    let mut hello = HelloReply {
        v: 7,
        role: "shard".into(),
        shard: Some(Default::default()),
        epoch: 1,
        graph_epoch: 2,
        nodes: 10,
        edges: 9,
        graph_digest: Some(0x0123_4567_89ab_cdef),
    };
    if let Some(shard) = &mut hello.shard {
        shard.index = 1;
        shard.shards = 4;
        shard.seed = 0xC0FFEE;
    }
    pin_reply(
        Reply::Hello(hello),
        r#"{"ok":true,"role":"shard","v":7,"epoch":1,"graph_epoch":2,"nodes":10,"edges":9,"graph_digest":"0123456789abcdef","shard":1,"shards":4,"shard_seed":12648430}"#,
    );
    pin_reply(
        Reply::Metrics(MetricsSnapshot {
            samples: vec![
                MetricSample {
                    name: "rkrd_requests_total".into(),
                    labels: vec![("op".into(), "query".into())],
                    help: "requests answered".into(),
                    value: MetricValue::Counter(12),
                },
                MetricSample {
                    name: "rkrd_cache_entries".into(),
                    labels: vec![],
                    help: "entries cached".into(),
                    value: MetricValue::Gauge(6),
                },
                MetricSample {
                    name: "rkrd_query_seconds".into(),
                    labels: vec![("outcome".into(), "miss".into())],
                    help: "end-to-end query latency".into(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum: 4500,
                        scale: 1e-9,
                        buckets: vec![(95, 1), (u64::MAX, 2)],
                    }),
                },
            ],
        }),
        concat!(
            r#"{"ok":true,"metrics":["#,
            r#"{"name":"rkrd_requests_total","help":"requests answered","labels":{"op":"query"},"type":"counter","value":12},"#,
            r#"{"name":"rkrd_cache_entries","help":"entries cached","type":"gauge","value":6},"#,
            r#"{"name":"rkrd_query_seconds","help":"end-to-end query latency","labels":{"outcome":"miss"},"type":"histogram","count":3,"sum":4500,"scale":0.000000001,"buckets":[[95,1],[18446744073709552000,2]]}"#,
            r#"]}"#
        ),
    );
    let mut slow = Reply::SlowQueries(vec![Default::default()]);
    if let Reply::SlowQueries(records) = &mut slow {
        let r = &mut records[0];
        r.node = 17;
        r.k = 10;
        r.cached = false;
        r.epoch = 3;
        r.graph_epoch = 1;
        r.total_ns = 51031;
        r.filter_ns = 40100;
        r.refine_ns = 9000;
        r.sds_passes = 7;
        r.k_rank_guess = u32::MAX;
        r.completion = "complete".into();
    }
    pin_reply(
        slow,
        r#"{"ok":true,"slow_queries":[{"node":17,"k":10,"cached":false,"epoch":3,"graph_epoch":1,"total_ns":51031,"filter_ns":40100,"refine_ns":9000,"sds_passes":7,"k_rank_guess":4294967295,"completion":"complete"}]}"#,
    );
    pin_reply(
        Reply::Stats(StatsReply {
            v: 7,
            queries: 1,
            cache_hits: 2,
            cache_misses: 3,
            cache_entries: 4,
            cache_evictions: 5,
            cache_stale_evicted: 6,
            cache_capacity: 7,
            cache_bytes: 8,
            epoch: 9,
            merges: 10,
            workers: 11,
            partial_results: 12,
            deadline_exceeded: 13,
            graph_epoch: 14,
            graph_commits: 15,
            updates_applied: 16,
            graph_nodes: 17,
            graph_edges: 18,
            accept_errors: 19,
            wakeups: 20,
            backpressure_pauses: 21,
            oversize_lines: 22,
        }),
        concat!(
            r#"{"ok":true,"stats":{"v":7,"queries":1,"cache_hits":2,"cache_misses":3,"#,
            r#""cache_entries":4,"cache_evictions":5,"cache_stale_evicted":6,"cache_capacity":7,"#,
            r#""cache_bytes":8,"epoch":9,"merges":10,"workers":11,"partial_results":12,"#,
            r#""deadline_exceeded":13,"graph_epoch":14,"graph_commits":15,"updates_applied":16,"#,
            r#""graph_nodes":17,"graph_edges":18,"accept_errors":19,"wakeups":20,"#,
            r#""backpressure_pauses":21,"oversize_lines":22}}"#
        ),
    );
    pin_reply(
        Reply::Update {
            staged: 3,
            graph_epoch: 1,
        },
        r#"{"ok":true,"staged":3,"graph_epoch":1}"#,
    );
    pin_reply(
        Reply::Flush {
            epoch: 4,
            merged: 2,
        },
        r#"{"ok":true,"epoch":4,"merged":2}"#,
    );
    pin_reply(
        Reply::Checkpoint {
            epoch: 4,
            graph_epoch: 1,
        },
        r#"{"ok":true,"checkpointed":true,"epoch":4,"graph_epoch":1}"#,
    );
    pin_reply(Reply::Shutdown, r#"{"ok":true,"bye":true}"#);
}
