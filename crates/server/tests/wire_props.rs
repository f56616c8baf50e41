//! The wire decoders never panic. Whatever bytes arrive, `Json::parse`,
//! `Request::from_line` and `Reply::from_line` return `Ok` or `Err`;
//! every generated request and reply survives `to_line` → `from_line`
//! unchanged; and every strict byte-prefix of such a line is an `Err`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;
use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
use rkranks_server::json::Json;
use rkranks_server::{BatchReply, HelloReply, QueryReply, Reply, Request, StatsReply, UpdateOp};

const CASES: u32 = 256;

/// Bytes that steer a parser into its branches: structure, escapes,
/// number syntax and literal prefixes.
const JSON_BYTES: &[u8] = b"{}[]\":,\\u0123456789abcdefABCDEF-+.eEtrufalsn \t\n\r/";

/// Characters for generated strings: control characters (sent as
/// `\u00XX`), the escaped ones, and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', '中', '\u{2028}', '🦀',
];

fn text(rng: &mut TestRng, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

/// A counter value: small, or anywhere a JSON number holds exactly.
fn count(rng: &mut TestRng) -> u64 {
    if rng.random_bool(0.5) {
        rng.random_range(0..10)
    } else {
        rng.random_range(0..1u64 << 53)
    }
}

fn weight(rng: &mut TestRng) -> f64 {
    if rng.random_bool(0.5) {
        rng.random_range(0..100u32) as f64
    } else {
        rng.random::<f64>() * 1e6
    }
}

fn entries(rng: &mut TestRng) -> Vec<(u32, u32)> {
    let len = rng.random_range(0..6);
    (0..len).map(|_| (rng.random(), rng.random())).collect()
}

/// Arbitrary bytes, half of them from [`JSON_BYTES`].
struct Bytes;

impl Strategy for Bytes {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let len = rng.random_range(0..64);
        (0..len)
            .map(|_| {
                if rng.random_bool(0.5) {
                    rng.random()
                } else {
                    JSON_BYTES[rng.random_range(0..JSON_BYTES.len())]
                }
            })
            .collect()
    }
}

/// Every request shape.
struct Requests;

impl Strategy for Requests {
    type Value = Request;

    fn generate(&self, rng: &mut TestRng) -> Request {
        match rng.random_range(0..10) {
            0 => Request::Query {
                node: rng.random(),
                k: rng.random(),
                cache: rng.random(),
                strategy: rng.random_bool(0.5).then(|| text(rng, 12)),
                deadline_ms: rng.random_bool(0.5).then(|| count(rng)),
            },
            1 => Request::Batch {
                nodes: (0..rng.random_range(1..6)).map(|_| rng.random()).collect(),
                k: rng.random(),
            },
            2 => Request::Update {
                ops: (0..rng.random_range(1..5))
                    .map(|_| {
                        let (u, v) = (rng.random(), rng.random());
                        match rng.random_range(0..4) {
                            0 => UpdateOp::AddNode,
                            1 => UpdateOp::AddEdge {
                                u,
                                v,
                                w: weight(rng),
                            },
                            2 => UpdateOp::RemoveEdge { u, v },
                            _ => UpdateOp::Reweight {
                                u,
                                v,
                                w: weight(rng),
                            },
                        }
                    })
                    .collect(),
            },
            3 => Request::Stats,
            4 => Request::Metrics,
            5 => Request::SlowQueries,
            6 => Request::Flush,
            7 => Request::Checkpoint,
            8 => Request::Shutdown,
            _ => Request::Hello,
        }
    }
}

/// Every reply shape, errors with control characters included.
struct Replies;

impl Strategy for Replies {
    type Value = Reply;

    fn generate(&self, rng: &mut TestRng) -> Reply {
        match rng.random_range(0..11) {
            0 => Reply::Query(QueryReply {
                entries: entries(rng),
                cached: rng.random(),
                epoch: count(rng),
                graph_epoch: count(rng),
                partial: rng.random(),
            }),
            1 => Reply::Batch(BatchReply {
                results: (0..rng.random_range(0..4)).map(|_| entries(rng)).collect(),
                cached: count(rng),
                epoch: count(rng),
                graph_epoch: count(rng),
            }),
            2 => Reply::Stats(StatsReply {
                v: count(rng),
                queries: count(rng),
                cache_hits: count(rng),
                cache_misses: count(rng),
                cache_entries: count(rng),
                cache_evictions: count(rng),
                cache_stale_evicted: count(rng),
                cache_capacity: count(rng),
                cache_bytes: count(rng),
                epoch: count(rng),
                merges: count(rng),
                workers: count(rng),
                partial_results: count(rng),
                deadline_exceeded: count(rng),
                graph_epoch: count(rng),
                graph_commits: count(rng),
                updates_applied: count(rng),
                graph_nodes: count(rng),
                graph_edges: count(rng),
                accept_errors: count(rng),
                wakeups: count(rng),
                backpressure_pauses: count(rng),
                oversize_lines: count(rng),
            }),
            3 => Reply::Metrics(MetricsSnapshot {
                samples: (0..rng.random_range(0..4))
                    .map(|_| MetricSample {
                        name: text(rng, 8),
                        labels: (0..rng.random_range(0..3))
                            .map(|_| (text(rng, 4), text(rng, 4)))
                            .collect(),
                        help: text(rng, 12),
                        value: match rng.random_range(0..3) {
                            0 => MetricValue::Counter(count(rng)),
                            1 => MetricValue::Gauge(count(rng)),
                            _ => MetricValue::Histogram(HistogramSnapshot {
                                count: count(rng),
                                sum: count(rng),
                                scale: weight(rng),
                                buckets: (0..rng.random_range(0..4))
                                    .map(|_| (count(rng), count(rng)))
                                    .collect(),
                            }),
                        },
                    })
                    .collect(),
            }),
            4 => {
                let mut reply =
                    Reply::SlowQueries(vec![Default::default(); rng.random_range(0..3)]);
                if let Reply::SlowQueries(records) = &mut reply {
                    for r in records {
                        r.node = rng.random();
                        r.k = rng.random();
                        r.strategy = text(rng, 12);
                        r.cached = rng.random();
                        r.epoch = count(rng);
                        r.graph_epoch = count(rng);
                        r.total_ns = count(rng);
                        r.filter_ns = count(rng);
                        r.refine_ns = count(rng);
                        r.sds_passes = count(rng);
                        r.k_rank_guess = rng.random();
                        r.completion = text(rng, 8);
                    }
                }
                reply
            }
            5 => Reply::Update {
                staged: count(rng),
                graph_epoch: count(rng),
            },
            6 => Reply::Flush {
                epoch: count(rng),
                merged: count(rng),
            },
            7 => Reply::Checkpoint {
                epoch: count(rng),
                graph_epoch: count(rng),
            },
            8 => Reply::Shutdown,
            9 => {
                let mut hello = HelloReply {
                    v: count(rng),
                    role: text(rng, 8),
                    shard: rng.random_bool(0.5).then(Default::default),
                    epoch: count(rng),
                    graph_epoch: count(rng),
                    nodes: count(rng),
                    edges: count(rng),
                    graph_digest: rng.random_bool(0.5).then(|| rng.random()),
                };
                if let Some(shard) = &mut hello.shard {
                    shard.index = rng.random();
                    shard.shards = rng.random();
                    shard.seed = count(rng);
                }
                Reply::Hello(hello)
            }
            _ => Reply::Error(text(rng, 24)),
        }
    }
}

/// Every strict byte-prefix of `line`'s JSON, decoded lossily (a cut may
/// split a multi-byte character).
fn strict_prefixes(line: &str) -> impl Iterator<Item = String> + '_ {
    let json = line.trim_end().as_bytes();
    (0..json.len()).map(move |end| String::from_utf8_lossy(&json[..end]).into_owned())
}

/// `line` with `edits` applied as `(position, byte)` pairs.
fn mutate(line: &str, edits: &[u8]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for edit in edits.chunks_exact(2) {
        let at = edit[0] as usize % bytes.len();
        bytes[at] = edit[1];
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn decode_all(line: &str) {
    let _ = Json::parse(line);
    let _ = Request::from_line(line);
    let _ = Reply::from_line(line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(bytes in Bytes) {
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn decoders_never_panic_on_mutated_lines(req in Requests, reply in Replies, edits in Bytes) {
        decode_all(&mutate(&req.to_line(), &edits));
        decode_all(&mutate(&reply.to_line(), &edits));
    }

    #[test]
    fn requests_round_trip_and_their_prefixes_are_errors(req in Requests) {
        let line = req.to_line();
        prop_assert_eq!(Request::from_line(&line), Ok(req));
        for prefix in strict_prefixes(&line) {
            prop_assert!(Request::from_line(&prefix).is_err(), "accepted {:?}", prefix);
        }
    }

    #[test]
    fn replies_round_trip_and_their_prefixes_are_errors(reply in Replies) {
        let line = reply.to_line();
        prop_assert_eq!(Reply::from_line(&line), Ok(reply));
        for prefix in strict_prefixes(&line) {
            prop_assert!(Reply::from_line(&prefix).is_err(), "accepted {:?}", prefix);
        }
    }
}
