//! The `rkrd` wire protocol: newline-delimited JSON, one request and one
//! reply per line.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"query","node":17,"k":10}            single reverse k-ranks query
//! {"op":"query","node":17,"k":10,"cache":false}   ... bypassing the cache
//! {"op":"query","node":17,"k":10,"strategy":"dynamic-three"}
//!                                            ... naming the served strategy
//! {"op":"query","node":17,"k":10,"deadline_ms":5}
//!                                            ... best-effort within 5ms
//! {"op":"batch","nodes":[3,17,5],"k":10}     several queries, one round-trip
//! {"op":"update","ops":[["add",3,9,0.5]]}    stage live graph updates
//! {"op":"stats"}                             serving counters + epochs
//! {"op":"metrics"}                           full telemetry registry snapshot
//!                                            (counters, gauges, histograms)
//! {"op":"slow-queries"}                      recent slow-query log records
//! {"op":"flush"}                             commit staged updates now
//! {"op":"checkpoint"}                        persist the serving state as a
//!                                            snapshot bundle
//! {"op":"shutdown"}                          drain and stop the daemon
//! {"op":"hello"}                             peer identity: protocol version,
//!                                            role, shard identity, epoch pair,
//!                                            graph digest
//! ```
//!
//! `update` stages one or more graph deltas, each encoded as a small
//! array: `["add",u,v,w]`, `["rm",u,v]`, `["reweight",u,v,w]`, or
//! `["add-node"]`. The batch is validated as a whole at the protocol
//! boundary (self-loops, negative weights, out-of-range ids, duplicate or
//! unknown edges are one-line errors and stage *nothing*); valid batches
//! take effect at the daemon's next commit, which publishes a fresh graph
//! snapshot, bumps `graph_epoch`, and retires the rank index. By default
//! the merger commits staged updates on its next pass — promptly, with no
//! query traffic required; on a flush-only daemon (`merge_every` 0) they
//! wait for the next `flush` or shutdown.
//!
//! `rkrd` serves one strategy, the dynamic search (`dynamic-three`). An
//! optional `strategy` takes the unified [`rkranks_core::Strategy`]
//! string form; naming any other strategy is a one-line error pointing at
//! `rkr query` / `rkr batch`, which run every strategy in-process. A
//! query cut short by its `deadline_ms` answers with `"partial":true` and
//! the refined-so-far entries (each rank still exact).
//!
//! Replies always carry `"ok"`; failures are `{"ok":false,"error":"..."}`
//! and keep the connection open. Successful shapes:
//!
//! ```text
//! {"ok":true,"result":[[node,rank],...],"cached":false,"epoch":3,"graph_epoch":1}
//! {"ok":true,"results":[[[node,rank],...],...],"cached":2,"epoch":3,"graph_epoch":1}
//! {"ok":true,"stats":{"queries":12,"cache_hits":4,...,"epoch":3,"graph_epoch":1,...}}
//! {"ok":true,"staged":2,"graph_epoch":1}     update (staged, not yet live)
//! {"ok":true,"epoch":0,"merged":2}           flush (staged deltas committed)
//! {"ok":true,"checkpointed":true,"epoch":4,"graph_epoch":1}   checkpoint
//! {"ok":true,"bye":true}                     shutdown
//! {"ok":true,"metrics":[{"name":"rkrd_queries_total","type":"counter",...},...]}
//! {"ok":true,"slow_queries":[{"node":17,"k":10,"total_ns":51031,...},...]}
//! ```
//!
//! `stats` is the fixed counter block ([`StatsReply`]; protocol v4 dropped
//! the per-wake-up `batches` / `batch_queries` pair, and a `stats` reply
//! decodes only with every field present); `metrics` is its superset — every instrument in the daemon's telemetry registry, in
//! registration order. A counter/gauge sample is
//! `{"name","help","type","value"}` (plus `"labels":{...}` when
//! labelled); a histogram sample replaces `value` with
//! `"count"`, `"sum"` (raw units), `"scale"` (raw → display multiplier,
//! e.g. `1e-9` for nanoseconds shown as seconds), and `"buckets"` — the
//! non-empty log-linear buckets as `[upper_bound, count]` pairs,
//! ascending. `slow-queries` returns the daemon's ring buffer of
//! recently captured slow queries (see `rkr serve --slow-query-ms`),
//! oldest first, each a [`SlowQueryRecord`].
//!
//! `checkpoint` persists the serving state *as it stands* — committed
//! graph, rank index, and staged-but-uncommitted updates as a WAL — and
//! deliberately does not commit first, so forcing durability never changes
//! commit semantics. It only succeeds on daemons started with a snapshot
//! path (`rkr serve --snapshot FILE`); without one it is a one-line
//! error.
//!
//! Both ends of the protocol live here — [`Request`] / [`Reply`] encode to
//! and decode from [`Json`] symmetrically — so the daemon and the
//! [`crate::Client`] cannot drift apart.

use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
use rkranks_graph::GraphDelta;

use crate::json::Json;

/// The protocol generation this build speaks.
///
/// Carried in the `hello` and `stats` replies (`"v"`); bump it on any
/// incompatible wire change. Daemons predating the field decode as
/// version 0, so mixed deployments fail with a one-line mismatch error
/// instead of misparsing each other.
pub const PROTOCOL_VERSION: u64 = 7;

/// One live graph update on the wire — the protocol face of
/// `rkranks_graph::GraphDelta`. Encoded as a compact array:
/// `["add",u,v,w]` / `["rm",u,v]` / `["reweight",u,v,w]` /
/// `["add-node"]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateOp {
    /// Append one isolated node (its id is the node count at commit time).
    AddNode,
    /// Insert edge `u – v` with weight `w`.
    AddEdge {
        /// Source endpoint.
        u: u32,
        /// Target endpoint.
        v: u32,
        /// Non-negative finite weight.
        w: f64,
    },
    /// Delete edge `u – v`.
    RemoveEdge {
        /// Source endpoint.
        u: u32,
        /// Target endpoint.
        v: u32,
    },
    /// Set the weight of the existing edge `u – v` to `w`.
    Reweight {
        /// Source endpoint.
        u: u32,
        /// Target endpoint.
        v: u32,
        /// New non-negative finite weight.
        w: f64,
    },
}

impl UpdateOp {
    fn to_json(self) -> Json {
        match self {
            UpdateOp::AddNode => Json::Arr(vec![Json::Str("add-node".into())]),
            UpdateOp::AddEdge { u, v, w } => Json::Arr(vec![
                Json::Str("add".into()),
                Json::num(u),
                Json::num(v),
                Json::num(w),
            ]),
            UpdateOp::RemoveEdge { u, v } => {
                Json::Arr(vec![Json::Str("rm".into()), Json::num(u), Json::num(v)])
            }
            UpdateOp::Reweight { u, v, w } => Json::Arr(vec![
                Json::Str("reweight".into()),
                Json::num(u),
                Json::num(v),
                Json::num(w),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<UpdateOp, String> {
        let arr = v.as_arr().ok_or("update op is not an array")?;
        let kind = arr
            .first()
            .and_then(Json::as_str)
            .ok_or("update op missing its kind tag")?;
        let node = |i: usize| -> Result<u32, String> {
            arr.get(i)
                .and_then(Json::as_u32)
                .ok_or_else(|| format!("'{kind}' op needs an integer node id at position {i}"))
        };
        let weight = |i: usize| -> Result<f64, String> {
            arr.get(i)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("'{kind}' op needs a numeric weight at position {i}"))
        };
        let arity = |want: usize| -> Result<(), String> {
            if arr.len() == want {
                Ok(())
            } else {
                Err(format!(
                    "'{kind}' op takes {} arguments, got {}",
                    want - 1,
                    arr.len() - 1
                ))
            }
        };
        match kind {
            "add-node" => {
                arity(1)?;
                Ok(UpdateOp::AddNode)
            }
            "add" => {
                arity(4)?;
                Ok(UpdateOp::AddEdge {
                    u: node(1)?,
                    v: node(2)?,
                    w: weight(3)?,
                })
            }
            "rm" => {
                arity(3)?;
                Ok(UpdateOp::RemoveEdge {
                    u: node(1)?,
                    v: node(2)?,
                })
            }
            "reweight" => {
                arity(4)?;
                Ok(UpdateOp::Reweight {
                    u: node(1)?,
                    v: node(2)?,
                    w: weight(3)?,
                })
            }
            other => Err(format!("unknown update op '{other}'")),
        }
    }
}

/// The wire op and the store delta carry the same four shapes; these are
/// the one canonical pair of conversions (don't hand-roll the match at
/// call sites — a new delta kind should only need these two arms added).
impl From<UpdateOp> for GraphDelta {
    fn from(op: UpdateOp) -> GraphDelta {
        match op {
            UpdateOp::AddNode => GraphDelta::AddNode,
            UpdateOp::AddEdge { u, v, w } => GraphDelta::AddEdge { u, v, w },
            UpdateOp::RemoveEdge { u, v } => GraphDelta::RemoveEdge { u, v },
            UpdateOp::Reweight { u, v, w } => GraphDelta::Reweight { u, v, w },
        }
    }
}

impl From<GraphDelta> for UpdateOp {
    fn from(d: GraphDelta) -> UpdateOp {
        match d {
            GraphDelta::AddNode => UpdateOp::AddNode,
            GraphDelta::AddEdge { u, v, w } => UpdateOp::AddEdge { u, v, w },
            GraphDelta::RemoveEdge { u, v } => UpdateOp::RemoveEdge { u, v },
            GraphDelta::Reweight { u, v, w } => UpdateOp::Reweight { u, v, w },
        }
    }
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// One reverse k-ranks query for `node`.
    Query {
        /// The query node id.
        node: u32,
        /// Result size `k`.
        k: u32,
        /// `false` bypasses the result cache for this request (both the
        /// lookup and the insert) — e.g. for measurement traffic.
        cache: bool,
        /// Evaluation strategy name ([`rkranks_core::Strategy`] string
        /// form). `None` and the served strategy (dynamic with the
        /// daemon's configured bounds) are answered; any other name gets
        /// an error reply.
        strategy: Option<String>,
        /// Best-effort deadline in milliseconds: when it elapses the
        /// daemon replies with the refined-so-far partial result
        /// ([`QueryReply::partial`]) instead of risking unbounded tail
        /// latency.
        deadline_ms: Option<u64>,
    },
    /// Several queries amortizing one round-trip; each node is answered
    /// (and cached) exactly as a standalone `Query` would be.
    Batch {
        /// Query node ids, answered in order.
        nodes: Vec<u32>,
        /// Result size `k` shared by the batch.
        k: u32,
    },
    /// Stage live graph updates (validated as a whole; committed by the
    /// merger's next pass or the next `flush`).
    Update {
        /// The deltas, staged atomically in order.
        ops: Vec<UpdateOp>,
    },
    /// Read the serving counters.
    Stats,
    /// Read the full telemetry registry (counters, gauges, latency
    /// histograms) — the superset of `Stats`.
    Metrics,
    /// Read the slow-query ring buffer (empty unless the daemon runs
    /// with `--slow-query-ms`).
    SlowQueries,
    /// Commit staged graph updates now.
    Flush,
    /// Persist the daemon's serving state as a snapshot bundle (no
    /// implicit commit — staged updates land in the bundle's WAL).
    /// Errors on daemons running without a snapshot path.
    Checkpoint,
    /// Stop the daemon (staged updates are committed first).
    Shutdown,
    /// Identify the peer: protocol version, role, shard identity (when
    /// the daemon is one replica of a fleet), and the current epoch
    /// pair. The first thing a coordinator sends on a fresh shard
    /// connection.
    Hello,
}

impl Request {
    /// The request as it travels: [`Request::to_json`] rendered, plus the
    /// terminating newline.
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().render();
        line.push('\n');
        line
    }

    /// Encode for the wire (without the trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query {
                node,
                k,
                cache,
                strategy,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), Json::Str("query".into())),
                    ("node".into(), Json::num(*node)),
                    ("k".into(), Json::num(*k)),
                ];
                if !cache {
                    fields.push(("cache".into(), Json::Bool(false)));
                }
                if let Some(s) = strategy {
                    fields.push(("strategy".into(), Json::Str(s.clone())));
                }
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::num(*ms as f64)));
                }
                Json::Obj(fields)
            }
            Request::Batch { nodes, k } => Json::Obj(vec![
                ("op".into(), Json::Str("batch".into())),
                (
                    "nodes".into(),
                    Json::Arr(nodes.iter().map(|&n| Json::num(n)).collect()),
                ),
                ("k".into(), Json::num(*k)),
            ]),
            Request::Update { ops } => Json::Obj(vec![
                ("op".into(), Json::Str("update".into())),
                (
                    "ops".into(),
                    Json::Arr(ops.iter().map(|op| op.to_json()).collect()),
                ),
            ]),
            Request::Stats => op_only("stats"),
            Request::Metrics => op_only("metrics"),
            Request::SlowQueries => op_only("slow-queries"),
            Request::Flush => op_only("flush"),
            Request::Checkpoint => op_only("checkpoint"),
            Request::Shutdown => op_only("shutdown"),
            Request::Hello => op_only("hello"),
        }
    }

    /// Decode one request line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field 'op'")?;
        match op {
            "query" => {
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(d) => Some(d.as_u64().ok_or("non-integer field 'deadline_ms'")?),
                };
                let strategy = match v.get("strategy") {
                    None => None,
                    Some(s) => Some(s.as_str().ok_or("non-string field 'strategy'")?.to_string()),
                };
                Ok(Request::Query {
                    node: field_u32(&v, "node")?,
                    k: field_u32(&v, "k")?,
                    cache: v.get("cache").and_then(Json::as_bool).unwrap_or(true),
                    strategy,
                    deadline_ms,
                })
            }
            "batch" => {
                let nodes = v
                    .get("nodes")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field 'nodes'")?
                    .iter()
                    .map(|n| n.as_u32().ok_or("non-integer entry in 'nodes'"))
                    .collect::<Result<Vec<u32>, _>>()?;
                if nodes.is_empty() {
                    return Err("'nodes' must contain at least one node".into());
                }
                Ok(Request::Batch {
                    nodes,
                    k: field_u32(&v, "k")?,
                })
            }
            "update" => {
                let ops = v
                    .get("ops")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field 'ops'")?
                    .iter()
                    .map(UpdateOp::from_json)
                    .collect::<Result<Vec<UpdateOp>, _>>()?;
                if ops.is_empty() {
                    return Err("'ops' must contain at least one update".into());
                }
                Ok(Request::Update { ops })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "slow-queries" => Ok(Request::SlowQueries),
            "flush" => Ok(Request::Flush),
            "checkpoint" => Ok(Request::Checkpoint),
            "shutdown" => Ok(Request::Shutdown),
            "hello" => Ok(Request::Hello),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

fn op_only(op: &str) -> Json {
    Json::Obj(vec![("op".into(), Json::Str(op.into()))])
}

fn field_u32(v: &Json, name: &str) -> Result<u32, String> {
    v.get(name)
        .and_then(Json::as_u32)
        .ok_or_else(|| format!("missing integer field '{name}'"))
}

/// A successful single-query answer.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// `(node, rank)` pairs, best rank first.
    pub entries: Vec<(u32, u32)>,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// The index epoch the result was computed (or cached) against.
    pub epoch: u64,
    /// The graph epoch the result was computed (or cached) against: two
    /// replies with different graph epochs answered against *different
    /// graphs*.
    pub graph_epoch: u64,
    /// `true` when a deadline cut the query short: `entries` is the
    /// refined-so-far set (every rank in it is still exact), not the
    /// complete answer. Partial answers are never cached.
    pub partial: bool,
}

/// A successful batch answer.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReply {
    /// Per-node `(node, rank)` result lists, in request order.
    pub results: Vec<Vec<(u32, u32)>>,
    /// How many of the batch's answers were cache hits.
    pub cached: u64,
    /// The index epoch every answer saw (`rkrd` answers a batch from one
    /// live state).
    pub epoch: u64,
    /// The graph epoch every answer saw.
    pub graph_epoch: u64,
}

/// The serving counters returned by the `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Protocol generation the daemon speaks ([`PROTOCOL_VERSION`]).
    /// Decodes as 0 from daemons predating the field, which is exactly
    /// what lets the client turn a mixed deployment into a one-line
    /// version-mismatch error.
    pub v: u64,
    /// Queries answered (batch ops count each node).
    pub queries: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (lookups only; `cache:false` traffic counts
    /// neither a hit nor a miss).
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Entries evicted by LRU capacity pressure.
    pub cache_evictions: u64,
    /// Entries evicted because their epoch went stale.
    pub cache_stale_evicted: u64,
    /// Result-cache capacity (0 = caching disabled).
    pub cache_capacity: u64,
    /// Approximate heap footprint of the cached results, in bytes
    /// (entry payloads plus per-slot bookkeeping).
    pub cache_bytes: u64,
    /// Current index epoch ([`rkranks_core::RkrIndex::epoch`]).
    pub epoch: u64,
    /// Commits of staged graph updates (merger, `flush`, and shutdown).
    pub merges: u64,
    /// Worker threads serving connections.
    pub workers: u64,
    /// Queries answered with a partial (limit-tripped) result.
    pub partial_results: u64,
    /// Queries whose deadline elapsed before the search finished (a
    /// subset of `partial_results`).
    pub deadline_exceeded: u64,
    /// Current graph epoch (`rkranks_graph::GraphStore::graph_epoch`):
    /// bumps exactly when a committed update batch changed the graph —
    /// query-only traffic never moves it.
    pub graph_epoch: u64,
    /// Commits that changed the graph (each bumped `graph_epoch`,
    /// published a fresh snapshot, and retired the index).
    pub graph_commits: u64,
    /// Effective staged deltas committed into the live graph so far
    /// (staged deltas are not counted until their commit, and a batch's
    /// ops can collapse onto fewer effective deltas — e.g. removing and
    /// re-adding the same edge counts once).
    pub updates_applied: u64,
    /// Nodes in the current graph snapshot.
    pub graph_nodes: u64,
    /// Logical edges in the current graph snapshot.
    pub graph_edges: u64,
    /// Accept-queue drains that ended in a real error — `EMFILE`/`ENFILE`
    /// fd exhaustion above all. Nonzero means clients are being turned
    /// away at the listener; raise the fd limit or shed connections.
    pub accept_errors: u64,
    /// Event-loop wake-ups that surfaced ready work (`epoll_wait`
    /// returns with at least one event).
    pub wakeups: u64,
    /// Times a connection crossed the write high-water mark and had its
    /// reads paused until the backlog drained.
    pub backpressure_pauses: u64,
    /// Request lines rejected (connection closed) for exceeding the
    /// configured line cap.
    pub oversize_lines: u64,
}

impl StatsReply {
    const FIELDS: [&'static str; 23] = [
        "v",
        "queries",
        "cache_hits",
        "cache_misses",
        "cache_entries",
        "cache_evictions",
        "cache_stale_evicted",
        "cache_capacity",
        "cache_bytes",
        "epoch",
        "merges",
        "workers",
        "partial_results",
        "deadline_exceeded",
        "graph_epoch",
        "graph_commits",
        "updates_applied",
        "graph_nodes",
        "graph_edges",
        "accept_errors",
        "wakeups",
        "backpressure_pauses",
        "oversize_lines",
    ];

    fn values(&self) -> [u64; 23] {
        [
            self.v,
            self.queries,
            self.cache_hits,
            self.cache_misses,
            self.cache_entries,
            self.cache_evictions,
            self.cache_stale_evicted,
            self.cache_capacity,
            self.cache_bytes,
            self.epoch,
            self.merges,
            self.workers,
            self.partial_results,
            self.deadline_exceeded,
            self.graph_epoch,
            self.graph_commits,
            self.updates_applied,
            self.graph_nodes,
            self.graph_edges,
            self.accept_errors,
            self.wakeups,
            self.backpressure_pauses,
            self.oversize_lines,
        ]
    }

    fn to_json(self) -> Json {
        Json::Obj(
            Self::FIELDS
                .iter()
                .zip(self.values())
                .map(|(&f, v)| (f.to_string(), Json::num(v as f64)))
                .collect(),
        )
    }

    fn from_json(v: &Json) -> Result<StatsReply, String> {
        // `v` is read leniently (absent ⇒ 0) so version skew surfaces as
        // a mismatch error, not a parse failure.
        let mut out = StatsReply {
            v: v.get("v").and_then(Json::as_u64).unwrap_or(0),
            ..Default::default()
        };
        let slots: [&mut u64; 22] = [
            &mut out.queries,
            &mut out.cache_hits,
            &mut out.cache_misses,
            &mut out.cache_entries,
            &mut out.cache_evictions,
            &mut out.cache_stale_evicted,
            &mut out.cache_capacity,
            &mut out.cache_bytes,
            &mut out.epoch,
            &mut out.merges,
            &mut out.workers,
            &mut out.partial_results,
            &mut out.deadline_exceeded,
            &mut out.graph_epoch,
            &mut out.graph_commits,
            &mut out.updates_applied,
            &mut out.graph_nodes,
            &mut out.graph_edges,
            &mut out.accept_errors,
            &mut out.wakeups,
            &mut out.backpressure_pauses,
            &mut out.oversize_lines,
        ];
        for (field, slot) in Self::FIELDS.iter().skip(1).zip(slots) {
            *slot = v
                .get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing counter '{field}'"))?;
        }
        Ok(out)
    }
}

/// The place in a fleet a replica announces in its `hello`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardIdentity {
    /// This daemon's shard index, in `0..shards`.
    pub index: u32,
    /// Total shard count in the deployment's node→shard map.
    pub shards: u32,
    /// The map's seed (all shards and the coordinator must agree).
    pub seed: u64,
}

/// Answer to a `hello` op: who the peer is and what it speaks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HelloReply {
    /// Protocol generation ([`PROTOCOL_VERSION`]).
    pub v: u64,
    /// `"shard"` when serving in a fleet, `"coord"` for a
    /// coordinator, `"server"` for a plain single-box daemon.
    pub role: String,
    /// Shard identity, present exactly when `role == "shard"`.
    pub shard: Option<ShardIdentity>,
    /// Current index epoch.
    pub epoch: u64,
    /// Current graph epoch.
    pub graph_epoch: u64,
    /// Nodes in the serving graph snapshot.
    pub nodes: u64,
    /// Logical edges in the serving graph snapshot.
    pub edges: u64,
    /// [`rkranks_graph::Graph::digest`] of the serving graph snapshot —
    /// what lets a coordinator tell replicas on different graphs apart.
    /// On the wire it is 16 lowercase hex digits (a JSON number cannot
    /// hold 64 bits). A daemon always sends it; a coordinator sends the
    /// digest it last verified across its fleet, and `None` before it
    /// has verified one.
    pub graph_digest: Option<u64>,
}

/// One captured slow query, as returned by the `slow-queries` op.
///
/// The daemon records one of these for every query whose end-to-end
/// service time reaches the `--slow-query-ms` threshold, into a
/// fixed-size ring buffer (oldest records are overwritten).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlowQueryRecord {
    /// The query node id.
    pub node: u32,
    /// Result size `k`.
    pub k: u32,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Index epoch the answer was computed (or cached) against.
    pub epoch: u64,
    /// Graph epoch the answer was computed (or cached) against.
    pub graph_epoch: u64,
    /// End-to-end service time in nanoseconds (parse to reply).
    pub total_ns: u64,
    /// Nanoseconds in the SDS filter stage (0 for cache hits).
    pub filter_ns: u64,
    /// Nanoseconds in rank refinement (0 for cache hits).
    pub refine_ns: u64,
    /// Passes of the engine's kRank ladder (0 for cache hits) — with `k_rank_guess`, the usual answer to
    /// "why was this query slow": its true `kRank` is large.
    pub sds_passes: u64,
    /// The `kRank` guess the accepted pass ran under (`u32::MAX`: the
    /// unbounded last rung; 0: none, e.g. a partial answer).
    pub k_rank_guess: u32,
    /// `"complete"` or `"partial"` (deadline or budget tripped).
    pub completion: String,
}

impl SlowQueryRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("node".into(), Json::num(self.node)),
            ("k".into(), Json::num(self.k)),
            ("cached".into(), Json::Bool(self.cached)),
            ("epoch".into(), Json::num(self.epoch as f64)),
            ("graph_epoch".into(), Json::num(self.graph_epoch as f64)),
            ("total_ns".into(), Json::num(self.total_ns as f64)),
            ("filter_ns".into(), Json::num(self.filter_ns as f64)),
            ("refine_ns".into(), Json::num(self.refine_ns as f64)),
            ("sds_passes".into(), Json::num(self.sds_passes as f64)),
            ("k_rank_guess".into(), Json::num(self.k_rank_guess)),
            ("completion".into(), Json::Str(self.completion.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<SlowQueryRecord, String> {
        let text = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("slow query record missing string '{name}'"))
        };
        Ok(SlowQueryRecord {
            node: field_u32(v, "node")?,
            k: field_u32(v, "k")?,
            cached: v
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or("slow query record missing boolean 'cached'")?,
            epoch: field_u64(v, "epoch")?,
            graph_epoch: field_u64(v, "graph_epoch")?,
            total_ns: field_u64(v, "total_ns")?,
            filter_ns: field_u64(v, "filter_ns")?,
            refine_ns: field_u64(v, "refine_ns")?,
            sds_passes: field_u64(v, "sds_passes")?,
            k_rank_guess: field_u32(v, "k_rank_guess")?,
            completion: text("completion")?,
        })
    }
}

fn metric_sample_to_json(s: &MetricSample) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("help".into(), Json::Str(s.help.clone())),
    ];
    if !s.labels.is_empty() {
        fields.push((
            "labels".into(),
            Json::Obj(
                s.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    match &s.value {
        MetricValue::Counter(v) => {
            fields.push(("type".into(), Json::Str("counter".into())));
            fields.push(("value".into(), Json::num(*v as f64)));
        }
        MetricValue::Gauge(v) => {
            fields.push(("type".into(), Json::Str("gauge".into())));
            fields.push(("value".into(), Json::num(*v as f64)));
        }
        MetricValue::Histogram(h) => {
            fields.push(("type".into(), Json::Str("histogram".into())));
            fields.push(("count".into(), Json::num(h.count as f64)));
            fields.push(("sum".into(), Json::num(h.sum as f64)));
            fields.push(("scale".into(), Json::num(h.scale)));
            fields.push((
                "buckets".into(),
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(upper, n)| {
                            Json::Arr(vec![Json::num(upper as f64), Json::num(n as f64)])
                        })
                        .collect(),
                ),
            ));
        }
    }
    Json::Obj(fields)
}

fn metric_sample_from_json(v: &Json) -> Result<MetricSample, String> {
    let text = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("metric sample missing string '{name}'"))
    };
    let labels = match v.get("labels") {
        None => Vec::new(),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("non-string label value for '{k}'"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("'labels' is not an object".into()),
    };
    let value = match text("type")?.as_str() {
        "counter" => MetricValue::Counter(field_u64(v, "value")?),
        "gauge" => MetricValue::Gauge(field_u64(v, "value")?),
        "histogram" => {
            let buckets = v
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or("histogram sample missing array 'buckets'")?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or("bad histogram bucket")?;
                    Ok::<(u64, u64), String>((
                        pair[0].as_u64().ok_or("bad bucket upper bound")?,
                        pair[1].as_u64().ok_or("bad bucket count")?,
                    ))
                })
                .collect::<Result<Vec<_>, _>>()?;
            MetricValue::Histogram(HistogramSnapshot {
                count: field_u64(v, "count")?,
                sum: field_u64(v, "sum")?,
                scale: v
                    .get("scale")
                    .and_then(Json::as_f64)
                    .ok_or("histogram sample missing number 'scale'")?,
                buckets,
            })
        }
        other => return Err(format!("unknown metric type '{other}'")),
    };
    Ok(MetricSample {
        name: text("name")?,
        labels,
        help: text("help")?,
        value,
    })
}

/// A decoded server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Answer to a `query` op.
    Query(QueryReply),
    /// Answer to a `batch` op.
    Batch(BatchReply),
    /// Answer to a `stats` op.
    Stats(StatsReply),
    /// Answer to a `metrics` op: every registered instrument's reading,
    /// in registration order.
    Metrics(MetricsSnapshot),
    /// Answer to a `slow-queries` op: captured records, oldest first.
    SlowQueries(Vec<SlowQueryRecord>),
    /// Answer to an `update` op: the batch was validated and staged (it
    /// goes live at the next commit).
    Update {
        /// How many deltas this request staged.
        staged: u64,
        /// The graph epoch *before* the batch commits (the commit will
        /// publish `graph_epoch + 1` if the batch changes the graph).
        graph_epoch: u64,
    },
    /// Answer to a `flush` op: the index epoch after the commit and how
    /// many staged graph deltas it committed.
    Flush {
        /// Index epoch after the commit.
        epoch: u64,
        /// Staged graph deltas committed (0 = nothing was staged).
        merged: u64,
    },
    /// Answer to a `checkpoint` op: the snapshot bundle on disk now holds
    /// exactly this epoch pair.
    Checkpoint {
        /// Index epoch captured by the bundle.
        epoch: u64,
        /// Graph epoch captured by the bundle.
        graph_epoch: u64,
    },
    /// Acknowledgement of a `shutdown` op.
    Shutdown,
    /// Answer to a `hello` op: peer identity and protocol version.
    Hello(HelloReply),
    /// The request failed; the connection stays usable.
    Error(String),
}

impl Reply {
    /// The reply as it travels: [`Reply::to_json`] rendered, plus the
    /// terminating newline.
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().render();
        line.push('\n');
        line
    }

    /// Encode for the wire (without the trailing newline).
    pub fn to_json(&self) -> Json {
        let ok = |mut fields: Vec<(String, Json)>| {
            fields.insert(0, ("ok".into(), Json::Bool(true)));
            Json::Obj(fields)
        };
        match self {
            Reply::Query(q) => {
                let mut fields = vec![
                    ("result".into(), entries_to_json(&q.entries)),
                    ("cached".into(), Json::Bool(q.cached)),
                    ("epoch".into(), Json::num(q.epoch as f64)),
                    ("graph_epoch".into(), Json::num(q.graph_epoch as f64)),
                ];
                if q.partial {
                    fields.push(("partial".into(), Json::Bool(true)));
                }
                ok(fields)
            }
            Reply::Batch(b) => ok(vec![
                (
                    "results".into(),
                    Json::Arr(b.results.iter().map(|r| entries_to_json(r)).collect()),
                ),
                ("cached".into(), Json::num(b.cached as f64)),
                ("epoch".into(), Json::num(b.epoch as f64)),
                ("graph_epoch".into(), Json::num(b.graph_epoch as f64)),
            ]),
            Reply::Stats(s) => ok(vec![("stats".into(), s.to_json())]),
            Reply::Metrics(snap) => ok(vec![(
                "metrics".into(),
                Json::Arr(snap.samples.iter().map(metric_sample_to_json).collect()),
            )]),
            Reply::SlowQueries(records) => ok(vec![(
                "slow_queries".into(),
                Json::Arr(records.iter().map(SlowQueryRecord::to_json).collect()),
            )]),
            Reply::Update {
                staged,
                graph_epoch,
            } => ok(vec![
                ("staged".into(), Json::num(*staged as f64)),
                ("graph_epoch".into(), Json::num(*graph_epoch as f64)),
            ]),
            Reply::Flush { epoch, merged } => ok(vec![
                ("epoch".into(), Json::num(*epoch as f64)),
                ("merged".into(), Json::num(*merged as f64)),
            ]),
            Reply::Checkpoint { epoch, graph_epoch } => ok(vec![
                ("checkpointed".into(), Json::Bool(true)),
                ("epoch".into(), Json::num(*epoch as f64)),
                ("graph_epoch".into(), Json::num(*graph_epoch as f64)),
            ]),
            Reply::Shutdown => ok(vec![("bye".into(), Json::Bool(true))]),
            Reply::Hello(h) => {
                let mut fields = vec![
                    ("role".into(), Json::Str(h.role.clone())),
                    ("v".into(), Json::num(h.v as f64)),
                    ("epoch".into(), Json::num(h.epoch as f64)),
                    ("graph_epoch".into(), Json::num(h.graph_epoch as f64)),
                    ("nodes".into(), Json::num(h.nodes as f64)),
                    ("edges".into(), Json::num(h.edges as f64)),
                ];
                if let Some(d) = h.graph_digest {
                    fields.push(("graph_digest".into(), Json::Str(format!("{d:016x}"))));
                }
                if let Some(s) = h.shard {
                    fields.push(("shard".into(), Json::num(s.index)));
                    fields.push(("shards".into(), Json::num(s.shards)));
                    fields.push(("shard_seed".into(), Json::num(s.seed as f64)));
                }
                ok(fields)
            }
            Reply::Error(msg) => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str(msg.clone())),
            ]),
        }
    }

    /// Decode one reply line.
    pub fn from_line(line: &str) -> Result<Reply, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                let msg = v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error");
                return Ok(Reply::Error(msg.to_string()));
            }
            None => return Err("missing boolean field 'ok'".into()),
        }
        if let Some(result) = v.get("result") {
            return Ok(Reply::Query(QueryReply {
                entries: entries_from_json(result)?,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("missing boolean field 'cached'")?,
                epoch: field_u64(&v, "epoch")?,
                graph_epoch: v.get("graph_epoch").and_then(Json::as_u64).unwrap_or(0),
                partial: v.get("partial").and_then(Json::as_bool).unwrap_or(false),
            }));
        }
        if let Some(results) = v.get("results") {
            let results = results
                .as_arr()
                .ok_or("'results' is not an array")?
                .iter()
                .map(entries_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Reply::Batch(BatchReply {
                results,
                cached: field_u64(&v, "cached")?,
                epoch: field_u64(&v, "epoch")?,
                graph_epoch: v.get("graph_epoch").and_then(Json::as_u64).unwrap_or(0),
            }));
        }
        if let Some(stats) = v.get("stats") {
            return Ok(Reply::Stats(StatsReply::from_json(stats)?));
        }
        if let Some(metrics) = v.get("metrics") {
            let samples = metrics
                .as_arr()
                .ok_or("'metrics' is not an array")?
                .iter()
                .map(metric_sample_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Reply::Metrics(MetricsSnapshot { samples }));
        }
        if let Some(slow) = v.get("slow_queries") {
            let records = slow
                .as_arr()
                .ok_or("'slow_queries' is not an array")?
                .iter()
                .map(SlowQueryRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Reply::SlowQueries(records));
        }
        if v.get("bye").is_some() {
            return Ok(Reply::Shutdown);
        }
        if v.get("role").is_some() {
            let shard = match v.get("shard") {
                None => None,
                Some(_) => Some(ShardIdentity {
                    index: field_u32(&v, "shard")?,
                    shards: field_u32(&v, "shards")?,
                    seed: field_u64(&v, "shard_seed")?,
                }),
            };
            return Ok(Reply::Hello(HelloReply {
                v: v.get("v").and_then(Json::as_u64).unwrap_or(0),
                role: v
                    .get("role")
                    .and_then(Json::as_str)
                    .ok_or("non-string field 'role'")?
                    .to_string(),
                shard,
                epoch: field_u64(&v, "epoch")?,
                graph_epoch: field_u64(&v, "graph_epoch")?,
                nodes: field_u64(&v, "nodes")?,
                edges: field_u64(&v, "edges")?,
                graph_digest: match v.get("graph_digest") {
                    None => None,
                    Some(d) => Some(digest_from_json(d)?),
                },
            }));
        }
        if v.get("staged").is_some() {
            return Ok(Reply::Update {
                staged: field_u64(&v, "staged")?,
                graph_epoch: field_u64(&v, "graph_epoch")?,
            });
        }
        if v.get("merged").is_some() {
            return Ok(Reply::Flush {
                epoch: field_u64(&v, "epoch")?,
                merged: field_u64(&v, "merged")?,
            });
        }
        if v.get("checkpointed").is_some() {
            return Ok(Reply::Checkpoint {
                epoch: field_u64(&v, "epoch")?,
                graph_epoch: field_u64(&v, "graph_epoch")?,
            });
        }
        Err("unrecognized reply shape".into())
    }
}

fn field_u64(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field '{name}'"))
}

/// A `graph_digest`: exactly 16 hex digits.
fn digest_from_json(v: &Json) -> Result<u64, String> {
    let bad = || "'graph_digest' is not 16 hex digits".to_string();
    let text = v.as_str().ok_or_else(bad)?;
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad());
    }
    u64::from_str_radix(text, 16).map_err(|_| bad())
}

fn entries_to_json(entries: &[(u32, u32)]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|&(n, r)| Json::Arr(vec![Json::num(n), Json::num(r)]))
            .collect(),
    )
}

fn entries_from_json(v: &Json) -> Result<Vec<(u32, u32)>, String> {
    v.as_arr()
        .ok_or("result list is not an array")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or("bad entry")?;
            Ok((
                pair[0].as_u32().ok_or("bad node id")?,
                pair[1].as_u32().ok_or("bad rank")?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = req.to_json().render();
        assert_eq!(Request::from_line(&line).unwrap(), req, "line: {line}");
    }

    fn round_trip_reply(reply: Reply) {
        let line = reply.to_json().render();
        assert_eq!(Reply::from_line(&line).unwrap(), reply, "line: {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            node: 17,
            k: 10,
            cache: true,
            strategy: None,
            deadline_ms: None,
        });
        round_trip_request(Request::Query {
            node: 0,
            k: 1,
            cache: false,
            strategy: None,
            deadline_ms: None,
        });
        round_trip_request(Request::Query {
            node: 4,
            k: 3,
            cache: true,
            strategy: Some("dynamic-three".into()),
            deadline_ms: Some(25),
        });
        round_trip_request(Request::Query {
            node: 4,
            k: 3,
            cache: false,
            strategy: Some("naive".into()),
            deadline_ms: Some(0),
        });
        round_trip_request(Request::Batch {
            nodes: vec![3, 17, 5],
            k: 10,
        });
        round_trip_request(Request::Update {
            ops: vec![
                UpdateOp::AddNode,
                UpdateOp::AddEdge { u: 3, v: 9, w: 0.5 },
                UpdateOp::RemoveEdge { u: 1, v: 2 },
                UpdateOp::Reweight {
                    u: 4,
                    v: 5,
                    w: 2.25,
                },
            ],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::SlowQueries);
        round_trip_request(Request::Flush);
        round_trip_request(Request::Checkpoint);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Hello);
    }

    #[test]
    fn hello_replies_round_trip() {
        round_trip_reply(Reply::Hello(HelloReply {
            v: PROTOCOL_VERSION,
            role: "server".into(),
            shard: None,
            epoch: 3,
            graph_epoch: 1,
            nodes: 150,
            edges: 1043,
            graph_digest: Some(u64::MAX),
        }));
        round_trip_reply(Reply::Hello(HelloReply {
            v: PROTOCOL_VERSION,
            role: "shard".into(),
            shard: Some(ShardIdentity {
                index: 1,
                shards: 4,
                seed: 0xC0FFEE,
            }),
            epoch: 0,
            graph_epoch: 2,
            nodes: 10,
            edges: 9,
            graph_digest: Some(0x0123_4567_89ab_cdef),
        }));
        round_trip_reply(Reply::Hello(HelloReply {
            v: PROTOCOL_VERSION,
            role: "coord".into(),
            shard: None,
            epoch: 0,
            graph_epoch: 0,
            nodes: 0,
            edges: 0,
            graph_digest: None,
        }));
    }

    /// The digest travels as 16 hex digits, leading zeros kept, and a
    /// line whose digest is anything else is refused, not misread.
    #[test]
    fn graph_digests_are_sixteen_hex_digits() {
        let hello = HelloReply {
            v: PROTOCOL_VERSION,
            role: "shard".into(),
            graph_digest: Some(0xbeef),
            ..HelloReply::default()
        };
        let line = Reply::Hello(hello).to_json().render();
        assert!(
            line.contains(r#""graph_digest":"000000000000beef""#),
            "{line}"
        );
        for bad in [
            "beef",
            "000000000000beeg",
            "0000000000000beef",
            "-00000000000beef",
        ] {
            let line = line.replace("000000000000beef", bad);
            assert!(Reply::from_line(&line).is_err(), "{line}");
        }
        let line = line.replace(
            r#""graph_digest":"000000000000beef""#,
            r#""graph_digest":48879"#,
        );
        assert!(Reply::from_line(&line).is_err(), "{line}");
    }

    #[test]
    fn version_skew_decodes_as_v0_not_a_parse_error() {
        // A stats reply from a daemon predating the `v` field: every
        // other counter present, `v` absent ⇒ decodes with v == 0 so
        // the client can render a mismatch error.
        let modern = Reply::Stats(StatsReply {
            v: PROTOCOL_VERSION,
            ..StatsReply::default()
        });
        let full = modern.to_json().render();
        let line = full.replace(&format!("\"v\":{PROTOCOL_VERSION},"), "");
        assert_ne!(line, full, "the version field was not stripped");
        match Reply::from_line(&line).unwrap() {
            Reply::Stats(s) => assert_eq!(s.v, 0),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn update_weights_survive_the_wire_exactly() {
        // weights are genuine floats; the wire must not round them
        let req = Request::Update {
            ops: vec![UpdateOp::AddEdge {
                u: 0,
                v: 1,
                w: 0.123456789,
            }],
        };
        let line = req.to_json().render();
        assert_eq!(Request::from_line(&line).unwrap(), req, "line: {line}");
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::Query(QueryReply {
            entries: vec![(1, 2), (3, 2)],
            cached: true,
            epoch: 7,
            graph_epoch: 2,
            partial: false,
        }));
        round_trip_reply(Reply::Query(QueryReply {
            entries: vec![],
            cached: false,
            epoch: 0,
            graph_epoch: 0,
            partial: false,
        }));
        round_trip_reply(Reply::Query(QueryReply {
            entries: vec![(9, 1)],
            cached: false,
            epoch: 2,
            graph_epoch: 0,
            partial: true,
        }));
        round_trip_reply(Reply::Batch(BatchReply {
            results: vec![vec![(1, 1)], vec![]],
            cached: 1,
            epoch: 3,
            graph_epoch: 1,
        }));
        round_trip_reply(Reply::Stats(StatsReply {
            v: PROTOCOL_VERSION,
            queries: 12,
            cache_hits: 4,
            cache_misses: 8,
            cache_entries: 6,
            cache_evictions: 2,
            cache_stale_evicted: 1,
            cache_capacity: 64,
            cache_bytes: 4096,
            epoch: 3,
            merges: 2,
            workers: 4,
            partial_results: 3,
            deadline_exceeded: 2,
            graph_epoch: 1,
            graph_commits: 1,
            updates_applied: 7,
            graph_nodes: 150,
            graph_edges: 1043,
            accept_errors: 1,
            wakeups: 40,
            backpressure_pauses: 2,
            oversize_lines: 1,
        }));
        round_trip_reply(Reply::Update {
            staged: 3,
            graph_epoch: 1,
        });
        round_trip_reply(Reply::Flush {
            epoch: 4,
            merged: 2,
        });
        round_trip_reply(Reply::Checkpoint {
            epoch: 4,
            graph_epoch: 1,
        });
        round_trip_reply(Reply::Shutdown);
        round_trip_reply(Reply::Error("k = 9 exceeds the index's K = 4".into()));
    }

    #[test]
    fn metrics_replies_round_trip() {
        use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
        round_trip_reply(Reply::Metrics(MetricsSnapshot { samples: vec![] }));
        round_trip_reply(Reply::Metrics(MetricsSnapshot {
            samples: vec![
                MetricSample {
                    name: "rkrd_queries_total".into(),
                    labels: vec![],
                    help: "queries answered".into(),
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
                        buckets: vec![(95, 1), (223, 2)],
                    }),
                },
            ],
        }));
    }

    #[test]
    fn overflow_bucket_bound_survives_the_wire() {
        use rkranks_core::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
        // The histogram's overflow bucket has upper bound u64::MAX; the
        // hand-rolled JSON layer must round-trip it (via saturation).
        round_trip_reply(Reply::Metrics(MetricsSnapshot {
            samples: vec![MetricSample {
                name: "rkrd_conn_backlog_bytes".into(),
                labels: vec![],
                help: "backlog high-water".into(),
                value: MetricValue::Histogram(HistogramSnapshot {
                    count: 1,
                    sum: u64::MAX,
                    scale: 1.0,
                    buckets: vec![(u64::MAX, 1)],
                }),
            }],
        }));
    }

    #[test]
    fn slow_query_replies_round_trip() {
        round_trip_reply(Reply::SlowQueries(vec![]));
        round_trip_reply(Reply::SlowQueries(vec![
            SlowQueryRecord {
                node: 17,
                k: 10,
                cached: false,
                epoch: 3,
                graph_epoch: 1,
                total_ns: 51031,
                filter_ns: 40100,
                refine_ns: 9000,
                sds_passes: 7,
                k_rank_guess: u32::MAX,
                completion: "complete".into(),
            },
            SlowQueryRecord {
                node: 2,
                k: 1,
                cached: true,
                epoch: 0,
                graph_epoch: 0,
                total_ns: 12,
                filter_ns: 0,
                refine_ns: 0,
                sds_passes: 0,
                k_rank_guess: 0,
                completion: "partial".into(),
            },
        ]));
    }

    #[test]
    fn bad_metrics_replies_are_errors() {
        for line in [
            r#"{"ok":true,"metrics":7}"#,
            r#"{"ok":true,"metrics":[{"help":"x","type":"counter","value":1}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"blob","value":1}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"counter"}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"histogram","count":1,"sum":2,"scale":1.0}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","type":"histogram","count":1,"sum":2,"scale":1.0,"buckets":[[1]]}]}"#,
            r#"{"ok":true,"metrics":[{"name":"x","help":"x","labels":[],"type":"counter","value":1}]}"#,
            r#"{"ok":true,"slow_queries":{}}"#,
            r#"{"ok":true,"slow_queries":[{"node":1}]}"#,
        ] {
            assert!(Reply::from_line(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn missing_optional_query_fields_default() {
        let req = Request::from_line(r#"{"op":"query","node":1,"k":2}"#).unwrap();
        assert_eq!(
            req,
            Request::Query {
                node: 1,
                k: 2,
                cache: true,
                strategy: None,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn missing_partial_field_defaults_to_complete() {
        // Replies from daemons predating the partial flag stay decodable.
        let reply =
            Reply::from_line(r#"{"ok":true,"result":[[1,2]],"cached":false,"epoch":0}"#).unwrap();
        assert_eq!(
            reply,
            Reply::Query(QueryReply {
                entries: vec![(1, 2)],
                cached: false,
                epoch: 0,
                graph_epoch: 0,
                partial: false,
            })
        );
    }

    #[test]
    fn bad_requests_are_errors() {
        for line in [
            "",
            "not json",
            r#"{"node":1,"k":2}"#,
            r#"{"op":"query","k":2}"#,
            r#"{"op":"query","node":1}"#,
            r#"{"op":"query","node":-1,"k":2}"#,
            r#"{"op":"query","node":1.5,"k":2}"#,
            r#"{"op":"query","node":1,"k":2,"deadline_ms":-4}"#,
            r#"{"op":"query","node":1,"k":2,"deadline_ms":1.5}"#,
            r#"{"op":"query","node":1,"k":2,"strategy":7}"#,
            r#"{"op":"batch","k":2}"#,
            r#"{"op":"batch","nodes":[1,"x"],"k":2}"#,
            r#"{"op":"batch","nodes":[],"k":2}"#,
            r#"{"op":"explode"}"#,
            r#"{"op":"update"}"#,
            r#"{"op":"update","ops":[]}"#,
            r#"{"op":"update","ops":["add"]}"#,
            r#"{"op":"update","ops":[["boom",1,2]]}"#,
            r#"{"op":"update","ops":[["add",1,2]]}"#,
            r#"{"op":"update","ops":[["add",1,2,"x"]]}"#,
            r#"{"op":"update","ops":[["add",-1,2,1.0]]}"#,
            r#"{"op":"update","ops":[["rm",1]]}"#,
            r#"{"op":"update","ops":[["rm",1,2,3]]}"#,
            r#"{"op":"update","ops":[["add-node",1]]}"#,
            r#"{"op":"update","ops":[["reweight",1,2]]}"#,
        ] {
            assert!(Request::from_line(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn bad_replies_are_errors() {
        for line in ["{}", r#"{"ok":true}"#, r#"{"ok":true,"result":[[1]]}"#] {
            assert!(Reply::from_line(line).is_err(), "accepted {line:?}");
        }
    }
}
