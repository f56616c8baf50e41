//! The per-connection shard pool: one [`Client`] per shard, connected
//! lazily with retry/backoff, handshake-verified, and driven as a
//! pipelined scatter-gather unit.
//!
//! ## Why the merge is exact
//!
//! Every shard serves the *full* replicated graph but refines and
//! returns only the candidates it owns under the consistent-hash map
//! ([`rkranks_graph::ShardMap`]). Ownership partitions the candidate
//! set, and each owned candidate's rank is computed against the whole
//! graph — so per-shard answers are exact over disjoint slices, and the
//! global top-k rank multiset is contained in the union of the per-shard
//! top-k sets. Concatenating the per-shard entries, sorting by
//! `(rank, node)`, and truncating to `k` therefore reproduces the
//! single-box answer exactly — provided every reply describes the *same
//! graph*, which is why the fan-out refuses to merge replies whose graph
//! epochs disagree and instead flushes the lagging shards and re-asks
//! them (bounded).
//!
//! ## Degradation
//!
//! A shard that cannot be reached (after one in-round reconnect) is
//! dropped from the merge and the answer is flagged
//! [`partial`](rkranks_server::QueryReply::partial): every returned rank
//! is still exact, but candidates owned by the dead shard may be
//! missing — the same contract a deadline-tripped single-box partial
//! already has. Batch replies have no partial channel on the wire, so a
//! dead shard fails a batch loudly instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rkranks_server::{Client, ConnectPolicy, QueryReply, Reply, Request};

use crate::metrics::CoordMetrics;
use crate::CoordConfig;

/// How many epoch-realignment rounds a query tolerates before giving up.
/// Writes serialize behind the coordinator's write gate, so a round of
/// `flush` to the lagging shards converges in one pass; the bound only
/// trips when something out-of-band keeps moving a shard's graph.
const EPOCH_RETRIES: u32 = 3;

/// One shard endpoint: its address and the (lazily established,
/// re-established after failures) connection.
struct ShardConn {
    addr: String,
    client: Option<Client>,
}

/// A verified connection pool over the whole fleet, owned by one
/// coordinator connection handler (handlers don't share sockets, so no
/// locking on the hot path).
pub struct ShardPool {
    shards: Vec<ShardConn>,
    policy: ConnectPolicy,
    reply_timeout: Duration,
    /// Shard seed agreed at the first verified handshake; later
    /// handshakes must match it.
    seed: Option<u64>,
    metrics: Arc<CoordMetrics>,
}

/// One shard's slot in a fan-out round.
enum Slot {
    /// Request written; a reply is owed.
    Sent(Instant),
    /// Connecting or writing failed before a reply was owed.
    Failed(ShardError),
}

/// Why a shard slot failed: transient transport trouble is redialed and
/// can soundly degrade a query to partial; a fatal misconfiguration
/// (failed handshake verification) means serving would be *wrong*, so it
/// refuses the request loudly instead.
enum ShardError {
    /// Connect/read/write failure — the shard may come back.
    Transient(String),
    /// The fleet is miswired (identity/seed/role mismatch, protocol
    /// skew); no amount of retrying makes merging sound.
    Fatal(String),
}

impl ShardError {
    fn into_message(self) -> String {
        match self {
            ShardError::Transient(m) | ShardError::Fatal(m) => m,
        }
    }
}

impl ShardPool {
    /// A pool over the configured fleet. No connections are made yet —
    /// the first fan-out pays for them (and verifies each handshake).
    pub fn new(config: &CoordConfig, metrics: Arc<CoordMetrics>) -> ShardPool {
        ShardPool {
            shards: config
                .shards
                .iter()
                .map(|a| ShardConn {
                    addr: a.clone(),
                    client: None,
                })
                .collect(),
            policy: config.connect,
            reply_timeout: config.shard_reply_timeout,
            seed: None,
            metrics,
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for an (invalid, rejected at config time) empty fleet.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Connect shard `i` if it isn't connected, verifying the handshake:
    /// protocol version (via [`Client::hello`]), role, and that the
    /// daemon's shard identity matches its position in the address list
    /// and the fleet's agreed seed. A daemon without a shard identity is
    /// accepted only as a single-member "fleet" (plain server behind the
    /// coordinator).
    fn ensure(&mut self, i: usize) -> Result<&mut Client, ShardError> {
        if self.shards[i].client.is_none() {
            let addr = self.shards[i].addr.clone();
            let mut client = Client::connect_with(addr.as_str(), &self.policy).map_err(|e| {
                ShardError::Transient(format!("shard {i} ({addr}): connect failed: {e}"))
            })?;
            client
                .set_read_timeout(Some(self.reply_timeout))
                .map_err(|e| ShardError::Transient(format!("shard {i} ({addr}): {e}")))?;
            let hello = client.hello().map_err(|e| match e {
                // A version mismatch comes back as a Protocol error —
                // skew never heals by redialing.
                rkranks_server::ClientError::Protocol(m) => {
                    ShardError::Fatal(format!("shard {i} ({addr}): {m}"))
                }
                e => ShardError::Transient(format!("shard {i} ({addr}): handshake failed: {e}")),
            })?;
            if hello.role == "coord" {
                return Err(ShardError::Fatal(format!(
                    "shard {i} ({addr}) is another coordinator — coordinators \
                     front rkrd shards, not each other"
                )));
            }
            match hello.shard {
                Some(id) => {
                    if id.shards as usize != self.shards.len() || id.index as usize != i {
                        return Err(ShardError::Fatal(format!(
                            "shard {i} ({addr}) identifies as shard {}/{} — the --shards \
                             list must name every shard once, in shard-id order",
                            id.index, id.shards
                        )));
                    }
                    if *self.seed.get_or_insert(id.seed) != id.seed {
                        return Err(ShardError::Fatal(format!(
                            "shard {i} ({addr}) was partitioned with seed {} but the fleet \
                             agreed on {} — all shards must share one shard-plan",
                            id.seed,
                            self.seed.unwrap()
                        )));
                    }
                }
                None if self.shards.len() == 1 => {}
                None => {
                    return Err(ShardError::Fatal(format!(
                        "shard {i} ({addr}) is not running with a shard identity \
                         (--shard-id/--shard-count); an unsharded daemon can only sit \
                         behind a single-shard coordinator"
                    )));
                }
            }
            self.metrics.graph_epoch.set(hello.graph_epoch);
            self.metrics.graph_nodes.set(hello.nodes);
            self.metrics.graph_edges.set(hello.edges);
            self.shards[i].client = Some(client);
        }
        Ok(self.shards[i].client.as_mut().unwrap())
    }

    /// Drop shard `i`'s connection so the next `ensure` redials it.
    fn disconnect(&mut self, i: usize) {
        self.shards[i].client = None;
    }

    /// One pipelined fan-out round: render `req` once, write the same
    /// bytes to every shard in `idxs`, then collect the replies in order.
    /// A shard that fails at either phase gets its connection dropped
    /// (the next round redials) and an `Err` slot; the round itself never
    /// fails.
    fn fan_out(&mut self, idxs: &[usize], req: &Request) -> Vec<Result<Reply, ShardError>> {
        self.metrics.fanouts.inc();
        self.metrics.fanout_width.record(idxs.len() as u64);
        let line = req.to_line();
        let mut slots: Vec<Slot> = Vec::with_capacity(idxs.len());
        for &i in idxs {
            let sent = self.ensure(i).and_then(|c| {
                c.send_line(&line)
                    .map_err(|e| ShardError::Transient(e.to_string()))
            });
            match sent {
                Ok(()) => slots.push(Slot::Sent(Instant::now())),
                Err(e) => {
                    self.disconnect(i);
                    if let Some(c) = self.metrics.shard_errors.get(i) {
                        c.inc();
                    }
                    slots.push(Slot::Failed(e));
                }
            }
        }
        idxs.iter()
            .zip(slots)
            .map(|(&i, slot)| match slot {
                Slot::Failed(e) => Err(e),
                Slot::Sent(start) => {
                    let got = self.shards[i]
                        .client
                        .as_mut()
                        .expect("sent on a live connection")
                        .recv();
                    self.metrics.record_shard(i, start.elapsed());
                    match got {
                        Ok(reply) => Ok(reply),
                        // The shard is healthy and *answered* with an
                        // error — that is a reply, not a dead peer.
                        Err(rkranks_server::ClientError::Server(msg)) => Ok(Reply::Error(msg)),
                        Err(e) => {
                            self.disconnect(i);
                            if let Some(c) = self.metrics.shard_errors.get(i) {
                                c.inc();
                            }
                            Err(ShardError::Transient(format!(
                                "shard {i} ({}): {e}",
                                self.shards[i].addr
                            )))
                        }
                    }
                }
            })
            .collect()
    }

    /// Scatter one query across the fleet and gather the exact merge.
    ///
    /// Transport-dead shards get one fresh-connection retry, then are
    /// soundly dropped (partial answer). Mixed graph epochs trigger a
    /// bounded flush-and-reask loop against the lagging shards only —
    /// fresh replies at the maximum epoch are kept, not recomputed.
    pub fn scatter_query(
        &mut self,
        node: u32,
        k: u32,
        cache: bool,
        strategy: Option<String>,
        deadline_ms: Option<u64>,
    ) -> Reply {
        let req = Request::Query {
            node,
            k,
            cache,
            strategy,
            deadline_ms,
        };
        let n = self.len();
        let mut replies: Vec<Option<QueryReply>> = (0..n).map(|_| None).collect();
        let mut dead: Vec<String> = Vec::new();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut transport_retry_spent = false;
        let mut epoch_rounds = 0u32;
        loop {
            let mut failed = Vec::new();
            for (&i, result) in pending.iter().zip(self.fan_out(&pending, &req)) {
                match result {
                    Ok(Reply::Query(q)) => replies[i] = Some(q),
                    Ok(Reply::Error(e)) => return Reply::Error(format!("shard {i}: {e}")),
                    Ok(_) => {
                        return Reply::Error(format!(
                            "shard {i} ({}): unexpected reply shape to a query",
                            self.shards[i].addr
                        ))
                    }
                    Err(ShardError::Fatal(e)) => return Reply::Error(e),
                    Err(ShardError::Transient(e)) => failed.push((i, e)),
                }
            }
            if !failed.is_empty() && !transport_retry_spent {
                // One fresh-connection retry for the whole failed set.
                transport_retry_spent = true;
                pending = failed.iter().map(|&(i, _)| i).collect();
                continue;
            }
            dead.extend(failed.into_iter().map(|(_, e)| e));
            let live: Vec<(usize, &QueryReply)> = replies
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|q| (i, q)))
                .collect();
            if live.is_empty() {
                return Reply::Error(format!("no shard reachable: {}", dead.join("; ")));
            }
            let max_epoch = live.iter().map(|(_, q)| q.graph_epoch).max().unwrap();
            let lagging: Vec<usize> = live
                .iter()
                .filter(|(_, q)| q.graph_epoch < max_epoch)
                .map(|&(i, _)| i)
                .collect();
            if lagging.is_empty() {
                self.metrics.graph_epoch.set(max_epoch);
                return self.merge_query(&replies, k, &dead);
            }
            if epoch_rounds >= EPOCH_RETRIES {
                return Reply::Error(format!(
                    "shard graph epochs diverged (behind: {lagging:?}, epoch {max_epoch} \
                     elsewhere) and did not converge after {EPOCH_RETRIES} flush rounds — \
                     are writes bypassing the coordinator?"
                ));
            }
            // A lagging shard holds the missing commits as staged deltas
            // (writes broadcast through the coordinator); flushing forces
            // the commit, then only the laggards are re-asked.
            self.metrics.epoch_retries.inc();
            epoch_rounds += 1;
            for r in self.fan_out(&lagging, &Request::Flush) {
                // A flush failure surfaces as a dead shard on the re-ask.
                let _ = r;
            }
            for &i in &lagging {
                replies[i] = None;
            }
            pending = lagging;
        }
    }

    /// Merge per-shard query replies into the global answer. Ownership
    /// partitions candidates, so concatenate + sort `(rank, node)` +
    /// truncate is the exact single-box result (module docs prove it).
    fn merge_query(&self, replies: &[Option<QueryReply>], k: u32, dead: &[String]) -> Reply {
        let live: Vec<&QueryReply> = replies.iter().flatten().collect();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for q in &live {
            entries.extend(q.entries.iter().copied());
        }
        self.metrics.candidates_received.add(entries.len() as u64);
        entries.sort_by_key(|&(node, rank)| (rank, node));
        entries.truncate(k as usize);
        self.metrics.candidates_returned.add(entries.len() as u64);
        let partial = !dead.is_empty() || live.iter().any(|q| q.partial);
        if partial {
            self.metrics.partials.inc();
        }
        Reply::Query(QueryReply {
            entries,
            cached: live.iter().all(|q| q.cached),
            epoch: live.iter().map(|q| q.epoch).max().unwrap_or(0),
            graph_epoch: live.iter().map(|q| q.graph_epoch).max().unwrap_or(0),
            partial,
        })
    }

    /// Scatter a batch and merge each node's per-shard lists. Batches
    /// have no partial channel on the wire, so any shard failure fails
    /// the batch loudly (single queries degrade instead).
    pub fn scatter_batch(&mut self, nodes: &[u32], k: u32) -> Reply {
        let req = Request::Batch {
            nodes: nodes.to_vec(),
            k,
        };
        let all: Vec<usize> = (0..self.len()).collect();
        let mut batches = Vec::with_capacity(self.len());
        for (&i, result) in all.iter().zip(self.fan_out(&all, &req)) {
            match result {
                Ok(Reply::Batch(b)) if b.results.len() == nodes.len() => batches.push(b),
                Ok(Reply::Batch(_)) => {
                    return Reply::Error(format!("shard {i}: batch reply length mismatch"))
                }
                Ok(Reply::Error(e)) => return Reply::Error(format!("shard {i}: {e}")),
                Ok(_) => {
                    return Reply::Error(format!(
                        "shard {i} ({}): unexpected reply shape to a batch",
                        self.shards[i].addr
                    ))
                }
                Err(e) => return Reply::Error(e.into_message()),
            }
        }
        let epochs: Vec<u64> = batches.iter().map(|b| b.graph_epoch).collect();
        if epochs.iter().any(|&e| e != epochs[0]) {
            // Unlike single queries there is no sound per-node retry (a
            // shard's reported epoch covers only its *last* answer), so
            // a batch overlapping a commit fails rather than merge
            // entries computed on different graphs.
            return Reply::Error(
                "batch overlapped a graph commit (shard epochs diverged); retry the batch".into(),
            );
        }
        let mut results: Vec<Vec<(u32, u32)>> = Vec::with_capacity(nodes.len());
        for slot in 0..nodes.len() {
            let mut entries: Vec<(u32, u32)> = Vec::new();
            for b in &batches {
                entries.extend(b.results[slot].iter().copied());
            }
            self.metrics.candidates_received.add(entries.len() as u64);
            entries.sort_by_key(|&(node, rank)| (rank, node));
            entries.truncate(k as usize);
            self.metrics.candidates_returned.add(entries.len() as u64);
            results.push(entries);
        }
        Reply::Batch(rkranks_server::BatchReply {
            results,
            // The merged answer is cache-served only where every shard's
            // was; the minimum is that count's tight upper bound.
            cached: batches.iter().map(|b| b.cached).min().unwrap_or(0),
            epoch: batches.iter().map(|b| b.epoch).max().unwrap_or(0),
            graph_epoch: epochs.first().copied().unwrap_or(0),
        })
    }

    /// Broadcast a request that must succeed on *every* shard (update /
    /// flush / checkpoint / shutdown fan-out). Returns the per-shard
    /// replies, or the loud error naming which shards failed — in which
    /// case the caller must assume the fleet is no longer uniform.
    pub fn broadcast(&mut self, req: &Request) -> Result<Vec<Reply>, String> {
        let all: Vec<usize> = (0..self.len()).collect();
        let mut replies = Vec::with_capacity(self.len());
        let mut errors = Vec::new();
        for (&i, result) in all.iter().zip(self.fan_out(&all, req)) {
            match result {
                Ok(Reply::Error(e)) => errors.push(format!("shard {i}: {e}")),
                Ok(r) => replies.push(r),
                Err(e) => errors.push(e.into_message()),
            }
        }
        if errors.is_empty() {
            Ok(replies)
        } else {
            Err(errors.join("; "))
        }
    }
}
