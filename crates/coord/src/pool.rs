//! The per-worker replica pool: one [`Client`] per replica, connected
//! lazily with retry/backoff and verified by its `hello`.
//!
//! ## One replica answers each read
//!
//! Every shard is a full replica: it loads the whole graph and answers
//! every query over the whole candidate set, so one reply is already the
//! single-box answer *for the graph epoch it carries*. A query or a batch
//! therefore goes to one replica, the lowest-index live one. A transport
//! failure moves it to the next replica in index order; only when no
//! replica answers is the fleet redialed once before the request fails.
//! Any live replica's answer is complete, so a dead replica never makes
//! an answer [`partial`](rkranks_server::QueryReply::partial) —
//! `partial: true` means a deadline cut the answer short.
//!
//! ## Epochs
//!
//! The pool remembers the graph epoch each live replica last reported,
//! in a `hello` or a reply; the newest is the fleet's. A reply below it
//! comes from a replica that holds the missing commits as staged deltas
//! (writes broadcast through the coordinator), so that replica gets one
//! flush and one re-ask. If it is still behind, it is skipped and the
//! next replica is asked.
//!
//! ## Which graph
//!
//! A replica's `hello` carries its graph digest
//! ([`rkranks_graph::Graph::digest`]). The pool compares the digests of
//! every replica at the newest graph epoch on its first read, in the
//! `hello` round after every write, and on every (re)dial. Replicas that
//! disagree fail the request with an error naming both, and every later
//! read repeats the check (and fails) until a `hello` round finds the
//! fleet agreeing. So a miswired fleet is refused before it answers
//! anything, not when some query happens to expose it.
//!
//! ## Why the lowest index, not the owner
//!
//! Routing each query to its node's owner under the fleet's
//! [`ShardMap`](rkranks_graph::ShardMap) (ROADMAP item 4) only changes
//! where the failover order starts. It waits for the benchmark to be
//! re-levelled (ROADMAP item 1(h)): `fleet_scatter`'s traced probe asks
//! shard 0 directly for a hot key that shard 1 owns, and finds it cached
//! only because shard 0 answers every read.

use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use rkranks_server::{BatchReply, Client, ClientError, HelloReply, QueryReply, Reply, Request};

use crate::metrics::CoordMetrics;
use crate::CoordConfig;

/// Connect attempts per shard (re)dial, with the client's backoff between
/// them, before the shard counts as down for this request.
const CONNECT_ATTEMPTS: u32 = 3;

/// The graph a replica last reported: its graph epoch, and its digest when
/// a `hello` reported one at that epoch (a reply can move the epoch on
/// without one).
#[derive(Clone, Copy)]
struct ReplicaGraph {
    epoch: u64,
    digest: Option<u64>,
}

/// One shard endpoint: its address, the (lazily established,
/// re-established after failures) connection, and the graph it reported
/// while reachable.
struct ShardConn {
    addr: String,
    client: Option<Client>,
    graph: Option<ReplicaGraph>,
}

/// A verified connection pool over the whole fleet, owned by one
/// reactor worker (workers don't share sockets, so no locking on the hot
/// path).
pub(crate) struct ShardPool {
    shards: Vec<ShardConn>,
    reply_timeout: Duration,
    /// Shard seed agreed at the first verified handshake; later
    /// handshakes must match it.
    seed: Option<u64>,
    /// A `hello` round found the fleet on one graph, and no disagreement
    /// has been seen since. Reads run a round first while it is `false`.
    verified: bool,
    metrics: Arc<CoordMetrics>,
}

/// Why a shard slot failed: transient transport trouble skips the
/// replica (another live one answers); a fatal error fails the request
/// as it is.
enum ShardError {
    /// Connect/read/write failure — the shard may come back.
    Transient(String),
    /// The fleet is miswired (identity/seed/role mismatch, protocol skew,
    /// replicas on different graphs), or the replica answered with an
    /// error that any replica would give.
    Fatal(String),
}

impl ShardError {
    fn into_message(self) -> String {
        match self {
            ShardError::Transient(m) | ShardError::Fatal(m) => m,
        }
    }
}

/// A read reply: the graph epoch it was computed at and its entry count.
trait Answer {
    fn graph_epoch(&self) -> u64;
    fn entries(&self) -> usize;
}

impl Answer for QueryReply {
    fn graph_epoch(&self) -> u64 {
        self.graph_epoch
    }
    fn entries(&self) -> usize {
        self.entries.len()
    }
}

impl Answer for BatchReply {
    fn graph_epoch(&self) -> u64 {
        self.graph_epoch
    }
    fn entries(&self) -> usize {
        self.results.iter().map(Vec::len).sum()
    }
}

impl ShardPool {
    /// A pool over the configured fleet. No connections are made yet —
    /// the first read pays for them (and verifies each handshake).
    pub(crate) fn new(config: &CoordConfig, metrics: Arc<CoordMetrics>) -> ShardPool {
        ShardPool {
            shards: config
                .shards
                .iter()
                .map(|a| ShardConn {
                    addr: a.clone(),
                    client: None,
                    graph: None,
                })
                .collect(),
            reply_timeout: config.shard_reply_timeout,
            seed: None,
            verified: false,
            metrics,
        }
    }

    /// Connect shard `i` if it isn't connected, verifying the handshake:
    /// protocol version (via [`Client::hello`]), role, that the daemon's
    /// shard identity matches its position in the address list and the
    /// fleet's agreed seed, and that its graph agrees with the other
    /// replicas at the newest graph epoch. A daemon without a shard
    /// identity is accepted only as a single-member "fleet" (plain server
    /// behind the coordinator).
    fn ensure(&mut self, i: usize) -> Result<&mut Client, ShardError> {
        if self.shards[i].client.is_none() {
            let addr = self.shards[i].addr.clone();
            let mut client =
                Client::connect_retrying(addr.as_str(), CONNECT_ATTEMPTS).map_err(|e| {
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
                            "shard {i} ({addr}) announces map seed {} but the fleet \
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
            self.record(i, &hello)?;
            self.verify()?;
            self.shards[i].client = Some(client);
        }
        Ok(self.shards[i].client.as_mut().unwrap())
    }

    /// The newest graph epoch any live replica has reported.
    fn fleet_epoch(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.graph.map(|g| g.epoch))
            .max()
            .unwrap_or(0)
    }

    /// Remember the graph replica `i`'s `hello` reports, and the fleet's
    /// node and edge counts when it is at the newest graph epoch.
    fn record(&mut self, i: usize, hello: &HelloReply) -> Result<(), ShardError> {
        let digest = hello.graph_digest.ok_or_else(|| {
            ShardError::Fatal(format!(
                "shard {i} ({}) announced no graph digest",
                self.shards[i].addr
            ))
        })?;
        self.shards[i].graph = Some(ReplicaGraph {
            epoch: hello.graph_epoch,
            digest: Some(digest),
        });
        if hello.graph_epoch == self.fleet_epoch() {
            self.metrics.graph_nodes.set(hello.nodes);
            self.metrics.graph_edges.set(hello.edges);
        }
        Ok(())
    }

    /// Check that every replica at the newest graph epoch reported one
    /// digest, and publish the fleet's epoch and digest. On disagreement
    /// the pool is unverified until a `hello` round agrees again.
    fn verify(&mut self) -> Result<(), ShardError> {
        let newest = self.fleet_epoch();
        let mut agreed: Option<(usize, u64)> = None;
        for (i, s) in self.shards.iter().enumerate() {
            let Some(ReplicaGraph {
                epoch,
                digest: Some(digest),
            }) = s.graph
            else {
                continue;
            };
            match agreed {
                _ if epoch != newest => {}
                None => agreed = Some((i, digest)),
                Some((first, d)) if d != digest => {
                    self.verified = false;
                    return Err(ShardError::Fatal(format!(
                        "shards {first} and {i} disagree on the graph at graph epoch {newest} \
                         (digests {d:016x} and {digest:016x}): the replicas do not serve the \
                         same graph"
                    )));
                }
                Some(_) => {}
            }
        }
        self.metrics.graph_epoch.set(newest);
        if let Some((_, digest)) = agreed {
            *self
                .metrics
                .graph_digest
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(digest);
        }
        Ok(())
    }

    /// One `hello` round over the fleet: record every reachable replica's
    /// graph and check that those at the newest graph epoch agree. An
    /// unreachable replica is skipped (its redial checks it); the round
    /// fails when the replicas disagree or none answers. Reads run one
    /// first while the pool is unverified, and every write runs one after
    /// its commit, which also reads the fleet's graph back.
    pub(crate) fn hello_round(&mut self) -> Result<(), String> {
        self.verified = false;
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let mut dead = Vec::new();
        for (&i, result) in all.iter().zip(self.fan_out(&all, &Request::Hello)) {
            match result {
                Ok(Reply::Hello(hello)) => {
                    self.record(i, &hello).map_err(ShardError::into_message)?
                }
                Ok(other) => {
                    return Err(format!("shard {i}: unexpected reply to hello: {other:?}"))
                }
                Err(ShardError::Fatal(e)) => return Err(e),
                Err(ShardError::Transient(e)) => dead.push(e),
            }
        }
        if dead.len() == all.len() {
            return Err(format!("no shard reachable: {}", dead.join("; ")));
        }
        self.verify().map_err(ShardError::into_message)?;
        self.verified = true;
        Ok(())
    }

    /// Count a transport failure on shard `i`, drop its connection so the
    /// next `ensure` redials it, and forget its graph: a dead replica's
    /// epoch is not the fleet's.
    fn fail(&mut self, i: usize) {
        self.metrics.shard_errors[i].inc();
        self.shards[i].client = None;
        self.shards[i].graph = None;
    }

    /// One pipelined round over the whole fleet: write `req` to every
    /// shard in `idxs`, then collect the replies in order. A shard that
    /// fails at either phase gets its connection dropped (the next round
    /// redials) and an `Err` slot; the round itself never fails.
    fn fan_out(&mut self, idxs: &[usize], req: &Request) -> Vec<Result<Reply, ShardError>> {
        self.metrics.fanout_width.record(idxs.len() as u64);
        // Per shard: when the request was written (a reply is owed), or
        // why connecting or writing failed.
        let sent: Vec<_> = idxs.iter().map(|&i| self.send(i, req)).collect();
        idxs.iter()
            .zip(sent)
            .map(|(&i, slot)| self.collect(i, slot?))
            .collect()
    }

    /// Send `req` to replica `i` alone and read its reply: a read, or the
    /// flush of a replica behind the fleet's epoch.
    fn ask(&mut self, i: usize, req: &Request) -> Result<Reply, ShardError> {
        self.metrics.fanout_width.record(1);
        let start = self.send(i, req)?;
        self.collect(i, start)
    }

    /// Write `req` to replica `i` through its client's kept buffer,
    /// connecting first if needed: when it was written, or why connecting
    /// or writing failed (the replica is failed then).
    fn send(&mut self, i: usize, req: &Request) -> Result<Instant, ShardError> {
        let failed = match self.ensure(i).map(|c| c.send(req)) {
            Ok(Ok(())) => return Ok(Instant::now()),
            Ok(Err(e)) => {
                ShardError::Transient(format!("shard {i} ({}): {e}", self.shards[i].addr))
            }
            Err(e) => e,
        };
        self.fail(i);
        Err(failed)
    }

    /// Read replica `i`'s reply to a request written at `start`, timing
    /// the wait. A replica that answered with an error gave a reply, not a
    /// dead peer; any other failure fails the replica.
    fn collect(&mut self, i: usize, start: Instant) -> Result<Reply, ShardError> {
        let got = self.shards[i]
            .client
            .as_mut()
            .expect("sent on a live connection")
            .recv();
        self.metrics.record_shard(i, start.elapsed());
        match got {
            Ok(reply) => Ok(reply),
            Err(ClientError::Server(msg)) => Ok(Reply::Error(msg)),
            Err(e) => {
                self.fail(i);
                Err(ShardError::Transient(format!(
                    "shard {i} ({}): {e}",
                    self.shards[i].addr
                )))
            }
        }
    }

    /// Ask replica `i` for a read: its answer, or `None` when the answer
    /// is still behind the fleet's graph epoch after one flush.
    fn read_from<A: Answer>(
        &mut self,
        i: usize,
        req: &Request,
        extract: &impl Fn(Reply) -> Option<A>,
    ) -> Result<Option<A>, ShardError> {
        for flushed in [false, true] {
            let answer = match self.ask(i, req)? {
                Reply::Error(e) => return Err(ShardError::Fatal(format!("shard {i}: {e}"))),
                reply => extract(reply).ok_or_else(|| {
                    ShardError::Fatal(format!(
                        "shard {i} ({}): unexpected reply shape",
                        self.shards[i].addr
                    ))
                })?,
            };
            self.metrics
                .candidates_received
                .add(answer.entries() as u64);
            let epoch = answer.graph_epoch();
            let graph = &mut self.shards[i].graph;
            if graph.is_none_or(|g| g.epoch < epoch) {
                // A commit no `hello` has reported yet: its digest is
                // checked by the next `hello` round or redial.
                *graph = Some(ReplicaGraph {
                    epoch,
                    digest: None,
                });
                self.metrics.graph_epoch.set(self.fleet_epoch());
            }
            if epoch >= self.fleet_epoch() {
                return Ok(Some(answer));
            }
            if !flushed {
                // The replica holds the missing commits staged; a flush
                // error shows up in the re-ask.
                self.metrics.epoch_retries.inc();
                self.ask(i, &Request::Flush)?;
            }
        }
        Ok(None)
    }

    /// Answer a read from one replica: the lowest-index live one at the
    /// fleet's graph epoch (module docs). A replica answering with an
    /// error, or a miswired fleet, fails the request.
    fn read<A: Answer>(
        &mut self,
        req: &Request,
        extract: impl Fn(Reply) -> Option<A>,
    ) -> Result<A, String> {
        if !self.verified {
            self.hello_round()?;
        }
        let mut dead = Vec::new();
        // The second pass redials the replicas the first found dead.
        for _ in 0..2 {
            dead.clear();
            for i in 0..self.shards.len() {
                match self.read_from(i, req, &extract) {
                    Ok(Some(answer)) => return Ok(answer),
                    Ok(None) => {}
                    Err(ShardError::Fatal(e)) => return Err(e),
                    Err(ShardError::Transient(e)) => dead.push(e),
                }
            }
            if dead.is_empty() {
                return Err(format!(
                    "no replica answered at graph epoch {}",
                    self.fleet_epoch()
                ));
            }
        }
        Err(format!("no shard reachable: {}", dead.join("; ")))
    }

    /// Answer one query from one replica.
    pub(crate) fn query(
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
        let answer = self.read(&req, |r| match r {
            Reply::Query(q) => Some(q),
            _ => None,
        });
        match answer {
            Ok(q) => {
                self.metrics.candidates_returned.add(q.entries.len() as u64);
                if q.partial {
                    self.metrics.partials.inc();
                }
                Reply::Query(q)
            }
            Err(e) => Reply::Error(e),
        }
    }

    /// Answer a batch from one replica: `rkrd` answers a whole batch from
    /// one graph epoch.
    pub(crate) fn batch(&mut self, nodes: &[u32], k: u32) -> Reply {
        let req = Request::Batch {
            nodes: nodes.to_vec(),
            k,
        };
        let answer = self.read(&req, |r| match r {
            Reply::Batch(b) if b.results.len() == nodes.len() => Some(b),
            _ => None,
        });
        match answer {
            Ok(b) => {
                self.metrics.candidates_returned.add(b.entries() as u64);
                Reply::Batch(b)
            }
            Err(e) => Reply::Error(e),
        }
    }

    /// Broadcast a request that must succeed on *every* shard (update /
    /// flush / checkpoint / shutdown fan-out). Returns the per-shard
    /// replies, or the loud error naming which shards failed — in which
    /// case the caller must assume the fleet is no longer uniform.
    pub(crate) fn broadcast(&mut self, req: &Request) -> Result<Vec<Reply>, String> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let mut replies = Vec::with_capacity(self.shards.len());
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
