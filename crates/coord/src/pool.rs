//! The per-worker shard pool: one [`Client`] per shard, connected
//! lazily with retry/backoff, handshake-verified, and driven as a
//! pipelined fan-out unit.
//!
//! ## Why one reply is the answer
//!
//! Every shard is a full replica: it loads the whole graph and answers
//! every query over the whole candidate set, so each reply is already
//! the single-box answer *for the graph epoch it carries*. The pool asks
//! every live replica, keeps the replies at the highest graph epoch,
//! prefers a complete reply to a deadline-cut one, and returns the
//! lowest-index such reply. Every complete reply must carry the same rank
//! sequence: Definition 2 leaves the choice among nodes tied at the k-th
//! rank free, but not the ranks, so replicas whose ranks differ are
//! refused with an error naming both, never answered from one side.
//!
//! A replica behind the highest epoch holds the missing commits as
//! staged deltas (writes broadcast through the coordinator). It is
//! flushed so the next request finds the fleet aligned, but not re-asked:
//! a replica at the highest epoch has already answered.
//!
//! ## Degradation
//!
//! A replica that cannot be reached is skipped. Any live replica's
//! answer is complete, so a dead replica never makes an answer
//! [`partial`](rkranks_server::QueryReply::partial) — `partial: true`
//! means a deadline cut the answer short. Only when no replica answers
//! is the failed set redialed once before the request fails. Batches
//! skip dead replicas the same way, but fail when their live replies
//! carry different graph epochs (a batch reply's epoch covers only its
//! last answer, so no per-node realignment is sound).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rkranks_server::{BatchReply, Client, HelloReply, Reply, Request};

use crate::metrics::CoordMetrics;
use crate::CoordConfig;

/// Connect attempts per shard (re)dial, with the client's backoff between
/// them, before the shard counts as down for this fan-out.
const CONNECT_ATTEMPTS: u32 = 3;

/// One shard endpoint: its address and the (lazily established,
/// re-established after failures) connection.
struct ShardConn {
    addr: String,
    client: Option<Client>,
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
    metrics: Arc<CoordMetrics>,
}

/// Why a shard slot failed: transient transport trouble skips the
/// replica (another live one answers); a fatal misconfiguration (failed
/// handshake verification) means serving would be *wrong*, so it refuses
/// the request loudly instead.
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
    pub(crate) fn new(config: &CoordConfig, metrics: Arc<CoordMetrics>) -> ShardPool {
        ShardPool {
            shards: config
                .shards
                .iter()
                .map(|a| ShardConn {
                    addr: a.clone(),
                    client: None,
                })
                .collect(),
            reply_timeout: config.shard_reply_timeout,
            seed: None,
            metrics,
        }
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
            self.note_graph(&hello);
            self.shards[i].client = Some(client);
        }
        Ok(self.shards[i].client.as_mut().unwrap())
    }

    /// Record a replica's graph (epoch, nodes, edges) as the fleet's.
    fn note_graph(&self, hello: &HelloReply) {
        self.metrics.graph_epoch.set(hello.graph_epoch);
        self.metrics.graph_nodes.set(hello.nodes);
        self.metrics.graph_edges.set(hello.edges);
    }

    /// Read the fleet's graph back after a commit: one `hello` round, the
    /// live replica at the highest graph epoch speaking for the fleet. A
    /// round no replica answers leaves the gauges as they were.
    pub(crate) fn refresh_graph(&mut self) {
        let hellos = self.gather(&Request::Hello, |r| match r {
            Reply::Hello(h) => Some(h),
            _ => None,
        });
        if let Some((_, newest)) = hellos.iter().flatten().max_by_key(|(_, h)| h.graph_epoch) {
            self.note_graph(newest);
        }
    }

    /// Count a transport failure on shard `i` and drop its connection so
    /// the next `ensure` redials it.
    fn fail(&mut self, i: usize) {
        self.metrics.shard_errors[i].inc();
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
        // Per shard: when the request was written (a reply is owed), or
        // why connecting or writing failed.
        let mut sent: Vec<Result<Instant, ShardError>> = Vec::with_capacity(idxs.len());
        for &i in idxs {
            let wrote = self.ensure(i).and_then(|c| {
                c.send_line(&line)
                    .map_err(|e| ShardError::Transient(e.to_string()))
            });
            if wrote.is_err() {
                self.fail(i);
            }
            sent.push(wrote.map(|()| Instant::now()));
        }
        idxs.iter()
            .zip(sent)
            .map(|(&i, slot)| match slot {
                Err(e) => Err(e),
                Ok(start) => {
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
                            self.fail(i);
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

    /// Ask every live replica `req` and return what `extract` takes from
    /// each reply, in shard order. A replica with transport trouble is
    /// skipped; only when none answered is the failed set redialed, once.
    /// A replica answering with an error or a reply `extract` refuses, or
    /// a miswired fleet, fails the request.
    fn gather<T>(
        &mut self,
        req: &Request,
        extract: impl Fn(Reply) -> Option<T>,
    ) -> Result<Vec<(usize, T)>, String> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let mut dead = Vec::new();
        for _ in 0..2 {
            dead.clear();
            let mut live = Vec::new();
            for (&i, result) in all.iter().zip(self.fan_out(&all, req)) {
                match result {
                    Ok(Reply::Error(e)) => return Err(format!("shard {i}: {e}")),
                    Ok(reply) => match extract(reply) {
                        Some(answer) => live.push((i, answer)),
                        None => {
                            return Err(format!(
                                "shard {i} ({}): unexpected reply shape",
                                self.shards[i].addr
                            ))
                        }
                    },
                    Err(ShardError::Fatal(e)) => return Err(e),
                    Err(ShardError::Transient(e)) => dead.push(e),
                }
            }
            if !live.is_empty() {
                return Ok(live);
            }
        }
        Err(format!("no shard reachable: {}", dead.join("; ")))
    }

    /// Answer one query from the fleet: the lowest-index complete reply
    /// at the highest graph epoch, once every complete reply agrees on
    /// the ranks (module docs). Laggards are flushed, not re-asked.
    pub(crate) fn scatter_query(
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
        let mut answers = match self.gather(&req, |r| match r {
            Reply::Query(q) => Some(q),
            _ => None,
        }) {
            Ok(answers) => answers,
            Err(e) => return Reply::Error(e),
        };
        let received: usize = answers.iter().map(|(_, q)| q.entries.len()).sum();
        self.metrics.candidates_received.add(received as u64);
        let max_epoch = answers
            .iter()
            .map(|(_, q)| q.graph_epoch)
            .max()
            .expect("gather returns at least one reply");
        let lagging: Vec<usize> = answers
            .iter()
            .filter(|(_, q)| q.graph_epoch < max_epoch)
            .map(|&(i, _)| i)
            .collect();
        if !lagging.is_empty() {
            // A flush failure shows up as a dead replica next time.
            self.metrics.epoch_retries.inc();
            let _ = self.fan_out(&lagging, &Request::Flush);
            answers.retain(|(_, q)| q.graph_epoch == max_epoch);
        }
        self.metrics.graph_epoch.set(max_epoch);

        let pick = answers.iter().position(|(_, q)| !q.partial).unwrap_or(0);
        let (first, chosen) = &answers[pick];
        // Finds nothing when `chosen` is partial: then no reply is complete.
        let rival = answers
            .iter()
            .find(|(_, q)| !q.partial && !same_ranks(&q.entries, &chosen.entries));
        if let Some((other, _)) = rival {
            return disagreement(*first, *other, max_epoch);
        }
        self.metrics
            .candidates_returned
            .add(chosen.entries.len() as u64);
        if chosen.partial {
            self.metrics.partials.inc();
        }
        Reply::Query(answers.swap_remove(pick).1)
    }

    /// Answer a batch from the fleet: the lowest-index live reply, once
    /// every live reply is at the same graph epoch and agrees on every
    /// node's ranks.
    pub(crate) fn scatter_batch(&mut self, nodes: &[u32], k: u32) -> Reply {
        let req = Request::Batch {
            nodes: nodes.to_vec(),
            k,
        };
        let mut batches = match self.gather(&req, |r| match r {
            Reply::Batch(b) if b.results.len() == nodes.len() => Some(b),
            _ => None,
        }) {
            Ok(batches) => batches,
            Err(e) => return Reply::Error(e),
        };
        let entries = |b: &BatchReply| -> usize { b.results.iter().map(Vec::len).sum() };
        let received: usize = batches.iter().map(|(_, b)| entries(b)).sum();
        self.metrics.candidates_received.add(received as u64);
        let (first, chosen) = &batches[0];
        for (i, b) in &batches[1..] {
            if b.graph_epoch != chosen.graph_epoch {
                return Reply::Error(
                    "batch overlapped a graph commit (shard epochs diverged); retry the batch"
                        .into(),
                );
            }
            if !b
                .results
                .iter()
                .zip(&chosen.results)
                .all(|(x, y)| same_ranks(x, y))
            {
                return disagreement(*first, *i, chosen.graph_epoch);
            }
        }
        self.metrics.candidates_returned.add(entries(chosen) as u64);
        Reply::Batch(batches.swap_remove(0).1)
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

/// Whether two answers carry the same rank sequence. Node ids may differ
/// among nodes tied at the k-th rank (Definition 2); ranks may not.
fn same_ranks(a: &[(u32, u32)], b: &[(u32, u32)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.1 == y.1)
}

fn disagreement(a: usize, b: usize, graph_epoch: u64) -> Reply {
    Reply::Error(format!(
        "shards {a} and {b} disagree on the ranks at graph epoch {graph_epoch}: \
         the replicas do not serve the same graph"
    ))
}
