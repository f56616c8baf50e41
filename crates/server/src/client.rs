//! A blocking client for the `rkrd` protocol.
//!
//! One [`Client`] wraps one TCP connection; requests on it are answered in
//! order. It is deliberately synchronous — callers that want concurrency
//! open one client per thread, exactly like the daemon's workers own one
//! connection each.
//!
//! A reply line longer than [`MAX_REPLY_BYTES`] is refused, so a peer that
//! streams bytes without a newline cannot grow the client's buffer until
//! memory runs out.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rkranks_core::MetricsSnapshot;
use rkranks_graph::GraphDelta;

use crate::protocol::{
    BatchReply, HelloReply, QueryReply, Reply, Request, SlowQueryRecord, StatsReply,
    PROTOCOL_VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or could not be established).
    Io(io::Error),
    /// The server answered, but not in the protocol's shape.
    Protocol(String),
    /// The server reported the request failed (`{"ok":false,...}`).
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Per-query options for [`Client::query_opts`] — the remote face of
/// [`rkranks_core::QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// Consult/populate the server-side result cache (default `true`).
    pub cache: bool,
    /// Best-effort server-side deadline in milliseconds; an exceeded
    /// deadline answers with a partial result
    /// ([`crate::protocol::QueryReply::partial`]).
    pub deadline_ms: Option<u64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            cache: true,
            deadline_ms: None,
        }
    }
}

/// The longest reply line (newline excluded) a client reads. A longer
/// line is a [`ClientError::Protocol`] naming the cap, and the connection
/// should be dropped. For scale, a 1,000-node `batch` reply at `k = 10`
/// is about 130 KB.
pub const MAX_REPLY_BYTES: usize = 64 << 20;

/// Read one line from `reader` into `line` (cleared first, newline kept),
/// refusing a line longer than `cap` bytes before its newline. Returns
/// the bytes read; 0 means the peer closed the connection.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, ClientError> {
    line.clear();
    let n = reader.take(cap as u64 + 1).read_until(b'\n', line)?;
    if n > cap && line.last() != Some(&b'\n') {
        return Err(ClientError::Protocol(format!(
            "reply line exceeds {cap} bytes"
        )));
    }
    Ok(n)
}

/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Sleep before the second connect attempt; doubles per retry.
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// Ceiling on the sleep between connect attempts.
const MAX_CONNECT_BACKOFF: Duration = Duration::from_secs(2);

/// The backoff to sleep after failed connect attempt `attempt` (0-based).
fn backoff_after(attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(16);
    CONNECT_BACKOFF
        .saturating_mul(factor)
        .min(MAX_CONNECT_BACKOFF)
}

/// A blocking connection to an `rkrd` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request being written, reused across sends.
    out: Vec<u8>,
    /// The reply being read, reused across receives.
    line: Vec<u8>,
}

impl Client {
    /// Connect to a daemon in one attempt (5 s timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_retrying(addr, 1)
    }

    /// Connect in up to `attempts` attempts: each resolved address is
    /// tried with a 5 s timeout, and the whole set is retried with
    /// exponential backoff (50 ms, doubling, at most 2 s) in between. A
    /// dead peer fails the caller within
    /// `attempts × timeout + Σ backoff`.
    pub fn connect_retrying(addr: impl ToSocketAddrs, attempts: u32) -> io::Result<Client> {
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut last_err = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff_after(attempt - 1));
            }
            for a in &addrs {
                match TcpStream::connect_timeout(a, CONNECT_TIMEOUT) {
                    Ok(stream) => {
                        stream.set_nodelay(true)?;
                        let writer = stream.try_clone()?;
                        return Ok(Client {
                            reader: BufReader::new(stream),
                            writer,
                            out: Vec::new(),
                            line: Vec::new(),
                        });
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "connect attempts exhausted")
        }))
    }

    /// Bound how long a single reply read may block (`None` removes the
    /// bound). Pool callers set this so a wedged shard surfaces as a
    /// timeout error instead of a hang.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send `req` without waiting for the reply — half of a pipelined
    /// exchange; pair each send with one [`Client::recv`] in order.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.out.clear();
        req.write_line(&mut self.out);
        self.writer.write_all(&self.out)?;
        self.writer.flush()?;
        Ok(())
    }

    /// [`Client::send`] for a line written beforehand, byte for byte —
    /// one [`Request::to_line`] rendered, or one no encoder would write.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        debug_assert!(line.ends_with('\n'), "a request line ends in a newline");
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read the next reply line (the other half of a pipelined
    /// exchange). Server-side failures come back as
    /// [`ClientError::Server`], exactly like [`Client::query`] and
    /// friends.
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        let line = self.read_reply()?;
        match Reply::from_line(line) {
            Ok(Reply::Error(msg)) => Err(ClientError::Server(msg)),
            Ok(reply) => Ok(reply),
            Err(msg) => Err(ClientError::Protocol(msg)),
        }
    }

    /// Read the next reply line into the kept buffer, at most
    /// [`MAX_REPLY_BYTES`] long.
    fn read_reply(&mut self) -> Result<&str, ClientError> {
        if read_line_capped(&mut self.reader, &mut self.line, MAX_REPLY_BYTES)? == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        std::str::from_utf8(&self.line)
            .map_err(|e| ClientError::Protocol(format!("reply is not UTF-8: {e}")))
    }

    fn round_trip(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// One reverse k-ranks query with the default options.
    pub fn query(&mut self, node: u32, k: u32) -> Result<QueryReply, ClientError> {
        self.query_opts(node, k, &QueryOptions::default())
    }

    /// One reverse k-ranks query with explicit [`QueryOptions`]: cache
    /// use and a deadline travel over the wire; the daemon picks the
    /// strategy (it serves one).
    pub fn query_opts(
        &mut self,
        node: u32,
        k: u32,
        opts: &QueryOptions,
    ) -> Result<QueryReply, ClientError> {
        let req = Request::Query {
            node,
            k,
            cache: opts.cache,
            strategy: None,
            deadline_ms: opts.deadline_ms,
        };
        match self.round_trip(&req)? {
            Reply::Query(q) => Ok(q),
            other => Err(unexpected("query", &other)),
        }
    }

    /// Several queries in one round-trip; results come back in order.
    pub fn batch(&mut self, nodes: &[u32], k: u32) -> Result<BatchReply, ClientError> {
        let req = Request::Batch {
            nodes: nodes.to_vec(),
            k,
        };
        match self.round_trip(&req)? {
            Reply::Batch(b) => Ok(b),
            other => Err(unexpected("batch", &other)),
        }
    }

    /// Stage live graph updates (validated server-side as a whole batch;
    /// they go live at the daemon's next commit — follow with
    /// [`Client::flush`] to commit immediately). Returns
    /// `(staged, graph_epoch)`: how many deltas were staged and the graph
    /// epoch *before* the commit.
    pub fn update(&mut self, ops: &[GraphDelta]) -> Result<(u64, u64), ClientError> {
        let req = Request::Update { ops: ops.to_vec() };
        match self.round_trip(&req)? {
            Reply::Update {
                staged,
                graph_epoch,
            } => Ok((staged, graph_epoch)),
            other => Err(unexpected("update", &other)),
        }
    }

    /// Read the serving counters.
    ///
    /// Fails with a one-line protocol error when the daemon speaks a
    /// different protocol generation, so mixed coordinator/shard
    /// deployments are caught on the first control call instead of
    /// misparsing each other later.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Reply::Stats(s) => {
                check_version(s.v)?;
                Ok(s)
            }
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Identify the peer (`hello` op): protocol version, role, shard
    /// identity, and epoch pair. Fails with a one-line mismatch error
    /// when the peer speaks a different protocol generation — including
    /// daemons old enough to not know the op at all.
    pub fn hello(&mut self) -> Result<HelloReply, ClientError> {
        match self.round_trip(&Request::Hello) {
            Ok(Reply::Hello(h)) => {
                check_version(h.v)?;
                Ok(h)
            }
            Ok(other) => Err(unexpected("hello", &other)),
            Err(ClientError::Server(msg)) if msg.contains("unknown op") => Err(version_mismatch(0)),
            Err(e) => Err(e),
        }
    }

    /// Read the full metrics snapshot — every counter and gauge the
    /// `stats` op reports plus the latency/size histograms, as typed
    /// [`rkranks_core::MetricSample`]s (render with
    /// [`rkranks_core::render_prometheus`] for scrapers).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.round_trip(&Request::Metrics)? {
            Reply::Metrics(m) => Ok(m),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Read the slow-query ring (oldest first; empty unless the daemon
    /// runs with a `--slow-query-ms` threshold).
    pub fn slow_queries(&mut self) -> Result<Vec<SlowQueryRecord>, ClientError> {
        match self.round_trip(&Request::SlowQueries)? {
            Reply::SlowQueries(q) => Ok(q),
            other => Err(unexpected("slow-queries", &other)),
        }
    }

    /// Send `req` and return the raw reply line exactly as the server
    /// sent it (trailing newline stripped) — the `--json` CLI path. A
    /// transport failure is still an error; a server-side `ok:false`
    /// line is returned verbatim, not converted.
    pub fn raw(&mut self, req: &Request) -> Result<String, ClientError> {
        self.send(req)?;
        Ok(self.read_reply()?.trim_end().to_string())
    }

    /// Commit the daemon's staged graph updates now; returns
    /// `(epoch, merged)` — the index epoch after the commit and how many
    /// staged deltas it committed (0: nothing was staged).
    pub fn flush(&mut self) -> Result<(u64, u64), ClientError> {
        match self.round_trip(&Request::Flush)? {
            Reply::Flush { epoch, merged } => Ok((epoch, merged)),
            other => Err(unexpected("flush", &other)),
        }
    }

    /// Ask the daemon to persist its serving state as a snapshot bundle
    /// (staged-but-uncommitted updates land in the bundle's WAL; nothing
    /// is committed); returns `(epoch, graph_epoch)` — the
    /// epoch pair the bundle on disk now holds. Fails with a server
    /// error on daemons running without a snapshot path.
    pub fn checkpoint(&mut self) -> Result<(u64, u64), ClientError> {
        match self.round_trip(&Request::Checkpoint)? {
            Reply::Checkpoint { epoch, graph_epoch } => Ok((epoch, graph_epoch)),
            other => Err(unexpected("checkpoint", &other)),
        }
    }

    /// Ask the daemon to shut down; consumes the client (the server
    /// closes the connection after acknowledging).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Reply::Shutdown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}

fn unexpected(op: &str, reply: &Reply) -> ClientError {
    ClientError::Protocol(format!("unexpected reply to '{op}': {reply:?}"))
}

fn check_version(server_v: u64) -> Result<(), ClientError> {
    if server_v == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(version_mismatch(server_v))
    }
}

fn version_mismatch(server_v: u64) -> ClientError {
    ClientError::Protocol(format!(
        "protocol version mismatch: server speaks v{server_v}, this client speaks \
         v{PROTOCOL_VERSION} — upgrade the older side"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn connect_policy_backoff_doubles_and_caps() {
        assert_eq!(backoff_after(0), CONNECT_BACKOFF);
        assert_eq!(backoff_after(1), CONNECT_BACKOFF * 2);
        assert_eq!(backoff_after(5), CONNECT_BACKOFF * 32);
        assert!(CONNECT_BACKOFF * 64 > MAX_CONNECT_BACKOFF);
        assert_eq!(backoff_after(6), MAX_CONNECT_BACKOFF); // capped
        assert_eq!(backoff_after(30), MAX_CONNECT_BACKOFF);
    }

    #[test]
    fn connect_to_a_dead_port_fails_fast_and_bounded() {
        // Bind then drop: the port is very likely closed for the probe.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let start = Instant::now();
        let err = Client::connect_retrying(addr, 3);
        assert!(err.is_err(), "connected to a closed port");
        // A refused connect returns at once, so the three attempts take
        // the two backoffs (50 + 100 ms), with generous slack.
        let elapsed = start.elapsed();
        assert!(
            elapsed >= backoff_after(0) + backoff_after(1),
            "no backoff: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(3),
            "retry loop not bounded: {elapsed:?}"
        );
    }

    #[test]
    fn a_reply_line_past_the_cap_is_a_protocol_error_naming_it() {
        let read = |bytes: &[u8], cap| {
            let mut line = Vec::new();
            read_line_capped(&mut io::Cursor::new(bytes), &mut line, cap).map(|n| (n, line))
        };
        assert_eq!(read(b"abcd\nrest", 4).unwrap(), (5, b"abcd\n".to_vec()));
        assert_eq!(
            read(b"abc", 4).unwrap(),
            (3, b"abc".to_vec()),
            "EOF ends a line"
        );
        assert_eq!(read(b"", 4).unwrap(), (0, Vec::new()));
        match read(b"abcde\n", 4) {
            Err(ClientError::Protocol(msg)) => assert!(msg.contains("exceeds 4 bytes"), "{msg}"),
            other => panic!("a 5-byte line passed a 4-byte cap: {other:?}"),
        }
        // A peer streaming without a newline is cut at the cap, not read
        // to its end.
        let endless = vec![b'x'; 1 << 16];
        assert!(matches!(read(&endless, 4), Err(ClientError::Protocol(_))));
    }

    #[test]
    fn version_mismatch_is_a_one_line_protocol_error() {
        let msg = version_mismatch(0).to_string();
        assert!(msg.contains("mismatch"), "{msg}");
        assert!(!msg.contains('\n'), "not one line: {msg}");
        assert!(check_version(PROTOCOL_VERSION).is_ok());
        assert!(check_version(PROTOCOL_VERSION + 1).is_err());
    }
}
