//! The serving core both daemons run: a fixed pool of worker threads,
//! each an `epoll(7)` event loop over its share of the connections,
//! generic over the [`Service`] that answers requests. `rkrd`
//! ([`crate::serve_store`]) plugs in the engine with one query scratch per
//! worker; `rkr coord` (`rkranks_coord`) plugs in the fleet with one shard
//! connection pool per worker.
//!
//! * **Workers are event loops, not per-connection threads.** Each
//!   worker owns one epoll instance (raw syscalls, O(ready) per wake-up,
//!   kernel sleep when idle) and multiplexes every connection it accepted,
//!   level-triggered under a slab token. Ten thousand parked keep-alive
//!   connections cost a wake-up nothing: only ready sockets are touched.
//!   Requests on one connection are answered in order.
//! * **A worker answers one request at a time.** [`Service::execute`]
//!   runs on the worker thread and may block (an engine call, a fan-out
//!   to the fleet), so in-flight requests are capped at the worker count.
//! * **Write backpressure.** Replies queue in a per-connection outbound
//!   buffer (the `conn` module) drained as the socket accepts them
//!   (`EPOLLOUT` re-arming). A connection whose backlog reaches the write
//!   high-water mark stops being read — and stops having its buffered
//!   requests parsed — until the backlog fully drains, so a slow client
//!   throttles itself instead of growing the daemon's memory.
//! * **Bounded lines.** A request line over the line cap gets a one-line
//!   `bad request` error and the connection is closed.
//! * **One shutdown path.** A [`Reply::Shutdown`] is delivered with a
//!   blocking write and raises the shared flag; raising the flag directly
//!   works too. Idle workers wake every 25 ms to check it — the request
//!   path pays no timer — and [`Reactor::run`] returns once every worker
//!   has exited, closing every connection it held.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rkranks_core::{Counter, Gauge, Histogram, Registry};

use crate::conn::{Conn, Fill, LineStatus};
use crate::event::epoll::{self, Epoll};
use crate::log::log_error;
use crate::metrics::duration_ns;
use crate::protocol::{Reply, Request};
use crate::server::ServerConfig;

/// The `epoll_wait` timeout: how long an idle worker sleeps before it
/// re-checks the shutdown flag, so it bounds how quickly shutdown is
/// observed.
const POLL: Duration = Duration::from_millis(25);

/// Slab tokens are indices; the listener gets the one value no slab slot
/// can ever be.
const LISTENER: u64 = u64::MAX;

/// What a daemon plugs into the reactor.
pub trait Service: Sync {
    /// State one worker thread owns for its whole life.
    type Worker;
    /// Build one worker's state, on that worker's thread.
    fn worker(&self) -> Self::Worker;
    /// Answer one parsed request. [`Reply::Shutdown`] stops the reactor.
    fn execute(&self, worker: &mut Self::Worker, req: Request) -> Reply;
}

/// The reactor's own instruments, registered under a daemon's prefix
/// (`rkrd_…`, `rkrd_coord_…`).
pub struct FrontMetrics {
    /// Accept-queue drains that ended in a real error (fd exhaustion
    /// above all): counted always, logged once per burst.
    pub accept_errors: Arc<Counter>,
    /// Client connections currently open.
    pub connections_open: Arc<Gauge>,
    /// Request lines rejected for exceeding the line cap.
    pub oversize_lines: Arc<Counter>,
    /// Times a connection crossed the write high-water mark.
    pub backpressure_pauses: Arc<Counter>,
    /// Wake-to-drain time: one wake-up's full service pass. Its count is
    /// the number of completed wake-ups that surfaced ready work.
    pub wake_drain_seconds: Arc<Histogram>,
    /// Per-connection write-backlog high-water mark in bytes, recorded
    /// when the connection closes.
    pub conn_backlog_bytes: Arc<Histogram>,
    /// Each request's time from its line being parsed to its reply being
    /// queued on the socket (the shutdown farewell excepted).
    pub request_seconds: Arc<Histogram>,
}

impl FrontMetrics {
    /// Register every front-side instrument in `r` as `{prefix}_…`.
    pub fn register(r: &Registry, prefix: &str) -> FrontMetrics {
        let name = |suffix: &str| format!("{prefix}_{suffix}");
        let ns = 1e-9; // raw nanoseconds, rendered as seconds
        FrontMetrics {
            accept_errors: r.counter(&name("accept_errors_total"), "failed accept-queue drains"),
            connections_open: r.gauge(&name("connections_open"), "open client connections"),
            oversize_lines: r.counter(&name("oversize_lines_total"), "request lines over the cap"),
            backpressure_pauses: r.counter(
                &name("backpressure_pauses_total"),
                "connections paused at the write high-water mark",
            ),
            wake_drain_seconds: r.histogram_scaled(
                &name("wake_drain_seconds"),
                "event-loop wake-to-drain time",
                ns,
            ),
            conn_backlog_bytes: r.histogram(
                &name("conn_backlog_bytes"),
                "per-connection write-backlog high-water at close",
            ),
            request_seconds: r.histogram_scaled(
                &name("request_seconds"),
                "request line parsed to reply queued",
                ns,
            ),
        }
    }
}

/// A listener with one epoll instance per worker, ready to run.
pub struct Reactor {
    listener: TcpListener,
    epolls: Vec<Epoll>,
    write_high_water: usize,
    max_line_bytes: usize,
    /// Burst guard for accept-error logging: set on the first error of a
    /// burst (log it), cleared by the next successful accept.
    accept_err_logged: AtomicBool,
}

impl Reactor {
    /// Prepare `config.workers` (at least one) event loops on `listener`,
    /// bounded by `config`'s write high-water mark and line cap. Every
    /// epoll instance exists, with the listener registered
    /// `EPOLLEXCLUSIVE`, before any thread starts; an error names the
    /// failed syscall.
    pub fn new(listener: TcpListener, config: &ServerConfig) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let named =
            |call: &str, e: io::Error| io::Error::new(e.kind(), format!("{call} failed ({e})"));
        let epolls = (0..config.workers.max(1))
            .map(|_| {
                let ep = Epoll::new().map_err(|e| named("epoll_create1", e))?;
                ep.add_listener(listener.as_raw_fd(), LISTENER)
                    .map_err(|e| named("epoll_ctl(listener)", e))?;
                Ok(ep)
            })
            .collect::<io::Result<_>>()?;
        Ok(Reactor {
            listener,
            epolls,
            write_high_water: config.write_high_water,
            max_line_bytes: config.max_line_bytes,
            accept_err_logged: AtomicBool::new(false),
        })
    }

    /// Serve `service` until `shutdown` is raised, by a [`Reply::Shutdown`]
    /// or by the caller; returns once every worker has exited.
    pub fn run<S: Service>(mut self, service: &S, front: &FrontMetrics, shutdown: &AtomicBool) {
        let epolls = std::mem::take(&mut self.epolls);
        let core = &Core {
            reactor: &self,
            service,
            front,
            shutdown,
        };
        std::thread::scope(|s| {
            for ep in epolls {
                s.spawn(move || core.worker_loop(ep));
            }
        });
    }
}

/// What every worker of one [`Reactor::run`] shares.
struct Core<'a, S> {
    reactor: &'a Reactor,
    service: &'a S,
    front: &'a FrontMetrics,
    shutdown: &'a AtomicBool,
}

impl<S: Service> Core<'_, S> {
    /// Drain the accept queue, registering each accepted stream via
    /// `on_conn`. `WouldBlock` ends the drain silently; real errors —
    /// `EMFILE`/`ENFILE` fd exhaustion above all — are counted and logged
    /// once per burst (the log re-arms on the next successful accept), so
    /// operators see fd-limit pressure without a log flood.
    fn accept_ready(&self, mut on_conn: impl FnMut(TcpStream)) {
        let logged = &self.reactor.accept_err_logged;
        loop {
            match self.reactor.listener.accept() {
                Ok((stream, _)) => {
                    logged.store(false, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        self.front.connections_open.add(1);
                        on_conn(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.front.accept_errors.inc();
                    if !logged.swap(true, Ordering::Relaxed) {
                        log_error!(
                            "accept failed: {e} (fd limit? counting, not logging, \
                             further errors in this burst)"
                        );
                    }
                    break;
                }
            }
        }
    }

    /// One worker's event loop on its epoll instance (listener already
    /// registered). A wake-up touches only ready connections — O(ready),
    /// independent of how many are parked — and an idle worker sleeps in
    /// `epoll_wait` (the timeout is only so the shutdown flag is seen).
    fn worker_loop(&self, ep: Epoll) {
        let mut worker = self.service.worker();
        // Connection slab: the epoll token is the slot index, so readiness
        // dispatch is an array index, not a map lookup.
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut events = vec![epoll::Event { events: 0, data: 0 }; 1024];
        while !self.shutdown.load(Ordering::Acquire) {
            let n = match ep.wait(&mut events, POLL.as_millis() as i32) {
                Ok(n) => n,
                Err(e) => {
                    log_error!("epoll_wait failed ({e}); worker exiting");
                    return;
                }
            };
            if n == 0 {
                continue;
            }
            let woke = Instant::now();
            // Slots freed during this batch are not reused until the next
            // wait: a queued event for a just-closed fd must never be
            // delivered to a new tenant of its slot.
            let mut freed: Vec<usize> = Vec::new();
            for ev in events.iter().take(n) {
                let (bits, token) = ({ ev.events }, { ev.data });
                if token == LISTENER {
                    self.accept_ready(|stream| {
                        let slot = free.pop().unwrap_or_else(|| {
                            conns.push(None);
                            conns.len() - 1
                        });
                        let mut conn = Conn::new(stream);
                        conn.interest = epoll::EPOLLIN | epoll::EPOLLRDHUP;
                        match ep.add(conn.stream.as_raw_fd(), slot as u64, conn.interest) {
                            // Any bytes the client already sent surface on
                            // the next (level-triggered) wait immediately.
                            Ok(()) => conns[slot] = Some(conn),
                            Err(_) => {
                                // conn drops, fd closes
                                self.front.connections_open.sub(1);
                                free.push(slot);
                            }
                        }
                    });
                    continue;
                }
                let slot = token as usize;
                let closed = match conns.get_mut(slot).and_then(Option::as_mut) {
                    // A connection closed earlier in this same batch can
                    // leave a second queued event behind — skip it.
                    None => continue,
                    Some(conn) => {
                        bits & (epoll::EPOLLERR | epoll::EPOLLHUP) != 0
                            || self.service_conn(&mut worker, conn)
                    }
                };
                if closed {
                    if let Some(conn) = conns[slot].take() {
                        let _ = ep.delete(conn.stream.as_raw_fd());
                        self.front.conn_backlog_bytes.record(conn.backlog_hw as u64);
                        self.front.connections_open.sub(1);
                    }
                    freed.push(slot);
                } else if let Some(conn) = conns[slot].as_mut() {
                    // Re-arm interest only when it actually changed
                    // (backpressure pausing reads, queued output wanting
                    // EPOLLOUT) — the steady state costs no epoll_ctl.
                    let wanted = wanted_interest(conn);
                    if wanted != conn.interest
                        && ep.modify(conn.stream.as_raw_fd(), token, wanted).is_ok()
                    {
                        conn.interest = wanted;
                    }
                }
                if self.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            self.front
                .wake_drain_seconds
                .record(duration_ns(woke.elapsed()));
            free.append(&mut freed);
        }
    }

    /// Serve everything a connection has ready: flush queued output, read
    /// what's available, answer every complete buffered line, re-flush.
    /// Never blocks, except inside [`Service::execute`] and for the final
    /// shutdown farewell. Honors backpressure: a paused connection is only
    /// flushed until its backlog drains. Returns `true` once the
    /// connection is done — EOF, I/O error, an oversize line, or an
    /// acknowledged `shutdown` — and must be dropped.
    fn service_conn(&self, worker: &mut S::Worker, conn: &mut Conn) -> bool {
        let max_line = self.reactor.max_line_bytes;
        // Drain queued replies first, whatever woke us.
        if conn.try_flush().is_err() {
            return true;
        }
        loop {
            if conn.closing {
                // Terminal: the farewell line is out (or the peer is gone).
                return conn.pending_out() == 0;
            }
            if conn.paused {
                if conn.pending_out() > 0 {
                    // Still backed up: no reads, no parsing.
                    return false;
                }
                conn.paused = false; // fully drained: resume
            }
            let fill = match conn.fill(max_line) {
                Ok(f) => f,
                Err(_) => return true,
            };
            while !conn.paused && !conn.closing {
                let parsed = match conn.peek_line(max_line) {
                    LineStatus::Partial => break,
                    LineStatus::Oversize => {
                        self.front.oversize_lines.inc();
                        let reply =
                            Reply::Error(format!("bad request: line exceeds {max_line} bytes"));
                        if conn.send(|out| reply.write_line(out)).is_err() {
                            return true;
                        }
                        conn.closing = true;
                        break;
                    }
                    LineStatus::Line(bytes) => {
                        let text = String::from_utf8_lossy(bytes);
                        let text = text.trim();
                        (!text.is_empty()).then(|| {
                            // The request's clock starts at its parse.
                            let started = Instant::now();
                            let parsed = Request::from_line(text);
                            (started, parsed.map_err(|m| format!("bad request: {m}")))
                        })
                    }
                };
                conn.consume_line();
                let Some((started, parsed)) = parsed else {
                    continue;
                };
                let reply = match parsed {
                    Ok(req) => self.service.execute(worker, req),
                    Err(msg) => Reply::Error(msg),
                };
                if matches!(reply, Reply::Shutdown) {
                    conn.send_final(|out| reply.write_line(out));
                    self.shutdown.store(true, Ordering::Release);
                    return true;
                }
                if conn.send(|out| reply.write_line(out)).is_err() {
                    return true;
                }
                self.front
                    .request_seconds
                    .record(duration_ns(started.elapsed()));
                if !conn.paused && conn.pending_out() >= self.reactor.write_high_water {
                    conn.paused = true;
                    self.front.backpressure_pauses.inc();
                }
            }
            conn.compact();
            if conn.try_flush().is_err() {
                return true;
            }
            if conn.closing || (conn.paused && conn.pending_out() == 0) {
                // Re-evaluate at the top: a drained pause resumes parsing
                // the lines still buffered; a closing connection may now be
                // fully flushed and closable.
                continue;
            }
            // Orderly EOF, buffered lines all served: the peer is done.
            return fill == Fill::Eof;
        }
    }
}

/// The interest mask a connection's current state wants: reads unless
/// paused (backpressure) or closing, writes while output is queued.
fn wanted_interest(conn: &Conn) -> u32 {
    let mut mask = epoll::EPOLLRDHUP;
    if !conn.paused && !conn.closing {
        mask |= epoll::EPOLLIN;
    }
    if conn.pending_out() > 0 {
        mask |= epoll::EPOLLOUT;
    }
    mask
}
