//! Per-connection transport: buffered reads with in-place line
//! extraction, and a buffered outbound side with write backpressure.
//!
//! A [`Conn`] never allocates per request line. It runs a non-blocking
//! stream, driven by the reactor's event loop ([`crate::reactor`]), and
//! never reads again once a `read` has come back short — the kernel
//! buffer was drained, so a second `read` could only report
//! `WouldBlock`.
//!
//! * **Inbound** bytes land in one growable buffer; complete lines are
//!   handed to the protocol layer as borrowed slices ([`Conn::peek_line`])
//!   and consumed by offset ([`Conn::consume_line`]) — the buffer is
//!   compacted once per service pass, not once per line. The *unconsumed*
//!   prefix is bounded: a client streaming bytes with no newline is cut
//!   off at the configured line cap instead of growing the buffer without
//!   limit ([`LineStatus::Oversize`]).
//! * **Outbound** replies queue in a send buffer drained by
//!   [`Conn::try_flush`] as the socket accepts them. The event loop stops
//!   *reading* from a connection whose outbound backlog passes the
//!   high-water mark (`Conn::paused`) — a slow or stalled client throttles
//!   itself, not the daemon's memory — and resumes once the backlog fully
//!   drains.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Read chunk size for one `read` call.
const CHUNK: usize = 4096;

/// One client connection: the stream plus its inbound and outbound
/// buffers and flow-control state.
pub(crate) struct Conn {
    /// The underlying stream, non-blocking and multiplexed by one of the
    /// reactor's epoll workers.
    pub stream: TcpStream,
    /// Inbound bytes; `start..` is the unconsumed suffix.
    buf: Vec<u8>,
    /// Offset of the first unconsumed inbound byte.
    start: usize,
    /// High-water mark of newline scanning (never rescan a partial tail).
    scanned: usize,
    /// Outbound bytes; `out_pos..` is the unsent suffix.
    out: Vec<u8>,
    /// Offset of the first unsent outbound byte.
    out_pos: usize,
    /// Backpressured: outbound backlog crossed the high-water mark, so
    /// the event loop neither reads nor parses until it fully drains.
    pub paused: bool,
    /// Terminal: flush what's queued (the error or farewell line), then
    /// close. Nothing further is read or parsed.
    pub closing: bool,
    /// The epoll interest mask the reactor registered this connection
    /// with.
    pub interest: u32,
    /// Largest outbound backlog (unsent bytes) this connection ever
    /// queued — recorded into telemetry when the connection closes.
    pub backlog_hw: usize,
}

/// What one fill pass observed on the socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fill {
    /// New bytes arrived.
    Progress,
    /// Nothing available (`WouldBlock` with no bytes read).
    Idle,
    /// Orderly EOF — serve what's buffered, then close.
    Eof,
}

/// What [`Conn::peek_line`] found in the inbound buffer.
pub(crate) enum LineStatus<'a> {
    /// A complete request line (newline and trailing `\r` stripped).
    /// Consume it with [`Conn::consume_line`] after parsing.
    Line(&'a [u8]),
    /// No complete line buffered yet.
    Partial,
    /// The pending line exceeds the configured cap — reject and close.
    Oversize,
}

impl Conn {
    /// Wrap a stream with empty buffers and default flow-control state.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            out: Vec::new(),
            out_pos: 0,
            paused: false,
            closing: false,
            interest: 0,
            backlog_hw: 0,
        }
    }

    /// Unconsumed inbound bytes (complete or partial lines).
    fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Unsent outbound bytes.
    pub(crate) fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Read everything currently available, stopping early once the
    /// unconsumed inbound buffer exceeds `max_line` — the readiness loop
    /// is level-triggered, so the rest is picked up after the buffered
    /// lines are served. A short read ends the pass too: it drained the
    /// kernel buffer, and whatever arrives later raises readiness again.
    /// `Interrupted` is retried; other I/O errors surface as `Err`.
    pub(crate) fn fill(&mut self, max_line: usize) -> io::Result<Fill> {
        let mut chunk = [0u8; CHUNK];
        let mut progressed = false;
        loop {
            if self.buffered() > max_line {
                // Enough buffered to either serve lines or reject one.
                return Ok(Fill::Progress);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if n < CHUNK {
                        return Ok(Fill::Progress);
                    }
                    // A full chunk may have left more behind: read on.
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(if progressed {
                        Fill::Progress
                    } else {
                        Fill::Idle
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Borrow the next complete line, if any, without consuming it — the
    /// caller parses the borrowed slice in place, then calls
    /// [`Conn::consume_line`]. Lines longer than `max_line` bytes
    /// (newline excluded) report [`LineStatus::Oversize`].
    pub(crate) fn peek_line(&mut self, max_line: usize) -> LineStatus<'_> {
        let from = self.scanned.max(self.start);
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let nl = from + off;
                let mut line = &self.buf[self.start..nl];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                if line.len() > max_line {
                    LineStatus::Oversize
                } else {
                    LineStatus::Line(line)
                }
            }
            None => {
                self.scanned = self.buf.len();
                if self.buffered() > max_line {
                    LineStatus::Oversize
                } else {
                    LineStatus::Partial
                }
            }
        }
    }

    /// Consume the line last returned by [`Conn::peek_line`] (advance
    /// past its newline). No bytes move; [`Conn::compact`] reclaims the
    /// space once per service pass.
    pub(crate) fn consume_line(&mut self) {
        let from = self.scanned.max(self.start);
        let nl = self.buf[from..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("consume_line without a peeked line")
            + from;
        self.start = nl + 1;
        self.scanned = self.scanned.max(self.start);
    }

    /// Drop the consumed inbound prefix. Called once per service pass so
    /// pipelined bursts cost one memmove, not one per line.
    pub(crate) fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
    }

    /// Queue a reply line, which `write` appends straight onto the send
    /// buffer, and opportunistically flush it. The common case — an idle
    /// socket with room in the kernel buffer — writes straight through and
    /// leaves nothing queued.
    pub(crate) fn send(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        write(&mut self.out);
        self.backlog_hw = self.backlog_hw.max(self.pending_out());
        self.try_flush().map(|_| ())
    }

    /// Write as much queued output as the socket accepts right now.
    /// Returns how many bytes remain queued (0 = fully drained).
    pub(crate) fn try_flush(&mut self) -> io::Result<usize> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            // Reclaim the sent prefix of a long-lived backlog.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(self.pending_out())
    }

    /// Deliver the final farewell (shutdown ack) with a blocking write:
    /// the daemon is exiting and this is the last byte this connection
    /// will ever see, so politeness beats strict non-blocking here.
    pub(crate) fn send_final(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        write(&mut self.out);
        if self.stream.set_nonblocking(false).is_ok() {
            let _ = self.stream.write_all(&self.out[self.out_pos..]);
            let _ = self.stream.flush();
        }
        self.out.clear();
        self.out_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, Conn::new(server))
    }

    #[test]
    fn lines_parse_in_place_and_consume_by_offset() {
        let (mut client, mut conn) = pair();
        client.write_all(b"alpha\r\nbeta\ngam").unwrap();
        loop {
            if conn.fill(1024).unwrap() == Fill::Progress && conn.buffered() >= 14 {
                break;
            }
        }
        match conn.peek_line(1024) {
            LineStatus::Line(l) => assert_eq!(l, b"alpha"),
            _ => panic!("expected a complete line"),
        }
        conn.consume_line();
        match conn.peek_line(1024) {
            LineStatus::Line(l) => assert_eq!(l, b"beta"),
            _ => panic!("expected a complete line"),
        }
        conn.consume_line();
        assert!(matches!(conn.peek_line(1024), LineStatus::Partial));
        conn.compact();
        assert_eq!(conn.buf, b"gam");
        assert_eq!(conn.start, 0);
    }

    #[test]
    fn oversize_lines_are_flagged_before_and_after_their_newline() {
        let (mut client, mut conn) = pair();
        // a newline-less stream crosses the cap → Oversize without a line
        client.write_all(&[b'x'; 40]).unwrap();
        while conn.buffered() <= 32 {
            conn.fill(32).unwrap();
        }
        assert!(matches!(conn.peek_line(32), LineStatus::Oversize));

        // a *complete* line over the cap is Oversize too (one read chunk
        // can deliver cap-busting line and newline together)
        let (mut client, mut conn) = pair();
        client.write_all(&[b'y'; 40]).unwrap();
        client.write_all(b"\n").unwrap();
        while conn.buffered() < 41 {
            conn.fill(32).unwrap();
        }
        assert!(matches!(conn.peek_line(32), LineStatus::Oversize));
    }

    #[test]
    fn fill_caps_the_unconsumed_buffer() {
        let (mut client, mut conn) = pair();
        client.write_all(&[b'z'; 10_000]).unwrap();
        // fill stops shortly past the cap instead of slurping all 10k
        let mut spins = 0;
        while conn.buffered() <= 64 {
            conn.fill(64).unwrap();
            spins += 1;
            assert!(spins < 10_000, "no bytes ever arrived");
        }
        assert!(
            conn.buffered() <= 64 + CHUNK,
            "fill must stop near the cap, got {}",
            conn.buffered()
        );
    }

    #[test]
    fn a_short_read_ends_the_fill_pass_without_a_confirming_read() {
        // On a *blocking* socket a second `read` after the kernel buffer
        // was drained would sleep the whole receive timeout.
        let (mut client, mut conn) = pair();
        conn.stream.set_nonblocking(false).unwrap();
        let timeout = std::time::Duration::from_secs(5);
        conn.stream.set_read_timeout(Some(timeout)).unwrap();
        client.write_all(b"hello\n").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(conn.fill(1024).unwrap(), Fill::Progress);
        assert!(
            start.elapsed() < timeout / 5,
            "fill read again after a short read: {:?}",
            start.elapsed()
        );
        assert!(matches!(conn.peek_line(1024), LineStatus::Line(b"hello")));
    }

    #[test]
    fn send_tracks_the_backlog_high_water() {
        let (_client, mut conn) = pair();
        assert_eq!(conn.backlog_hw, 0);
        conn.send(|out| out.extend_from_slice(b"hello\n")).unwrap();
        // the mark captures the queued size even when the socket drains
        // the bytes immediately
        assert!(conn.backlog_hw >= 6, "got {}", conn.backlog_hw);
    }

    #[test]
    fn outbound_backlog_drains_incrementally() {
        let (client, mut conn) = pair();
        // queue chunks until the kernel send buffer genuinely backs up
        let payload = vec![b'r'; 4 << 20];
        let mut after = 0;
        for _ in 0..16 {
            conn.out.extend_from_slice(&payload);
            after = conn.try_flush().unwrap();
            if after > 0 {
                break;
            }
        }
        assert!(after > 0, "64MiB cannot fit a loopback send buffer");
        // the peer reads; repeated flushes drain the rest
        let mut sink = client;
        sink.set_nonblocking(true).unwrap();
        let mut drained = [0u8; CHUNK];
        let mut guard = 0;
        while conn.try_flush().unwrap() > 0 {
            while let Ok(n) = sink.read(&mut drained) {
                if n == 0 {
                    break;
                }
            }
            guard += 1;
            assert!(guard < 100_000, "backlog never drained");
        }
        assert_eq!(conn.pending_out(), 0);
    }
}
