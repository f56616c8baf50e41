//! The raw `epoll(7)` bindings every reactor worker's event loop runs on.
//!
//! The reactor multiplexes all of a worker's connections on one thread and
//! learns which are ready from `epoll_create1`/`epoll_ctl`/`epoll_wait`:
//! one wake-up costs O(ready connections), no matter how many thousands
//! of idle keep-alive connections are parked, and an idle worker sleeps
//! in the kernel.
//!
//! The workspace is deliberately dependency-free (it already hand-rolls
//! JSON, an LRU, and RNGs), so the epoll layer is a ~hundred lines of
//! `extern "C"` against symbols libstd already links, not a crate.

/// Raw `epoll(7)`: the four syscalls and a tiny RAII wrapper;
/// everything here is `pub(crate)` plumbing for the reactor's event loop.
pub(crate) mod epoll {
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    /// The kernel's `struct epoll_event`. Packed on x86 (the kernel ABI
    /// packs it there); natural `repr(C)` layout elsewhere, matching the
    /// kernel's per-arch definition.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    pub(crate) struct Event {
        pub events: u32,
        /// User token: the reactor stores a connection-slab slot here.
        pub data: u64,
    }

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    /// Wake only one of the epoll instances sharing a listener (kernel
    /// ≥ 4.5) — the accept path's thundering-herd guard.
    pub(crate) const EPOLLEXCLUSIVE: u32 = 1 << 28;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// One epoll instance (closed on drop).
    pub(crate) struct Epoll {
        fd: c_int,
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no memory handed over.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = Event {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it out.
            if unsafe { epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` with the given interest mask and token.
        pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Register a shared listener for read readiness, exclusively if
        /// the kernel supports it (pre-4.5 kernels reject the flag with
        /// `EINVAL`; fall back to a plain — thundering — registration).
        pub(crate) fn add_listener(&self, fd: RawFd, token: u64) -> io::Result<()> {
            match self.add(fd, token, EPOLLIN | EPOLLEXCLUSIVE) {
                Err(e) if e.raw_os_error() == Some(22) => self.add(fd, token, EPOLLIN),
                other => other,
            }
        }

        /// Change the interest mask of an already-registered `fd`.
        pub(crate) fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregister `fd` (its close also deregisters implicitly; this
        /// keeps the interest list exact while the fd is still open).
        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait up to `timeout_ms` for readiness; fills `events` and
        /// returns how many fired. A signal interruption is an empty
        /// wake-up, not an error.
        pub(crate) fn wait(&self, events: &mut [Event], timeout_ms: c_int) -> io::Result<usize> {
            // SAFETY: the kernel writes at most `events.len()` entries.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: we own the fd and drop it exactly once.
            unsafe { close(self.fd) };
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        #[test]
        fn epoll_reports_readiness() {
            let ep = Epoll::new().expect("epoll_create1");
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            ep.add_listener(listener.as_raw_fd(), 7).unwrap();

            let mut events = [Event { events: 0, data: 0 }; 8];
            // nothing pending: a zero-timeout wait returns no events
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let n = ep.wait(&mut events, 1000).unwrap();
            assert_eq!(n, 1, "pending accept must wake the listener token");
            assert_eq!({ events[0].data }, 7);
            let (accepted, _) = listener.accept().unwrap();
            accepted.set_nonblocking(true).unwrap();

            // a parked connection raises no events until bytes arrive
            ep.add(accepted.as_raw_fd(), 9, EPOLLIN | EPOLLRDHUP)
                .unwrap();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
            client.write_all(b"hello\n").unwrap();
            let n = ep.wait(&mut events, 1000).unwrap();
            assert_eq!(n, 1);
            assert_eq!({ events[0].data }, 9);

            // deregistration silences it even with bytes still unread
            ep.delete(accepted.as_raw_fd()).unwrap();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        }
    }
}
