//! The readiness poller and socket syscalls: a minimal, self-contained
//! `epoll` + `SO_REUSEPORT` binding.
//!
//! The workspace forbids external registry crates, so instead of `mio`
//! this module declares the handful of syscalls it needs itself and links
//! them from the C library the standard library already links. This is
//! the **only** unsafe surface of the crate: the three `epoll` entry
//! points plus the four socket calls (`socket`/`setsockopt`/`bind`/
//! `listen`) needed to build listeners the standard library cannot — N
//! sockets bound to **one** address via `SO_REUSEPORT`, so the kernel
//! shards incoming connections across reactor threads with no shared
//! accept lock ([`listener_group`]). Everything is wrapped in safe APIs
//! (owned fds, checked returns, no raw pointers escaping).
//!
//! On non-Linux Unixes the same APIs are backed by POSIX `poll(2)` and
//! accept-sharing `try_clone` duplicates of a single listener — so the
//! crate builds and behaves identically (Linux is the deployment target;
//! the fallback exists for development machines).
//!
//! The poller is **level-triggered**: an fd with unread input or writable
//! space keeps reporting ready, so the reactor never needs the
//! drain-until-`EAGAIN` discipline edge-triggering would force on it.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer-closed — the subsequent `read` reports which).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hang-up condition; the connection should be flushed-and-closed.
    pub error: bool,
}

#[cfg(target_os = "linux")]
pub use linux::{listener_group, Poller};

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    use std::ffi::c_int;

    // <sys/epoll.h>. On x86-64 the kernel ABI packs the event struct to
    // 12 bytes; other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// A level-triggered `epoll` instance.
    pub struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        /// Creates the epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a non-negative
            // return is a freshly created fd we immediately take ownership
            // of.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let mut ev = EpollEvent {
                events: EPOLLRDHUP
                    | if interest.readable { EPOLLIN } else { 0 }
                    | if interest.writable { EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        /// Registers an fd.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Changes an fd's interest set.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Deregisters an fd (must happen before the fd is closed).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Interest::READ, 0)
        }

        /// Blocks until readiness or timeout; appends events to `out`.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            use std::os::fd::AsRawFd;
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
            };
            // SAFETY: `buf` is a valid writable array of `buf.len()`
            // events; the kernel writes at most `maxevents` entries.
            let n = match cvt(unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    buf.len() as c_int,
                    timeout_ms,
                )
            }) {
                Ok(n) => n as usize,
                // A signal is not an error; report an empty wake-up.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    // <sys/socket.h> — just enough to build a listener the standard
    // library cannot: one with SO_REUSEPORT set *before* bind.
    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    /// Accept backlog for reuseport listeners (the kernel clamps to
    /// `somaxconn`); matches what `TcpListener::bind` requests.
    const BACKLOG: c_int = 128;

    /// `struct sockaddr_in` (fields already in network byte order).
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockaddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32)
            -> c_int;
        fn bind(fd: c_int, addr: *const u8, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    /// Builds one listening socket bound to `addr` with `SO_REUSEPORT`
    /// (and `SO_REUSEADDR`) set before the bind, returned as a standard
    /// [`TcpListener`] owning the fd.
    fn reuseport_listener(addr: &SocketAddr) -> io::Result<TcpListener> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: socket takes no pointers; a non-negative return is a
        // fresh fd we immediately take ownership of (closed on any early
        // return below).
        let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        let one: c_int = 1;
        let optlen = std::mem::size_of::<c_int>() as u32;
        // SAFETY: `one` outlives each call; the kernel copies the value.
        cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, optlen) })?;
        cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, optlen) })?;
        match addr {
            SocketAddr::V4(v4) => {
                let sa = SockaddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is a valid sockaddr_in for the duration of
                // the call; the kernel copies it.
                cvt(unsafe {
                    bind(
                        fd,
                        (&sa as *const SockaddrIn).cast(),
                        std::mem::size_of::<SockaddrIn>() as u32,
                    )
                })?;
            }
            SocketAddr::V6(v6) => {
                let sa = SockaddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo().to_be(),
                    addr: v6.ip().octets(),
                    // The kernel reads the scope id in host byte order.
                    scope_id: v6.scope_id(),
                };
                // SAFETY: as above, for sockaddr_in6.
                cvt(unsafe {
                    bind(
                        fd,
                        (&sa as *const SockaddrIn6).cast(),
                        std::mem::size_of::<SockaddrIn6>() as u32,
                    )
                })?;
            }
        }
        // SAFETY: listen takes no pointers.
        cvt(unsafe { listen(fd, BACKLOG) })?;
        Ok(TcpListener::from(owned))
    }

    /// `n` listeners sharing one address. With `n == 1` this is a plain
    /// `TcpListener::bind`. With more, every socket is bound via
    /// `SO_REUSEPORT` — the kernel hashes each incoming connection's
    /// 4-tuple to exactly one of the sockets, sharding accepts across the
    /// reactors that own them with no locks and no thundering herd. A
    /// port-0 request is resolved by the first bind; the rest bind the
    /// concrete port it got.
    pub fn listener_group(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpListener>> {
        if n <= 1 {
            return Ok(vec![TcpListener::bind(addr)?]);
        }
        let first = reuseport_listener(&addr)?;
        let resolved = first.local_addr()?;
        let mut group = Vec::with_capacity(n);
        group.push(first);
        for _ in 1..n {
            group.push(reuseport_listener(&resolved)?);
        }
        Ok(group)
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
pub use fallback::{listener_group, Poller};

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    use std::ffi::{c_int, c_uint};

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    }

    /// `poll(2)`-backed stand-in with the same level-triggered semantics.
    pub struct Poller {
        registered: std::sync::Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: std::sync::Mutex::new(HashMap::new()),
            })
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.add(fd, token, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let snapshot: Vec<(RawFd, u64, Interest)> = self
                .registered
                .lock()
                .unwrap()
                .iter()
                .map(|(&fd, &(token, interest))| (fd, token, interest))
                .collect();
            let mut fds: Vec<PollFd> = snapshot
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
            };
            // SAFETY: `fds` is a valid writable array of `fds.len()`
            // entries for the duration of the call.
            let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms) };
            if ret < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(snapshot.iter()) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                    error: bits & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback_listeners {
    use std::io;
    use std::net::{SocketAddr, TcpListener};

    /// Accept-sharing stand-in for the Linux `SO_REUSEPORT` group: one
    /// bound socket, `try_clone`d per reactor. All clones share the
    /// kernel accept queue (wake-ups may thunder, but each connection is
    /// accepted exactly once), so the multi-reactor server behaves
    /// identically on development machines.
    pub fn listener_group(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpListener>> {
        let first = TcpListener::bind(addr)?;
        let mut group = Vec::with_capacity(n.max(1));
        for _ in 1..n {
            group.push(first.try_clone()?);
        }
        group.insert(0, first);
        Ok(group)
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
pub use fallback_listeners::listener_group;

#[cfg(not(unix))]
compile_error!("tthr-server requires a Unix platform (epoll or poll readiness)");

/// Compile-time re-export check: both backends expose the same surface.
#[allow(dead_code)]
fn _api_check(p: &Poller) -> io::Result<()> {
    let _ = |fd: RawFd, t: u64| p.add(fd, t, Interest::READ);
    let _ = |fd: RawFd, t: u64| p.modify(fd, t, Interest::READ);
    let _ = |fd: RawFd| p.delete(fd);
    let mut v = Vec::new();
    p.wait(&mut v, Some(Duration::from_millis(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{SocketAddr, TcpStream};

    #[test]
    fn listener_group_shares_one_port_and_loses_no_connection() {
        const LISTENERS: usize = 2;
        const CONNECTIONS: usize = 16;
        let group = listener_group("127.0.0.1:0".parse().unwrap(), LISTENERS).unwrap();
        assert_eq!(group.len(), LISTENERS);
        let addr = group[0].local_addr().unwrap();
        for l in &group {
            assert_eq!(l.local_addr().unwrap(), addr, "group must share the port");
            l.set_nonblocking(true).unwrap();
        }

        let mut open = Vec::new();
        for _ in 0..CONNECTIONS {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"x").unwrap();
            open.push(c);
        }

        // Every connection must be accepted by exactly one listener —
        // the kernel shards them; none may be dropped or duplicated.
        let mut accepted = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while accepted < CONNECTIONS && std::time::Instant::now() < deadline {
            let mut progress = false;
            for l in &group {
                match l.accept() {
                    Ok(_) => {
                        accepted += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
            if !progress {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(accepted, CONNECTIONS);
    }

    /// A scoped IPv6 address names the same interface with one listener
    /// (`TcpListener::bind`) and with a reuseport group: both bind, or
    /// both fail with the same OS error.
    #[test]
    fn scoped_ipv6_binds_like_a_plain_bind() {
        let addr: SocketAddr = "[fe80::1%1]:0".parse().unwrap();
        let outcome = |n| {
            listener_group(addr, n)
                .map(|_| ())
                .map_err(|e| e.raw_os_error())
        };
        assert_eq!(outcome(2), outcome(1));
    }

    #[test]
    fn single_listener_group_is_a_plain_bind() {
        let group = listener_group("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        assert_eq!(group.len(), 1);
        assert!(group[0].local_addr().unwrap().port() != 0);
    }
}
