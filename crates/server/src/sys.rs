//! The readiness poller: a minimal, self-contained `epoll` binding.
//!
//! The workspace forbids external registry crates, so instead of `mio`
//! this module declares the syscalls it needs itself and links them from
//! the C library the standard library already links. It is the **only**
//! non-test unsafe code in the workspace: the three `epoll` entry points
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`) on Linux, and `poll(2)`
//! on other Unixes. Each call has exactly one checked wrapper, which
//! states the call's invariant in a `debug_assert!` and turns a negative
//! return into an [`io::Error`]; no raw pointer escapes, and the epoll fd
//! is owned. An fd handed to [`Poller::add`] is validated by the kernel
//! (a bad one is `EBADF`, not undefined behaviour).
//!
//! On non-Linux Unixes [`Poller`] is backed by POSIX `poll(2)` over a
//! registration table with `epoll_ctl`'s error contract (`EEXIST`,
//! `ENOENT`, `EBADF`), so the crate builds and behaves identically (Linux
//! is the deployment target; the fallback exists for development
//! machines).
//!
//! The poller is **level-triggered**: an fd with unread input or writable
//! space keeps reporting ready, so the reactor never needs the
//! drain-until-`EAGAIN` discipline edge-triggering would force on it. The
//! flip side is that an fd whose readiness cannot be consumed — a
//! listener whose `accept` fails for want of file descriptors — must be
//! taken out of the interest set, or the loop spins ([`out_of_fds`]).

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer-closed — the subsequent `read` reports which).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hang-up condition; the connection should be flushed-and-closed.
    pub error: bool,
}

/// How long an accept loop waits before retrying once [`out_of_fds`].
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Whether a failed `accept` ran out of file descriptors (`EMFILE`: the
/// process; `ENFILE`: the system). The pending connection stays in the
/// backlog, so the listener stays ready: retrying at once spins until a
/// descriptor frees up, and an accept loop backs off for
/// [`ACCEPT_BACKOFF`] instead.
pub(crate) fn out_of_fds(e: &io::Error) -> bool {
    // The same numbers on Linux, the BSDs and macOS.
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(e.raw_os_error(), Some(EMFILE | ENFILE))
}

/// A poll timeout in the kernel's milliseconds (`-1`: none).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
pub(crate) use linux::Poller;

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

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
    /// Events one `epoll_wait` reports at most.
    const MAX_EVENTS: usize = 128;

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

    /// A level-triggered `epoll` instance. Each of its methods is the one
    /// checked wrapper of one `epoll` call.
    pub(crate) struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        /// Creates the epoll instance (close-on-exec).
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: takes no pointers.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            debug_assert!(fd >= 0, "epoll_create1 succeeded with fd {fd}");
            // SAFETY: a successful return is a fresh fd nothing else owns.
            let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            debug_assert!(
                matches!(op, EPOLL_CTL_ADD | EPOLL_CTL_DEL | EPOLL_CTL_MOD),
                "epoll_ctl op {op}"
            );
            let mut ev = EpollEvent {
                events: EPOLLRDHUP
                    | if interest.readable { EPOLLIN } else { 0 }
                    | if interest.writable { EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: `epfd` is owned, so live for the call, and `ev`
            // outlives it (the kernel copies it). A bad `fd` is the
            // kernel's `EBADF`.
            cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        /// Registers an fd.
        pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Changes an fd's interest set.
        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Deregisters an fd (must happen before the fd is closed).
        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Interest::READ, 0)
        }

        /// Blocks until readiness or timeout; appends events to `out`.
        pub(crate) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `epfd` is owned, so live for the call, and `buf` is a
            // writable array of `MAX_EVENTS` events; the kernel writes at
            // most `maxevents` of them.
            let n = match cvt(unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    super::timeout_ms(timeout),
                )
            }) {
                Ok(n) => n as usize,
                // A signal is not an error; report an empty wake-up.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            debug_assert!(n <= MAX_EVENTS, "epoll_wait reported {n} events");
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
}

#[cfg(all(unix, not(target_os = "linux")))]
pub(crate) use fallback::Poller;

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::ffi::{c_int, c_uint};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Duration;

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
    // <errno.h>, the numbers `epoll_ctl` would answer with.
    const ENOENT: i32 = 2;
    const EBADF: i32 = 9;
    const EEXIST: i32 = 17;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    }

    /// `poll(2)`-backed stand-in with the same level-triggered semantics;
    /// [`Poller::wait`] is the one checked wrapper of `poll`.
    pub(crate) struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
            })
        }

        /// The registration table. Every update is one map operation, so
        /// a panic elsewhere cannot leave it half-written.
        fn registered(&self) -> MutexGuard<'_, HashMap<RawFd, (u64, Interest)>> {
            self.registered.lock().unwrap_or_else(|e| e.into_inner())
        }

        pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if fd < 0 {
                return Err(io::Error::from_raw_os_error(EBADF));
            }
            let mut registered = self.registered();
            if registered.contains_key(&fd) {
                return Err(io::Error::from_raw_os_error(EEXIST));
            }
            registered.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            match self.registered().get_mut(&fd) {
                Some(entry) => {
                    *entry = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::from_raw_os_error(ENOENT)),
            }
        }

        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            match self.registered().remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::from_raw_os_error(ENOENT)),
            }
        }

        pub(crate) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let snapshot: Vec<(RawFd, u64, Interest)> = self
                .registered()
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
            debug_assert!(fds.iter().all(|p| p.fd >= 0), "poll on a negative fd");
            let timeout_ms = super::timeout_ms(timeout);
            // SAFETY: `fds` is a writable array of `fds.len()` entries for
            // the call; the kernel writes only their `revents`.
            let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms) };
            if ret < 0 {
                let e = io::Error::last_os_error();
                // A signal is not an error; report an empty wake-up.
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            debug_assert!(ret as usize <= fds.len(), "poll reported {ret} fds");
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
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    // <errno.h>: the same numbers on Linux, the BSDs and macOS.
    const ENOENT: i32 = 2;
    const EBADF: i32 = 9;
    const EEXIST: i32 = 17;

    fn errno(result: io::Result<()>) -> Option<i32> {
        result.expect_err("the call must fail").raw_os_error()
    }

    /// Every registration error comes back as the kernel's errno, and a
    /// failed call leaves the poller usable.
    #[test]
    fn registration_errors_are_the_kernels() {
        let poller = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        let fd = a.as_raw_fd();

        assert_eq!(errno(poller.add(-1, 7, Interest::READ)), Some(EBADF));
        assert_eq!(errno(poller.modify(fd, 7, Interest::READ)), Some(ENOENT));
        assert_eq!(errno(poller.delete(fd)), Some(ENOENT));

        poller.add(fd, 7, Interest::READ).unwrap();
        assert_eq!(errno(poller.add(fd, 8, Interest::READ)), Some(EEXIST));
        poller.modify(fd, 9, Interest::READ).unwrap();
        poller.delete(fd).unwrap();
        assert_eq!(errno(poller.delete(fd)), Some(ENOENT));
        assert_eq!(errno(poller.modify(fd, 9, Interest::READ)), Some(ENOENT));
    }

    /// Level-triggered readiness under the token of the latest `modify`:
    /// unread input keeps reporting, and a deregistered fd reports
    /// nothing.
    #[test]
    fn wait_reports_level_triggered_readiness() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        poller.add(a.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "nothing to read yet");

        b.write_all(b"x").unwrap();
        poller.modify(a.as_raw_fd(), 4, Interest::READ).unwrap();
        for _ in 0..2 {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 4);
            assert!(events[0].readable && !events[0].error);
        }

        poller.delete(a.as_raw_fd()).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "a deregistered fd reports nothing");
    }

    #[test]
    fn only_fd_exhaustion_is_out_of_fds() {
        assert!(out_of_fds(&io::Error::from_raw_os_error(23)));
        assert!(out_of_fds(&io::Error::from_raw_os_error(24)));
        assert!(!out_of_fds(&io::Error::from_raw_os_error(EBADF)));
        assert!(!out_of_fds(&io::ErrorKind::WouldBlock.into()));
    }
}
