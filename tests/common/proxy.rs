//! A TCP fault-injection proxy for failover tests.
//!
//! Sits between a client and an upstream (a node, a primary a standby
//! tails from) on a **stable** listen address, so tests can take the
//! upstream "away" and bring it back without anyone re-resolving
//! addresses — exactly what a circuit breaker's recovery path needs.
//!
//! Modes:
//!
//! * [`Mode::Forward`] — pump bytes both ways, transparently.
//! * [`Mode::Delay`] — like `Forward`, but each new connection stalls
//!   for the configured duration before the first byte moves (a slow
//!   network, not a dead one).
//! * [`Mode::BlackHole`] — accept and then never answer: the peer's
//!   read blocks until its timeout. Models a hung host / dropped
//!   packets, the failure mode retries cannot fix.
//! * [`Mode::Refuse`] — close every accepted connection immediately
//!   (connection refused, as seen from the client).
//!
//! [`FaultProxy::sever`] additionally shoots down every *established*
//! connection, so a mode change takes effect for peers with pooled
//! sockets too (a black hole that only affects new connections would
//! let a pooled socket keep working).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the proxy does with connections right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Pump bytes both ways.
    Forward,
    /// Forward, but stall each new connection first.
    Delay(Duration),
    /// Accept, hold, never answer.
    BlackHole,
    /// Close immediately on accept.
    Refuse,
}

struct Shared {
    mode: Mutex<Mode>,
    /// Clones of every live proxied socket (both sides), for `sever`.
    conns: Mutex<Vec<TcpStream>>,
    stop: AtomicBool,
}

impl Shared {
    /// Keeps a clone of `conn` for [`FaultProxy::sever`].
    fn register(&self, conn: &TcpStream) {
        if let Ok(clone) = conn.try_clone() {
            self.conns.lock().expect("conns lock").push(clone);
        }
    }
}

/// A running fault proxy. Dropping it stops the accept loop and severs
/// everything.
pub(crate) struct FaultProxy {
    addr: SocketAddr,
    upstream: SocketAddr,
    shared: Arc<Shared>,
    accept_loop: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy to `upstream` on an ephemeral port, forwarding.
    pub(crate) fn start(upstream: SocketAddr) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        listener
            .set_nonblocking(true)
            .expect("nonblocking proxy listener");
        let shared = Arc::new(Shared {
            mode: Mutex::new(Mode::Forward),
            conns: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let loop_shared = Arc::clone(&shared);
        let accept_loop = std::thread::Builder::new()
            .name("fault-proxy".into())
            .spawn(move || accept_loop(listener, upstream, &loop_shared))
            .expect("spawn proxy accept loop");
        FaultProxy {
            addr,
            upstream,
            shared,
            accept_loop: Some(accept_loop),
        }
    }

    /// The stable address clients should dial.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The upstream this proxy fronts.
    pub(crate) fn upstream(&self) -> SocketAddr {
        self.upstream
    }

    /// Switches the failure mode for **new** connections. Call
    /// [`FaultProxy::sever`] as well to cut established ones.
    pub(crate) fn set_mode(&self, mode: Mode) {
        *self.shared.mode.lock().expect("mode lock") = mode;
    }

    /// Shuts down every established proxied connection (both sides).
    pub(crate) fn sever(&self) {
        let mut conns = self.shared.conns.lock().expect("conns lock");
        for conn in conns.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// `set_mode` + `sever`: the upstream is now unreachable through
    /// the proxy in the given way, for everyone.
    pub(crate) fn cut(&self, mode: Mode) {
        self.set_mode(mode);
        self.sever();
    }

    /// Back to transparent forwarding (established black-holed
    /// connections are severed so peers notice promptly).
    pub(crate) fn restore(&self) {
        self.set_mode(Mode::Forward);
        self.sever();
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.sever();
        if let Some(handle) = self.accept_loop.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, upstream: SocketAddr, shared: &Arc<Shared>) {
    // Black-holed connections are parked here: alive (the peer blocks
    // on read) but never serviced. Severing shuts them down via the
    // clones in `shared.conns`.
    let mut parked: Vec<TcpStream> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((conn, _)) => {
                // The connection is registered for `sever` under the mode
                // lock, before the upstream connect: a `cut` either changed
                // the mode before it was read here, or severs this
                // connection too, so none keeps forwarding to an upstream
                // the test has taken away.
                let mode = shared.mode.lock().expect("mode lock");
                let delay = match *mode {
                    Mode::Refuse => {
                        drop(conn);
                        continue;
                    }
                    Mode::BlackHole => {
                        shared.register(&conn);
                        parked.push(conn);
                        continue;
                    }
                    Mode::Forward => None,
                    Mode::Delay(d) => Some(d),
                };
                shared.register(&conn);
                drop(mode);
                pump(conn, upstream, delay, shared);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
    for conn in parked {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// Connects an accepted (already registered) client upstream and spawns
/// one copy thread per direction. The threads die when either side
/// closes or is severed: a client severed before the connect is read as
/// closed at once, and its thread shuts the upstream side down.
fn pump(client: TcpStream, upstream: SocketAddr, delay: Option<Duration>, shared: &Arc<Shared>) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nonblocking(false);
    shared.register(&server);
    let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    spawn_copy(client_rx, server, delay);
    spawn_copy(server_rx, client, delay);
}

fn spawn_copy(mut from: TcpStream, mut to: TcpStream, delay: Option<Duration>) {
    std::thread::spawn(move || {
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let mut buf = [0u8; 16 << 10];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = to.shutdown(Shutdown::Both);
        let _ = from.shutdown(Shutdown::Both);
    });
}
