//! The single-threaded accept/IO reactor and its per-connection state
//! machine.
//!
//! One thread owns every socket. It multiplexes them through the
//! level-triggered [`Poller`](crate::sys::Poller), parses requests
//! incrementally ([`crate::http`]), and hands complete API requests to
//! the tier's worker pool ([`Api::execute`]). **The bounded in-flight
//! window is the backpressure boundary**:
//!
//! * `inflight < queue_cap` — the request is dispatched to the pool.
//! * queue full — the connection **parks** the request and the reactor
//!   stops reading from it (bytes back up into the kernel buffer and,
//!   once that fills, into the client's TCP window: natural
//!   backpressure). At most one request per connection is ever parked,
//!   so parked work is bounded by the connection count.
//! * parked requests at the `shed_watermark` — further complete requests
//!   are answered `503` + `Retry-After` immediately (load shedding), and
//!   the connection stays usable.
//!
//! One API request never reaches the gate: a `/spq` whose body fits in one
//! read chunk is decoded on the reactor and its result-cache entry probed
//! (no index lock, no pool). A hit — or a body that does not decode — is
//! answered on the spot; a miss is dispatched carrying the decoded query,
//! so the worker never parses it again.
//!
//! Responses travel back over a per-connection write buffer. Because the
//! pool completes requests in any order while HTTP/1.1 pipelining
//! requires responses in request order, every request gets a
//! per-connection sequence number and finished responses wait in a
//! reorder map until their turn — inline answers included. Workers wake
//! the reactor through a socketpair byte.
//!
//! Graceful shutdown: the listener closes, already-accepted requests
//! (dispatched *and* parked) drain normally, requests parsed after the
//! flag are refused with `503` + `connection: close`, and the reactor
//! exits once every response byte is flushed (or the drain timeout
//! expires).

use crate::http::{self, Limits, Parse, ParseError};
use crate::sys::{self, Event, Interest, Poller};
use crate::{Api, Op, ServerConfig, ServerMetrics};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tthr_core::Spq;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// A finished response traveling from a worker back to the reactor.
pub(crate) struct Completion {
    pub token: u64,
    pub seq: u64,
    pub bytes: Vec<u8>,
    pub close: bool,
}

/// State shared between the reactor, its workers, and the handle.
pub(crate) struct Shared {
    pub completions: Mutex<Vec<Completion>>,
    /// Write end of the reactor's wake-up socketpair (non-blocking; a
    /// full pipe means a wake-up is already pending — see [`Shared::wake`]).
    pub wake_tx: UnixStream,
    /// Requests dispatched to the worker pool and not yet completed — the
    /// bounded queue the reactor gates on.
    pub inflight: AtomicUsize,
    /// Set by [`crate::ServerHandle`] to start the graceful drain.
    pub shutdown: AtomicBool,
    /// What [`crate::ServerHandle::metrics`] snapshots.
    pub counters: Counters,
    /// Wake writes that failed with a *real* error (not the benign
    /// full-pipe case). Diagnostic only: the reactor's poll timeout is
    /// the fallback delivery path if the pipe ever dies.
    pub wake_errors: AtomicU64,
}

impl Shared {
    /// Wakes the reactor with one byte on the socketpair.
    ///
    /// A full pipe (`WouldBlock`) is **not** a lost wake-up: a pending
    /// byte is already in the pipe, the reactor will drain it and scan
    /// the completion list, and it scans the whole list every time — so
    /// concurrent wake-ups coalesce. `Interrupted` writes are retried;
    /// anything else (the reactor side is gone) is counted rather than
    /// silently swallowed, and the 100ms poll timeout still delivers.
    pub(crate) fn wake(&self) {
        loop {
            match (&self.wake_tx).write(&[1]) {
                Ok(_) => return,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.wake_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Monotonic server counters (snapshot: [`ServerMetrics`]).
#[derive(Default)]
pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub active: AtomicU64,
    pub requests: AtomicU64,
    pub responses_ok: AtomicU64,
    pub shed: AtomicU64,
    pub client_errors: AtomicU64,
    pub server_errors: AtomicU64,
    pub refused_shutdown: AtomicU64,
    pub max_inflight: AtomicUsize,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub reaped_idle: AtomicU64,
    pub inline_hits: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> ServerMetrics {
        ServerMetrics {
            accepted: self.accepted.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            server_errors: self.server_errors.load(Ordering::Relaxed),
            refused_shutdown: self.refused_shutdown.load(Ordering::Relaxed),
            max_inflight: self.max_inflight.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            inline_hits: self.inline_hits.load(Ordering::Relaxed),
        }
    }

    /// Attributes a response to the right counter by status class.
    pub(crate) fn count_status(&self, status: u16) {
        if status < 300 {
            self.responses_ok.fetch_add(1, Ordering::Relaxed);
        } else if status < 500 {
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        } else {
            self.server_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A handler's answer: status, body, and the content type to frame it
/// with.
pub(crate) struct ApiResponse {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: &'static str,
}

impl ApiResponse {
    /// A JSON response (the default wire format).
    pub(crate) fn json(status: u16, body: String) -> ApiResponse {
        ApiResponse::with(status, body.into_bytes(), http::JSON_CONTENT_TYPE)
    }

    /// A binary `tthr-rpc` frame response (the `/spq` fast path).
    pub(crate) fn frame(status: u16, body: Vec<u8>) -> ApiResponse {
        ApiResponse::with(status, body, http::FRAME_CONTENT_TYPE)
    }

    fn with(status: u16, body: Vec<u8>, content_type: &'static str) -> ApiResponse {
        ApiResponse {
            status,
            body,
            content_type,
        }
    }

    /// The `500` a panicking handler is answered with.
    fn internal_error() -> ApiResponse {
        ApiResponse::json(500, crate::wire::encode_error("internal error"))
    }

    /// The full HTTP response.
    fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let (status, body, content_type) = (self.status, &self.body, self.content_type);
        http::encode_response_with_content_type(status, body, keep_alive, None, content_type)
    }
}

/// An API request on its way to the worker pool.
pub(crate) enum Job {
    /// An `/spq` the reactor decoded and found uncached; the [`Op`] picks
    /// the answer's encoding.
    Spq(Op, Spq),
    /// A body the worker decodes: `/trip`, `/batch`, `/append`, and an
    /// `/spq` body too large to decode on the reactor.
    Body(Op, Vec<u8>),
}

struct Conn {
    stream: TcpStream,
    token: u64,
    /// Unparsed input.
    buf: Vec<u8>,
    /// Sequence number handed to the next parsed request.
    next_seq: u64,
    /// Sequence number whose response flushes next (pipelining order).
    next_flush: u64,
    /// Out-of-order finished responses: seq → (bytes, close-after).
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// The one request waiting for a queue slot (backpressure parking).
    parked: Option<(u64, Job, bool)>,
    /// In-order responses awaiting the socket, oldest first. Each encoded
    /// response is **moved** here (never recopied into a flat buffer) and
    /// freed the moment it is fully written, so a connection's retained
    /// write memory is its live backlog, not its historical maximum. The
    /// front element is written up to `write_pos`; a flush gathers the
    /// queued responses into one `writev`.
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the front `write_queue` element already written.
    write_pos: usize,
    /// Queued for the end-of-iteration corked flush (`flush_dirty`).
    dirty: bool,
    /// Stop reading/parsing; close once every owed response is flushed.
    close_after_flush: bool,
    /// Read side retired before the close response flushed: set the
    /// moment a request is routed whose response will carry
    /// `connection: close`, or on a protocol error. Requests pipelined
    /// behind it are **not** parsed (their responses could never be
    /// delivered, and executing a side-effectful `/append` whose ack is
    /// guaranteed to be dropped would invite client retries and
    /// double-appends), and malformed bytes are not re-parsed into
    /// duplicate error responses on every read event.
    parse_disabled: bool,
    peer_closed: bool,
    last_activity: Instant,
    interest: Interest,
}

impl Conn {
    /// Responses promised (sequence numbers issued) but not yet moved
    /// into the write buffer.
    fn outstanding(&self) -> u64 {
        self.next_seq - self.next_flush
    }

    fn write_drained(&self) -> bool {
        self.write_queue.is_empty()
    }

    /// Bytes owed to the peer (flush backlog): unwritten queued responses
    /// plus reordered responses not yet in the queue.
    fn backlog(&self) -> usize {
        (self.write_queue.iter().map(Vec::len).sum::<usize>() - self.write_pos)
            + self.pending.values().map(|(b, _)| b.len()).sum::<usize>()
    }
}

pub(crate) struct Reactor {
    listener: Option<TcpListener>,
    /// Set while the listener is out of the poller because `accept` ran
    /// out of file descriptors: when to put it back.
    accept_paused_until: Option<Instant>,
    wake_rx: UnixStream,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    /// Tokens with a parked request, oldest first.
    parked: VecDeque<u64>,
    parked_count: usize,
    /// Connections with responses staged since the last flush (corking:
    /// one gathered `writev` per connection per loop iteration instead of
    /// one `write` per response).
    dirty_tokens: Vec<u64>,
    /// Recycled read buffers from closed connections, so short-lived
    /// connections don't pay a fresh allocation each.
    buf_pool: Vec<Vec<u8>>,
    next_token: u64,
    config: ServerConfig,
    limits: Limits,
    shared: Arc<Shared>,
    /// The tier served.
    api: Arc<dyn Api>,
    shutdown_seen: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        config: ServerConfig,
        shared: Arc<Shared>,
        api: Arc<dyn Api>,
    ) -> std::io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(Reactor {
            listener: Some(listener),
            accept_paused_until: None,
            wake_rx,
            poller,
            conns: HashMap::new(),
            parked: VecDeque::new(),
            parked_count: 0,
            dirty_tokens: Vec::new(),
            buf_pool: Vec::new(),
            next_token: TOKEN_FIRST_CONN,
            limits: Limits {
                max_head_bytes: config.max_head_bytes,
                max_body_bytes: config.max_body_bytes,
            },
            config,
            shared,
            api,
            shutdown_seen: None,
        })
    }

    pub(crate) fn run(mut self) -> std::io::Result<()> {
        let mut events = Vec::with_capacity(128);
        loop {
            events.clear();
            let timeout = match self.accept_paused_until {
                Some(_) => sys::ACCEPT_BACKOFF,
                None => Duration::from_millis(100),
            };
            self.poller.wait(&mut events, Some(timeout))?;
            self.resume_accept();
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.process_completions();
            self.dispatch_parked();
            self.flush_dirty();
            if self.sweep() {
                return Ok(());
            }
        }
    }

    // ------------------------------------------------------------ accept

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_connections
                        || stream.set_nonblocking(true).is_err()
                    {
                        continue; // drop: over the connection cap
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.counters.active.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            token,
                            buf: self.buf_pool.pop().unwrap_or_default(),
                            next_seq: 0,
                            next_flush: 0,
                            pending: BTreeMap::new(),
                            parked: None,
                            write_queue: VecDeque::new(),
                            write_pos: 0,
                            dirty: false,
                            close_after_flush: false,
                            parse_disabled: false,
                            peer_closed: false,
                            last_activity: Instant::now(),
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if sys::out_of_fds(&e) => return self.pause_accept(),
                Err(_) => return, // transient accept failure; retry on next event
            }
        }
    }

    /// Out of file descriptors: the connection stays in the backlog, so
    /// the level-triggered listener stays ready and the loop would spin
    /// until a descriptor frees up. Take the listener out of the poller
    /// for [`sys::ACCEPT_BACKOFF`] instead.
    fn pause_accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        if self.poller.delete(listener.as_raw_fd()).is_ok() {
            self.accept_paused_until = Some(Instant::now() + sys::ACCEPT_BACKOFF);
        }
    }

    /// Puts a paused listener back into the poller once its backoff is up.
    fn resume_accept(&mut self) {
        let (Some(until), Some(listener)) = (self.accept_paused_until, &self.listener) else {
            return;
        };
        if Instant::now() >= until
            && self
                .poller
                .add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                .is_ok()
        {
            self.accept_paused_until = None;
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    // --------------------------------------------------------------- IO

    fn conn_ready(&mut self, token: u64, ev: Event) {
        if ev.error {
            // Peer reset / error: flushing is pointless.
            self.close_conn(token);
            return;
        }
        if ev.writable {
            self.flush_conn(token);
        }
        if ev.readable {
            self.read_conn(token);
        }
        self.update_interest(token);
    }

    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !wants_read(conn) {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                if conn.outstanding() == 0 && conn.write_drained() && conn.parked.is_none() {
                    self.close_conn(token);
                }
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.buf.extend_from_slice(&chunk[..n]);
                self.shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                self.advance_conn(token);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                self.close_conn(token);
            }
        }
    }

    /// Parses and routes every complete request buffered on a connection,
    /// until input runs dry, the connection parks, or it begins closing.
    /// On the way out, a drained buffer that ballooned past the retention
    /// watermark (one oversized request is enough) gives the excess back
    /// to the allocator instead of pinning it for the connection's
    /// lifetime.
    fn advance_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.close_after_flush
                || conn.parse_disabled
                || conn.parked.is_some()
                || conn.buf.is_empty()
            {
                break;
            }
            match http::try_parse(&conn.buf, &self.limits) {
                Ok(Parse::Incomplete) => break,
                Ok(Parse::Done(request, consumed)) => {
                    conn.buf.drain(..consumed);
                    self.route(token, request);
                }
                Err(e) => {
                    self.protocol_error(token, &e);
                    break;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.buf.len() <= BUF_RETAIN_WATERMARK && conn.buf.capacity() > BUF_RETAIN_WATERMARK
            {
                conn.buf.shrink_to(BUF_RETAIN_WATERMARK);
            }
        }
    }

    /// Answers a malformed request: mapped status, then close (the next
    /// request boundary is unknowable after a bad head).
    fn protocol_error(&mut self, token: u64, e: &ParseError) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        // Retire the read side now: the error response may have to wait
        // behind earlier in-flight responses, and until it flushes the
        // malformed bytes must not be re-parsed into duplicate error
        // responses on every read event.
        conn.parse_disabled = true;
        let body = crate::wire::encode_error(e.reason());
        let bytes = http::encode_response(e.status(), body.as_bytes(), false, None);
        self.shared.counters.count_status(e.status());
        self.finish(token, seq, bytes, true);
    }

    /// Routes one parsed request: inline endpoints answer immediately;
    /// API endpoints pass the backpressure gate.
    fn route(&mut self, token: u64, request: http::Request) {
        self.shared
            .counters
            .requests
            .fetch_add(1, Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let keep_alive = request.keep_alive;
        if !keep_alive {
            // This response will carry `connection: close`; anything the
            // client pipelined behind it could never be answered, so stop
            // parsing instead of executing work whose ack is guaranteed
            // to be dropped.
            conn.parse_disabled = true;
        }

        let op = match (request.method.as_str(), request.target.as_str()) {
            // The inline endpoints; a tier without one answers `404`.
            ("GET", target @ ("/health" | "/stats" | "/metrics" | "/debug/slow")) => {
                let server = self.shared.counters.snapshot();
                let (body, content_type) = match target {
                    "/health" => (Some(self.api.health()), http::JSON_CONTENT_TYPE),
                    "/stats" => (self.api.stats(&server), http::JSON_CONTENT_TYPE),
                    "/metrics" => (
                        Some(self.api.metrics(&server)),
                        http::PROMETHEUS_CONTENT_TYPE,
                    ),
                    _ => (self.api.slow(), http::JSON_CONTENT_TYPE),
                };
                let response = match body {
                    Some(body) => ApiResponse::with(200, body.into_bytes(), content_type),
                    None => ApiResponse::json(404, crate::wire::encode_error("unknown endpoint")),
                };
                self.respond(token, seq, &response, keep_alive);
                return;
            }
            // The frame content type selects the binary fast path: the
            // body decodes straight into an `Spq` via the `tthr-rpc`
            // codec, skipping the JSON value tree entirely.
            ("POST", "/spq")
                if request
                    .content_type
                    .as_deref()
                    .is_some_and(|ct| ct.eq_ignore_ascii_case(http::FRAME_CONTENT_TYPE)) =>
            {
                Op::SpqFrame
            }
            ("POST", "/spq") => Op::Spq,
            ("POST", "/trip") => Op::Trip,
            ("POST", "/batch") => Op::Batch,
            ("POST", "/append") => Op::Append,
            ("GET" | "POST", _) => {
                let known_target = matches!(
                    request.target.as_str(),
                    "/spq"
                        | "/trip"
                        | "/batch"
                        | "/append"
                        | "/health"
                        | "/stats"
                        | "/metrics"
                        | "/debug/slow"
                );
                let (status, reason) = if known_target {
                    (405, "method not allowed")
                } else {
                    (404, "unknown endpoint")
                };
                self.respond_error(token, seq, status, reason, keep_alive);
                return;
            }
            _ => {
                self.respond_error(token, seq, 405, "method not allowed", keep_alive);
                return;
            }
        };

        if self.shared.shutdown.load(Ordering::SeqCst) {
            // Refuse new work while draining; tell the client to go away.
            // The refusal closes the connection, so stop parsing too.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.parse_disabled = true;
            }
            self.shared
                .counters
                .refused_shutdown
                .fetch_add(1, Ordering::Relaxed);
            let body = crate::wire::encode_error("shutting down");
            let bytes = http::encode_response(
                503,
                body.as_bytes(),
                false,
                Some(self.config.retry_after_secs),
            );
            self.finish(token, seq, bytes, true);
            return;
        }

        // An `/spq` that fits in one read chunk is decoded here, once: the
        // bound keeps the reactor's share of a request small.
        let job =
            if matches!(op, Op::Spq | Op::SpqFrame) && request.body.len() <= BUF_RETAIN_WATERMARK {
                let api = &*self.api;
                let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crate::probe_spq(api, op, &request.body)
                }))
                .unwrap_or_else(|_| ControlFlow::Break(ApiResponse::internal_error()));
                match probe {
                    ControlFlow::Continue(query) => Job::Spq(op, query),
                    ControlFlow::Break(response) => {
                        // Only a cache hit is a `200` here.
                        let hit = u64::from(response.status == 200);
                        let hits = &self.shared.counters.inline_hits;
                        hits.fetch_add(hit, Ordering::Relaxed);
                        self.respond(token, seq, &response, keep_alive);
                        return;
                    }
                }
            } else {
                Job::Body(op, request.body)
            };
        self.admit(token, seq, job, keep_alive);
    }

    /// Answers a request on the reactor.
    fn respond(&mut self, token: u64, seq: u64, response: &ApiResponse, keep_alive: bool) {
        self.shared.counters.count_status(response.status);
        self.finish(token, seq, response.encode(keep_alive), !keep_alive);
    }

    /// The backpressure gate: dispatch into a free queue slot, park under
    /// the watermark, shed past it.
    fn admit(&mut self, token: u64, seq: u64, job: Job, keep_alive: bool) {
        if self.shared.inflight.load(Ordering::SeqCst) < self.config.queue_cap {
            self.dispatch(token, seq, job, keep_alive);
        } else {
            self.park_or_shed(token, seq, job, keep_alive);
        }
    }

    /// Claims a queue slot and hands the request to the worker pool.
    /// Callers have checked `inflight < queue_cap`; the reactor thread is
    /// the only incrementer (workers only decrement), so the
    /// check-then-add cannot overshoot the cap.
    fn dispatch(&mut self, token: u64, seq: u64, job: Job, keep_alive: bool) {
        let now_inflight = self.shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        debug_assert!(now_inflight <= self.config.queue_cap);
        self.shared
            .counters
            .max_inflight
            .fetch_max(now_inflight, Ordering::Relaxed);

        let shared = Arc::clone(&self.shared);
        let api = Arc::clone(&self.api);
        let worker_delay = self.config.worker_delay;
        let max_batch = self.config.max_batch_queries;
        self.api.execute(Box::new(move || {
            if let Some(delay) = worker_delay {
                std::thread::sleep(delay);
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::handle_api(&*api, max_batch, job)
            }));
            let response = result.unwrap_or_else(|_| ApiResponse::internal_error());
            shared.counters.count_status(response.status);
            let bytes = response.encode(keep_alive);
            shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Completion {
                    token,
                    seq,
                    bytes,
                    close: !keep_alive,
                });
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.wake();
        }));
    }

    /// Queue-full path: park under the watermark, shed past it.
    fn park_or_shed(&mut self, token: u64, seq: u64, job: Job, keep_alive: bool) {
        if self.parked_count < self.config.shed_watermark {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            debug_assert!(conn.parked.is_none());
            conn.parked = Some((seq, job, keep_alive));
            self.parked.push_back(token);
            self.parked_count += 1;
            // `wants_read` is now false: the reactor stops reading this
            // connection until the parked request gets a slot.
        } else {
            self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            let body = crate::wire::encode_error("overloaded, retry later");
            let bytes = http::encode_response(
                503,
                body.as_bytes(),
                keep_alive,
                Some(self.config.retry_after_secs),
            );
            self.finish(token, seq, bytes, !keep_alive);
        }
    }

    fn respond_error(&mut self, token: u64, seq: u64, status: u16, reason: &str, keep_alive: bool) {
        let response = ApiResponse::json(status, crate::wire::encode_error(reason));
        self.respond(token, seq, &response, keep_alive);
    }

    /// Hands a finished response to the connection's reorder map, stages
    /// whatever became in-order, and queues the connection for the
    /// end-of-iteration corked flush — responses completed in the same
    /// loop iteration (pipelined bursts, completion batches) leave in one
    /// gathered `writev` instead of one syscall each.
    fn finish(&mut self, token: u64, seq: u64, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush {
            // A `connection: close` response already flushed ahead of this
            // seq; nothing may follow it on the wire, and the seq was
            // already settled by `flush_ready`'s fast-forward.
            return;
        }
        conn.pending.insert(seq, (bytes, close));
        Self::flush_ready(conn);
        if !conn.dirty {
            conn.dirty = true;
            self.dirty_tokens.push(token);
        }
    }

    /// Flushes every connection that staged responses this iteration.
    fn flush_dirty(&mut self) {
        for token in std::mem::take(&mut self.dirty_tokens) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // closed since it was staged
            };
            conn.dirty = false;
            self.flush_conn(token);
            self.update_interest(token);
        }
    }

    /// Moves in-order responses from the reorder map into the write
    /// queue.
    fn flush_ready(conn: &mut Conn) {
        while let Some((bytes, close)) = conn.pending.remove(&conn.next_flush) {
            if !bytes.is_empty() {
                conn.write_queue.push_back(bytes);
            }
            conn.next_flush += 1;
            if close {
                conn.close_after_flush = true;
                // Nothing may follow a `connection: close` on the wire:
                // drop responses already completed for later seqs and
                // fast-forward the flush cursor so every promised seq
                // counts as settled — the close/reap paths are gated on
                // `outstanding() == 0` and would otherwise leak the
                // connection forever.
                conn.pending.clear();
                conn.next_flush = conn.next_seq;
                break;
            }
        }
    }

    /// Writes the queued responses with gathered `writev` calls (up to
    /// [`MAX_FLUSH_IOVECS`] per syscall), popping and freeing each
    /// response the moment its last byte is written.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.write_queue.is_empty() {
            let mut slices: Vec<std::io::IoSlice<'_>> =
                Vec::with_capacity(conn.write_queue.len().min(MAX_FLUSH_IOVECS));
            for (i, bytes) in conn.write_queue.iter().take(MAX_FLUSH_IOVECS).enumerate() {
                let rest = if i == 0 {
                    &bytes[conn.write_pos..]
                } else {
                    &bytes[..]
                };
                slices.push(std::io::IoSlice::new(rest));
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => break,
                Ok(mut n) => {
                    conn.last_activity = Instant::now();
                    self.shared
                        .counters
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                    while n > 0 {
                        let front_left = conn.write_queue[0].len() - conn.write_pos;
                        if n >= front_left {
                            conn.write_queue.pop_front();
                            conn.write_pos = 0;
                            n -= front_left;
                        } else {
                            conn.write_pos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if conn.write_drained() && conn.close_after_flush && conn.outstanding() == 0 {
            self.close_conn(token);
        }
    }

    // ------------------------------------------------------ housekeeping

    fn process_completions(&mut self) {
        let completed: Vec<Completion> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for c in completed {
            // The connection may have died while the worker ran; its
            // response is simply dropped.
            self.finish(c.token, c.seq, c.bytes, c.close);
        }
    }

    /// Gives freed queue slots to parked requests, oldest first, and
    /// resumes reading on their connections.
    fn dispatch_parked(&mut self) {
        while self.shared.inflight.load(Ordering::SeqCst) < self.config.queue_cap {
            let Some(token) = self.parked.pop_front() else {
                return;
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                self.parked_count -= 1;
                continue;
            };
            let Some((seq, job, keep_alive)) = conn.parked.take() else {
                self.parked_count -= 1;
                continue;
            };
            self.parked_count -= 1;
            self.dispatch(token, seq, job, keep_alive);
            // The connection can read (and possibly park) again.
            self.advance_conn(token);
            self.update_interest(token);
        }
    }

    /// Periodic sweep: idle timeouts, shutdown draining. Returns `true`
    /// when the reactor should exit.
    fn sweep(&mut self) -> bool {
        let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
        if shutting_down && self.listener.is_some() {
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.delete(listener.as_raw_fd());
            }
            self.accept_paused_until = None;
            self.shutdown_seen = Some(Instant::now());
        }

        let now = Instant::now();
        let idle: Vec<(u64, bool)> = self
            .conns
            .values()
            .filter_map(|c| {
                let drained = c.outstanding() == 0 && c.write_drained() && c.parked.is_none();
                // Exempt from the idle clock only while *we* owe work we
                // can still deliver: a response pending in a worker
                // (`outstanding` with the write side drained) or a parked
                // request waiting for a queue slot. A connection stalled
                // on an unread write backlog is the client's fault — the
                // write path bumps `last_activity` on every successful
                // byte, so no progress for `idle_timeout` means a
                // non-reading peer, and it is reaped like any other idle
                // connection (otherwise non-readers would pin buffers and
                // connection slots forever).
                let waiting_on_us =
                    (c.outstanding() > 0 && c.write_drained()) || c.parked.is_some();
                let idle_timed_out = !waiting_on_us
                    && now.duration_since(c.last_activity) > self.config.idle_timeout;
                // During a drain, a quiesced connection closes immediately.
                if idle_timed_out || (shutting_down && drained) || (c.peer_closed && drained) {
                    Some((c.token, idle_timed_out))
                } else {
                    None
                }
            })
            .collect();
        for (token, timed_out) in idle {
            if timed_out {
                self.shared
                    .counters
                    .reaped_idle
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.close_conn(token);
        }

        if !shutting_down {
            return false;
        }
        let drained = self.conns.is_empty()
            && self.shared.inflight.load(Ordering::SeqCst) == 0
            && self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
        let expired = self
            .shutdown_seen
            .is_some_and(|t| now.duration_since(t) > self.config.drain_timeout);
        drained || expired
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            if conn.parked.is_some() {
                self.parked_count -= 1;
                self.parked.retain(|&t| t != token);
            }
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.shared.counters.active.fetch_sub(1, Ordering::Relaxed);
            // Recycle the read buffer (emptied, capped at the watermark)
            // so the next accepted connection skips the allocation.
            if self.buf_pool.len() < BUF_POOL_MAX {
                conn.buf.clear();
                if conn.buf.capacity() > BUF_RETAIN_WATERMARK {
                    conn.buf.shrink_to(BUF_RETAIN_WATERMARK);
                }
                self.buf_pool.push(conn.buf);
            }
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            readable: wants_read(conn),
            writable: !conn.write_drained(),
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }
}

/// Response bytes a connection may owe before the reactor stops reading
/// from it (write-side backpressure against clients that pipeline
/// requests without consuming responses).
const MAX_RESPONSE_BACKLOG: usize = 256 * 1024;

/// Capacity a drained per-connection read buffer is allowed to keep (one
/// read chunk). Anything past it — grown by a single oversized request —
/// is returned to the allocator instead of being pinned for the
/// connection's lifetime.
const BUF_RETAIN_WATERMARK: usize = 16 * 1024;

/// Recycled read buffers a reactor keeps for future accepts.
const BUF_POOL_MAX: usize = 64;

/// Responses gathered into one `writev` (well under `IOV_MAX`).
const MAX_FLUSH_IOVECS: usize = 64;

/// Whether the reactor should read more bytes from a connection: not
/// while it is closing, parked behind the queue, or owing the peer more
/// response bytes than the backlog cap.
fn wants_read(conn: &Conn) -> bool {
    !conn.close_after_flush
        && !conn.parse_disabled
        && !conn.peer_closed
        && conn.parked.is_none()
        && conn.backlog() < MAX_RESPONSE_BACKLOG
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Payload, Refusal};
    use tthr_core::{TravelTimes, TripQuery};

    fn test_shared() -> (Arc<Shared>, UnixStream) {
        let (wake_rx, wake_tx) = UnixStream::pair().unwrap();
        wake_rx.set_nonblocking(true).unwrap();
        wake_tx.set_nonblocking(true).unwrap();
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            wake_tx,
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            wake_errors: AtomicU64::new(0),
        });
        (shared, wake_rx)
    }

    type PoolJob = Box<dyn FnOnce() + Send>;

    /// A tier whose pool is a queue the test drains by hand, so a test
    /// can drive the reactor's methods directly. An `/spq` on edge 1 is a
    /// cache hit answered `[2]`, one on edge 2 panics the probe, and any
    /// other misses and is answered `[1]` by the pool.
    #[derive(Default)]
    struct Fake {
        queued: Mutex<Vec<PoolJob>>,
    }

    fn times(value: f64) -> TravelTimes {
        TravelTimes {
            values: tthr_core::TtValues::one(value),
            fallback: false,
        }
    }

    impl Api for Fake {
        fn num_edges(&self) -> usize {
            4
        }
        fn cached(&self, query: &Spq) -> Option<TravelTimes> {
            match query.path.first().0 {
                1 => Some(times(2.0)),
                2 => panic!("probe bug"),
                _ => None,
            }
        }
        fn spq(&self, _: &Spq) -> Result<TravelTimes, Refusal> {
            Ok(times(1.0))
        }
        fn trip(&self, _: &Spq) -> Result<TripQuery, Refusal> {
            unreachable!("no trips here")
        }
        fn batch(&self, _: &[Spq]) -> Result<Vec<TripQuery>, Refusal> {
            unreachable!("no batches here")
        }
        fn append(&self, _: Option<u64>, _: &Payload) -> Result<usize, Refusal> {
            unreachable!("no appends here")
        }
        fn execute(&self, job: PoolJob) {
            self.queued.lock().unwrap().push(job);
        }
        fn health(&self) -> String {
            unreachable!("no health here")
        }
        fn metrics(&self, _: &ServerMetrics) -> String {
            unreachable!("no metrics here")
        }
    }

    fn test_reactor() -> (Reactor, Arc<Fake>, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (shared, wake_rx) = test_shared();
        let fake = Arc::new(Fake::default());
        let api: Arc<dyn Api> = fake.clone();
        let reactor =
            Reactor::new(listener, wake_rx, ServerConfig::default(), shared, api).unwrap();
        (reactor, fake, addr)
    }

    /// Accepts the one connection a test just opened (retrying around the
    /// accept/connect race on a non-blocking listener).
    fn accept_one(reactor: &mut Reactor) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.conns.is_empty() {
            reactor.accept_ready();
            assert!(Instant::now() < deadline, "connection never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        *reactor.conns.keys().next().unwrap()
    }

    /// Flooding the wake pipe far past its kernel buffer must coalesce
    /// (`WouldBlock` ⇒ a wake-up is already pending), never error — the
    /// old `let _ = write(..)` silently conflated the two cases.
    #[test]
    fn wake_flood_coalesces_without_errors() {
        let (shared, wake_rx) = test_shared();
        for _ in 0..100_000 {
            shared.wake();
        }
        assert_eq!(shared.wake_errors.load(Ordering::Relaxed), 0);
        // The pipe really did fill: the pending byte(s) are drainable.
        let mut buf = [0u8; 4096];
        let mut drained = 0usize;
        while let Ok(n) = (&wake_rx).read(&mut buf) {
            if n == 0 {
                break;
            }
            drained += n;
        }
        assert!(drained > 0, "a wake byte must be pending after a flood");
    }

    /// A dead reactor side (closed read end) is a *real* wake failure and
    /// must be counted, not swallowed.
    #[test]
    fn wake_after_reactor_death_counts_an_error() {
        let (shared, wake_rx) = test_shared();
        drop(wake_rx);
        shared.wake();
        assert_eq!(shared.wake_errors.load(Ordering::Relaxed), 1);
    }

    /// Regression (PR 8): one oversized request used to leave its full
    /// capacity pinned in `Conn::buf` for the connection's lifetime. The
    /// drained buffer must give the excess back to the allocator.
    #[test]
    fn drained_read_buffer_shrinks_to_the_watermark() {
        let (mut reactor, _fake, addr) = test_reactor();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let body = vec![b'x'; 256 * 1024];
        let mut request = format!(
            "POST /spq HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(&body);
        // Write from a helper thread: the request is far bigger than the
        // socket buffers, so a single-threaded write_all would deadlock
        // against the not-yet-reading reactor.
        let writer = std::thread::spawn(move || {
            client.write_all(&request).unwrap();
            client
        });

        let token = accept_one(&mut reactor);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            reactor.read_conn(token);
            reactor.process_completions();
            reactor.flush_dirty();
            let conn = reactor.conns.get(&token).expect("conn stays open");
            if conn.next_seq == 1 && conn.buf.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "request never fully parsed");
        }
        let conn = reactor.conns.get(&token).unwrap();
        assert!(
            conn.buf.capacity() <= BUF_RETAIN_WATERMARK,
            "drained buffer kept {} bytes of capacity (watermark {})",
            conn.buf.capacity(),
            BUF_RETAIN_WATERMARK
        );
        let _client = writer.join().unwrap();
    }

    /// A cache hit is answered on the reactor — no pool job — yet waits
    /// its turn behind an earlier miss on the same connection; a probe
    /// that panics is answered `500`, as a panicking worker is.
    #[test]
    fn inline_hits_answer_in_pipelining_order() {
        let (mut reactor, fake, addr) = test_reactor();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Edge 0 misses, edge 1 hits, edge 2 panics the probe.
        let burst: String = (0..3)
            .map(|edge| {
                let body = crate::wire::encode_spq(&Spq::new(
                    tthr_network::Path::new(vec![tthr_network::EdgeId(edge)]),
                    tthr_core::TimeInterval::fixed(0, 1),
                ));
                let len = body.len();
                format!("POST /spq HTTP/1.1\r\ncontent-length: {len}\r\n\r\n{body}")
            })
            .collect();
        client.write_all(burst.as_bytes()).unwrap();

        let token = accept_one(&mut reactor);
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.conns[&token].next_seq < 3 {
            reactor.read_conn(token);
            assert!(Instant::now() < deadline, "burst never parsed");
        }
        reactor.flush_dirty();
        let shared = Arc::clone(&reactor.shared);
        let counters = &shared.counters;
        assert_eq!(counters.inline_hits.load(Ordering::Relaxed), 1);
        let jobs = std::mem::take(&mut *fake.queued.lock().unwrap());
        assert_eq!(jobs.len(), 1, "only the miss is pool work");
        assert!(
            reactor.conns[&token].write_queue.is_empty(),
            "nothing may overtake the miss"
        );

        for job in jobs {
            job();
        }
        reactor.process_completions();
        reactor.flush_dirty();
        let mut replies = String::new();
        while replies.matches("HTTP/1.1").count() < 3 || !replies.ends_with('}') {
            let mut chunk = [0u8; 1024];
            let n = client.read(&mut chunk).expect("replies arrive");
            assert!(n > 0, "closed early: {replies}");
            replies.push_str(std::str::from_utf8(&chunk[..n]).unwrap());
        }
        let at = |needle: &str| replies.find(needle).expect(needle);
        let (pool, reactor) = (
            crate::wire::encode_travel_times(&times(1.0)),
            crate::wire::encode_travel_times(&times(2.0)),
        );
        assert!(at(&pool) < at(&reactor), "{replies}");
        assert!(at(&reactor) < at("500"), "{replies}");
        assert_eq!(counters.server_errors.load(Ordering::Relaxed), 1);
    }

    /// Closed connections donate their (emptied, capped) read buffers to
    /// the reactor's pool, and the next accept reuses one.
    #[test]
    fn closed_connection_read_buffers_are_recycled() {
        let (mut reactor, _fake, addr) = test_reactor();
        let _c1 = std::net::TcpStream::connect(addr).unwrap();
        let token = accept_one(&mut reactor);
        // Give the buffer some capacity so reuse is observable.
        reactor
            .conns
            .get_mut(&token)
            .unwrap()
            .buf
            .reserve(BUF_RETAIN_WATERMARK / 2);
        reactor.close_conn(token);
        assert_eq!(reactor.buf_pool.len(), 1);
        let pooled_capacity = reactor.buf_pool[0].capacity();
        assert!(pooled_capacity >= BUF_RETAIN_WATERMARK / 2);

        let _c2 = std::net::TcpStream::connect(addr).unwrap();
        let token2 = accept_one(&mut reactor);
        assert!(reactor.buf_pool.is_empty(), "the pooled buffer was reused");
        assert_eq!(
            reactor.conns.get(&token2).unwrap().buf.capacity(),
            pooled_capacity
        );
    }
}
