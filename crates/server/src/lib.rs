//! # tthr-server — an epoll HTTP/1.1 front-end over the query service
//!
//! The serving layer that turns the in-process
//! [`QueryService`] into a network service, with **zero
//! external dependencies**: no tokio, no hyper — non-blocking
//! accept/IO reactor over raw `epoll` (the private `sys` module — the
//! crate's only unsafe surface), a hand-rolled
//! incremental HTTP/1.1 parser ([`http`]), a small JSON codec ([`json`]),
//! and the wire protocol ([`wire`]). It is the one HTTP front door of
//! both tiers: [`serve`] serves a [`QueryService`] over its `SntIndex`,
//! [`serve_router`] a cluster router,
//! with one request handler and one `/spq` body decoder.
//!
//! One reactor thread owns the listener and every connection; requests
//! run on the tier's worker pool.
//!
//! ```text
//!  clients ══╗   ┌────────────────── reactor thread ──────────────────┐
//!            ╟──►│ accept → per-conn state machine:                   │
//!  keep-alive╢   │   read → incremental parse → route                 │
//!  pipelining╢   │     /health /stats /metrics ─────► inline answer   │
//!            ║   │     /debug/slow                           ▲        │
//!            ║   │     /spq ≤ 16 KiB → decode once → cache ──┘ hit/400│
//!            ║   │       probe └─ miss: the decoded Spq ─┐            │
//!            ╟──►│     /trip /batch /append ─────────────┤            │
//!            ║   │     /spq > 16 KiB, raw body ──────────┤            │
//!            ║   │                                       ▼            │
//!            ║   │        [ bounded in-flight window = queue_cap ]    │
//!            ║   │     full → park conn (stop reading: TCP back-      │
//!            ║   │     pressure); parked ≥ watermark → 503+Retry-After│
//!            ║   └───────────────┬───────────────────▲───────────────-┘
//!            ║                   ▼ execute           │ completions (one per
//!            ║   the tier's worker pool ─────────────┘  busy conn, wake via
//!            ╚═══◄═══ responses, one at a time per conn      socketpair)
//! ```
//!
//! The contract the test battery pins (`tests/equivalence.rs`,
//! `tests/server_backpressure.rs`, `crates/server/tests/http_parser.rs`,
//! `crates/server/tests/json_decoders.rs`):
//!
//! * every endpoint's response body is **byte-identical** to encoding the
//!   in-process [`QueryService`] answer with [`wire`]'s functions;
//! * a JSON body is decoded in one typed pass with no value tree, which
//!   writes its `400` reason too: the reason [`json::parse`] and the
//!   reference decoders give (see [`wire`]);
//! * the worker pool never holds more than
//!   [`ServerConfig::queue_cap`] requests in flight; overload answers are
//!   `503` with `Retry-After`; keep-alive connections survive
//!   served-then-idle cycles;
//! * pipelined requests are answered in order, one at a time: a
//!   connection parses its next request only once the previous response
//!   is written, so each sees its predecessors' effects (an `/spq`
//!   behind an `/append` sees the append);
//! * a cached `/spq` is answered by the reactor even while the in-flight
//!   window is full; the reactor never takes the index lock
//!   ([`QueryService::cached_travel_times`]);
//! * graceful [`ServerHandle::shutdown`] drains in-flight requests,
//!   refuses new ones, and never tears a response mid-byte;
//! * malformed input never panics the reactor: it maps to `400`/`413`/
//!   `431` or a clean close.
//!
//! [`QueryService`]: tthr_service::QueryService
//! [`QueryService::cached_travel_times`]: tthr_service::QueryService::cached_travel_times
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tthr_core::{SntConfig, SntIndex};
//! use tthr_network::examples::example_network;
//! use tthr_server::{serve, ServerConfig};
//! use tthr_service::{QueryService, ServiceConfig};
//! use tthr_trajectory::examples::example_trajectories;
//!
//! let network = Arc::new(example_network());
//! let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
//! let service = QueryService::new(index, network, ServiceConfig::default());
//! let handle = serve(service, "127.0.0.1:7878", ServerConfig::default())?;
//! println!("listening on http://{}", handle.local_addr());
//! // …
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)] // narrowly re-allowed in `sys` for the epoll FFI
#![warn(missing_docs)]

pub mod cluster;
pub mod http;
pub mod json;
pub mod node;
mod reactor;
pub mod standby;
mod sys;
pub mod wire;

use reactor::{ApiResponse, Counters, Job, Reactor, Shared};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::ops::ControlFlow;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tthr_client::ClusterRouter;
use tthr_core::{Spq, TravelTimes, TripQuery};
use tthr_rpc::{decode_frame, encode_frame, Decode, ErrCode, Message};
use tthr_service::QueryService;
use tthr_store::StoreError;
use tthr_trajectory::{TrajEntry, UserId};

/// A refused request: its HTTP status and error reason.
pub(crate) type Refusal = (u16, String);

/// An `/append` payload: new trajectories, no ids yet.
pub(crate) type Payload = [(UserId, Vec<TrajEntry>)];

/// What a tier provides to be served over HTTP: the reactor,
/// [`handle_api`] and [`probe_spq`] see a tier only through it.
pub(crate) trait Api: Send + Sync + 'static {
    /// Edges of the served network; a query naming another is a `400`.
    fn num_edges(&self) -> usize;
    /// A result-cache hit, found without the index lock or the pool.
    fn cached(&self, query: &Spq) -> Option<TravelTimes>;
    /// `/spq`.
    fn spq(&self, query: &Spq) -> Result<TravelTimes, Refusal>;
    /// `/trip`.
    fn trip(&self, query: &Spq) -> Result<TripQuery, Refusal>;
    /// `/batch`: every trip in input order, or one refusal.
    fn batch(&self, queries: &[Spq]) -> Result<Vec<TripQuery>, Refusal>;
    /// `/append`: how many trajectories were appended.
    fn append(&self, base: Option<u64>, payload: &Payload) -> Result<usize, Refusal>;
    /// Runs a job on the tier's worker pool.
    fn execute(&self, job: Box<dyn FnOnce() + Send>);
    /// The `/health` body; runs on the reactor, so it must not block.
    fn health(&self) -> String;
    /// The `/metrics` exposition, reactor counters mirrored in.
    fn metrics(&self, server: &ServerMetrics) -> String;
    /// The `/stats` body; `None` is a `404`.
    fn stats(&self, _: &ServerMetrics) -> Option<String> {
        None
    }
    /// The `/debug/slow` body; `None` is a `404`.
    fn slow(&self) -> Option<String> {
        None
    }
}

/// The single-process tier: every operation forwards to the service.
impl Api for QueryService {
    fn num_edges(&self) -> usize {
        self.network().num_edges()
    }

    fn cached(&self, query: &Spq) -> Option<TravelTimes> {
        self.cached_travel_times(query)
    }

    fn spq(&self, query: &Spq) -> Result<TravelTimes, Refusal> {
        Ok(self.get_travel_times(query))
    }

    fn trip(&self, query: &Spq) -> Result<TripQuery, Refusal> {
        Ok(self.trip_query(query))
    }

    fn batch(&self, queries: &[Spq]) -> Result<Vec<TripQuery>, Refusal> {
        Ok(self.batch_trip_queries(queries))
    }

    fn append(&self, base: Option<u64>, payload: &Payload) -> Result<usize, Refusal> {
        self.append_new(base, payload).map_err(|e| match e {
            StoreError::WalGap { .. } => (409, e.to_string()),
            StoreError::Corrupt { .. } => (400, e.to_string()),
            _ => (500, e.to_string()),
        })
    }

    fn execute(&self, job: Box<dyn FnOnce() + Send>) {
        QueryService::execute(self, job);
    }

    fn health(&self) -> String {
        wire::encode_health(&self.ingest_status())
    }

    fn metrics(&self, server: &ServerMetrics) -> String {
        mirror_server_metrics(self.metrics_registry(), server);
        self.render_metrics()
    }

    fn stats(&self, server: &ServerMetrics) -> Option<String> {
        // One pass over the recorder stripes yields both the summaries
        // and the raw bucket exports.
        let (stats, histograms) = self.stats_with_histograms();
        Some(wire::encode_stats(&stats, &histograms, server))
    }

    fn slow(&self) -> Option<String> {
        let (top, sampled) = (self.slow_queries(), self.sampled_queries());
        Some(wire::encode_slow(&top, &sampled))
    }
}

/// The API operations that go through the bounded queue (the inline
/// `/health`, `/stats`, `/metrics`, and `/debug/slow` endpoints bypass
/// it: they are the liveness/observability signal and must answer even
/// under full load; so does an `/spq` the result cache answers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Spq,
    /// `/spq` with the `tthr-rpc` frame content type: the body decodes
    /// into an [`tthr_core::Spq`] from the frame, and the answer is a
    /// `TravelTimesResult` frame.
    SpqFrame,
    Trip,
    Batch,
    Append,
}

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The server runs exactly one reactor (accept/IO) thread: `0` and
    /// `1` both mean that, and [`serve`] / [`serve_router`] refuse a
    /// larger value with [`io::ErrorKind::InvalidInput`]. The field is
    /// kept only for struct literals that still name it.
    pub reactors: usize,
    /// The backpressure boundary: maximum requests dispatched to the
    /// worker pool and not yet answered. When the window is full the
    /// reactor stops reading (TCP backpressure); see
    /// [`ServerConfig::shed_watermark`].
    pub queue_cap: usize,
    /// Maximum *parked* requests (parsed, waiting for a queue slot with
    /// their connections paused) before further requests are shed with
    /// `503` + `Retry-After`.
    pub shed_watermark: usize,
    /// Maximum simultaneous connections; beyond it, accepts are dropped.
    pub max_connections: usize,
    /// Request line + header size limit (`431` beyond it).
    pub max_head_bytes: usize,
    /// Request body size limit (`413` beyond it).
    pub max_body_bytes: usize,
    /// Maximum queries in one `/batch` request (`400` beyond it).
    pub max_batch_queries: usize,
    /// Connections making no progress for this long are closed — the
    /// slow-loris / non-reading-client guard. A connection is exempt
    /// only while the server itself owes it work it can still deliver (a
    /// response pending in a worker, or a request parked for a queue
    /// slot); a response the client leaves unread does **not** exempt it.
    pub idle_timeout: Duration,
    /// How long a graceful shutdown waits for in-flight work to drain
    /// before closing whatever remains.
    pub drain_timeout: Duration,
    /// `Retry-After` seconds on `503` shed/refusal responses.
    pub retry_after_secs: u32,
    /// Test/bench instrumentation: sleep this long in the worker before
    /// handling each queued request (simulates a slow backend so the
    /// backpressure tests can fill the queue deterministically).
    pub worker_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            reactors: 0,
            queue_cap: 128,
            shed_watermark: 256,
            max_connections: 1024,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1 << 20,
            max_batch_queries: 1024,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            worker_delay: None,
        }
    }
}

/// A snapshot of the server-side counters (also shipped in `/stats` under
/// `"server"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Complete requests parsed (all endpoints).
    pub requests: u64,
    /// 2xx responses.
    pub responses_ok: u64,
    /// `503` overload sheds (`Retry-After` attached).
    pub shed: u64,
    /// 4xx responses (malformed requests, unknown endpoints, bad bodies).
    pub client_errors: u64,
    /// 5xx responses (handler panics surface as `500`).
    pub server_errors: u64,
    /// Requests refused with `503` because a graceful shutdown was in
    /// progress.
    pub refused_shutdown: u64,
    /// High-water mark of simultaneously in-flight (dispatched) requests
    /// — never exceeds [`ServerConfig::queue_cap`].
    pub max_inflight: usize,
    /// Request bytes read off sockets.
    pub bytes_in: u64,
    /// Response bytes written to sockets.
    pub bytes_out: u64,
    /// Connections reaped by the idle timeout (slow-loris / non-reading
    /// clients). Graceful closes — drained peers, shutdown drains — are
    /// not counted here.
    pub reaped_idle: u64,
    /// `/spq` requests answered from the result cache on the reactor
    /// thread, without the worker pool. Exported on `/metrics` as
    /// `tthr_server_inline_hits_total`; the `/stats` body leaves it out.
    pub inline_hits: u64,
}

/// A running server: its reactor thread and the state it shares.
///
/// Dropping the handle shuts the server down gracefully (equivalent to
/// [`ServerHandle::shutdown`] with the result discarded).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting, refuse new requests (`503` +
    /// `connection: close`), drain dispatched and parked requests, flush
    /// every owed response byte, then join the reactor. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServerMetrics {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Boots the HTTP front-end over a query service on `addr` (use port 0
/// for an ephemeral port; [`ServerHandle::local_addr`] reports the
/// binding). The service's **existing** worker pool executes the
/// requests; the reactor itself never blocks on query work.
pub fn serve(
    service: QueryService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_api(Arc::new(service), bind(addr, &config)?, config)
}

/// Boots [`serve`]'s front-end over a cluster router (see [`cluster`];
/// [`cluster::router_config`] is its configuration).
pub fn serve_router(
    router: impl Into<Arc<ClusterRouter>>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let api = Arc::new(cluster::RouterApi::new(router.into()));
    serve_api(api, bind(addr, &config)?, config)
}

/// Binds `addr` for a server with `config`, refusing a config that asks
/// for more than one reactor.
fn bind(addr: impl ToSocketAddrs, config: &ServerConfig) -> io::Result<TcpListener> {
    if config.reactors > 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "ServerConfig::reactors = {}: the server runs one reactor",
                config.reactors
            ),
        ));
    }
    TcpListener::bind(addr)
}

/// Starts the reactor thread serving `api` on `listener`.
fn serve_api(
    api: Arc<dyn Api>,
    listener: TcpListener,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        completions: Mutex::new(Vec::new()),
        wake_tx,
        inflight: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        wake_errors: AtomicU64::new(0),
    });
    let reactor = Reactor::new(listener, wake_rx, config, Arc::clone(&shared), api)?;
    let reactor = std::thread::Builder::new()
        .name("tthr-reactor".into())
        .spawn(move || {
            if let Err(e) = reactor.run() {
                eprintln!("tthr-server reactor failed: {e}");
            }
        })?;
    Ok(ServerHandle {
        addr,
        shared,
        reactor: Some(reactor),
    })
}

/// Mirrors the reactor's own counters into the service registry so one
/// `/metrics` scrape covers the whole stack. The reactor atomics stay
/// authoritative; the registry series are set (not incremented) from the
/// snapshot at scrape time, the same pattern the service uses for its
/// cache and shard counters.
fn mirror_server_metrics(registry: &tthr_metrics::MetricsRegistry, server: &ServerMetrics) {
    let counter = |name, help, value: u64| {
        registry.counter(name, help, &[]).set(value);
    };
    let gauge = |name, help, value: u64| {
        registry
            .gauge(name, help, &[])
            .set(i64::try_from(value).unwrap_or(i64::MAX));
    };
    counter(
        "tthr_server_connections_accepted_total",
        "TCP connections accepted by the reactor",
        server.accepted,
    );
    gauge(
        "tthr_server_connections_active",
        "TCP connections currently open",
        server.active_connections,
    );
    counter(
        "tthr_server_requests_total",
        "Complete HTTP requests parsed (all endpoints)",
        server.requests,
    );
    counter(
        "tthr_server_responses_ok_total",
        "2xx HTTP responses",
        server.responses_ok,
    );
    counter(
        "tthr_server_shed_total",
        "Requests shed with 503 past the backpressure watermark",
        server.shed,
    );
    counter(
        "tthr_server_client_errors_total",
        "4xx HTTP responses",
        server.client_errors,
    );
    counter(
        "tthr_server_server_errors_total",
        "5xx HTTP responses",
        server.server_errors,
    );
    counter(
        "tthr_server_refused_shutdown_total",
        "Requests refused with 503 during graceful shutdown",
        server.refused_shutdown,
    );
    gauge(
        "tthr_server_inflight_high_water",
        "High-water mark of simultaneously dispatched requests",
        server.max_inflight as u64,
    );
    counter(
        "tthr_server_bytes_read_total",
        "Request bytes read off sockets",
        server.bytes_in,
    );
    counter(
        "tthr_server_bytes_written_total",
        "Response bytes written to sockets",
        server.bytes_out,
    );
    counter(
        "tthr_server_connections_reaped_total",
        "Connections closed by the idle timeout",
        server.reaped_idle,
    );
    counter(
        "tthr_server_inline_hits_total",
        "/spq requests answered from the result cache on the reactor",
        server.inline_hits,
    );
}

/// The reactor's half of `/spq`: decode the body once, answer a cache hit
/// (`200`) or a malformed body (`400`) on the spot, and hand a miss's
/// decoded query on to the pool.
fn probe_spq(api: &dyn Api, op: Op, body: &[u8]) -> ControlFlow<ApiResponse, Spq> {
    let query = match decode_spq_body(op, body, api.num_edges()) {
        Ok(query) => query,
        Err(rejected) => return ControlFlow::Break(rejected),
    };
    match api.cached(&query) {
        Some(hit) => ControlFlow::Break(encode_spq_answer(op, Ok(hit))),
        None => ControlFlow::Continue(query),
    }
}

/// Executes and encodes one API request, decoding its body first unless
/// the reactor already did (worker side).
fn handle_api(api: &dyn Api, max_batch: usize, job: Job) -> ApiResponse {
    let num_edges = api.num_edges();
    let (op, body) = match job {
        Job::Spq(op, query) => return encode_spq_answer(op, api.spq(&query)),
        Job::Body(op @ (Op::Spq | Op::SpqFrame), body) => {
            return match decode_spq_body(op, &body, num_edges) {
                Ok(query) => encode_spq_answer(op, api.spq(&query)),
                Err(rejected) => rejected,
            };
        }
        Job::Body(op, body) => (op, body),
    };
    let bad = |e: wire::WireError| (400, e);
    let answer = match op {
        Op::Spq | Op::SpqFrame => unreachable!("answered above"),
        Op::Trip => wire::read_spq(&body, num_edges)
            .map_err(bad)
            .and_then(|query| api.trip(&query))
            .map(|trip| wire::encode_trip(&trip)),
        Op::Batch => wire::read_batch(&body, num_edges, max_batch)
            .map_err(bad)
            .and_then(|queries| api.batch(&queries))
            .map(|trips| wire::encode_trips(&trips)),
        Op::Append => wire::read_append(&body)
            .map_err(bad)
            .and_then(|(base, payload)| api.append(base, &payload))
            .map(wire::encode_appended),
    };
    match answer {
        Ok(body) => ApiResponse::json(200, body),
        Err((status, reason)) => ApiResponse::json(status, wire::encode_error(&reason)),
    }
}

/// Decodes an `/spq` body of either content type — a JSON SPQ (read by
/// [`wire::read_spq`]), or one `tthr-rpc` `TravelTimes` frame — into a query
/// whose every edge names an edge of the served network. A body that does
/// not is answered `400` in its own content type.
fn decode_spq_body(op: Op, body: &[u8], num_edges: usize) -> Result<Spq, ApiResponse> {
    if op == Op::Spq {
        return wire::read_spq(body, num_edges)
            .map_err(|e| ApiResponse::json(400, wire::encode_error(&e)));
    }
    let reject = |reason: &str| {
        ApiResponse::frame(
            400,
            encode_frame(&Message::error(ErrCode::BadRequest, reason)),
        )
    };
    let message = match decode_frame(body) {
        Ok(Decode::Done { message, consumed }) if consumed == body.len() => message,
        Ok(Decode::Done { .. }) => return Err(reject("trailing bytes after frame")),
        Ok(Decode::Incomplete) => return Err(reject("truncated frame")),
        Err(e) => return Err(reject(&e.to_string())),
    };
    let Message::TravelTimes(query) = message else {
        return Err(reject("expected a TravelTimes frame"));
    };
    query
        .check_edges(num_edges)
        .map_err(|e| reject(&e.to_string()))?;
    Ok(query)
}

/// Test support: the status and body [`serve`]'s workers answer a JSON
/// `POST` of `body` to `target` (`/spq`, `/trip`, `/batch` or `/append`)
/// with, computed without a socket; `None` for another target.
#[doc(hidden)]
pub fn answer_json(service: &QueryService, target: &str, body: &[u8]) -> Option<(u16, Vec<u8>)> {
    let op = match target {
        "/spq" => Op::Spq,
        "/trip" => Op::Trip,
        "/batch" => Op::Batch,
        "/append" => Op::Append,
        _ => return None,
    };
    let max_batch = ServerConfig::default().max_batch_queries;
    let response = handle_api(service, max_batch, Job::Body(op, body.to_vec()));
    Some((response.status, response.body))
}

/// Encodes an `/spq` answer in the request's content type: JSON, or a
/// `TravelTimesResult` frame carrying the bit-exact f64 multiset the JSON
/// path would have serialized. A refusal keeps its status; a frame
/// request gets it as an `Err` frame.
fn encode_spq_answer(op: Op, answer: Result<TravelTimes, Refusal>) -> ApiResponse {
    match (op, answer) {
        (Op::Spq, Ok(tt)) => ApiResponse::json(200, wire::encode_travel_times(&tt)),
        (_, Ok(tt)) => ApiResponse::frame(
            200,
            encode_frame(&Message::TravelTimesResult {
                values: tt.values.into_vec(),
                fallback: tt.fallback,
            }),
        ),
        (Op::Spq, Err((status, reason))) => ApiResponse::json(status, wire::encode_error(&reason)),
        (_, Err((status, reason))) => {
            let code = if status < 500 {
                ErrCode::BadRequest
            } else {
                ErrCode::Internal
            };
            ApiResponse::frame(status, encode_frame(&Message::error(code, reason)))
        }
    }
}

// The handle must be shareable across test/driver threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<ServerConfig>();
    assert_send_sync::<ServerMetrics>();
};
