//! # tthr-server — an epoll HTTP/1.1 front-end over the query service
//!
//! The serving layer that turns the in-process
//! [`QueryService`] into a network service, with **zero
//! external dependencies**: no tokio, no hyper — non-blocking
//! accept/IO reactors over raw `epoll` (the private `sys` module — the
//! crate's only unsafe surface), a hand-rolled
//! incremental HTTP/1.1 parser ([`http`]), a small JSON codec ([`json`]),
//! and the wire protocol ([`wire`]). It serves both service backends —
//! the monolithic `SntIndex` and the partitioned `ShardedSntIndex` —
//! through the same generic [`serve`] entry point.
//!
//! One reactor thread runs by default; [`ServerConfig::reactors`] (or
//! `TTHR_REACTORS`) starts N of them, each owning its own
//! `SO_REUSEPORT` listener on the same address, its own epoll loop, and
//! its own bounded in-flight window — the kernel shards accepts across
//! them and the threads share nothing but the counters.
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
//!            ║                   ▼ execute           │ completions (reordered
//!            ║        QueryService worker pool ──────┘  per-conn by seq, wake
//!            ╚═══◄═══ responses over per-conn write buffers  via socketpair)
//! ```
//!
//! The contract the test battery pins (`tests/server_equivalence.rs`,
//! `tests/server_backpressure.rs`, `crates/server/tests/http_parser.rs`):
//!
//! * every endpoint's response body is **byte-identical** to encoding the
//!   in-process [`QueryService`] answer with [`wire`]'s functions;
//! * the worker pool never holds more than
//!   [`ServerConfig::queue_cap`] requests in flight; overload answers are
//!   `503` with `Retry-After`; keep-alive connections survive
//!   served-then-idle cycles;
//! * a cached `/spq` is answered by the reactor, in pipelining order,
//!   even while the in-flight window is full; the reactor never takes the
//!   index lock ([`QueryService::cached_travel_times`]);
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

use reactor::{ApiResponse, Counters, Handlers, Job, Reactor, Shared, SpqProbe};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tthr_core::{Spq, TravelTimes};
use tthr_rpc::{decode_frame, encode_frame, Decode, ErrCode, Message};
use tthr_service::{QueryService, ServiceBackend};
use tthr_store::StoreError;

/// The API operations that go through the bounded queue (the inline
/// `/health`, `/stats`, `/metrics`, and `/debug/slow` endpoints bypass
/// it: they are the liveness/observability signal and must answer even
/// under full load; so does an `/spq` the result cache answers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Spq,
    /// `/spq` with the `tthr-rpc` frame content type: the body decodes
    /// straight into an [`tthr_core::Spq`] without a JSON value tree, and
    /// the answer is a `TravelTimesResult` frame.
    SpqFrame,
    Trip,
    Batch,
    Append,
}

/// Server construction options.
///
/// With [`ServerConfig::reactors`] `> 1` the bounded-queue knobs
/// (`queue_cap`, `shed_watermark`, `max_connections`) apply **per
/// reactor** — each reactor thread owns its own connections, in-flight
/// window, and parked set.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Reactor (accept/IO) threads. Each binds its own `SO_REUSEPORT`
    /// listener on the same address and runs its own epoll loop; the
    /// kernel spreads incoming connections across them. `0` means
    /// auto: the `TTHR_REACTORS` environment variable if set to a
    /// positive integer, else `1`. Clamped to 64.
    pub reactors: usize,
    /// The backpressure boundary: maximum requests dispatched to the
    /// worker pool and not yet answered (per reactor). When the window is
    /// full the reactor stops reading (TCP backpressure); see
    /// [`ServerConfig::shed_watermark`].
    pub queue_cap: usize,
    /// Maximum *parked* requests (parsed, waiting for a queue slot with
    /// their connections paused) before further requests are shed with
    /// `503` + `Retry-After` (per reactor).
    pub shed_watermark: usize,
    /// Maximum simultaneous connections (per reactor); beyond it,
    /// accepts are dropped.
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
    /// slot); an unread write backlog does **not** exempt it.
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
    /// on any single reactor — never exceeds [`ServerConfig::queue_cap`].
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

/// A running server: one or more reactor threads plus their shared
/// state.
///
/// Dropping the handle shuts the server down gracefully (equivalent to
/// [`ServerHandle::shutdown`] with the result discarded).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    reactors: Vec<Arc<Shared>>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0; with
    /// multiple reactors every listener shares it via `SO_REUSEPORT`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters (aggregated across reactors).
    pub fn metrics(&self) -> ServerMetrics {
        self.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting, refuse new requests (`503` +
    /// `connection: close`), drain dispatched and parked requests, flush
    /// every owed response byte, then join every reactor. Returns the
    /// final counters.
    pub fn shutdown(mut self) -> ServerMetrics {
        self.initiate_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.counters.snapshot()
    }

    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for reactor in &self.reactors {
            reactor.wake();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.initiate_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Resolves [`ServerConfig::reactors`]: explicit wins, then the
/// `TTHR_REACTORS` environment variable, then one.
fn resolve_reactors(config: &ServerConfig) -> usize {
    let n = if config.reactors > 0 {
        config.reactors
    } else {
        std::env::var("TTHR_REACTORS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    };
    n.min(64)
}

/// Boots the HTTP front-end over a query service on `addr` (use port 0
/// for an ephemeral port; [`ServerHandle::local_addr`] reports the
/// binding). The service's **existing** worker pool executes the
/// requests; the reactors themselves never block on query work.
///
/// With [`ServerConfig::reactors`] `> 1`, that many accept/IO threads
/// start, each with its own `SO_REUSEPORT` listener on the same address
/// and its own epoll loop — the kernel spreads connections across them
/// and no accept lock or cross-reactor handoff exists anywhere.
pub fn serve<B: ServiceBackend>(
    service: QueryService<B>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let num_reactors = resolve_reactors(&config);
    let mut listeners = None;
    let mut last_err = None;
    for candidate in addr.to_socket_addrs()? {
        match sys::listener_group(candidate, num_reactors) {
            Ok(group) => {
                listeners = Some(group);
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let listeners = listeners.ok_or_else(|| {
        last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })
    })?;
    let addr = listeners[0].local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());

    let num_edges = service.network().num_edges();
    let max_batch = config.max_batch_queries;
    let api_service = service.clone();
    let spq_service = service.clone();
    let health_service = service.clone();
    let stats_service = service.clone();
    let metrics_service = service.clone();
    let slow_service = service.clone();
    let exec_service = service;
    let handlers = Handlers {
        api: Arc::new(move |job| handle_api(&api_service, num_edges, max_batch, job)),
        spq: Arc::new(move |op, body| probe_spq(&spq_service, num_edges, op, body)),
        health: Arc::new(move || wire::encode_health(&health_service.ingest_status())),
        stats: Arc::new(move |server| {
            // One pass over the recorder stripes yields both the
            // summaries and the raw bucket exports.
            let (stats, histograms) = stats_service.stats_with_histograms();
            wire::encode_stats(&stats, &histograms, &server)
        }),
        metrics: Arc::new(move |server| {
            mirror_server_metrics(metrics_service.metrics_registry(), &server);
            metrics_service.render_metrics()
        }),
        slow: Arc::new(move || {
            wire::encode_slow(
                &slow_service.slow_queries(),
                &slow_service.sampled_queries(),
            )
        }),
        exec: Arc::new(move |job| exec_service.execute(job)),
    };

    let mut reactors = Vec::with_capacity(num_reactors);
    let mut threads = Vec::with_capacity(num_reactors);
    for (i, listener) in listeners.into_iter().enumerate() {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            wake_tx,
            inflight: AtomicUsize::new(0),
            shutdown: Arc::clone(&shutdown),
            counters: Arc::clone(&counters),
            wake_errors: AtomicU64::new(0),
        });
        let reactor = Reactor::new(
            listener,
            wake_rx,
            config.clone(),
            Arc::clone(&shared),
            handlers.clone(),
        )?;
        let thread = std::thread::Builder::new()
            .name(format!("tthr-reactor-{i}"))
            .spawn(move || {
                if let Err(e) = reactor.run() {
                    eprintln!("tthr-server reactor failed: {e}");
                }
            })?;
        reactors.push(shared);
        threads.push(thread);
    }
    Ok(ServerHandle {
        addr,
        shutdown,
        counters,
        reactors,
        threads,
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
/// or a malformed body on the spot, and hand a miss's decoded query to the
/// pool.
fn probe_spq<B: ServiceBackend>(
    service: &QueryService<B>,
    num_edges: usize,
    op: Op,
    body: &[u8],
) -> SpqProbe {
    let query = match decode_spq_body(op, body, num_edges) {
        Ok(query) => query,
        Err(rejected) => return SpqProbe::Rejected(rejected),
    };
    match service.cached_travel_times(&query) {
        Some(hit) => SpqProbe::Hit(encode_spq_answer(op, hit)),
        None => SpqProbe::Miss(query),
    }
}

/// Executes and encodes one API request, decoding its body first unless
/// the reactor already did (worker side).
fn handle_api<B: ServiceBackend>(
    service: &QueryService<B>,
    num_edges: usize,
    max_batch: usize,
    job: Job,
) -> ApiResponse {
    let (op, body) = match job {
        Job::Spq(op, query) => return encode_spq_answer(op, service.get_travel_times(&query)),
        Job::Body(op @ (Op::Spq | Op::SpqFrame), body) => {
            return match decode_spq_body(op, &body, num_edges) {
                Ok(query) => encode_spq_answer(op, service.get_travel_times(&query)),
                Err(rejected) => rejected,
            };
        }
        Job::Body(op, body) => (op, body),
    };
    let parsed = match json::parse(&body) {
        Ok(v) => v,
        Err(e) => return ApiResponse::json(400, wire::encode_error(&e.to_string())),
    };
    let (status, body) = match op {
        Op::Spq | Op::SpqFrame => unreachable!("answered above"),
        Op::Trip => match wire::decode_spq(&parsed, num_edges) {
            Ok(q) => (200, wire::encode_trip(&service.trip_query(&q))),
            Err(e) => (400, wire::encode_error(&e)),
        },
        Op::Batch => match wire::decode_batch(&parsed, num_edges, max_batch) {
            Ok(queries) => (
                200,
                wire::encode_trips(&service.batch_trip_queries(&queries)),
            ),
            Err(e) => (400, wire::encode_error(&e)),
        },
        Op::Append => match wire::decode_append(&parsed) {
            Ok((base, payload)) => match service.append_new(base, &payload) {
                Ok(appended) => (200, wire::encode_appended(appended)),
                Err(e @ StoreError::WalGap { .. }) => (409, wire::encode_error(&e.to_string())),
                Err(e @ StoreError::Corrupt { .. }) => (400, wire::encode_error(&e.to_string())),
                Err(e) => (500, wire::encode_error(&e.to_string())),
            },
            Err(e) => (400, wire::encode_error(&e)),
        },
    };
    ApiResponse::json(status, body)
}

/// Decodes an `/spq` body of either content type — a JSON SPQ, or one
/// `tthr-rpc` `TravelTimes` frame decoded without a JSON value tree —
/// into a query whose every edge names an edge of the served network. A
/// body that does not is answered `400` in its own content type.
fn decode_spq_body(op: Op, body: &[u8], num_edges: usize) -> Result<Spq, ApiResponse> {
    if op == Op::Spq {
        let parsed = json::parse(body)
            .map_err(|e| ApiResponse::json(400, wire::encode_error(&e.to_string())))?;
        return wire::decode_spq(&parsed, num_edges)
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

/// Encodes an `/spq` answer in the request's content type: JSON, or a
/// `TravelTimesResult` frame carrying the bit-exact f64 multiset the JSON
/// path would have serialized.
fn encode_spq_answer(op: Op, tt: TravelTimes) -> ApiResponse {
    if op == Op::Spq {
        return ApiResponse::json(200, wire::encode_travel_times(&tt));
    }
    ApiResponse::frame(
        200,
        encode_frame(&Message::TravelTimesResult {
            values: tt.values.into_vec(),
            fallback: tt.fallback,
        }),
    )
}

// The handle must be shareable across test/driver threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<ServerConfig>();
    assert_send_sync::<ServerMetrics>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Explicit config beats the environment, the environment beats the
    /// default of one, and both are clamped to 64.
    #[test]
    fn reactor_count_resolution_order() {
        let explicit = |n| ServerConfig {
            reactors: n,
            ..ServerConfig::default()
        };
        // This is the only test touching TTHR_REACTORS, so the process
        // env is safe to mutate here.
        std::env::remove_var("TTHR_REACTORS");
        assert_eq!(resolve_reactors(&explicit(0)), 1);
        assert_eq!(resolve_reactors(&explicit(3)), 3);
        assert_eq!(resolve_reactors(&explicit(1000)), 64);

        std::env::set_var("TTHR_REACTORS", " 5 ");
        assert_eq!(resolve_reactors(&explicit(0)), 5);
        assert_eq!(resolve_reactors(&explicit(2)), 2, "explicit wins");
        std::env::set_var("TTHR_REACTORS", "0");
        assert_eq!(resolve_reactors(&explicit(0)), 1, "zero is not a count");
        std::env::set_var("TTHR_REACTORS", "not a number");
        assert_eq!(resolve_reactors(&explicit(0)), 1);
        std::env::remove_var("TTHR_REACTORS");
    }
}
